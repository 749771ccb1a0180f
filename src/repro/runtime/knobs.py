"""The knob registry: every ``REPRO_*`` environment variable, parsed once.

Each row of :data:`KNOBS` names one variable, its kind and its default;
:func:`get` re-reads ``os.environ`` on every call (so a test's
``monkeypatch.setenv`` takes effect immediately) and parses the value by
kind:

* ``bool`` — ``1/on/true/yes`` or ``0/off/false/no`` (any case);
* ``switch`` — the same spellings, but unset is ``None`` so a CLI flag
  can decide (see :func:`switch`);
* ``int`` — an integer no smaller than the row's ``lower`` bound;
* ``float`` — a number;
* ``enum`` — one of the row's ``choices``; the bool spellings also
  name ``on``/``off`` when those are choices;
* ``path`` — any string, taken as is.

An empty value counts as unset. Anything else raises :class:`KnobError`
naming the variable, the value and what was expected — a typo never
silently falls back to the default.
"""

from __future__ import annotations

import os
from typing import Any, Dict, NamedTuple, Optional, Tuple

#: Bool spellings shared by every ``bool``/``switch``/``enum`` knob.
_SPELLINGS = {**dict.fromkeys(("1", "on", "true", "yes"), "on"),
              **dict.fromkeys(("0", "off", "false", "no"), "off")}


class KnobError(ValueError):
    """A ``REPRO_*`` variable holds a value its knob cannot parse."""


class Knob(NamedTuple):
    """One environment knob: name, kind, default and kind-specific limits."""

    name: str
    kind: str                       # bool|switch|int|float|enum|path
    default: Any
    lower: Optional[int] = None     # int: smallest accepted value
    choices: Tuple[str, ...] = ()   # enum: accepted values


#: Every knob the package reads, in README Configuration-table order.
KNOBS: Dict[str, Knob] = {knob.name: knob for knob in (
    Knob("REPRO_SEED", "int", 12345),
    Knob("REPRO_JOBS", "int", 1, lower=1),
    Knob("REPRO_CACHE", "bool", True),
    Knob("REPRO_CACHE_DIR", "path", ".repro_cache"),
    Knob("REPRO_VERIFY", "bool", True),
    Knob("REPRO_DEPS", "enum", "on", choices=("off", "on", "strict")),
    Knob("REPRO_TELEMETRY", "bool", False),
    Knob("REPRO_AUTOTUNE", "bool", False),
    Knob("REPRO_AUTOTUNE_BUDGET", "int", 16, lower=1),
    Knob("REPRO_LLM_KV_BUDGET", "int", 1024, lower=1),
    Knob("REPRO_LLM_MAX_SLOTS", "int", 8, lower=1),
    Knob("REPRO_MONITOR", "switch", None),
    Knob("REPRO_MONITOR_INTERVAL", "float", 0.1),
    Knob("REPRO_MONITOR_WINDOW", "int", 10, lower=1),
    Knob("REPRO_MONITOR_SLO_TARGET", "float", 0.999),
    Knob("REPRO_AUTOSCALE", "switch", None),
    Knob("REPRO_AUTOSCALE_INTERVAL", "float", 0.25),
    Knob("REPRO_AUTOSCALE_MIN_CELLS", "int", 1, lower=1),
    Knob("REPRO_AUTOSCALE_MAX_CELLS", "int", 0, lower=0),
    Knob("REPRO_AUTOSCALE_COOLDOWN", "float", 1.0),
    Knob("REPRO_AUTOSCALE_QUEUE_HIGH", "float", 4.0),
    Knob("REPRO_AUTOSCALE_QUEUE_LOW", "float", 0.5),
    Knob("REPRO_AUTOSCALE_PRICE", "float", 2.5),
)}


def parse(name: str, raw: str) -> Any:
    """Parse ``raw`` as the value of knob ``name`` (empty = default)."""
    knob = KNOBS[name]
    token = raw.strip()
    if not token:
        return knob.default
    if knob.kind == "path":
        return raw
    if knob.kind in ("bool", "switch"):
        spelled = _SPELLINGS.get(token.lower())
        if spelled is not None:
            return spelled == "on"
        expected = "one of 1/on/true/yes or 0/off/false/no"
    elif knob.kind == "enum":
        value = _SPELLINGS.get(token.lower(), token.lower())
        if value in knob.choices:
            return value
        expected = "one of " + ", ".join(knob.choices)
    elif knob.kind == "int":
        try:
            value = int(token)
            if knob.lower is None or value >= knob.lower:
                return value
        except ValueError:
            pass
        expected = ("an integer" if knob.lower is None
                    else f"an integer >= {knob.lower}")
    else:
        try:
            return float(token)
        except ValueError:
            expected = "a number"
    raise KnobError(f"{name}={raw!r}: expected {expected}")


def get(name: str) -> Any:
    """The current value of knob ``name``, read from ``os.environ`` now."""
    return parse(name, os.environ.get(name, ""))


def check_all() -> None:
    """Parse every set knob now, so a bad value fails at startup.

    Entry points call this first: a typo in a knob the command never
    reads then still raises :class:`KnobError` instead of going unseen.
    """
    for name in KNOBS:
        get(name)


def switch(name: str, flag: bool = False) -> bool:
    """A tri-state kill switch: a set variable wins, else ``flag`` decides.

    ``REPRO_MONITOR``/``REPRO_AUTOSCALE`` use this: ``1`` turns the
    feature on without its CLI flag, ``0`` turns it off even when the
    flag is passed.
    """
    value = get(name)
    return bool(flag) if value is None else value
