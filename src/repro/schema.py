"""One shape checker for every JSON report the repository writes.

A spec is plain data: a JSON type name (``int``, ``number``, ``str``,
``bool``, ``list``, ``object``, ``any``; a bool is never an ``int`` or
``number``) or a dict of ``type`` (implied by the other entries when
omitted), ``keys``/``optional`` (required/optional object keys, each with
a sub-spec), ``items``/``values`` (the sub-spec of every list item/object
value), ``tuple`` (a list of sub-specs: the value is a list of exactly
that many items, item ``i`` checked against sub-spec ``i``), ``enum``
(allowed values), ``min`` (inclusive lower bound on a number or a length)
and ``gt`` (exclusive lower bound on a number).

Each problem reads ``<json path>: <what is wrong>``, the path being ``$``
then ``.key``, ``['map key']`` and ``[index]`` steps. :func:`report_json`
is the one text form every report is written in. This module imports
nothing from :mod:`repro`, so any package can import it at module top.
"""

from __future__ import annotations

import json
from typing import Any, List, Sequence

#: JSON type name of each Python type ``json.load`` produces.
_NAMES = {type(None): "null", bool: "bool", int: "int", float: "number",
          str: "str", list: "list", dict: "object"}


def report_json(payload: Any) -> str:
    """The canonical JSON text of a report: sorted keys, 2-space indent."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def check(value: Any, spec: Any) -> List[str]:
    """Every way ``value`` departs from ``spec``; never raises."""
    problems: List[str] = []
    _check(value, spec, "$", problems)
    return problems


def passed(problems: Sequence[str], *keys: str) -> bool:
    """True when no problem lies at the root or in any top-level ``keys``."""
    heads = ("$: ",) + tuple(f"$.{key}{end}" for key in keys
                             for end in (": ", ".", "["))
    return not any(problem.startswith(heads) for problem in problems)


def _check(value: Any, spec: Any, path: str, out: List[str]) -> None:
    if isinstance(spec, str):
        spec = {"type": spec}
    kind = spec.get("type") or (
        "list" if {"items", "tuple"} & spec.keys() else
        "object" if {"keys", "optional", "values"} & spec.keys() else "any")
    got = _NAMES.get(type(value), type(value).__name__)
    if kind not in ("any", got) and (kind, got) != ("number", "int"):
        out.append(f"{path}: expected {kind}, got {got}")
        return
    if "enum" in spec and value not in spec["enum"]:
        out.append(f"{path}: {value!r} is not one of {list(spec['enum'])}")
        return
    if "min" in spec:
        numeric = kind in ("int", "number")
        size = value if numeric else len(value)
        if size < spec["min"]:
            what = repr(value) if numeric else f"length {size}"
            out.append(f"{path}: {what} is below the minimum {spec['min']}")
    if "gt" in spec and not value > spec["gt"]:
        out.append(f"{path}: {value!r} must be greater than {spec['gt']}")
    for key, sub in spec.get("keys", {}).items():
        if key in value:
            _check(value[key], sub, f"{path}.{key}", out)
        else:
            out.append(f"{path}.{key}: missing")
    for key, sub in spec.get("optional", {}).items():
        if key in value:
            _check(value[key], sub, f"{path}.{key}", out)
    if "values" in spec:
        for key, item in value.items():
            _check(item, spec["values"], f"{path}[{key!r}]", out)
    if "items" in spec:
        for index, item in enumerate(value):
            _check(item, spec["items"], f"{path}[{index}]", out)
    if "tuple" in spec:
        subs = spec["tuple"]
        if len(value) != len(subs):
            out.append(f"{path}: length {len(value)}, expected {len(subs)}")
        else:
            for index, (item, sub) in enumerate(zip(value, subs)):
                _check(item, sub, f"{path}[{index}]", out)


__all__ = ["check", "passed"]
