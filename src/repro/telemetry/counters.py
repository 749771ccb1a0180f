"""Hardware-style performance counters.

A :class:`CounterRegistry` is a flat map of dotted counter names to
monotonically increasing numbers — the software analogue of an
accelerator's performance-counter file. Names are namespaced by the
emitting subsystem (``sim.spad.obuf.reads``, ``npu.tandem.busy_cycles``,
``cache.results.hits``, ``serving.requests.rejected``), values stay
``int`` as long as every increment is an ``int``, and dumps are sorted
so two identical runs serialize byte-identically.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

from ..schema import report_json

Number = Union[int, float]


class CounterRegistry:
    """Monotonic counters keyed by dotted names."""

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}

    def add(self, name: str, value: Number = 1) -> None:
        """Increment ``name`` by ``value`` (negative increments are a bug)."""
        if value < 0:
            raise ValueError(f"counter {name!r}: negative increment {value}")
        self._counters[name] = self._counters.get(name, 0) + value

    def get(self, name: str, default: Number = 0) -> Number:
        return self._counters.get(name, default)

    def merge(self, other: Mapping[str, Number]) -> None:
        """Fold another dump into this registry (``--jobs`` merging)."""
        for name, value in other.items():
            self.add(name, value)

    def clear(self) -> None:
        self._counters.clear()

    def __len__(self) -> int:
        return len(self._counters)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def as_dict(self) -> Dict[str, Number]:
        """Sorted plain-dict dump (deterministic serialization order)."""
        return {name: self._counters[name] for name in sorted(self._counters)}

    def to_json(self) -> str:
        return report_json(self.as_dict())


def format_counters(counters: Mapping[str, Number],
                    title: str = "") -> str:
    """Flat two-column text table of a counter dump."""
    if not counters:
        return (title + "\n" if title else "") + "(no counters)"
    names = sorted(counters)
    width = max(len(name) for name in names)
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * max(len(title), width + 2))
    for name in names:
        value = counters[name]
        text = str(value) if isinstance(value, int) else f"{value:g}"
        lines.append(f"{name:<{width}}  {text}")
    return "\n".join(lines)
