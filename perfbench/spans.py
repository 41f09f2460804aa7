"""In-memory span recorder for the traced benchmark run.

A span is one call into a package layer, recorded from outside the package:
its name (``<layer>.<what>``), start and end (``time.perf_counter``), the
span that encloses it, the operation it belongs to, and ``n``, the units of
work it covered (days, rows, cells, calls).  Spans stay in memory until the
run ends; nothing is written while timing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, n: int = 1):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op_id, "n": n, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    """Stand-in with the same interface that records nothing."""

    op_id = None

    @contextmanager
    def span(self, name: str, n: int = 1):
        yield None


def duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


def self_times(spans: "list[dict]") -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def layer_self_ms_per_op(spans: "list[dict]") -> dict:
    """Self time per layer in ms, averaged over the traced operations."""
    own = self_times(spans)
    ops = {s["op"] for s in spans if isinstance(s["op"], int)}
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        if isinstance(s["op"], int):
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + t
    return {k: 1e3 * v / max(1, len(ops)) for k, v in sorted(totals.items())}


def unit_cost(spans: "list[dict]", names: "tuple[str, ...]", per: str = "n") -> float:
    """Seconds per unit of work (``per="n"``) or per span (``per="span"``)
    over the spans with these names.

    Spans of the workload's own operations are used when there are any;
    otherwise the probe's spans (operation id ``"probe"``) stand in.
    """
    picked = [s for s in spans if s["name"] in names and isinstance(s["op"], int)]
    if not picked:
        picked = [s for s in spans if s["name"] in names and s["op"] == "probe"]
    units = sum(s["n"] for s in picked) if per == "n" else len(picked)
    if not units:
        raise ValueError(f"no traced span named {names}")
    return sum(duration(s) for s in picked) / units
