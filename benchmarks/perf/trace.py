"""In-memory span recorder and the outside-in layer ladder.

The program has no spans of its own yet, so the benchmark wraps its
*calls into* each layer: the same op is replayed serially against each
rung of a ladder of public entry points (``engine`` → ``query`` →
``serving.service`` → ...), one span per rung per op.  A rung's self
time for an op is its span minus the span of the rung below — the time
the layer adds on top of what it calls.

Spans are ``{name, start_ns, end_ns, parent, request}``: ``request`` is
the op index (the spans of one op share it) and ``parent`` names the
rung above, whose span for the same request is the caller's.  They stay
in memory until :meth:`Tracer.dump` writes one JSON line each.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    """Collects spans; never touches the disk until :meth:`dump`."""

    def __init__(self):
        self.spans: list[tuple] = []

    def call(self, name: str, request: int, fn, parent: str | None = None):
        """Run ``fn()`` inside a span and return its result."""
        start = time.perf_counter_ns()
        try:
            return fn()
        finally:
            self.spans.append(
                (name, start, time.perf_counter_ns(), parent, request)
            )

    def durations(self, name: str) -> dict[int, float]:
        """``{request: seconds}`` summed over the spans called *name*."""
        out: dict[int, float] = defaultdict(float)
        for span_name, start, end, _parent, request in self.spans:
            if span_name == name:
                out[request] += (end - start) / 1e9
        return dict(out)

    def dump(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, request in self.spans:
                f.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


def ladder_self_times(tracer: Tracer, rungs: list[str]) -> dict:
    """Self time per rung of an outside-in ladder (*rungs* bottom first).

    Per request, ``self(rung) = span(rung) - span(rung below)``; a rung's
    self time is the sum over requests, floored at zero (the rungs are
    separate serial replays, so noise can make a thin layer read slower
    than the one it wraps).  Returns per-rung ``self_s`` and ``busy_s``
    totals, the top rung's total, and ``unaccounted_share`` — how far the
    floored self times are from summing to the top rung's total, which is
    the ladder's own sanity check.
    """
    per_rung = [tracer.durations(r) for r in rungs]
    requests = set(per_rung[-1])
    self_s = {}
    below: dict[int, float] = {}
    for rung, durations in zip(rungs, per_rung):
        self_s[rung] = max(
            sum(durations.get(r, 0.0) - below.get(r, 0.0) for r in requests),
            0.0,
        )
        below = durations
    top = sum(per_rung[-1][r] for r in requests)
    return {
        "self_s": self_s,
        "busy_s": {r: sum(d.values()) for r, d in zip(rungs, per_rung)},
        "top_s": top,
        "unaccounted_share": (
            abs(top - sum(self_s.values())) / top if top else 0.0
        ),
    }
