"""In-memory spans around calls into the package's public functions.

Every cross-module call in ``defmap`` goes through a module attribute
(``losses.total_loss``, ``metrics.nearest_neighbors``, ...), and so do the
calls a module makes to its own functions, since Python looks globals up at
call time. Replacing those attributes with timing wrappers therefore records
every call from outside the functions, without editing the package.

A span is (name, start, end, parent span, run id). Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records spans and values while installed; restores on uninstall."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.values: dict[str, list] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent,
                               self.run_id))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = self.clock()
        self._stack.pop()

    def record(self, key: str, value) -> None:
        self.values.setdefault(key, []).append(value)

    def wrap(self, module, attr: str, before=None, after=None) -> None:
        """Replace ``module.attr`` by a wrapper recording one span per call.

        ``before(tracer, args, kwargs)`` and ``after(tracer, result, args,
        kwargs)`` record values from the arguments and the result; both run
        outside the span.
        """
        fn = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(self, args, kwargs)
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if after:
                after(self, result, args, kwargs)
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        """Write spans, call counts and recorded values as JSON."""
        with open(path, "w") as f:
            json.dump({
                "run_id": self.run_id,
                "spans": [[s.name, s.start, s.end, s.parent, s.run_id]
                          for s in self.spans],
                "counts": Counter(s.name for s in self.spans),
                "values": self.values,
            }, f)


# -- analysis ----------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of a nonempty sample."""
    xs = sorted(samples)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples) -> tuple[int, float, int]:
    """(pct, value, n): the highest whole percentile with at least ten of
    the n samples beyond it, its value, and n.

    ceil(n * pct / 100) samples lie at or below the pct-th percentile, so
    pct = floor(100 * (n - 10) / n) is the largest with n - 10 or fewer
    there. Below ten samples no percentile qualifies and the median is
    returned (pct 50); the caller reports n alongside.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    pct = math.floor(100 * (n - 10) / n) if n >= 10 else 50
    return pct, percentile(samples, pct), n
