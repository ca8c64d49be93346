"""What the benchmark records: spans around calls into sublevy, and rounds.

A span has a name, start and end on the monotonic clock that
``time.perf_counter`` reads (system-wide on Linux, so child processes can
report spans on the same axis), a parent span id and the run id.  Spans are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import statistics
import time
import types


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    run_id: str
    id: str
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``span`` yields the open span for attributes."""

    def __init__(self, run_id: str, prefix: str = ""):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._prefix = prefix

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(name, time.perf_counter(), float("nan"), parent, self.run_id,
                  f"{self._prefix}{next(self._ids)}")
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)

    def current(self) -> Span | None:
        """The innermost open span."""
        return self._stack[-1] if self._stack else None

    def adopt(self, spans: list[Span], parent: Span | None) -> None:
        """Attach spans recorded elsewhere (a child process) under ``parent``."""
        for sp in spans:
            if sp.parent is None and parent is not None:
                sp.parent = parent.id
            sp.run_id = self.run_id
            self.spans.append(sp)

    def to_json(self) -> list:
        return [dataclasses.asdict(sp) for sp in self.spans]


class NullTracer:
    """Tracing off: a span costs one context-manager call and records nothing."""

    def __init__(self):
        self.spans: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        yield types.SimpleNamespace(attrs={}, id=None)

    def current(self) -> None:
        return None

    def adopt(self, spans, parent) -> None:
        pass


def spans_from_json(items: list) -> list[Span]:
    return [Span(**item) for item in items]


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        clipped = [(max(lo, sp.start), min(hi, sp.end))
                   for lo, hi in children.get(sp.id, []) if hi > sp.start and lo < sp.end]
        out[sp.id] = sp.duration - covered(clipped)
    return out


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, total and median duration, total self time."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
    out = {}
    for name, group in sorted(by_name.items()):
        durations = [sp.duration for sp in group]
        out[name] = {
            "calls": len(group),
            "total_s": sum(durations),
            "median_s": statistics.median(durations),
            "self_s": sum(selfs[sp.id] for sp in group),
        }
    return out


class OpResult:
    """One round of a workload: its calls into sublevy, time, error, detail.

    A round is one call (a solve, or an estimate with the solve it follows)
    except in the cli workload, where it is six subcommands.
    """

    def __init__(self, ok: bool, wall_s: float, value_err: float | None, detail: dict,
                 calls: int = 1, failed_calls: int | None = None,
                 peak_rss_mb: float | None = None):
        self.ok = ok
        self.wall_s = wall_s
        self.value_err = value_err
        self.detail = detail
        self.calls = calls
        self.failed_calls = (0 if ok else calls) if failed_calls is None else failed_calls
        self.peak_rss_mb = peak_rss_mb

    def to_json(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_json(cls, item: dict) -> "OpResult":
        return cls(**item)
