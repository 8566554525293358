"""Timing, span tracing and failure counting shared by the benchmark workloads.

Only the standard library is imported here, so that `run.py` can time
`import rti` (and numpy with it) on its own.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
import traceback
from dataclasses import dataclass


# ------------------------------------------------------------ percentiles


def supported_percentile(samples, p: float, min_beyond: int = 10) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples ranked above it.

    A tail percentile means little when only a handful of samples lie beyond
    it, so the value is refused unless at least `min_beyond` do.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} samples beyond it, "
            f"fewer than {min_beyond}"
        )
    return ordered[rank - 1], beyond


def median(values) -> float:
    return float(statistics.median(values))


# ------------------------------------------------------------ outcomes


class Outcomes:
    """Attempted and failed operations.

    An operation fails when it raises or when one of its output checks
    reports a problem; either way it is counted and the run continues.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def record(self, op_id: str, call) -> bool:
        """Run `call`, which returns a list of failed-check messages."""
        self.attempted += 1
        try:
            problems = call()
        except Exception as exc:  # the run must outlive a failing operation
            problems = ["".join(traceback.format_exception_only(exc)).strip()]
        if problems:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{op_id}: {problems[0]}")
            return False
        return True

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ------------------------------------------------------------ tracing


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: str      # operation id; set-up repetitions are "setup#<k>"


def is_setup(op: str) -> bool:
    return op.startswith("setup")


class Tracer:
    """In-memory spans and counters recorded around calls into the library."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[bool, str], float] = {}
        self.peaks: dict[str, float] = {}
        self.warnings: dict[str, str] = {}
        self.op = "setup#0"
        self._open: list[int] = []

    def add(self, key: str, value: float) -> None:
        """Add to a counter summed per operation (or per set-up repetition)."""
        slot = (is_setup(self.op), key)
        self.counts[slot] = self.counts.get(slot, 0.0) + value

    def peak(self, key: str, value: float) -> None:
        """Keep the largest value seen, for sizes that do not add up."""
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def wrap(self, name, fn, after=None):
        """`fn` with every call recorded as a span.

        `name` is a span name or a function of the bound arguments that
        returns one. `after(tracer, result, arguments)` records counters once
        the call has returned; if the library no longer offers what it reads,
        the counter is left out with a warning instead of failing the call.
        """
        signature = inspect.signature(fn) if callable(name) or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            arguments = None
            if signature is not None:
                arguments = signature.bind(*args, **kwargs).arguments
            label = name(arguments) if callable(name) else name
            # Inline rather than a context manager: this runs around
            # sub-millisecond calls, where a generator doubles the overhead.
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            span = Span(label, self.clock(), math.nan, parent, self.op)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if after is not None:
                try:
                    after(self, result, arguments)
                except (AttributeError, TypeError, KeyError, ValueError) as exc:
                    self.warnings.setdefault(label, f"{type(exc).__name__}: {exc}")
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids
        ):
            a = max(a, cursor)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.end - s.start - covered)
    return out


def span_totals(spans: list[Span]) -> dict[tuple[bool, str], tuple[float, float, int]]:
    """(is set-up, name) -> (total time, total self time, calls)."""
    totals: dict[tuple[bool, str], tuple[float, float, int]] = {}
    for s, own in zip(spans, self_times(spans)):
        key = (is_setup(s.op), s.name)
        t, st, n = totals.get(key, (0.0, 0.0, 0))
        totals[key] = (t + s.end - s.start, st + own, n + 1)
    return totals
