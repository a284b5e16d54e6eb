"""Bookkeeping shared by the workloads: spans, percentiles and failures.

Nothing here imports :mod:`repro`; the tests in ``test_harness.py``
exercise this module on its own.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

#: Candidate tail percentiles, in per mille so the rule stays integral.
PERCENTILE_LADDER = (500, 900, 950, 990, 999)


def tail_permille(units: int, min_beyond: int = 10) -> int:
    """The highest ladder percentile with ``min_beyond`` samples above it.

    A nearest-rank percentile ``p`` over ``units`` samples sits at rank
    ``ceil(p * units / 1000)``, so ``units - rank`` samples lie beyond
    it.  When not even the median has ``min_beyond`` samples beyond it
    (fewer than 20 samples), the median is the only figure the samples
    support and it is returned.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if units - _rank(p, units) >= min_beyond:
            best = p
    return best


def percentile(values: Sequence[float], permille: int) -> float:
    """Nearest-rank percentile of ``values`` (``permille`` = 950 for p95)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(permille, len(ordered)) - 1]


def _rank(permille: int, n: int) -> int:
    return max(1, -(-permille * n // 1000))


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one input of a run, fixed by ``seed`` and ``parts``."""
    h = hashlib.blake2b(repr((seed,) + parts).encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big") & 0x7FFFFFFF


# -- failures ----------------------------------------------------------------


class Tally:
    """Counts attempted units of work and the ones that failed.

    A unit is one coloring, one served request, or one check on the
    results.  It fails when it raises, which includes a verifier's
    :class:`~repro.errors.VerificationError`.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    @contextlib.contextmanager
    def attempt(self, unit: str) -> Iterator[None]:
        """Count one unit; an exception inside marks it failed and is kept."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a benchmark reports failures, it does not stop
            self.failed += 1
            self.messages.append(f"{unit}: {type(exc).__name__}: {exc}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def success_rate(self) -> float:
        return 1.0 - self.error_rate


# -- host speed --------------------------------------------------------------

#: The calibration sample's median on the reference host (shared 2-core
#: Xeon VM, Python 3.11, numpy 2.4), in seconds.  Times are reported in
#: seconds of a host running at this speed; changing it rescales every
#: reported time.
CAL_REF_S = 0.007

_rng = np.random.default_rng(20121)
#: Inputs of the calibration loop: small arrays, and a 16 MiB table with
#: random indices into it, so gathers miss the private caches.
_SMALL = _rng.integers(0, 1000, 2000)
_TABLE = _rng.integers(0, 1 << 22, 1 << 22, dtype=np.int32)
_INDEX = _rng.integers(0, 1 << 22, 1 << 17)


def calibration_loop() -> int:
    """A fixed mix of the three kinds of work the program does, about 2 ms each.

    An interpreter-bound dictionary loop, small-array numpy calls, and a
    memory-bound gather.  A host slowdown hits these kinds unequally, so
    a sample of one kind alone over- or under-corrects some workloads.
    It touches no benchmark code.
    """
    d: Dict[int, int] = {}
    for i in range(10_000):
        k = i & 1023
        d[k] = d.get(k, 0) + i
    a = _SMALL
    for _ in range(30):
        c = np.bincount(np.sort(a) % 97)
        a = (a * 7 + c[a % 97]) % 1000
    return len(d) + int(a[0]) + int(_TABLE[_INDEX].sum())


class Calibrator:
    """Times the calibration loop between units of work to track host speed.

    The shared host's speed drifts by tens of percent over minutes.
    Samples of a fixed loop taken between the units a pass times follow
    that drift; scaling the pass's times by ``CAL_REF_S`` over their
    median reports them at the reference speed.  A tick takes one sample
    per ``interval_s`` since the last one (at most ``max_owed``), so a
    pass of long units is sampled as densely as one of short units.
    ``spent`` is the time the samples took, so callers can take it out
    of their own timings.
    """

    def __init__(self, interval_s: float = 0.1, max_owed: int = 20) -> None:
        self.interval_s = interval_s
        self.max_owed = max_owed
        self.samples: List[float] = []
        #: When each sample ended, in ``time.perf_counter`` seconds.
        self.stamps: List[float] = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.stamps.append(t1)
        self.spent += t1 - t0
        self._last = t1

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def tick(self, tracer: Optional["Tracer"] = None) -> None:
        """Take the samples owed since the last one, inside a ``calibrate`` span."""
        owed = min(int((time.perf_counter() - self._last) / self.interval_s), self.max_owed)
        if owed <= 0:
            return
        with (tracer or Tracer(False)).span("calibrate"):
            self.burst(owed)

    def scale(self, first: int = 0) -> float:
        """Factor from measured to reference seconds, over samples from ``first`` on."""
        return CAL_REF_S / median(self.samples[first:])

    def scale_near(self, start: float, end: float, k: int = 32) -> float:
        """The factor over the samples taken in ``[start, end]`` and ``k`` on each side.

        The host's speed also moves within a pass; one latency is scaled
        by the samples nearest it in time.
        """
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        return CAL_REF_S / median(self.samples[max(0, lo - k):hi + k])


# -- spans -------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    #: The coloring or request the span belongs to ("" for pass-wide spans).
    unit: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; a disabled tracer records nothing.

    Spans nest through ``with tracer.span(...)``; the innermost open
    span is the parent of the next one.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    def span(self, name: str, unit: str = ""):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, unit)

    @contextlib.contextmanager
    def _record(self, name: str, unit: str) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(sid, name, time.perf_counter(), 0.0, parent, unit)
        self.spans.append(span)
        self._open.append(sid)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, unit: str = "") -> None:
        """Record a span measured elsewhere, under the innermost open span.

        Used for time a server reports about itself: its placement
        inside the parent is nominal, only its length is measured.
        """
        if self.enabled:
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(len(self.spans), name, start, end, parent, unit))


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out


def layer_table(passes: Sequence[Sequence[Span]]) -> List[Dict[str, float]]:
    """Per span name: calls, total and self seconds, averaged over passes.

    Each element of ``passes`` is one tracer's spans; span ids are only
    unique within one tracer.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for spans in passes:
        own = self_times(spans)
        for s in spans:
            row = rows.setdefault(s.name, {"name": s.name, "calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += own[s.sid]
    for row in rows.values():
        for key in ("calls", "total_s", "self_s"):
            row[key] /= len(passes)
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def render_table(rows: Sequence[Dict[str, float]]) -> str:
    lines = [f"{'span':<26}{'calls':>9}{'total_s':>12}{'self_s':>12}"]
    for r in rows:
        lines.append(
            f"{r['name']:<26}{r['calls']:>9.0f}{r['total_s']:>12.4f}{r['self_s']:>12.4f}"
        )
    return "\n".join(lines)

