"""Log-bucketed latency histograms.

The serve daemon's ``/metrics`` endpoint and the distributed
dispatcher's turnaround stats report latency in this one shape: fixed
buckets, a count, a mean and interpolated p50/p99, with no per-request
samples stored.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

__all__ = ["LATENCY_BUCKETS", "LatencyHistogram"]

#: Log-spaced latency bucket upper bounds, in seconds (~1-2-5 per
#: decade from 0.5 ms to 60 s); overflows land in a +Inf bucket.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.002,
    0.005,
    0.01,
    0.02,
    0.05,
    0.1,
    0.2,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    30.0,
    60.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile estimation.

    Percentiles interpolate within the winning bucket, bounded above by
    the true observed maximum, so p50/p99 stay meaningful without
    storing per-request samples.
    """

    __slots__ = ("bounds", "counts", "count", "total", "max")

    def __init__(self, bounds: Tuple[float, ...] = LATENCY_BUCKETS) -> None:
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        for i, bound in enumerate(self.bounds):
            if seconds <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, q: float) -> Optional[float]:
        """The latency at quantile ``q`` in [0, 1]; None when empty."""
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            if not n:
                continue
            seen += n
            if seen >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                hi = min(hi, self.max) if self.max else hi
                if hi <= lo:
                    return hi
                frac = (rank - (seen - n)) / n
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
        return self.max  # pragma: no cover - unreachable when count > 0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": (self.total / self.count * 1e3) if self.count else None,
            "p50_ms": _ms(self.percentile(0.50)),
            "p99_ms": _ms(self.percentile(0.99)),
            "max_ms": _ms(self.max) if self.count else None,
        }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 4)
