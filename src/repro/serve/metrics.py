"""Serving metrics: counters, gauges, and latency histograms.

Everything ``GET /metrics`` reports lives here, in plain dictionaries
and log-bucketed histograms — no client library, no exposition format,
just a JSON snapshot.  All mutation happens on the event-loop thread
(the service observes request outcomes after the fact), so no locking
is needed.

The cache hit/miss counters here are the *daemon's* view — one tick per
threshold request, coalesced followers inheriting their leader's
outcome.  The store-level counters (every ``load_cached_run`` across
all processes) come from :func:`repro.core.sweepcache.cache_stats` and
are merged into the same snapshot by the service, so ``/metrics`` and
``gpu-blob cache stats`` agree on what the store itself saw.
"""

from __future__ import annotations

import time
from typing import Dict

from ..core.histogram import LatencyHistogram

__all__ = ["ServeMetrics"]

class ServeMetrics:
    """Every counter and histogram the daemon exports."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.started = clock()
        #: requests and latency per endpoint label, statuses per code
        self.requests: Dict[str, int] = {}
        self.statuses: Dict[str, int] = {}
        self.latency: Dict[str, LatencyHistogram] = {}
        #: threshold requests answered from the sweep cache vs executed
        self.cache_hits = 0
        self.cache_misses = 0
        #: threshold requests that shared another request's in-flight job
        self.coalesced = 0
        self.rate_limited = 0
        self.deadline_expired = 0
        self.queue_rejected = 0
        self.sweeps_executed = 0
        #: stale cache answers served while a breaker was open or the
        #: backend failed (never a 500 for a transient backend fault)
        self.degraded_answers = 0
        #: breaker refusals that had no stale answer to fall back on
        self.degraded_unavailable = 0
        #: accepted jobs re-run from the WAL after a restart
        self.jobs_replayed = 0
        #: jobs abandoned after exhausting replay attempts
        self.jobs_dead = 0
        #: simulated backoff accumulated while replaying expired leases
        self.replay_backoff_s = 0.0
        #: WAL appends that failed (disk full / chaos wal-stall)
        self.wal_errors = 0
        #: adaptive-mode sample savings, accumulated from executed
        #: sweeps' stats (both stay 0 when --adaptive is off or every
        #: answer came from the cache)
        self.adaptive_cells_sampled = 0
        self.adaptive_cells_dense = 0

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
        self.statuses[str(status)] = self.statuses.get(str(status), 0) + 1
        histogram = self.latency.get(endpoint)
        if histogram is None:
            histogram = self.latency[endpoint] = LatencyHistogram()
        histogram.observe(seconds)

    def record_threshold_outcome(self, cache_hit: bool, coalesced: bool) -> None:
        if cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        if coalesced:
            self.coalesced += 1

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return (self.cache_hits / lookups) if lookups else 0.0

    def snapshot(self) -> dict:
        return {
            "uptime_s": round(self._clock() - self.started, 3),
            "requests": dict(self.requests),
            "statuses": dict(self.statuses),
            "latency": {
                endpoint: histogram.snapshot()
                for endpoint, histogram in self.latency.items()
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.hit_rate, 6),
                "coalesced": self.coalesced,
            },
            "jobs": {
                "sweeps_executed": self.sweeps_executed,
                "rate_limited": self.rate_limited,
                "deadline_expired": self.deadline_expired,
                "queue_rejected": self.queue_rejected,
                "replayed": self.jobs_replayed,
                "dead": self.jobs_dead,
                "replay_backoff_s": round(self.replay_backoff_s, 6),
            },
            "degraded": {
                "answers": self.degraded_answers,
                "unavailable": self.degraded_unavailable,
            },
            "adaptive": {
                "cells_sampled": self.adaptive_cells_sampled,
                "cells_dense": self.adaptive_cells_dense,
                "cells_saved": (
                    self.adaptive_cells_dense - self.adaptive_cells_sampled
                ),
            },
            "wal_errors": self.wal_errors,
        }
