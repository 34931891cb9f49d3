"""Spans and counters recorded from outside the program.

The benchmark never edits ``src/``: it replaces a layer's public
function with a timing wrapper for the duration of a traced run, and
puts the original back afterwards.  Spans are kept in memory (name,
start, end, parent index) and summarised when the run ends; counters
are plain integers bumped at the same boundaries.

``install_layer_spans`` knows which functions belong to which layer and
every module that holds its own reference to them (``from x import f``
copies the name, so each importing module is patched too).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index]
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore = []

    # -- recording ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, nested=True):
        stack = self._stack() if nested else []
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        if nested:
            stack.append(index)
        return index

    def end(self, index, nested=True):
        self.spans[index][2] = time.perf_counter()
        if nested:
            self._stack().pop()

    def count(self, name, amount=1):
        with self._lock:
            self.counters[name] += amount

    # -- patching ----------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(result, args, kwargs)`` may bump counters from the
        call's result.  Coroutine functions get an async wrapper whose
        spans are not nested (tasks interleave on one thread).
        """
        original = getattr(owner, attr)
        tracer = self
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                index = tracer.begin(name, nested=False)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer.end(index, nested=False)
                if after is not None:
                    after(result, args, kwargs)
                return result
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                if after is not None:
                    after(result, args, kwargs)
                return result
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------

    def total_s(self, name):
        return sum(
            end - start for n, start, end, _ in self.spans
            if n == name and end is not None
        )

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def self_s(self, name):
        """Duration of ``name`` spans minus what their direct children
        cover (children of one span never overlap: they ran on the
        span's own thread, one after another)."""
        child_time = defaultdict(float)
        for _n, start, end, parent in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        return sum(
            (end - start) - child_time[i]
            for i, (n, start, end, _p) in enumerate(self.spans)
            if n == name and end is not None
        )

    def coverage(self, window_start, window_end):
        """Share of ``[window_start, window_end]`` covered by the union
        of root spans (spans with no parent)."""
        intervals = sorted(
            (max(start, window_start), min(end, window_end))
            for _n, start, end, parent in self.spans
            if parent is None and end is not None
        )
        covered, cursor = 0.0, window_start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        wall = window_end - window_start
        return covered / wall if wall > 0 else 0.0


def _file_size(path):
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def install_layer_spans(tracer):
    """Wrap every layer entry point the per-layer metrics are built on."""
    from repro.backends import des, simulated
    from repro.core import (campaign, csvio, runner, sweepcache, tables,
                            threshold)
    from repro.dist import dispatcher, ledger

    for attr in ("cpu_sample_batch", "gpu_sample_batch"):
        tracer.wrap(simulated.AnalyticBackend, attr,
                    "backends.simulated.batch")
    for attr in ("cpu_sample", "gpu_sample"):
        tracer.wrap(des.DesBackend, attr, "backends.des.sample")
    for module in (runner, campaign):
        tracer.wrap(module, "run_sweep", "core.runner.run_sweep")
    tracer.wrap(runner, "guard_samples", "core.invariants.guard")
    for module in (threshold, runner, tables, campaign):
        tracer.wrap(module, "threshold_for_series", "core.threshold.detect")
    tracer.wrap(
        csvio, "write_series", "core.csvio.write",
        after=lambda path, a, k: tracer.count("core.csvio.bytes",
                                              _file_size(path)),
    )

    def after_load(result, args, kwargs):
        if result is None:
            tracer.count("core.sweepcache.misses")
            return
        tracer.count("core.sweepcache.hits")
        cache_dir, config, system_name, backend = args[:4]
        key = sweepcache.sweep_cache_key(config, system_name, backend)
        tracer.count("core.sweepcache.bytes_read",
                     _file_size(Path(cache_dir) / f"{key}.json"))

    tracer.wrap(sweepcache, "load_cached_run", "core.sweepcache.load",
                after=after_load)
    tracer.wrap(
        sweepcache, "store_run", "core.sweepcache.store",
        after=lambda path, a, k: tracer.count(
            "core.sweepcache.bytes_written", _file_size(path)),
    )
    tracer.wrap(campaign, "write_report", "core.campaign.write_report")
    for attr in ("assign", "renew", "complete", "dead"):
        tracer.wrap(ledger.DispatchLedger, attr, "dist.ledger.append")
    tracer.wrap(dispatcher, "run_campaign_distributed",
                "dist.dispatcher.run")


def install_serve_spans(tracer):
    """The serving daemon's layers, on top of :func:`install_layer_spans`."""
    from repro.serve import httpd, jobs, service, wal

    install_layer_spans(tracer)
    # the service binds run_sweep when it is constructed, and detects
    # thresholds through its own imported name
    tracer.wrap(service, "run_sweep", "core.runner.run_sweep")
    tracer.wrap(service, "threshold_for_series", "core.threshold.detect")
    tracer.wrap(service.ThresholdService, "handle", "serve.service.handle")
    for attr in ("append_accept", "mark_complete"):
        tracer.wrap(wal.WriteAheadLog, attr, "serve.wal.append")
    tracer.wrap(service, "json_response", "serve.httpd.render")
    tracer.wrap(httpd, "render_response", "serve.httpd.render")

    original_submit = jobs.JobQueue.submit

    def submit(queue, key, thunk):
        queued = time.perf_counter()

        async def timed_thunk():
            tracer.count("serve.jobs.queue_wait_s",
                         time.perf_counter() - queued)
            return await thunk()

        future, coalesced = original_submit(queue, key, timed_thunk)
        if coalesced:
            tracer.count("serve.jobs.coalesced")
        return future, coalesced

    jobs.JobQueue.submit = submit
    tracer._restore.append((jobs.JobQueue, "submit", original_submit))


def layer_metrics(tracer):
    """Per-layer totals every workload reports (zero where unused)."""
    c = tracer.counters
    return {
        "backends.simulated.batch_s": (
            tracer.total_s("backends.simulated.batch"), "s"),
        "backends.simulated.batch_calls": (
            tracer.calls("backends.simulated.batch"), "count"),
        "core.runner.self_s": (tracer.self_s("core.runner.run_sweep"), "s"),
        "core.invariants.guard_s": (
            tracer.total_s("core.invariants.guard"), "s"),
        "core.threshold.detect_s": (
            tracer.total_s("core.threshold.detect"), "s"),
        "core.csvio.write_s": (tracer.total_s("core.csvio.write"), "s"),
        "core.csvio.bytes": (int(c["core.csvio.bytes"]), "bytes"),
        "core.sweepcache.load_s": (
            tracer.total_s("core.sweepcache.load"), "s"),
        "core.sweepcache.hits": (int(c["core.sweepcache.hits"]), "count"),
        "core.sweepcache.misses": (int(c["core.sweepcache.misses"]), "count"),
        "core.sweepcache.bytes_read": (
            int(c["core.sweepcache.bytes_read"]), "bytes"),
        "core.sweepcache.store_s": (
            tracer.total_s("core.sweepcache.store"), "s"),
        "core.sweepcache.bytes_written": (
            int(c["core.sweepcache.bytes_written"]), "bytes"),
        "dist.ledger.append_s": (tracer.total_s("dist.ledger.append"), "s"),
        "backends.des.sample_s": (tracer.total_s("backends.des.sample"), "s"),
        "serve.service.handle_s": (
            tracer.total_s("serve.service.handle"), "s"),
        "serve.jobs.queue_wait_s": (c["serve.jobs.queue_wait_s"], "s"),
        "serve.jobs.coalesced": (int(c["serve.jobs.coalesced"]), "count"),
        "serve.wal.append_s": (tracer.total_s("serve.wal.append"), "s"),
        "serve.httpd.render_s": (tracer.total_s("serve.httpd.render"), "s"),
        "core.workerpool.spawns": (int(c["core.workerpool.spawns"]), "count"),
        "core.workerpool.reuses": (int(c["core.workerpool.reuses"]), "count"),
        "core.workerpool.shards": (
            int(c["core.workerpool.shards_executed"]), "count"),
        "core.workerpool.shm_bytes": (
            int(c["core.workerpool.shm_bytes"]), "bytes"),
        "core.workerpool.pickle_fallbacks": (
            int(c["core.workerpool.pickle_fallbacks"]), "count"),
        "dist.dispatcher.assignments": (
            int(c["dist.dispatcher.assignments"]), "count"),
        "dist.dispatcher.retries": (int(c["dist.dispatcher.retries"]), "count"),
        "dist.dispatcher.steals": (int(c["dist.dispatcher.steals"]), "count"),
        "dist.dispatcher.turnaround_p50_ms": (
            c["dist.dispatcher.turnaround_p50_ms"], "ms"),
    }
