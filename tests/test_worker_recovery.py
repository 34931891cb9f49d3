"""Self-healing parallel sweeps: worker death and deadlines.

A pool worker hard-killed mid-shard (``os._exit`` — the way an OOM kill
looks to the parent) must not cost the sweep anything: the supervised
executor retries the shard on a fresh pool, degrades it to in-process
execution when the pool keeps dying, journals every recovery, and the
merged CSVs stay byte-identical to a clean serial run.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from conftest import ScalarAnalyticBackend, run_on_pool
from repro import AnalyticBackend, RunConfig, make_model, run_sweep
from repro.core.csvio import write_run
from repro.core.runner import _MAX_SHARD_RETRIES
from repro.errors import ConfigError
from repro.faults.checkpoint import CheckpointReader
from repro.types import Kernel, Precision

CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM, Kernel.GEMV),
    precisions=(Precision.SINGLE, Precision.DOUBLE),
)

MODEL = make_model("dawn")


class KillWorkerBackend(AnalyticBackend):
    """Hard-kills any pool worker that samples the victim kernel —
    *mid-shard*, after a couple of cells already journaled.

    Overriding only the scalar sampler also disqualifies the vectorized
    fast path (the batch/scalar pair no longer comes from one class), so
    the shard genuinely dies partway through its per-cell loop.  The
    parent pid guard means the supervised executor's in-process retry
    survives, exactly like the ``REPRO_CHAOS_KILL_SHARD`` hook.
    """

    def __init__(self, model, victim_kernel=Kernel.GEMV):
        super().__init__(model)
        self.parent_pid = os.getpid()
        self.victim_kernel = victim_kernel
        self.calls = 0

    def cpu_sample(self, kernel, dims, precision, iterations,
                   alpha=1.0, beta=0.0):
        if kernel is self.victim_kernel and os.getpid() != self.parent_pid:
            self.calls += 1
            if self.calls > 2:
                os._exit(1)
        return super().cpu_sample(
            kernel, dims, precision, iterations, alpha, beta
        )


def _csv_bytes(result, directory):
    return {p.name: p.read_bytes() for p in write_run(result, directory)}


def test_worker_crash_mid_shard_completes_byte_identical(tmp_path):
    serial = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn")
    crashed = run_sweep(KillWorkerBackend(MODEL), CONFIG, "dawn", jobs=4)
    assert crashed.complete
    assert crashed.stats.worker_retries >= _MAX_SHARD_RETRIES + 1
    assert crashed.stats.inprocess_shards == 2  # gemv x {single, double}
    assert crashed.stats.backoff_s > 0  # simulated, never slept
    assert _csv_bytes(serial, tmp_path / "a") == _csv_bytes(
        crashed, tmp_path / "b"
    )


def test_recoveries_are_journaled_and_journal_replays(tmp_path):
    ckpt = tmp_path / "sweep.jsonl"
    result = run_sweep(
        KillWorkerBackend(MODEL), CONFIG, "dawn", jobs=4, checkpoint=ckpt
    )
    assert result.complete
    kinds = [
        json.loads(line)["kind"]
        for line in ckpt.read_text().splitlines()
        if json.loads(line).get("t") == "event"
    ]
    assert "shard-retry" in kinds and "shard-inprocess" in kinds
    # every shard journal merged and cleaned up, and the merged journal
    # (checksums included) still replays
    assert not list(tmp_path.glob("*.shard-*"))
    state = CheckpointReader.load(ckpt, CONFIG, "dawn")
    n_cells = sum(len(s.all_samples()) for s in result.series)
    assert len(state.samples) == n_cells


def test_chaos_env_hook_kills_and_recovers(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS_KILL_SHARD", "0")
    serial = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn")
    chaos = run_on_pool(ScalarAnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    assert chaos.complete
    assert chaos.stats.inprocess_shards == 1
    assert _csv_bytes(serial, tmp_path / "a") == _csv_bytes(
        chaos, tmp_path / "b"
    )


class HangingBackend(AnalyticBackend):
    """Wedges (only inside a pool worker) on the victim kernel."""

    def __init__(self, model):
        super().__init__(model)
        self.parent_pid = os.getpid()

    def cpu_sample(self, kernel, dims, precision, iterations,
                   alpha=1.0, beta=0.0):
        if kernel is Kernel.GEMV and os.getpid() != self.parent_pid:
            time.sleep(300)
        return super().cpu_sample(
            kernel, dims, precision, iterations, alpha, beta
        )


def test_shard_deadline_kills_wedged_worker_and_completes(tmp_path):
    config = RunConfig(
        max_dim=64, step=16, iterations=8,
        kernels=(Kernel.GEMM, Kernel.GEMV),
        precisions=(Precision.SINGLE,),
    )
    serial = run_sweep(AnalyticBackend(MODEL), config, "dawn")
    start = time.monotonic()
    result = run_sweep(
        HangingBackend(MODEL), config, "dawn", jobs=2, shard_timeout_s=1.0
    )
    elapsed = time.monotonic() - start
    assert result.complete
    assert result.stats.inprocess_shards == 1
    assert elapsed < 60  # three 1s deadlines, not three 300s sleeps
    assert _csv_bytes(serial, tmp_path / "a") == _csv_bytes(
        result, tmp_path / "b"
    )


def test_shard_timeout_validation():
    with pytest.raises(ConfigError, match="shard_timeout_s"):
        run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn", shard_timeout_s=0)
