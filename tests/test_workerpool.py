"""Warm worker pool: reuse, respawn after death, clean exit teardown.

The pool in :mod:`repro.core.workerpool` outlives individual sweeps —
these tests pin the lifecycle contract: consecutive ``run_sweep`` calls
reuse one spawn, a worker death retires the pool and the next sweep
respawns it transparently (still bit-identical), and a process that
used the pool exits promptly without hanging in atexit joins.  The pool
sweeps run :class:`ScalarAnalyticBackend` (per-cell, so it shards); a
vectorized analytic sweep never touches the pool at all.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from conftest import ScalarAnalyticBackend
from repro import AnalyticBackend, make_model, run_sweep
from repro.core import workerpool
from repro.core.config import RunConfig
from repro.core.csvio import write_run
from repro.types import Kernel

MODEL = make_model("dawn")
CONFIG = RunConfig(
    max_dim=96, step=16, iterations=8,
    kernels=(Kernel.GEMM, Kernel.GEMV), problem_idents=("square",),
)


def _csv_bytes(result, directory):
    return {p.name: p.read_bytes() for p in write_run(result, directory)}


def setup_function(_fn):
    # each test observes its own lifecycle counters from a cold pool
    workerpool.shutdown_all()
    workerpool.reset_stats()


def teardown_module(_module):
    workerpool.shutdown_all()


def test_vectorized_sweep_never_touches_the_pool():
    serial = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn")
    before = workerpool.pool_stats()
    parallel = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    after = workerpool.pool_stats()
    assert parallel == serial
    assert after["spawns"] == before["spawns"]
    assert after["shards_executed"] == before["shards_executed"]


def test_pool_reused_across_sweeps(tmp_path):
    serial = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn")
    first = run_sweep(ScalarAnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    second = run_sweep(ScalarAnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    stats = workerpool.pool_stats()
    assert stats["spawns"] == 1
    assert stats["reuses"] >= 1
    assert stats["respawns"] == 0
    assert stats["shards_executed"] == 8  # 4 shards x 2 sweeps
    assert first == serial and second == serial
    assert _csv_bytes(first, tmp_path / "a") == _csv_bytes(
        serial, tmp_path / "b"
    )


def test_worker_death_retries_and_respawns_warm_pool(tmp_path, monkeypatch):
    serial = run_sweep(AnalyticBackend(MODEL), CONFIG, "dawn")
    monkeypatch.setenv("REPRO_CHAOS_KILL_SHARD", "0")
    chaos = run_sweep(ScalarAnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    assert chaos.complete
    assert chaos.stats.worker_retries >= 1
    monkeypatch.delenv("REPRO_CHAOS_KILL_SHARD")
    # the poisoned pool was retired; the next sweep respawns it warm
    # and keeps reusing it afterwards
    after = run_sweep(ScalarAnalyticBackend(MODEL), CONFIG, "dawn", jobs=2)
    stats = workerpool.pool_stats()
    assert stats["retired"] >= 1
    assert stats["respawns"] >= 1
    assert after == serial
    assert _csv_bytes(chaos, tmp_path / "a") == _csv_bytes(
        serial, tmp_path / "b"
    )
    assert _csv_bytes(after, tmp_path / "c") == _csv_bytes(
        serial, tmp_path / "d"
    )


def test_interpreter_exits_cleanly_with_live_pool():
    """A process that ran a parallel sweep and never shut the warm pool
    down must still exit promptly (the module's exit hook runs before
    concurrent.futures' join — a hang here would deadlock every CLI
    invocation that used jobs=N)."""
    tests = Path(__file__).resolve().parent
    script = (
        "from conftest import ScalarAnalyticBackend\n"
        "from repro import make_model, run_sweep\n"
        "from repro.core.config import RunConfig\n"
        "from repro.core import workerpool\n"
        "from repro.types import Kernel\n"
        "config = RunConfig(max_dim=64, step=16, iterations=4,\n"
        "                   kernels=(Kernel.GEMM,),\n"
        "                   problem_idents=('square',))\n"
        "run_sweep(ScalarAnalyticBackend(make_model('dawn')), config,\n"
        "          'dawn', jobs=2)\n"
        "assert workerpool.pool_stats()['pools_alive'] == 1\n"
        "print('OK')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={
            "PYTHONPATH": f"{tests.parent / 'src'}:{tests}",
            "PATH": "/usr/bin:/bin",
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
