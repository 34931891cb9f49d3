"""Sweep-executor throughput: serial-scalar vs vectorized vs parallel.

Times the Table III configuration (square GEMM and GEMV on dawn, the
full 1-4096 range at stride 8, both precisions, all three transfer
paradigms) through the execution strategies of
:func:`repro.core.runner.run_sweep` and reports cells/second for each.
Vectorized sweeps run in-process at any ``jobs``, so the
``vectorized+jobs=N`` rows time the same in-process path and record
the pool's spawn and shard counters (both 0) as proof.  One DES row
times the pool where it pays: the per-cell DES backend at dims 1-1024,
``jobs=1`` against ``jobs=2`` (no floor — it depends on the core
count).  All strategies produce bit-identical series — asserted here
on every run — so the numbers compare pure executor overhead.

Writes ``results/BENCH_sweep_throughput.json``.  Runnable standalone::

    PYTHONPATH=src:benchmarks python benchmarks/bench_sweep_throughput.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_sweep_throughput.py --check

``--check`` exits non-zero unless the vectorized path clears 5x the
serial-scalar cells/s AND the vectorized+jobs=4 path clears 3x (the CI
perf-smoke floors; measured margins are larger).
"""

from __future__ import annotations

import json
import sys
import time

from harness import RESULTS_DIR, backend_for, run_once
from repro.backends.des import DesBackend
from repro.core import workerpool
from repro.core.config import RunConfig
from repro.core.runner import run_sweep
from repro.types import Kernel

SYSTEM = "dawn"
SPEEDUP_FLOOR = 5.0
#: floor for the vectorized path at jobs=4, which runs in-process
PARALLEL_FLOOR = 3.0
PARALLEL_JOBS = (2, 4)
#: the DES row's dims: the DES engine is per-cell, so the full range
#: would dominate the bench's runtime
DES_MAX_DIM = 1024
#: timing repeats per strategy (after one untimed warmup); best-of wins
ROUNDS = 3


class _ScalarOnly:
    """Proxy hiding a backend's batch entry points, forcing the
    per-cell reference path through the runner."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name.endswith("_batch"):
            raise AttributeError(name)
        return getattr(self._inner, name)

    @property
    def gpu_transfers(self):
        return self._inner.gpu_transfers

    @property
    def has_gpu(self):
        return self._inner.has_gpu


def _table3_config(max_dim: int = 4096) -> RunConfig:
    return RunConfig(
        min_dim=1,
        max_dim=max_dim,
        step=8,
        iterations=8,
        kernels=(Kernel.GEMM, Kernel.GEMV),
        problem_idents=("square",),
    )


def _cell_count(result) -> int:
    return sum(len(series.all_samples()) for series in result.series)


def _timed(run):
    """Best wall time of ``ROUNDS`` repeats after one warmup: the sweep
    is deterministic, so the minimum is the least-noisy estimate of its
    cost.  The warmup also spawns the warm worker pool (for sweeps that
    use it), so the timed rounds measure steady-state reuse — exactly
    what campaigns see."""
    result = run()
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return result, best


def _measure_des() -> dict:
    """DES at jobs=1 vs jobs=2: the per-cell backend the pool serves."""
    config = _table3_config(DES_MAX_DIM)
    backend = DesBackend(backend_for(SYSTEM).model)
    serial_result, serial_s = _timed(
        lambda: run_sweep(backend, config, SYSTEM)
    )
    workerpool.shutdown_all()
    workerpool.reset_stats()
    pool_result, pool_s = _timed(
        lambda: run_sweep(backend, config, SYSTEM, jobs=2)
    )
    pool = workerpool.pool_stats()
    workerpool.shutdown_all()
    assert pool_result.series == serial_result.series, (
        "DES jobs=2 sweep diverged from DES jobs=1"
    )
    cells = _cell_count(serial_result)
    return {
        "max_dim": DES_MAX_DIM,
        "cells": cells,
        "jobs1_seconds": serial_s,
        "jobs2_seconds": pool_s,
        "jobs1_cells_per_s": cells / serial_s,
        "jobs2_cells_per_s": cells / pool_s,
        "speedup_jobs2_vs_jobs1": serial_s / pool_s,
        "pool_shards": pool["shards_executed"],
    }


def measure() -> dict:
    config = _table3_config()
    backend = backend_for(SYSTEM)
    serial_result, serial_s = _timed(
        lambda: run_sweep(_ScalarOnly(backend), config, SYSTEM)
    )
    vector_result, vector_s = _timed(
        lambda: run_sweep(backend, config, SYSTEM)
    )
    assert vector_result.series == serial_result.series, (
        "vectorized sweep diverged from the scalar reference"
    )

    cells = _cell_count(serial_result)
    scaling = []
    for jobs in PARALLEL_JOBS:
        workerpool.shutdown_all()
        workerpool.reset_stats()
        par_result, par_s = _timed(
            lambda jobs=jobs: run_sweep(backend, config, SYSTEM, jobs=jobs)
        )
        pool = workerpool.pool_stats()
        assert par_result.series == serial_result.series, (
            f"jobs={jobs} sweep diverged from the scalar reference"
        )
        scaling.append({
            "mode": f"vectorized+jobs={jobs}",
            "jobs": jobs,
            "seconds": par_s,
            "cells_per_s": cells / par_s,
            "speedup_vs_serial": serial_s / par_s,
            # pool telemetry over the 1 warmup + ROUNDS timed sweeps:
            # all zero, since vectorized sweeps never leave the process
            "pool_warm_reuse": pool["reuses"],
            "pool_spawns": pool["spawns"],
            "pool_shards": pool["shards_executed"],
        })
    workerpool.shutdown_all()

    return {
        "config": {
            "system": SYSTEM,
            "problem": "gemm:square+gemv:square",
            "min_dim": config.min_dim,
            "max_dim": config.max_dim,
            "step": config.step,
            "iterations": config.iterations,
            "cells": cells,
        },
        "serial": {"seconds": serial_s, "cells_per_s": cells / serial_s},
        "vectorized": {
            "seconds": vector_s,
            "cells_per_s": cells / vector_s,
            "speedup_vs_serial": serial_s / vector_s,
        },
        "parallel": scaling,
        "des": _measure_des(),
    }


def report(data: dict) -> str:
    lines = [
        f"sweep throughput — {data['config']['system']} "
        f"{data['config']['problem']}, {data['config']['cells']} cells",
        f"  serial-scalar      : {data['serial']['cells_per_s']:10.0f} cells/s",
        f"  vectorized         : "
        f"{data['vectorized']['cells_per_s']:10.0f} cells/s"
        f"  ({data['vectorized']['speedup_vs_serial']:.1f}x)",
    ]
    for row in data["parallel"]:
        lines.append(
            f"  {row['mode']:<19}: {row['cells_per_s']:10.0f} cells/s"
            f"  ({row['speedup_vs_serial']:.1f}x, "
            f"{row['pool_spawns']} pool spawn(s), "
            f"{row['pool_shards']} pool shard(s))"
        )
    des = data["des"]
    lines.append(
        f"  des jobs=1 / jobs=2: {des['jobs1_cells_per_s']:10.0f} / "
        f"{des['jobs2_cells_per_s']:.0f} cells/s"
        f"  ({des['speedup_jobs2_vs_jobs1']:.2f}x, dims 1-{des['max_dim']}, "
        f"{des['pool_shards']} pool shard(s))"
    )
    return "\n".join(lines)


def write_json(data: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_sweep_throughput.json"
    path.write_text(json.dumps(data, indent=2) + "\n")


def _jobs4_speedup(data: dict) -> float:
    return max(
        row["speedup_vs_serial"]
        for row in data["parallel"]
        if row["jobs"] == max(PARALLEL_JOBS)
    )


def test_sweep_throughput(benchmark):
    data = run_once(benchmark, measure)
    write_json(data)
    print("\n" + report(data))
    assert data["vectorized"]["speedup_vs_serial"] >= SPEEDUP_FLOOR
    assert _jobs4_speedup(data) >= PARALLEL_FLOOR


def main(argv=None) -> int:
    check = "--check" in (argv if argv is not None else sys.argv[1:])
    data = measure()
    write_json(data)
    print(report(data))
    failed = False
    speedup = data["vectorized"]["speedup_vs_serial"]
    if check and speedup < SPEEDUP_FLOOR:
        print(
            f"FAIL: vectorized speedup {speedup:.1f}x is below the "
            f"{SPEEDUP_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        failed = True
    parallel = _jobs4_speedup(data)
    if check and parallel < PARALLEL_FLOOR:
        print(
            f"FAIL: vectorized+jobs={max(PARALLEL_JOBS)} speedup "
            f"{parallel:.1f}x is below the {PARALLEL_FLOOR:.0f}x floor",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
