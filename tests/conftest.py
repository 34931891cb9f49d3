"""Make ``src/`` importable when pytest is run without PYTHONPATH=src,
and share the committed on-disk compatibility journals and a backend
that drives real pool workers."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import AnalyticBackend, run_sweep  # noqa: E402
from repro.core import workerpool  # noqa: E402


class ScalarAnalyticBackend(AnalyticBackend):
    """The analytic model behind scalar-only samplers.

    Overriding ``cpu_sample``/``gpu_sample`` (even just to call
    ``super()``) makes the runner distrust the inherited batch methods,
    so sweeps take the per-cell path and ``jobs>1`` shards them across
    the warm pool.  The samples are the analytic backend's, so results
    still compare byte-for-byte against an in-process analytic run.
    """

    def cpu_sample(self, *args, **kwargs):
        return super().cpu_sample(*args, **kwargs)

    def gpu_sample(self, *args, **kwargs):
        return super().gpu_sample(*args, **kwargs)


def run_on_pool(*args, **kwargs):
    """``run_sweep`` that fails unless pool workers returned shards."""
    before = workerpool.pool_stats()["shards_executed"]
    result = run_sweep(*args, **kwargs)
    assert workerpool.pool_stats()["shards_executed"] > before, (
        "the sweep never reached the worker pool"
    )
    return result


#: Journals written by the per-dialect writers that predate
#: :mod:`repro.journal`: a sweep checkpoint of an interrupted chaos run
#: (lumi, GEMM single, dims 1-64 step 16, i=8,
#: ``FaultPlan.uniform(0.35, seed=7, device_lost_rate=0.1)``, one
#: retry), a serve WAL and a dispatch ledger.  Every later build must
#: load, resume and fsck them unchanged.
COMPAT_DIR = Path(__file__).resolve().parent / "fixtures" / "journals"


@pytest.fixture
def compat_journal(tmp_path):
    """A function copying one committed compat journal into a scratch
    directory (so a test may damage or extend it)."""

    def copy(name: str) -> Path:
        dest = tmp_path / "compat" / name
        dest.parent.mkdir(exist_ok=True)
        shutil.copyfile(COMPAT_DIR / name, dest)
        return dest

    return copy
