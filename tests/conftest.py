"""Make ``src/`` importable when pytest is run without PYTHONPATH=src,
and share the committed on-disk compatibility journals."""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

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
