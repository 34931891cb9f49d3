"""Program defects the benchmark cannot measure around, kept visible.

    PYTHONPATH=src python3 -m pytest blobbench/test_known_defects.py -q

(from the repository root).  A benchmark run only counts operations
whose outputs are right, so an executor that answers wrongly on paper
scale inputs is left out of the workloads and pinned here instead.
Each test is a strict expected failure: once the program is fixed it
passes, pytest reports the run as failed, and the executor belongs back
in its workload (``campaign-exec`` for the adaptive sweep).
"""

from __future__ import annotations

import pytest


@pytest.mark.xfail(strict=True, reason="adaptive sweep misses the dense "
                   "Unified threshold (769 vs 2089)")
def test_adaptive_campaign_rows_equal_dense():
    from repro.core.campaign import CampaignSpec, report_rows, run_campaign
    from repro.types import Kernel

    spec = CampaignSpec(
        name="known-defect", systems=("isambard-ai",), kernels=(Kernel.GEMV,),
        problems=("square",), iterations=(64,), max_dim=4096, step=8,
    )
    dense = report_rows(run_campaign(spec, jobs=1))
    adaptive = report_rows(run_campaign(spec, jobs=1, adaptive=True))
    assert adaptive == dense
