"""Campaign orchestration overhead and determinism.

Runs the committed ``campaigns/ci-smoke.toml`` matrix (2 systems x 2
problem types x 2 precisions x 2 paradigms at i=8) through
:func:`repro.core.campaign.run_campaign` serially on the analytic
backend and sharded across a 2-worker pool on the DES backend (a
vectorized analytic sweep never leaves the process, so only a per-cell
backend reaches the pool), and asserts the two aggregated reports are
byte-identical *and* match the committed golden under
``results/campaign/ci-smoke/`` — the same contract the CI
``campaign-smoke`` job enforces, measured here.

Writes ``results/BENCH_campaign_matrix.json``.  Runnable standalone::

    PYTHONPATH=src:benchmarks python benchmarks/bench_campaign_matrix.py
    PYTHONPATH=src:benchmarks python benchmarks/bench_campaign_matrix.py --check

``--check`` exits non-zero on any report divergence, golden drift or
a DES run that never reached the pool.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from harness import RESULTS_DIR, run_once
from repro.core import workerpool
from repro.core.campaign import (
    check_drift,
    load_campaign,
    run_campaign,
    write_report,
)

CAMPAIGN = Path(__file__).resolve().parent.parent / "campaigns" / "ci-smoke.toml"


def _timed(campaign, jobs: int, out: Path, backend=None) -> float:
    start = time.perf_counter()
    result = run_campaign(campaign, jobs=jobs, backend=backend,
                          cache_dir=None)
    elapsed = time.perf_counter() - start
    assert result.complete, f"jobs={jobs} campaign did not complete"
    write_report(result, out)
    return elapsed


def measure() -> dict:
    campaign = load_campaign(CAMPAIGN)
    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = Path(tmp) / "serial"
        parallel_dir = Path(tmp) / "parallel"
        serial_s = _timed(campaign, 1, serial_dir)
        workerpool.reset_stats()
        parallel_s = _timed(campaign, 2, parallel_dir, backend="des")
        pool_shards = workerpool.pool_stats()["shards_executed"]
        csv_bytes = (serial_dir / "campaign_report.csv").read_bytes()
        identical = (
            csv_bytes == (parallel_dir / "campaign_report.csv").read_bytes()
            and (serial_dir / "campaign_report.json").read_bytes()
            == (parallel_dir / "campaign_report.json").read_bytes()
        )
        golden = campaign.golden_path()
        drift_free = (
            golden is not None
            and golden.is_file()
            and csv_bytes == golden.read_bytes()
        )
        rows = csv_bytes.decode().count("\r\n") - 1
    return {
        "campaign": campaign.name,
        "matrix_size": campaign.matrix_size,
        "scenarios": len(campaign.systems) * len(campaign.iterations),
        "report_rows": rows,
        "serial": {"seconds": serial_s},
        "parallel": {
            "jobs": 2,
            "backend": "des",
            "seconds": parallel_s,
            "pool_shards": pool_shards,
        },
        "reports_byte_identical": identical,
        "golden_drift_free": drift_free,
    }


def report(data: dict) -> str:
    return "\n".join([
        f"campaign {data['campaign']} — {data['matrix_size']} matrix "
        f"cells over {data['scenarios']} scenario sweep(s), "
        f"{data['report_rows']} report rows",
        f"  serial     : {data['serial']['seconds']:7.3f} s",
        f"  DES jobs=2 : {data['parallel']['seconds']:7.3f} s "
        f"({data['parallel']['pool_shards']} pool shard(s))",
        f"  byte-identical reports: {data['reports_byte_identical']}",
        f"  golden drift-free     : {data['golden_drift_free']}",
    ])


def write_json(data: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "BENCH_campaign_matrix.json"
    path.write_text(json.dumps(data, indent=2) + "\n")


def test_campaign_matrix(benchmark):
    data = run_once(benchmark, measure)
    write_json(data)
    print("\n" + report(data))
    assert data["reports_byte_identical"]
    assert data["golden_drift_free"]
    assert data["parallel"]["pool_shards"] > 0
    # check_drift on own rows must also be clean (the CLI path)
    campaign = load_campaign(CAMPAIGN)
    result = run_campaign(campaign, cache_dir=None)
    assert check_drift(result.rows(), campaign.golden_path()) == []


def main(argv=None) -> int:
    check = "--check" in (argv if argv is not None else sys.argv[1:])
    data = measure()
    write_json(data)
    print(report(data))
    healthy = (
        data["reports_byte_identical"]
        and data["golden_drift_free"]
        and data["parallel"]["pool_shards"] > 0
    )
    if check and not healthy:
        print("FAIL: campaign reports diverged, drifted from the golden "
              "or never reached the pool", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
