"""Adaptive bisection sweeps: identical thresholds, far fewer cells.

``RunConfig.adaptive`` answers the offload-threshold question from a
coarse grid plus bisection refinement instead of a dense scan.  The
contract these tests pin: on every calibrated system, under both
backends, the reported threshold table is *identical* to the dense
sweep's for every ``min_consecutive`` the CLI exposes — while sampling
at most a quarter of the dense grid.  Composition rules (parallel
parity, cache interplay, fault/checkpoint refusal) ride along.
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from conftest import ScalarAnalyticBackend, run_on_pool
from repro import AnalyticBackend, make_model, run_sweep
from repro.backends.des import DesBackend
from repro.core.config import RunConfig
from repro.errors import ConfigError
from repro.faults import FaultKind, FaultPlan
from repro.types import Kernel

SYSTEMS = ("dawn", "lumi", "isambard-ai")
_MODELS = {name: make_model(name) for name in SYSTEMS}

CONFIG = RunConfig(
    max_dim=512, step=8, iterations=8,
    kernels=(Kernel.GEMM, Kernel.GEMV), problem_idents=("square",),
)


def _backend(kind: str, system: str):
    model = _MODELS[system]
    return AnalyticBackend(model) if kind == "analytic" else DesBackend(model)


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("kind", ("analytic", "des"))
def test_thresholds_identical_to_dense(system, kind):
    dense = run_sweep(_backend(kind, system), CONFIG, system)
    adaptive = run_sweep(
        _backend(kind, system),
        replace(CONFIG, adaptive=True),
        system,
    )
    for mc in (1, 2, 3):
        assert adaptive.thresholds(mc) == dense.thresholds(mc), (
            f"{system}/{kind} diverged at min_consecutive={mc}"
        )


def test_samples_at_most_quarter_of_dense_grid():
    adaptive = run_sweep(
        AnalyticBackend(_MODELS["dawn"]),
        replace(CONFIG, adaptive=True),
        "dawn",
    )
    sampled = adaptive.stats.adaptive_cells_sampled
    dense = adaptive.stats.adaptive_cells_dense
    assert dense > 0
    assert sampled <= dense * 0.25, f"sampled {sampled} of {dense}"


def test_adaptive_composes_with_parallel_executor():
    config = replace(CONFIG, adaptive=True)
    serial = run_sweep(AnalyticBackend(_MODELS["dawn"]), config, "dawn")
    parallel = run_on_pool(
        ScalarAnalyticBackend(_MODELS["dawn"]), config, "dawn", jobs=4
    )
    assert parallel.series == serial.series
    for mc in (1, 2, 3):
        assert parallel.thresholds(mc) == serial.thresholds(mc)
    assert (
        parallel.stats.adaptive_cells_sampled
        == serial.stats.adaptive_cells_sampled
    )


def test_adaptive_refuses_faults_and_checkpoint(tmp_path):
    config = replace(CONFIG, adaptive=True)
    backend = AnalyticBackend(_MODELS["dawn"])
    with pytest.raises(ConfigError):
        run_sweep(
            backend, config, "dawn",
            faults=FaultPlan(rates={FaultKind.KERNEL: 0.5}),
        )
    with pytest.raises(ConfigError):
        run_sweep(
            backend, config, "dawn", checkpoint=tmp_path / "sweep.jsonl"
        )


def test_adaptive_loads_dense_cache_but_never_stores(tmp_path):
    cache = tmp_path / "cache"
    backend = AnalyticBackend(_MODELS["dawn"])
    adaptive_config = replace(CONFIG, adaptive=True)

    # an adaptive run must not poison the store with a sparse series
    first = run_sweep(backend, adaptive_config, "dawn", cache_dir=cache)
    assert not list(cache.glob("*.json"))
    assert first.stats.cached_samples == 0

    # a dense run stores; the adaptive config replays it as a hit
    # (adaptive is excluded from the cache fingerprint) and answers the
    # same thresholds from the dense series
    dense = run_sweep(backend, CONFIG, "dawn", cache_dir=cache)
    assert list(cache.glob("*.json"))
    replay = run_sweep(backend, adaptive_config, "dawn", cache_dir=cache)
    assert replay.stats.cached_samples > 0
    assert replay.thresholds() == dense.thresholds()


def test_adaptive_thresholds_property_random_configs():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    given, settings = hypothesis.given, hypothesis.settings

    @st.composite
    def sweep_case(draw):
        system = draw(st.sampled_from(SYSTEMS))
        kernel = draw(st.sampled_from((Kernel.GEMM, Kernel.GEMV)))
        step = draw(st.sampled_from((4, 8, 16)))
        max_dim = draw(st.integers(min_value=8, max_value=48)) * step
        min_consecutive = draw(st.integers(min_value=1, max_value=4))
        return system, kernel, step, max_dim, min_consecutive

    @given(sweep_case())
    @settings(deadline=None, max_examples=25)
    def check(case):
        system, kernel, step, max_dim, min_consecutive = case
        config = RunConfig(
            max_dim=max_dim, step=step, iterations=4,
            kernels=(kernel,), problem_idents=("square",),
        )
        dense = run_sweep(AnalyticBackend(_MODELS[system]), config, system)
        adaptive = run_sweep(
            AnalyticBackend(_MODELS[system]),
            replace(config, adaptive=True),
            system,
        )
        assert adaptive.thresholds(min_consecutive) == dense.thresholds(
            min_consecutive
        )

    check()
