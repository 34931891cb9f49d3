"""Sweep configuration, mirroring GPU-BLOB's command line."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import ConfigError
from ..types import ALL_PRECISIONS, Kernel, Precision, TransferType
from .problem import ProblemType, get_problem_type

__all__ = ["RunConfig", "config_fingerprint"]

_ALL_TRANSFERS = (TransferType.ONCE, TransferType.ALWAYS, TransferType.UNIFIED)


@dataclass(frozen=True)
class RunConfig:
    """What to sweep.

    ``min_dim``/``max_dim`` bound every dimension (``-s``/``-d`` in the
    C++ benchmark), ``iterations`` is the data re-use count (``-i``),
    ``step`` strides the sweep parameter (the final size is always
    included so the threshold monitor sees the top of the range).
    """

    min_dim: int = 1
    max_dim: int = 4096
    iterations: int = 1
    step: int = 1
    kernels: Tuple[Kernel, ...] = (Kernel.GEMM, Kernel.GEMV)
    problem_idents: Tuple[str, ...] = ("square",)
    precisions: Tuple[Precision, ...] = ALL_PRECISIONS
    transfers: Tuple[TransferType, ...] = _ALL_TRANSFERS
    cpu_enabled: bool = True
    gpu_enabled: bool = True
    alpha: float = 1.0
    beta: float = 0.0
    validate: bool = False
    #: Adaptive sweep mode: coarse grid + bisection refinement around
    #: each threshold crossing instead of a dense scan (see
    #: :mod:`repro.core.adaptive`).  Deliberately *excluded* from the
    #: checkpoint/cache config fingerprint — adaptive runs answer with
    #: dense-identical thresholds, may replay a dense cache entry, and
    #: never store one.
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.min_dim < 1:
            raise ConfigError(f"min_dim must be >= 1, got {self.min_dim}")
        if self.max_dim < self.min_dim:
            raise ConfigError(
                f"max_dim ({self.max_dim}) must be >= min_dim ({self.min_dim})"
            )
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.step < 1:
            raise ConfigError(f"step must be >= 1, got {self.step}")
        if not self.cpu_enabled and not self.gpu_enabled:
            raise ConfigError("at least one of cpu_enabled/gpu_enabled is required")
        if self.gpu_enabled and self.cpu_enabled and not self.transfers:
            raise ConfigError("gpu_enabled sweeps need at least one transfer type")
        for t in self.transfers:
            if t not in _ALL_TRANSFERS:
                raise ConfigError(f"unknown transfer type: {t!r}")
        # Resolve every (kernel, ident) pair eagerly so typos fail fast,
        # and fail with the valid registry names instead of a bare miss.
        if not self.problem_types():
            from .problem import problem_idents

            valid = "; ".join(
                f"{k.value}: {list(problem_idents(k))}" for k in self.kernels
            )
            raise ConfigError(
                f"no problem type in {self.problem_idents!r} exists for "
                f"kernels {[k.value for k in self.kernels]!r}; valid "
                f"problem types — {valid}"
            )

    def problem_types(self) -> List[ProblemType]:
        """The resolved (kernel, ident) matrix, skipping idents that do
        not exist for a kernel (e.g. ``mn_k32`` under GEMV)."""
        out = []
        for kernel in self.kernels:
            for ident in self.problem_idents:
                try:
                    out.append(get_problem_type(kernel, ident))
                except Exception:
                    continue
        return out

    def sweep_params(self, problem_type: ProblemType) -> List[int]:
        """Strided sweep parameters, always including the top value."""
        params = list(problem_type.param_range(self.min_dim, self.max_dim))
        if not params:
            return []
        strided = params[:: self.step]
        if strided[-1] != params[-1]:
            strided.append(params[-1])
        return strided


def config_fingerprint(config: RunConfig, system_name: Optional[str]) -> str:
    """Stable hash of everything that must match for a checkpoint resume
    or a sweep-cache hit to be meaningful."""
    payload = {
        "min_dim": config.min_dim,
        "max_dim": config.max_dim,
        "iterations": config.iterations,
        "step": config.step,
        "kernels": [k.value for k in config.kernels],
        "problem_idents": list(config.problem_idents),
        "precisions": [p.value for p in config.precisions],
        "transfers": [t.value for t in config.transfers],
        "cpu_enabled": config.cpu_enabled,
        "gpu_enabled": config.gpu_enabled,
        "alpha": config.alpha,
        "beta": config.beta,
        "system": system_name,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
