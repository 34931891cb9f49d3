"""Seeded chaos plans for the *serving* layer.

:class:`~repro.faults.plan.FaultPlan` injects faults into individual
sweep samples; this module raises the blast radius to the service
itself — the failure modes a long-running threshold daemon meets in
production:

* ``slow-backend`` — the sweep behind one job stalls for ``slow_s``
  wall seconds before running (queue pressure, p99 inflation);
* ``fail-backend`` — the sweep raises
  :class:`~repro.errors.TransientKernelError` instead of running
  (feeds the circuit breaker and the degraded-answer path);
* ``wal-stall`` — the write-ahead append for one accepted job is
  swallowed as if the disk were full (``/readyz`` must flip, the job
  must still run);
* ``wal-bitflip`` — one byte of the just-written WAL record is flipped
  on disk (the lenient loader must skip it; ``gpu-blob fsck`` must
  find and repair it).

Draws are deterministic the same way the sweep plan's are: BLAKE2b
over ``(seed, kind, key)``, so a chaos run is replayable and two runs
with one seed see identical fault sequences.  The per-job key includes
the attempt number, so a replayed job redraws its faults and retries
can genuinely succeed.

Worker death is *not* a draw here: killing a real pool worker mid-job
is the supervised executor's ``REPRO_CHAOS_KILL_SHARD`` hook.  It only
fires in sweeps that shard across the pool, and a threshold query
sweeps a single series in-process, so daemon jobs never do.  Burst
overload is a property of the replayed trace, not a fault kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

from ..errors import ConfigError
from .plan import _unit

__all__ = ["ServeChaosKind", "ServeChaosPlan", "flip_byte_in_last_record"]


class ServeChaosKind(Enum):
    """Everything the serve-level chaos harness can do to one job."""

    SLOW_BACKEND = "slow-backend"
    FAIL_BACKEND = "fail-backend"
    WAL_STALL = "wal-stall"
    WAL_BITFLIP = "wal-bitflip"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ServeChaosPlan:
    """Deterministic, seeded firing rates per serve-fault kind.

    ``rates`` maps each :class:`ServeChaosKind` to a probability in
    ``[0, 1)``; absent kinds never fire.  ``slow_s`` is the wall-clock
    stall of one ``slow-backend`` hit.
    """

    seed: int = 0
    rates: Mapping[ServeChaosKind, float] = field(default_factory=dict)
    slow_s: float = 0.2

    def __post_init__(self) -> None:
        for kind, rate in self.rates.items():
            if not isinstance(kind, ServeChaosKind):
                raise ConfigError(
                    f"rates keys must be ServeChaosKind, got {kind!r}"
                )
            if not 0.0 <= rate < 1.0:
                raise ConfigError(
                    f"chaos rate for {kind.value!r} must be in [0, 1), "
                    f"got {rate}"
                )
        if self.slow_s <= 0.0:
            raise ConfigError(f"slow_s must be > 0, got {self.slow_s}")

    @property
    def enabled(self) -> bool:
        return any(rate > 0.0 for rate in self.rates.values())

    def fires(self, kind: ServeChaosKind, key: tuple) -> bool:
        """Does ``kind`` fire for this job key?  Include the attempt
        number in ``key`` so retries decorrelate."""
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        return _unit((self.seed, "serve", kind.value) + tuple(key)) < rate

    # -- presets -------------------------------------------------------

    @classmethod
    def light(cls, seed: int = 0) -> "ServeChaosPlan":
        """Mild background chaos: occasional stalls and failures."""
        return cls(seed=seed, rates={
            ServeChaosKind.SLOW_BACKEND: 0.15,
            ServeChaosKind.FAIL_BACKEND: 0.05,
        }, slow_s=0.1)

    @classmethod
    def heavy(cls, seed: int = 0) -> "ServeChaosPlan":
        """The aggressive preset the chaos bench and CI job use."""
        return cls(seed=seed, rates={
            ServeChaosKind.SLOW_BACKEND: 0.35,
            ServeChaosKind.FAIL_BACKEND: 0.2,
            ServeChaosKind.WAL_STALL: 0.1,
        }, slow_s=0.25)

    @classmethod
    def blackout(cls, seed: int = 0) -> "ServeChaosPlan":
        """Near-total backend failure: trips every breaker, forcing the
        degraded-answer path (rates must stay < 1, so 'near')."""
        return cls(seed=seed, rates={
            ServeChaosKind.FAIL_BACKEND: 0.999,
        })

    _PRESETS = ("light", "heavy", "blackout")

    @classmethod
    def parse(cls, text: str) -> "ServeChaosPlan":
        """Build a plan from a ``--chaos-plan`` argument:
        ``"<preset>"`` or ``"<preset>:<seed>"``."""
        name, _, seed_text = text.partition(":")
        seed = 0
        if seed_text:
            try:
                seed = int(seed_text)
            except ValueError:
                raise ConfigError(
                    f"chaos-plan seed must be an integer, got {seed_text!r}"
                ) from None
        if name not in cls._PRESETS:
            raise ConfigError(
                f"unknown chaos plan {name!r}; valid: "
                + ", ".join(cls._PRESETS)
            )
        return getattr(cls, name)(seed=seed)


def flip_byte_in_last_record(path) -> bool:
    """The ``wal-bitflip`` act: XOR one digit byte inside the final
    line of ``path`` (staying syntactically valid JSON so only the
    record checksum trips).  Returns False when there is nothing to
    flip."""
    path = Path(path)
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return False
    for i in range(len(blob) - 1, -1, -1):
        if chr(blob[i]).isdigit():
            blob[i] ^= 0x01
            path.write_bytes(bytes(blob))
            return True
    return False
