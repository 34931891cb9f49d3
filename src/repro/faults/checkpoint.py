"""Append-only JSONL sweep checkpoints.

One line per event, flushed as it happens, so a killed sweep loses at
most the in-flight sample:

* ``header`` — format version + a fingerprint of the RunConfig, checked
  on resume so a checkpoint can never silently continue a *different*
  sweep.
* ``sample`` — one completed :class:`~repro.core.records.PerfSample`
  with its series key.  Floats are stored as JSON numbers, which
  round-trip exactly, so a resumed run is byte-identical to an
  uninterrupted one.
* ``quarantine`` — a cell that exhausted its retries.
* ``event`` — sweep-level state changes (``device-lost``, ``degraded``)
  that the resuming runner must re-apply, plus informational worker-
  supervision events (``shard-retry``, ``shard-inprocess``).

The file is the sweep-checkpoint dialect of the shared checksummed
JSONL format (:mod:`repro.journal`), read *strictly*: a torn final
line (the classic crash artifact) is dropped, but corruption anywhere
else — unparseable JSON or a failed record checksum — raises
:class:`~repro.errors.CheckpointError`, as do a foreign fingerprint
and a format-version skew.  Appends flush but do not fsync.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TextIO, Tuple

from ..core.config import config_fingerprint
from ..core.records import PerfSample, QuarantineEntry
from ..errors import CheckpointError
from ..journal import (
    UNPARSEABLE,
    VERSIONS,
    encode_record,
    repair_torn_tail,
    scan_journal,
)
from ..types import DeviceKind, Dims, Kernel, Precision, TransferType

__all__ = [
    "CheckpointReader",
    "CheckpointState",
    "CheckpointWriter",
    "sample_key",
]

#: v2 added the per-record ``cs`` integrity checksum.
FORMAT_VERSION = VERSIONS[None]

#: The key one sweep cell is checkpointed and resumed under.
SampleKey = Tuple[str, str, str, str, Optional[str], int, int, int, int]


def sample_key(
    kernel: Kernel,
    ident: str,
    precision: Precision,
    device: DeviceKind,
    transfer: Optional[TransferType],
    dims: Dims,
    iterations: int,
) -> SampleKey:
    return (
        kernel.value,
        ident,
        precision.value,
        device.value,
        transfer.value if transfer else None,
        dims.m,
        dims.n,
        dims.k,
        iterations,
    )


def _key_fields(key: SampleKey) -> dict:
    kernel, ident, precision, device, transfer, m, n, k, iterations = key
    return {
        "kernel": kernel,
        "ident": ident,
        "precision": precision,
        "device": device,
        "transfer": transfer,
        "m": m,
        "n": n,
        "k": k,
        "iterations": iterations,
    }


def _record_key(rec: dict) -> SampleKey:
    return (
        rec["kernel"], rec["ident"], rec["precision"], rec["device"],
        rec["transfer"], rec["m"], rec["n"], rec["k"], rec["iterations"],
    )


class CheckpointWriter:
    """Appends sweep events to a JSONL checkpoint file."""

    def __init__(self, path, config, system_name: Optional[str],
                 resume: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not (resume and self.path.exists())
        if not fresh:
            repair_torn_tail(self.path)
        mode = "a" if resume else "w"
        self._fh: Optional[TextIO] = self.path.open(mode)
        if fresh:
            self._write({
                "t": "header",
                "version": FORMAT_VERSION,
                "fingerprint": config_fingerprint(config, system_name),
                "system": system_name,
            })

    def _write(self, record: dict) -> None:
        if self._fh is None:  # pragma: no cover - defensive
            raise CheckpointError("checkpoint writer is closed")
        self._fh.write(encode_record(record))
        self._fh.flush()

    def sample(self, key: SampleKey, sample: PerfSample) -> None:
        rec = {"t": "sample", **_key_fields(key)}
        rec.update(
            seconds=sample.seconds,
            gflops=sample.gflops,
            checksum_ok=sample.checksum_ok,
        )
        self._write(rec)

    def quarantine(self, entry: QuarantineEntry) -> None:
        key = sample_key(
            entry.kernel, entry.ident, entry.precision, entry.device,
            entry.transfer, entry.dims, entry.iterations,
        )
        rec = {"t": "quarantine", **_key_fields(key)}
        rec.update(
            attempts=entry.attempts, error=entry.error, message=entry.message
        )
        self._write(rec)

    def event(self, kind: str, detail: str = "") -> None:
        self._write({"t": "event", "kind": kind, "detail": detail})

    def merge_shard(self, path) -> int:
        """Append every record of a per-worker shard journal (written by
        the parallel executor) to this journal, skipping the shard's own
        header line.  Returns the number of records merged."""
        if self._fh is None:  # pragma: no cover - defensive
            raise CheckpointError("checkpoint writer is closed")
        lines = Path(path).read_text().splitlines()
        for line in lines[1:]:
            self._fh.write(line + "\n")
        self._fh.flush()
        return max(0, len(lines) - 1)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


@dataclass
class CheckpointState:
    """Everything a resuming sweep replays from the checkpoint."""

    samples: Dict[SampleKey, PerfSample] = field(default_factory=dict)
    quarantine: List[QuarantineEntry] = field(default_factory=list)
    events: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def device_lost(self) -> bool:
        return any(kind == "device-lost" for kind, _ in self.events)

    @property
    def degraded(self) -> bool:
        return any(kind == "degraded" for kind, _ in self.events)

    def quarantined_keys(self) -> set:
        return {
            sample_key(e.kernel, e.ident, e.precision, e.device, e.transfer,
                       e.dims, e.iterations)
            for e in self.quarantine
        }


class CheckpointReader:
    """Parses and validates a checkpoint for resumption."""

    @staticmethod
    def load(path, config, system_name: Optional[str]) -> CheckpointState:
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"checkpoint {path} does not exist")
        scan = scan_journal(path)
        if not (scan.records or scan.bad):
            raise CheckpointError(f"checkpoint {path} is empty")
        if scan.corrupt:
            bad = scan.corrupt[0]
            if bad.problem == UNPARSEABLE:
                raise CheckpointError(
                    f"checkpoint {path} is corrupt at line {bad.line_no}"
                )
            raise CheckpointError(
                f"checkpoint {path} failed its record checksum at "
                f"line {bad.line_no}; the journal has been corrupted "
                "(run `gpu-blob fsck` to audit and repair it)"
            )
        records = scan.records
        if not records or records[0].get("t") != "header":
            raise CheckpointError(f"checkpoint {path} has no header line")
        header = records[0]
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has format version "
                f"{header.get('version')!r}; this build writes "
                f"{FORMAT_VERSION}"
            )
        expect = config_fingerprint(config, system_name)
        if header.get("fingerprint") != expect:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different sweep "
                "configuration; refusing to resume (pass resume=False to "
                "start over)"
            )
        state = CheckpointState()
        for rec in records[1:]:
            kind = rec.get("t")
            if kind == "sample":
                state.samples[_record_key(rec)] = _parse_sample(rec)
            elif kind == "quarantine":
                state.quarantine.append(_parse_quarantine(rec))
            elif kind == "event":
                state.events.append((rec.get("kind", ""), rec.get("detail", "")))
            else:
                raise CheckpointError(
                    f"checkpoint {path} has an unknown record type {kind!r}"
                )
        return state


def _parse_sample(rec: dict) -> PerfSample:
    return PerfSample(
        device=DeviceKind(rec["device"]),
        transfer=TransferType(rec["transfer"]) if rec["transfer"] else None,
        dims=Dims(rec["m"], rec["n"], rec["k"]),
        iterations=rec["iterations"],
        seconds=rec["seconds"],
        gflops=rec["gflops"],
        checksum_ok=rec["checksum_ok"],
    )


def _parse_quarantine(rec: dict) -> QuarantineEntry:
    return QuarantineEntry(
        kernel=Kernel(rec["kernel"]),
        ident=rec["ident"],
        precision=Precision(rec["precision"]),
        device=DeviceKind(rec["device"]),
        transfer=TransferType(rec["transfer"]) if rec["transfer"] else None,
        dims=Dims(rec["m"], rec["n"], rec["k"]),
        iterations=rec["iterations"],
        attempts=rec["attempts"],
        error=rec["error"],
        message=rec["message"],
    )
