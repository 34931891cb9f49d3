"""Checksummed JSONL journals: the one on-disk format behind sweep
checkpoints, serve WALs and dispatch ledgers.

A journal is append-only JSONL, one record per line.  Every record
carries a ``cs`` field — a truncated SHA-256 of its own canonical JSON
form (:func:`record_checksum`) — so a flipped byte inside a
syntactically valid line can never replay as truth.  The first record
is a ``header`` whose ``kind`` names the dialect and whose ``version``
is that dialect's format version (:data:`VERSIONS`); the sweep
checkpoint predates the marker and its header carries no ``kind``.

Every reader goes through :func:`scan_lines`, which sorts each line
into good, torn tail (an unparseable *final* line — the crash artifact)
or corrupt; readers differ only in policy: the sweep checkpoint is
*strict* (:class:`repro.faults.checkpoint.CheckpointReader` refuses any
corrupt line), serve WALs and dispatch ledgers are *lenient*
(:meth:`LeaseState.load` skips and counts), and ``gpu-blob fsck``
*audits* (:mod:`repro.core.fsck`).  Repairs never rewrite a journal in
place: a torn tail is truncated away, a full rewrite goes through a
temp file and ``os.replace``, and damage is only ever *appended* to the
``<journal>.bad`` sidecar.

WALs and ledgers are lease journals — an acquire record (``accept`` /
``assign``) opens a lease, ``renew`` extends it, ``complete`` / ``dead``
end it — folded by :class:`LeaseState` and written through
:class:`ChecksummedJournal`.  DESIGN.md §16 has the dialect table.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, TextIO

__all__ = [
    "TORN",
    "UNPARSEABLE",
    "VERSIONS",
    "BadLine",
    "ChecksummedJournal",
    "JournalScan",
    "LeaseState",
    "append_sidecar",
    "encode_record",
    "read_lines",
    "record_checksum",
    "repair_torn_tail",
    "rewrite_journal",
    "scan_journal",
    "scan_lines",
]

#: Header ``kind`` -> the format version this build reads and writes.
#: ``None`` is the sweep checkpoint (v2 added the ``cs`` checksum).
VERSIONS: Dict[Optional[str], int] = {
    None: 2,
    "serve-wal": 1,
    "dist-ledger": 1,
}

#: The problems a scan reports for an unparseable line: the final one
#: is a torn tail, any other is corruption.
TORN = "torn final line (crash artifact)"
UNPARSEABLE = "unparseable JSON"

#: Journal bytes are UTF-8; undecodable bytes survive a read/write
#: round trip (and fail their checksum) instead of raising.
_ERRORS = "surrogateescape"


def record_checksum(record: dict) -> str:
    """Truncated SHA-256 of a journal record's canonical JSON form,
    excluding the ``cs`` field itself.  Canonicalization (sorted keys,
    compact separators) makes the digest independent of field order, so
    hand-repaired or merged records verify as long as their *values*
    are intact."""
    body = {k: v for k, v in record.items() if k != "cs"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def encode_record(record: dict) -> str:
    """Stamp ``record`` with its ``cs`` checksum and render it as one
    journal line (field order as given, ``cs`` last)."""
    record["cs"] = record_checksum(record)
    return json.dumps(record, separators=(",", ":")) + "\n"


def read_lines(path) -> List[str]:
    """The journal's lines, split exactly as the scanner numbers them."""
    return Path(path).read_bytes().decode("utf-8", _ERRORS).splitlines()


@dataclass
class BadLine:
    """One line a scan rejected."""

    line_no: int
    problem: str
    text: str


@dataclass
class JournalScan:
    """Per-line verdicts for one journal."""

    #: verified records in file order, headers included
    records: List[dict] = field(default_factory=list)
    #: rejected lines in file order (a torn tail can only be the last)
    bad: List[BadLine] = field(default_factory=list)

    @property
    def torn_tail(self) -> bool:
        return bool(self.bad) and self.bad[-1].problem == TORN

    @property
    def corrupt(self) -> List[BadLine]:
        """Rejected lines other than a torn tail."""
        return [b for b in self.bad if b.problem != TORN]


def scan_lines(lines: List[str]) -> JournalScan:
    """Verify journal lines one by one: each either parses as a JSON
    object whose ``cs`` matches, or is rejected as a torn tail (an
    unparseable final line) or as corrupt."""
    scan = JournalScan()
    for line_no, text in enumerate(lines, start=1):
        try:
            rec = json.loads(text)
        except ValueError:
            problem = TORN if line_no == len(lines) else UNPARSEABLE
            scan.bad.append(BadLine(line_no, problem, text))
            continue
        if not isinstance(rec, dict) or rec.get("cs") != record_checksum(rec):
            scan.bad.append(BadLine(line_no, "record checksum mismatch", text))
            continue
        scan.records.append(rec)
    return scan


def scan_journal(path) -> JournalScan:
    """:func:`scan_lines` over a file; a missing file scans empty."""
    try:
        return scan_lines(read_lines(path))
    except FileNotFoundError:
        return JournalScan()


def repair_torn_tail(path) -> bool:
    """Drop a torn (crash-truncated) final line — one with no newline
    or that does not parse — by truncating the file to the end of the
    last complete line.  Returns True when a line was dropped;
    idempotent, and committed records are never rewritten."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return False
    lines = data.decode("utf-8", _ERRORS).splitlines(keepends=True)
    if not lines:
        return False
    last = lines[-1]
    if last.endswith("\n"):
        try:
            json.loads(last)
            return False
        except ValueError:
            pass
    os.truncate(path, len(data) - len(last.encode("utf-8", _ERRORS)))
    return True


def append_sidecar(path, lines: List[str]) -> None:
    """Append damaged ``lines`` to the ``<journal>.bad`` sidecar —
    evidence accumulates, it is never overwritten."""
    blob = "".join(line + "\n" for line in lines)
    path = Path(path)
    with path.with_name(path.name + ".bad").open("ab") as fh:
        fh.write(blob.encode("utf-8", _ERRORS))


def rewrite_journal(path, lines: List[str]) -> None:
    """Replace the journal with ``lines`` via a temp file and
    ``os.replace``: a crash leaves the old or the new journal, never a
    truncated one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write("".join(line + "\n" for line in lines)
                     .encode("utf-8", _ERRORS))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# -- lease journals ----------------------------------------------------


@dataclass
class LeaseState:
    """The fold of one lease journal: every lease by id, plus what the
    lenient load skipped.

    Subclasses name their dialect through class attributes: ``kind``
    (the header marker), ``key`` (the record field holding the lease
    id), ``acquire`` (the record type opening a lease), ``live`` (the
    state of an open lease) and ``entry_type`` (built from an acquire
    record by ``from_record``, updated by a renew record through its
    ``renew``).  ``complete`` and ``dead`` are terminal: idempotent and
    sticky, so a late acquire or second finish changes nothing.
    """

    entries: Dict[object, object] = field(default_factory=dict)
    #: records skipped because their checksum, JSON or fields failed
    corrupt_records: int = 0
    #: a torn final line was present (and ignored)
    torn_tail: bool = False
    #: the verified header of this dialect, None when missing
    header: Optional[dict] = None

    kind = None
    key = "id"
    acquire = ""
    live = ""
    entry_type = None

    @property
    def has_header(self) -> bool:
        return self.header is not None

    @classmethod
    def from_scan(cls, scan: JournalScan) -> "LeaseState":
        state = cls(corrupt_records=len(scan.corrupt),
                    torn_tail=scan.torn_tail)
        for rec in scan.records:
            if not state.apply(rec):
                state.corrupt_records += 1
        return state

    @classmethod
    def load(cls, path) -> "LeaseState":
        """Parse one journal leniently: a missing file is an empty
        state, and damage never raises (``gpu-blob fsck --repair``
        moves it aside offline)."""
        return cls.from_scan(scan_journal(path))

    def apply(self, rec: dict) -> bool:
        """Fold one verified record; False when it is malformed (a
        header of another dialect or version included)."""
        t = rec.get("t")
        if t == "header":
            ours = (rec.get("kind") == self.kind
                    and rec.get("version") == VERSIONS[self.kind])
            if ours:
                self.header = rec
            return ours
        try:
            entry = self.entries.get(rec.get(self.key))
            if t == self.acquire:
                acquired = self.entry_type.from_record(rec)
                if entry is None or entry.state == self.live:
                    self.entries[rec[self.key]] = acquired
            elif t == "renew":
                if entry is not None:  # renew of a lost acquire: harmless
                    entry.renew(rec)
            elif t in ("complete", "dead"):
                if entry is not None and entry.state == self.live:
                    entry.state = t
                    entry.reason = str(rec.get("reason", ""))
            else:
                return False
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def counts(self) -> Dict[str, int]:
        out = {self.live: 0, "complete": 0, "dead": 0}
        for entry in self.entries.values():
            out[entry.state] += 1
        return out

    def _live(self, order) -> list:
        return sorted(
            (e for e in self.entries.values() if e.state == self.live),
            key=order,
        )


class ChecksummedJournal:
    """Append side of a lease journal (``state_type`` names the
    dialect).

    Opening scans the file and folds it into :attr:`state`.  A
    non-empty file without this dialect's header cannot be trusted at
    all: it is appended to the ``.bad`` sidecar and the journal starts
    fresh, so construction never fails closed.  Otherwise a torn tail
    is truncated away.  Subclasses may veto resuming from a verified
    header through :meth:`_check_header` (raise before anything is
    written).

    Appends flush and, with ``sync``, fsync.  ``healthy`` tracks the
    last append: an ``OSError`` (disk full, the chaos harness's
    ``wal-stall`` fault) flips it False, the next success flips it back.
    """

    state_type = LeaseState

    def __init__(self, path, clock=time.time, sync: bool = True) -> None:
        self.path = Path(path)
        self.clock = clock
        self.sync = sync
        self.healthy = True
        self.path.parent.mkdir(parents=True, exist_ok=True)
        scan = scan_journal(self.path)
        self.state = self.state_type.from_scan(scan)
        if self.state.header is None and (scan.records or scan.corrupt):
            append_sidecar(self.path, read_lines(self.path))
            os.truncate(self.path, 0)
            self.state = self.state_type()
        elif scan.torn_tail:
            repair_torn_tail(self.path)
        self._check_header(self.state.header)
        self._fh: Optional[TextIO] = self.path.open("a")
        if self.state.header is None:
            kind = self.state_type.kind
            self._record({"t": "header", "version": VERSIONS[kind],
                          "kind": kind, **self._header_extra()})

    def _header_extra(self) -> dict:
        """Extra fields a dialect stamps into a fresh header."""
        return {}

    def _check_header(self, header: Optional[dict]) -> None:
        """Dialect hook: veto resuming from a header that verifies but
        belongs to different work."""

    def _append(self, record: dict) -> None:
        if self._fh is None:
            raise ValueError(f"{type(self).__name__} is closed")
        line = encode_record(record)
        try:
            self._fh.write(line)
            self._fh.flush()
            if self.sync:
                os.fsync(self._fh.fileno())
        except OSError:
            self.healthy = False
            raise
        self.healthy = True

    def _record(self, record: dict) -> None:
        """Append one record and fold it into :attr:`state` exactly as
        a reader replaying the journal would."""
        self._append(record)
        self.state.apply(record)

    def _finish(self, t: str, lease_id, **fields) -> bool:
        """Journal a terminal record exactly once: False (and no record)
        when the lease is unknown or already complete/dead."""
        entry = self.state.entries.get(lease_id)
        if entry is None or entry.state != self.state_type.live:
            return False
        self._record({"t": t, self.state_type.key: lease_id, **fields})
        return True

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

