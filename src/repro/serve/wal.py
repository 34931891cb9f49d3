"""Durable write-ahead journal of accepted serve jobs.

``gpu-blob serve`` accepts a cache-miss threshold query *before* the
sweep behind it has run; until this module existed, a daemon crash
silently dropped every such accepted job.  The WAL closes that window:
an ``accept`` record is flushed and fsynced to disk before the job is
queued, a ``complete`` record lands when the sweep's result is safely
in the content-addressed cache, and on startup the daemon replays
every accepted-but-incomplete entry through the supervised executor —
so ``kill -9`` mid-burst followed by a restart still answers every
accepted job, byte-identical to an uninterrupted run.

The journal is one dialect of the shared checksummed-JSONL format
(:mod:`repro.journal`): a torn final line is repaired on open, and the
WAL loads *leniently* — a record that fails its checksum is skipped
and counted (``corrupt_records``), never allowed to take the serving
daemon down; ``gpu-blob fsck`` audits and repairs the damage offline.

Record types (all with ``cs``):

* ``header`` — ``kind: "serve-wal"`` + format version; distinguishes a
  WAL from a sweep checkpoint for ``fsck``.
* ``accept`` — one accepted cache-miss job: monotonically increasing
  ``id``, the sweep-cache ``key`` it computes, the normalized ``query``
  body needed to re-run it, and a lease (``owner``, ``deadline``,
  ``attempt``).
* ``renew`` — a restarted daemon taking over a pending job: bumps the
  lease and the attempt count (the replay backoff policy keys on it).
* ``complete`` — the job's result reached the sweep cache.  Written at
  most once per id (:meth:`WriteAheadLog.mark_complete` is
  idempotent).
* ``dead`` — the job was abandoned: attempts exhausted, its query no
  longer parses, or the queue rejected it.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..journal import VERSIONS, ChecksummedJournal, LeaseState

__all__ = [
    "WAL_KIND",
    "WAL_VERSION",
    "WalJob",
    "WalState",
    "WriteAheadLog",
    "default_owner",
    "load_wal_state",
]

#: The header ``kind`` marker that distinguishes a serve WAL from the
#: other checksummed JSONL dialects.
WAL_KIND = "serve-wal"

#: Format version of the serve WAL journal.
WAL_VERSION = VERSIONS[WAL_KIND]


def default_owner() -> str:
    """The lease owner id of this daemon process."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WalJob:
    """One accepted job as reconstructed from the journal."""

    job_id: int
    key: str
    query: dict
    attempt: int
    owner: str
    deadline: float
    state: str = "pending"  # "pending" | "complete" | "dead"
    reason: str = ""

    @classmethod
    def from_record(cls, rec: dict) -> "WalJob":
        return cls(
            job_id=int(rec["id"]),
            key=str(rec["key"]),
            query=dict(rec["query"]),
            attempt=int(rec["attempt"]),
            owner=str(rec["owner"]),
            deadline=float(rec["deadline"]),
        )

    def renew(self, rec: dict) -> None:
        self.attempt, self.owner, self.deadline = (
            int(rec["attempt"]), str(rec["owner"]), float(rec["deadline"])
        )

    def expired(self, now: float) -> bool:
        """Has the lease lapsed (the owner should have finished by now)?"""
        return now >= self.deadline


class WalState(LeaseState):
    """Everything a reader (the replaying daemon, fsck, a test)
    reconstructs from one WAL file: ``entries`` maps job id to
    :class:`WalJob`."""

    kind = WAL_KIND
    key = "id"
    acquire = "accept"
    live = "pending"
    entry_type = WalJob

    def pending(self) -> List[WalJob]:
        """Accepted jobs with no ``complete``/``dead`` record, oldest
        first — exactly what a restarted daemon must replay."""
        return self._live(lambda j: j.job_id)


def load_wal_state(path) -> WalState:
    """Parse one WAL file, skipping (and counting) damaged records."""
    return WalState.load(path)


class WriteAheadLog(ChecksummedJournal):
    """Append-only, fsynced journal of accepted serve jobs.

    See :class:`~repro.journal.ChecksummedJournal` for the
    open/repair/rotate behavior; ``/readyz`` reports :attr:`healthy`.
    """

    state_type = WalState

    def __init__(
        self,
        path,
        owner: Optional[str] = None,
        lease_s: float = 120.0,
        clock=time.time,
        sync: bool = True,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self.owner = owner if owner is not None else default_owner()
        self.lease_s = lease_s
        super().__init__(path, clock=clock, sync=sync)
        self._next_id = max(self.state.entries, default=0) + 1

    def append_accept(self, key: str, query: dict, attempt: int = 1) -> int:
        """Journal one accepted job; returns its id.  Must be called
        *before* the job is queued — that is the write-ahead part."""
        job_id = self._next_id
        self._record({
            "t": "accept",
            "id": job_id,
            "key": key,
            "query": query,
            "attempt": attempt,
            "owner": self.owner,
            "deadline": self.clock() + self.lease_s,
        })
        self._next_id += 1
        return job_id

    def renew(self, job_id: int) -> int:
        """Take over a pending job (new lease, attempt+1); returns the
        new attempt number."""
        attempt = self.state.entries[job_id].attempt + 1
        self._record({
            "t": "renew",
            "id": job_id,
            "attempt": attempt,
            "owner": self.owner,
            "deadline": self.clock() + self.lease_s,
        })
        return attempt

    def mark_complete(self, job_id: int) -> bool:
        """Journal completion exactly once: False (and no record) when
        the job is unknown or already complete/dead."""
        return self._finish("complete", job_id)

    def mark_dead(self, job_id: int, reason: str = "") -> bool:
        """Journal abandonment (attempts exhausted, unparseable query,
        queue rejection); idempotent like :meth:`mark_complete`."""
        return self._finish("dead", job_id, reason=reason)

    # -- read side -----------------------------------------------------

    def pending(self) -> List[WalJob]:
        return self.state.pending()

    def counts(self) -> Dict[str, int]:
        return self.state.counts()

    def lease_counts(self) -> Tuple[int, int]:
        """(active, expired) leases over the pending jobs."""
        now = self.clock()
        pending = self.pending()
        expired = sum(1 for job in pending if job.expired(now))
        return len(pending) - expired, expired
