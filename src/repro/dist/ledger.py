"""Durable dispatch ledger for distributed campaigns.

The dispatcher journals every scheduling decision — which worker holds
which scenario, under what lease, on which attempt — to an append-only
checksummed JSONL file in the shared journal format
(:mod:`repro.journal`): one record per line, each carrying a
truncated-SHA-256 ``cs`` checksum, a torn final line (the crash
artifact) repaired on open, and a ``kind: "dist-ledger"`` header that
lets ``gpu-blob fsck`` tell a ledger from a sweep checkpoint or a
serve WAL.

The ledger is what makes a distributed campaign restartable: kill -9
the *dispatcher* mid-campaign, run the same command again with
``--resume``, and the replay folds the surviving records back into
:class:`LedgerState` — completed scenarios load their result shards
from disk, in-flight assignments are stolen (their lease owner is
gone), and the aggregated report comes out byte-identical.

Record types (all with ``cs``):

* ``header`` — ``kind: "dist-ledger"`` + format version + the campaign
  name and fingerprint it belongs to.  Resuming against a ledger whose
  fingerprint does not match the campaign file is refused
  (:class:`~repro.errors.ConfigError`) — a ledger is not portable
  across matrix edits.
* ``assign`` — scenario ``fp`` (fingerprint) + ``index`` handed to
  ``worker`` as attempt ``attempt``, leased until ``deadline``.
  Re-assignment of the same fingerprint (a steal or retry) is just
  another ``assign`` with a higher attempt.
* ``renew`` — the holder heartbeated with less than half its lease
  remaining; extends ``deadline``.
* ``complete`` — the scenario's result shard is durably on disk.
  Written at most once per fingerprint (:meth:`DispatchLedger.complete`
  is idempotent — the second finisher of a stolen scenario gets
  ``False`` and its duplicate is dropped).
* ``dead`` — the scenario exhausted ``--max-attempts`` and was
  dead-lettered; it reports as a quarantined row instead of a result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ConfigError
from ..journal import VERSIONS, ChecksummedJournal, LeaseState

__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_KIND",
    "LEDGER_VERSION",
    "DispatchLedger",
    "LedgerEntry",
    "LedgerState",
    "load_ledger_state",
]

#: Header ``kind`` marker distinguishing a dispatch ledger from the
#: other checksummed JSONL dialects (checkpoints, serve WALs).
LEDGER_KIND = "dist-ledger"

#: Format version of the dispatch ledger journal.
LEDGER_VERSION = VERSIONS[LEDGER_KIND]

#: Canonical ledger filename inside a campaign's ``--dist-dir``.
LEDGER_FILENAME = "ledger.jsonl"


@dataclass
class LedgerEntry:
    """The latest known state of one scenario, keyed by fingerprint."""

    fp: str
    index: int
    state: str = "assigned"  # "assigned" | "complete" | "dead"
    worker: str = ""
    attempt: int = 0
    deadline: float = 0.0
    reason: str = ""

    @classmethod
    def from_record(cls, rec: dict) -> "LedgerEntry":
        return cls(
            fp=str(rec["fp"]),
            index=int(rec["index"]),
            worker=str(rec["worker"]),
            attempt=int(rec["attempt"]),
            deadline=float(rec["deadline"]),
        )

    def renew(self, rec: dict) -> None:
        self.worker, self.deadline = str(rec["worker"]), float(rec["deadline"])

    def expired(self, now: float) -> bool:
        """Has the lease lapsed (the holder should have finished)?"""
        return now >= self.deadline


class LedgerState(LeaseState):
    """Everything a reader (the resuming dispatcher, fsck, a test)
    reconstructs from one ledger file: ``entries`` maps scenario
    fingerprint to :class:`LedgerEntry`."""

    kind = LEDGER_KIND
    key = "fp"
    acquire = "assign"
    live = "assigned"
    entry_type = LedgerEntry

    @property
    def campaign_fingerprint(self) -> str:
        """Campaign fingerprint stamped into the header ("" when absent)."""
        return str((self.header or {}).get("campaign_fp", ""))

    @property
    def campaign_name(self) -> str:
        return str((self.header or {}).get("campaign", ""))

    def in_flight(self) -> List[LedgerEntry]:
        """Assigned-but-unfinished scenarios, lowest index first —
        exactly what a restarted dispatcher must steal or re-run."""
        return self._live(lambda e: e.index)


def load_ledger_state(path) -> LedgerState:
    """Parse one ledger file leniently, skipping (and counting) damaged
    records.  A missing file is an empty state; damage never raises —
    ``gpu-blob fsck`` audits and repairs offline."""
    return LedgerState.load(path)


class DispatchLedger(ChecksummedJournal):
    """Append-only, fsynced journal of campaign scheduling decisions.

    Opening an existing ledger replays its records into
    :attr:`state`; a verified header bound to a *different* campaign
    fingerprint is vetoed with :class:`~repro.errors.ConfigError`
    before anything is written (the shared base class already rotates
    headerless or wrong-dialect files to a ``.bad`` sidecar).
    """

    state_type = LedgerState

    def __init__(
        self,
        path,
        campaign_name: str,
        campaign_fingerprint: str,
        lease_s: float = 30.0,
        clock=time.time,
        sync: bool = True,
    ) -> None:
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0, got {lease_s}")
        self.campaign_name = campaign_name
        self.campaign_fingerprint = campaign_fingerprint
        self.lease_s = lease_s
        super().__init__(path, clock=clock, sync=sync)

    def _header_extra(self) -> dict:
        return {
            "campaign": self.campaign_name,
            "campaign_fp": self.campaign_fingerprint,
        }

    def _check_header(self, header: Optional[dict]) -> None:
        if header is None:
            return
        found = header.get("campaign_fp")
        if found != self.campaign_fingerprint:
            raise ConfigError(
                f"dispatch ledger {self.path} belongs to campaign "
                f"{header.get('campaign')!r} (fingerprint {found}); "
                f"this run is {self.campaign_name!r} "
                f"({self.campaign_fingerprint}) — remove the stale "
                "ledger or point --dist-dir elsewhere"
            )

    # -- write side ----------------------------------------------------

    def assign(self, fp: str, index: int, worker: str,
               attempt: int) -> float:
        """Journal handing scenario ``fp`` to ``worker``; returns the
        lease deadline.  A steal or retry is a fresh assign with a
        bumped attempt."""
        deadline = self.clock() + self.lease_s
        self._record({
            "t": "assign", "fp": fp, "index": index, "worker": worker,
            "attempt": attempt, "deadline": deadline,
        })
        return deadline

    def renew(self, fp: str, worker: str) -> float:
        """Extend the lease of an in-flight scenario (heartbeat with
        less than half the lease remaining); returns the new deadline."""
        deadline = self.clock() + self.lease_s
        self._record({
            "t": "renew", "fp": fp, "worker": worker, "deadline": deadline,
        })
        return deadline

    def complete(self, fp: str) -> bool:
        """Journal completion exactly once per fingerprint: ``False``
        (and no record) when the scenario is unknown or already
        complete/dead — the duplicate-finish dedupe point."""
        return self._finish("complete", fp)

    def dead(self, fp: str, reason: str = "") -> bool:
        """Journal dead-lettering (attempts exhausted); idempotent like
        :meth:`complete`."""
        return self._finish("dead", fp, reason=reason)

    # -- read side -----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        return self.state.counts()

    def entry(self, fp: str) -> Optional[LedgerEntry]:
        return self.state.entries.get(fp)
