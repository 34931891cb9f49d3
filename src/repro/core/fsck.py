"""Artifact auditing and repair — the engine behind ``gpu-blob fsck``.

Three artifact families leave a sweep on disk, and all three now carry
enough redundancy to be audited offline:

* **checkpoint journals, serve WALs and dispatch ledgers**
  (``*.jsonl``) — every record carries a ``cs`` checksum
  (:func:`repro.journal.record_checksum`), the first line must be a
  versioned header (its ``kind`` selects the dialect's format version
  in :data:`repro.journal.VERSIONS`; an *unknown* kind is reported,
  never silently version-checked as a checkpoint), and only the
  *final* line may be torn (the crash artifact the writer itself
  repairs on resume/restart);
* **distributed result shards** (``<fp16>.json``) — a scenario
  fingerprint in the filename and a ``payload_sha256`` digest inside;
* **sweep-cache entries** (``<sha256>.json``) — every entry embeds a
  ``payload_sha256`` over its canonical payload
  (:func:`repro.core.sweepcache.payload_digest`);
* **results CSVs** (``*.csv`` + ``quarantine.json``) — rows must parse
  back into :class:`~repro.core.records.PerfSample` with finite,
  positive seconds and finite, non-negative GFLOP/s, under the series
  the filename promises.

:func:`fsck_paths` dispatches on what it finds; each checker returns
:class:`Finding` objects.  With ``repair=True`` the damage is *moved
out of the way*, never silently dropped: bad journal lines are
appended to a ``<journal>.bad`` sidecar (the journal is then atomically
replaced by its verified records), and bad cache entries / CSVs move
into a ``quarantine/`` subdirectory.  A finding that cannot be
repaired (a journal with no valid header, say) stays ``repaired=False``
and keeps the exit code non-zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional

from ..journal import (
    VERSIONS,
    append_sidecar,
    read_lines,
    rewrite_journal,
    scan_lines,
)
from .csvio import QUARANTINE_FILENAME, read_samples
from .sweepcache import CACHE_VERSION, LOCK_FILENAME, payload_digest

__all__ = [
    "Finding",
    "fsck_cache_entry",
    "fsck_journal",
    "fsck_paths",
    "fsck_result_shard",
    "fsck_results_csv",
]

#: Cache-entry stems are full SHA-256 hex digests.
_SHA256_HEX = 64

#: Dist result-shard stems are 16-hex scenario fingerprints.
_FP_HEX = 16


@dataclass
class Finding:
    """One integrity problem fsck found in one artifact."""

    path: Path
    kind: str  # "journal" | "cache" | "results"
    problem: str
    repaired: bool = False

    def __str__(self) -> str:
        status = "repaired" if self.repaired else "FOUND"
        return f"[{status}] {self.kind} {self.path}: {self.problem}"


def _quarantine_file(path: Path, kind: str, problem: str,
                     repair: bool) -> Finding:
    """Move a damaged artifact into a ``quarantine/`` sibling directory
    (repair mode) and report the finding either way."""
    repaired = False
    if repair:
        dest_dir = path.parent / "quarantine"
        dest_dir.mkdir(parents=True, exist_ok=True)
        path.replace(dest_dir / path.name)
        repaired = True
    return Finding(path=path, kind=kind, problem=problem, repaired=repaired)


# -- journals ---------------------------------------------------------


def _header_problem(records: List[dict]) -> Optional[str]:
    """Why the first verified record is not a header this build reads
    (None when it is)."""
    if not records:
        return "no valid records at all"
    header = records[0]
    kind = header.get("kind")
    if header.get("t") != "header":
        return "first valid record is not a header"
    if kind not in VERSIONS:
        # an unknown dialect must be *reported*, not silently
        # version-checked as a checkpoint: a version-skewed ledger
        # from a newer build should be visible, not ignored
        known = ", ".join(repr(k) for k in VERSIONS if k is not None)
        return (f"unknown journal kind {kind!r} (this build reads: "
                f"sweep checkpoints, {known})")
    if header.get("version") != VERSIONS[kind]:
        return (f"format version {header.get('version')!r} "
                f"(this build reads {VERSIONS[kind]} for "
                + (f"kind {kind!r})" if kind else "sweep checkpoints)"))
    return None


def fsck_journal(path, repair: bool = False) -> List[Finding]:
    """Audit one checksummed journal line by line.

    Repair appends every rejected line to a ``<journal>.bad`` sidecar,
    then atomically replaces the journal with the lines that verify.  A
    journal whose header itself is missing or corrupt cannot be
    repaired — resuming from it would be meaningless anyway.
    """
    path = Path(path)
    try:
        lines = read_lines(path)
    except OSError as exc:
        return [Finding(path, "journal", f"unreadable: {exc}")]
    scan = scan_lines(lines)
    findings = [
        Finding(path, "journal", f"line {bad.line_no}: {bad.problem}")
        for bad in scan.bad
    ]
    header_problem = _header_problem(scan.records)
    if header_problem is not None:
        findings.append(Finding(path, "journal", header_problem))
    elif repair and scan.bad:
        append_sidecar(path, [bad.text for bad in scan.bad])
        rejected = {bad.line_no for bad in scan.bad}
        rewrite_journal(path, [
            line for no, line in enumerate(lines, start=1)
            if no not in rejected
        ])
        for f in findings:
            f.repaired = True
    return findings


# -- distributed result shards ----------------------------------------


def fsck_result_shard(path, repair: bool = False) -> List[Finding]:
    """Audit one distributed-campaign result shard (``<fp16>.json``):
    the format version, the fingerprint the filename promises, and the
    embedded payload digest must all verify.  Repair quarantines the
    shard — the dispatcher then simply re-executes that scenario."""
    from ..dist.worker import SHARD_VERSION

    path = Path(path)
    try:
        entry = json.loads(path.read_text())
    except OSError as exc:
        return [Finding(path, "shard", f"unreadable: {exc}")]
    except ValueError:
        return [_quarantine_file(path, "shard", "unparseable JSON", repair)]
    if not isinstance(entry, dict) or entry.get("version") != SHARD_VERSION:
        return [_quarantine_file(
            path, "shard",
            f"stale or missing format version (this build writes "
            f"{SHARD_VERSION})",
            repair,
        )]
    if entry.get("fingerprint") != path.stem:
        return [_quarantine_file(
            path, "shard",
            f"fingerprint {entry.get('fingerprint')!r} contradicts the "
            "filename",
            repair,
        )]
    payload = {
        k: v for k, v in entry.items()
        if k not in ("version", "fingerprint", "payload_sha256")
    }
    if entry.get("payload_sha256") != payload_digest(payload):
        return [_quarantine_file(
            path, "shard", "payload sha256 mismatch", repair
        )]
    return []


# -- sweep-cache entries ----------------------------------------------


def fsck_cache_entry(path, repair: bool = False) -> List[Finding]:
    """Audit one content-addressed cache entry; repair quarantines it."""
    path = Path(path)
    try:
        entry = json.loads(path.read_text())
    except OSError as exc:
        return [Finding(path, "cache", f"unreadable: {exc}")]
    except ValueError:
        return [_quarantine_file(path, "cache", "unparseable JSON", repair)]
    if not isinstance(entry, dict) or entry.get("version") != CACHE_VERSION:
        return [_quarantine_file(
            path, "cache",
            f"stale or missing format version (this build writes "
            f"{CACHE_VERSION})",
            repair,
        )]
    payload = {
        k: v for k, v in entry.items()
        if k not in ("version", "payload_sha256")
    }
    if entry.get("payload_sha256") != payload_digest(payload):
        return [_quarantine_file(
            path, "cache", "payload sha256 mismatch", repair
        )]
    return []


# -- results CSVs -----------------------------------------------------


def fsck_results_csv(path, repair: bool = False) -> List[Finding]:
    """Audit one per-series results CSV; repair quarantines the file.

    Beyond "do the rows parse", every sample must be physically
    plausible on its face (finite positive seconds, finite non-negative
    GFLOP/s) and the iteration count must match the ``_iN`` suffix the
    filename promises — a renamed or truncated artifact fails loudly.
    """
    path = Path(path)
    problems: List[str] = []
    try:
        samples = read_samples(path)
    except OSError as exc:
        return [Finding(path, "results", f"unreadable: {exc}")]
    except Exception as exc:
        problems.append(f"rows do not parse: {type(exc).__name__}: {exc}")
        samples = []
    iterations: Optional[int] = None
    stem = path.stem
    if "_i" in stem:
        tail = stem.rsplit("_i", 1)[1]
        if tail.isdigit():
            iterations = int(tail)
    for row, sample in enumerate(samples, start=2):  # row 1 is the header
        if not (math.isfinite(sample.seconds) and sample.seconds > 0):
            problems.append(f"row {row}: non-positive or non-finite seconds")
        elif not (math.isfinite(sample.gflops) and sample.gflops >= 0):
            problems.append(f"row {row}: negative or non-finite gflops")
        elif iterations is not None and sample.iterations != iterations:
            problems.append(
                f"row {row}: iterations {sample.iterations} contradict "
                f"the filename's _i{iterations} suffix"
            )
    if not problems:
        return []
    summary = problems[0] if len(problems) == 1 else (
        f"{problems[0]} (+{len(problems) - 1} more)"
    )
    return [_quarantine_file(path, "results", summary, repair)]


def _fsck_quarantine_json(path: Path, repair: bool) -> List[Finding]:
    try:
        report = json.loads(path.read_text())
    except OSError as exc:
        return [Finding(path, "results", f"unreadable: {exc}")]
    except ValueError:
        return [_quarantine_file(path, "results", "unparseable JSON", repair)]
    if not isinstance(report, list):
        return [_quarantine_file(
            path, "results", "quarantine report is not a JSON list", repair
        )]
    return []


# -- dispatcher -------------------------------------------------------


def _is_hex_stem(path: Path, length: int) -> bool:
    stem = path.stem
    return len(stem) == length and all(
        c in "0123456789abcdef" for c in stem
    )


def _is_cache_entry(path: Path) -> bool:
    return _is_hex_stem(path, _SHA256_HEX)


def _is_result_shard(path: Path) -> bool:
    return _is_hex_stem(path, _FP_HEX)


def _fsck_one_file(path: Path, repair: bool) -> List[Finding]:
    if path.suffix == ".jsonl":
        return fsck_journal(path, repair)
    if path.suffix == ".csv":
        return fsck_results_csv(path, repair)
    if path.name == QUARANTINE_FILENAME:
        return _fsck_quarantine_json(path, repair)
    if path.suffix == ".json" and _is_cache_entry(path):
        return fsck_cache_entry(path, repair)
    if path.suffix == ".json" and _is_result_shard(path):
        return fsck_result_shard(path, repair)
    return []


def fsck_paths(paths: Iterable, repair: bool = False) -> List[Finding]:
    """Audit every artifact reachable from ``paths``.

    Files are dispatched by shape (``*.jsonl`` journal, ``*.csv``
    results series, ``quarantine.json`` report, 64-hex ``*.json`` cache
    entry); directories are scanned one level deep, skipping the cache
    lock file and anything already quarantined.
    """
    findings: List[Finding] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for child in sorted(p.iterdir()):
                if child.name == LOCK_FILENAME or child.name == "quarantine":
                    continue
                if child.is_file():
                    findings.extend(_fsck_one_file(child, repair))
        elif p.is_file():
            findings.extend(_fsck_one_file(p, repair))
        else:
            findings.append(
                Finding(p, "path", "does not exist")
            )
    return findings
