"""``gpu-blob fsck``: artifact auditing and repair.

The acceptance bar: a *single flipped byte* in any journal record or
cache entry must be detected, and ``--repair`` must move the damage out
of the way (never silently drop it) so a re-audit comes back clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import AnalyticBackend, RunConfig, make_model, run_sweep
from repro.core.csvio import write_run
from repro.core.fsck import (
    fsck_cache_entry,
    fsck_journal,
    fsck_paths,
    fsck_results_csv,
)
from repro.journal import repair_torn_tail
from repro.types import Kernel, Precision

CONFIG = RunConfig(
    max_dim=64, step=16, iterations=8,
    kernels=(Kernel.GEMM,), precisions=(Precision.SINGLE,),
)


def _backend():
    return AnalyticBackend(make_model("dawn"))


def _artifacts(tmp_path, cache=False, checkpoint=False, output=False):
    kwargs = {}
    if cache:
        kwargs["cache_dir"] = tmp_path / "cache"
    if checkpoint:
        kwargs["checkpoint"] = tmp_path / "ck.jsonl"
    result = run_sweep(_backend(), CONFIG, "dawn", **kwargs)
    if output:
        write_run(result, tmp_path / "out")
    return result


#: The committed journals the pre-``repro.journal`` writers produced.
COMPAT = ("checkpoint.jsonl", "serve-wal.jsonl", "ledger.jsonl")


def _flip_byte(path, offset_from_end=10):
    blob = bytearray(path.read_bytes())
    blob[len(blob) - offset_from_end] ^= 0x01
    path.write_bytes(bytes(blob))


# -- journals ---------------------------------------------------------


def test_clean_journal_verifies(tmp_path, compat_journal):
    _artifacts(tmp_path, checkpoint=True)
    assert fsck_journal(tmp_path / "ck.jsonl") == []
    for name in COMPAT:
        assert fsck_journal(compat_journal(name)) == [], name


def test_flipped_byte_in_any_journal_record_is_detected(
    tmp_path, compat_journal
):
    _artifacts(tmp_path, checkpoint=True)
    for journal in [tmp_path / "ck.jsonl", *map(compat_journal, COMPAT)]:
        pristine = journal.read_text()
        n_lines = len(pristine.splitlines())
        assert n_lines > 3
        for line_no in range(1, n_lines + 1):
            lines = pristine.splitlines()
            target = bytearray(lines[line_no - 1].encode())
            target[len(target) // 2] ^= 0x01  # flip one bit mid-record
            lines[line_no - 1] = target.decode("latin-1")
            journal.write_text("\n".join(lines) + "\n")
            findings = fsck_journal(journal)
            assert findings, f"flip in {journal.name}:{line_no} undetected"
            assert f"line {line_no}" in findings[0].problem


def test_journal_repair_rewrites_and_sidelines(tmp_path):
    _artifacts(tmp_path, checkpoint=True)
    journal = tmp_path / "ck.jsonl"
    lines = journal.read_text().splitlines()
    lines[2] = lines[2].replace(":", ";", 1)  # unparseable mid-file
    journal.write_text("\n".join(lines) + "\n")
    findings = fsck_journal(journal, repair=True)
    assert [f.repaired for f in findings] == [True]
    assert fsck_journal(journal) == []  # clean after repair
    sidecar = tmp_path / "ck.jsonl.bad"
    assert len(sidecar.read_text().splitlines()) == 1  # nothing dropped
    # the repaired journal is resumable: one cell re-runs, rest replay
    resumed = run_sweep(
        _backend(), CONFIG, "dawn", checkpoint=journal, resume=True
    )
    assert resumed.complete and resumed.stats.resumed_samples > 0


def test_torn_tail_is_reported_as_such(tmp_path):
    _artifacts(tmp_path, checkpoint=True)
    journal = tmp_path / "ck.jsonl"
    journal.write_text(journal.read_text()[:-20])
    findings = fsck_journal(journal)
    assert len(findings) == 1 and "torn" in findings[0].problem


def _fail_writes_midway(monkeypatch):
    """Make every write-mode open die halfway through its first write,
    like a kill -9 (or a full disk) in the middle of a rewrite."""
    real_open = Path.open

    class HalfWriter:
        def __init__(self, fh):
            self._fh = fh

        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise OSError("simulated crash mid-write")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    def open_(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return HalfWriter(fh) if "w" in mode else fh

    monkeypatch.setattr(Path, "open", open_)


def test_journal_repair_survives_a_failed_rewrite(tmp_path, monkeypatch):
    """A repair that dies mid-write must leave every committed record:
    fsck rewrites via a temp file + os.replace, and torn-tail repair
    only truncates."""
    _artifacts(tmp_path, checkpoint=True)
    journal = tmp_path / "ck.jsonl"
    lines = journal.read_text().splitlines()
    lines[2] = lines[2].replace(":", ";", 1)  # unparseable mid-file
    damaged = ("\n".join(lines) + "\n").encode()
    journal.write_bytes(damaged)
    torn = tmp_path / "torn.jsonl"
    intact = "".join(line + "\n" for line in lines[:2]).encode()
    torn.write_bytes(intact + b'{"t": "sam')

    _fail_writes_midway(monkeypatch)
    with pytest.raises(OSError, match="simulated crash"):
        fsck_journal(journal, repair=True)
    assert journal.read_bytes() == damaged
    assert repair_torn_tail(torn) is True
    assert torn.read_bytes() == intact
    monkeypatch.undo()

    assert [f.repaired for f in fsck_journal(journal, repair=True)] == [True]
    assert fsck_journal(journal) == []
    assert sorted(p.name for p in tmp_path.iterdir()
                  if p.name.startswith("ck.")) == ["ck.jsonl", "ck.jsonl.bad"]


def test_headerless_journal_is_not_repairable(tmp_path):
    journal = tmp_path / "ck.jsonl"
    journal.write_text("garbage\n")
    findings = fsck_journal(journal, repair=True)
    assert findings and not all(f.repaired for f in findings)


# -- cache entries ----------------------------------------------------


def test_flipped_byte_in_cache_entry_is_detected_and_quarantined(tmp_path):
    _artifacts(tmp_path, cache=True)
    (entry,) = (tmp_path / "cache").glob("*.json")
    _flip_byte(entry)
    findings = fsck_cache_entry(entry)
    assert findings and not findings[0].repaired
    findings = fsck_cache_entry(entry, repair=True)
    assert findings[0].repaired
    assert not entry.exists()
    assert (tmp_path / "cache" / "quarantine" / entry.name).exists()


# -- results CSVs -----------------------------------------------------


def test_results_csv_checks(tmp_path):
    _artifacts(tmp_path, output=True)
    (csv_path,) = (tmp_path / "out").glob("*.csv")
    assert fsck_results_csv(csv_path) == []
    text = csv_path.read_text()
    csv_path.write_text(text.replace("8,", "-8,", 1))  # negative field
    findings = fsck_results_csv(csv_path)
    assert findings
    # filename <-> content mismatch: rename to a different _iN suffix
    renamed = csv_path.with_name(csv_path.name.replace("_i8", "_i4"))
    csv_path.write_text(text)
    csv_path.replace(renamed)
    findings = fsck_results_csv(renamed)
    assert findings and "_i4" in findings[0].problem


# -- dispatcher + end-to-end ------------------------------------------


def test_fsck_paths_audits_a_whole_run_and_repairs(tmp_path):
    _artifacts(tmp_path, cache=True, checkpoint=False, output=True)
    _artifacts(tmp_path, checkpoint=True)
    targets = [tmp_path / "cache", tmp_path / "out", tmp_path / "ck.jsonl"]
    assert fsck_paths(targets) == []
    (entry,) = (tmp_path / "cache").glob("*.json")
    _flip_byte(entry)
    journal = tmp_path / "ck.jsonl"
    lines = journal.read_text().splitlines()
    lines[1] = json.dumps({"t": "sample", "cs": "forged"})
    journal.write_text("\n".join(lines) + "\n")
    findings = fsck_paths(targets)
    assert {f.kind for f in findings} == {"cache", "journal"}
    assert all(not f.repaired for f in findings)
    repaired = fsck_paths(targets, repair=True)
    assert repaired and all(f.repaired for f in repaired)
    assert fsck_paths(targets) == []


def test_missing_path_is_a_finding(tmp_path):
    findings = fsck_paths([tmp_path / "nope"])
    assert findings and "does not exist" in findings[0].problem
