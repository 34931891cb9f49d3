"""The benchmark's own checks: no process it starts outlives a run.

    PYTHONPATH=src python3 -m pytest blobbench/test_hygiene.py -q

(from the repository root).  The test process registers as the child
subreaper, so any process the benchmark leaves behind is re-parented
to it and shows up here instead of vanishing under PID 1.
"""

from __future__ import annotations

import ctypes
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(autouse=True)
def subreaper():
    libc = ctypes.CDLL(None, use_errno=True)
    assert libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER


def _parents():
    out = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            fields = stat[stat.rindex(")") + 2:].split()
            if fields[0] != "Z":
                out[int(entry)] = int(fields[1])
    return out


def tree(pid):
    """Live descendants of ``pid``."""
    parents, found, frontier = _parents(), [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [p for p, pp in parents.items() if pp == parent]
        found.extend(children)
        frontier.extend(children)
    return found


def orphans():
    """Live processes re-parented to this test process."""
    time.sleep(0.5)
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                break
        except ChildProcessError:
            break
    return tree(os.getpid())


def start(workload, seconds, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.Popen(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = queue.Queue()
    threading.Thread(target=lambda: [lines.put(line) for line in proc.stderr],
                     daemon=True).start()
    return proc, lines


def finish(proc, timeout=170):
    """Standard output once the run has exited (stderr is drained by
    the reader thread :func:`start` set up)."""
    out = proc.stdout.read()
    proc.wait(timeout=timeout)
    return out


def wait_for(lines, marker, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if marker in lines.get(timeout=1):
                return
        except queue.Empty:
            pass
    raise AssertionError(f"never saw {marker!r}")


@pytest.mark.parametrize("workload, phase, at_least", [
    ("serve-mixed", "phase daemon-up", 2),      # child + daemon
    ("campaign-exec", "phase pool-warm", 3),    # child + two pool workers
])
def test_sigterm_mid_workload_leaves_no_process(workload, phase, at_least):
    proc, lines = start(workload, seconds=30)
    try:
        wait_for(lines, phase)
        time.sleep(1.0)
        assert len(tree(proc.pid)) >= at_least
        proc.send_signal(signal.SIGTERM)
        out = finish(proc, timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM
    assert '"correct"' not in out
    assert orphans() == []


def test_completed_run_reports_and_leaves_no_process():
    proc, _lines = start("serve-mixed", seconds=4)
    out = finish(proc)
    assert proc.returncode == 0
    meta, result = (json.loads(line) for line in out.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert meta["blobbench"]["leaked_processes"] == 0
    assert orphans() == []


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, _lines = start("tables-sweep", seconds=5, cwd=tmp_path,
                         script=tmp_path / HERE.name / "run.py")
    out = finish(proc)
    assert proc.returncode != 0
    assert '"correct"' not in out
    assert orphans() == []
