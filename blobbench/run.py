"""GPU-BLOB benchmark driver: one named workload per invocation.

    python3 blobbench/run.py --workload tables-sweep|serve-mixed|campaign-exec \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it holds the run metadata
(commit, versions, core count, load average and a host-speed probe
before and after, seed, workload parameters and the workload's own
named figures).

This process is a supervisor.  It measures set-up in fresh probe
processes, runs the workload in a fresh child, and owns every process
either of them starts: it registers as the child subreaper, so an
orphaned grandchild (a warm-pool worker, a dist worker, the serve
daemon) is re-parented here instead of to PID 1.  Anything still alive
once the workload has shut down is counted as a failed check and
killed.  The run has its own wall-clock cap, and SIGTERM or SIGINT
stops and reaps everything before exiting non-zero without a result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".blobbench-work"

#: Whole-run wall-clock cap (the contract allows 180 s).
CAP_S = 170.0
SETUP_REPEATS = 7
PR_SET_CHILD_SUBREAPER = 36

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_cells_per_s": "1/s",
    "warm_cells_per_s": "1/s",
    "answers_per_s": "1/s",
}


class Stop(Exception):
    """Raised from the signal handler: abandon the run."""

    def __init__(self, signum):
        super().__init__(f"signal {signum}")
        self.signum = signum


def become_subreaper():
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def descendants():
    """Live processes whose parent is this process (with the subreaper
    set, that includes every orphaned descendant)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def reap_zombies():
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def kill_all(grace_s=2.0):
    """SIGTERM every descendant, SIGKILL what is left after ``grace_s``,
    and reap them all.  Returns how many were alive at the start."""
    alive = descendants()
    count = len(alive)
    deadline = time.monotonic() + grace_s
    sig = signal.SIGTERM
    while alive:
        for pid in alive:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)
        reap_zombies()
        alive = descendants()
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
    reap_zombies()
    return count


def source_identity():
    head = ROOT / ".git"
    if head.exists():
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()


def loadavg():
    return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]


def host_speed_ms():
    """Median time of a fixed pure-Python loop: how fast this host ran
    around the measurement (shared hosts drift by tens of percent over
    minutes, and every wall-clock metric drifts with them)."""
    times = []
    for _ in range(7):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def wait_or_stop(proc, deadline):
    while True:
        try:
            return proc.wait(timeout=max(0.01, min(0.2, deadline - time.monotonic())))
        except subprocess.TimeoutExpired:
            if time.monotonic() > deadline:
                raise TimeoutError("wall-clock cap reached")


def probe_python(kind, deadline):
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), kind],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=child_env(),
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - started
    proc.stdin.close()
    code = wait_or_stop(proc, deadline)
    proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{kind} set-up probe failed (exit {code})")
    return elapsed


def probe_daemon(index, deadline):
    cache = WORK / f"probe-cache-{index}"
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache-dir", str(cache), "--workers", "2"],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        match = re.search(r":(\d+) ", proc.stdout.readline())
        if match is None:
            raise RuntimeError("serve set-up probe did not start")
        url = f"http://127.0.0.1:{match.group(1)}/readyz"
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status == 200:
                        break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("wall-clock cap reached")
            time.sleep(0.005)
        elapsed = time.perf_counter() - started
    finally:
        proc.send_signal(signal.SIGTERM)
        wait_or_stop(proc, deadline)
        proc.stdout.close()
    shutil.rmtree(cache, ignore_errors=True)
    return elapsed


def measure_setup(workload, deadline):
    """Median of several fresh set-ups (interpreter start, imports,
    model builds, plus the daemon or the warm pool where the workload
    has one)."""
    times = []
    for i in range(SETUP_REPEATS):
        if workload == "serve-mixed":
            times.append(probe_daemon(i, deadline))
        else:
            kind = "campaign" if workload == "campaign-exec" else "tables"
            times.append(probe_python(kind, deadline))
    return statistics.median(times), times


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables-sweep", "serve-mixed",
                                 "campaign-exec"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def run(args):
    deadline = time.monotonic() + CAP_S
    if not (SRC / "repro" / "cli.py").is_file():
        raise RuntimeError(f"no program sources under {SRC}; run from a "
                           "full checkout of the repository")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "source": source_identity(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": loadavg(),
        "host_speed_ms_before": host_speed_ms(),
    }
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60)
    meta["numpy"] = numpy.stdout.strip()

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    setup_s = setup_times = None
    if not args.trace:
        setup_s, setup_times = measure_setup(args.workload, deadline)
        meta["setup_times_s"] = setup_times

    out = WORK / "result.json"
    child = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work", str(WORK / "child"), "--out", str(out)],
        env=child_env(), stdout=sys.stderr,
    )
    code = wait_or_stop(child, deadline)
    # the workload has shut down in order; give exiting processes a
    # moment, then whatever is still alive is a leak
    time.sleep(0.5)
    reap_zombies()
    leaked = kill_all()
    if code != 0:
        raise RuntimeError(f"workload child exited {code}")
    result = json.loads(out.read_text())
    meta["loadavg_after"] = loadavg()
    meta["host_speed_ms_after"] = host_speed_ms()
    meta["detail"] = result.get("detail", {})
    meta["findings"] = result.get("findings", [])
    meta["leaked_processes"] = leaked
    attempted = result["attempted"] + 1
    failed = result["failed"] + (1 if leaked else 0)
    if leaked:
        meta["findings"].append(f"{leaked} process(es) outlived the workload")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
    else:
        values = dict(result["e2e"], setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"blobbench": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv=None):
    args = parse_args(argv)

    def on_signal(signum, _frame):
        raise Stop(signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)
    code = 0
    try:
        become_subreaper()
        run(args)
    except Stop as stop:
        print(f"blobbench: stopped by signal {stop.signum}", file=sys.stderr)
        code = 128 + stop.signum
    except (RuntimeError, TimeoutError, OSError, ValueError, KeyError) as exc:
        print(f"blobbench: error: {exc}", file=sys.stderr)
        code = 2
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        kill_all()
        shutil.rmtree(WORK, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
