"""The three workloads, each run in a fresh child of ``run.py``.

Usage (``run.py`` does this; the child is not meant to be run by hand):

    python3 blobbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --out RESULT.json

Every workload answers the same question the paper asks, at paper
scale (dims 1-4096, stride 8): where does the GPU start to win?  The
result file holds the end-to-end metrics (untraced runs) or the
per-layer metrics (traced runs), the correctness counts, and the
workload's own named figures for the run metadata.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from tracer import Tracer, install_layer_spans, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ("dawn", "lumi", "isambard-ai")
ITERATIONS = (1, 8, 32, 64, 128)
STEP = 8
MAX_DIM = 4096
DIMS = f"1-{MAX_DIM} stride {STEP}"


def log(message):
    print(f"blobbench: {message}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


class Checks:
    """Correctness checks, counted as attempted/failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.findings) < 20:
                self.findings.append(what)
        return ok


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cells_of(run):
    return sum(len(series.samples) for series in run.series)


# -- tables-sweep -------------------------------------------------------

#: rough seconds per pass (cold sweeps and their replays) on a 2-core
#: host: --seconds buys this many whole passes (at least one),
#: independent of timing
TABLES_PASS_S = 45.0
#: replays per cold sweep; a replay is short, so the replay rate gets
#: twice as many samples as the cold rate to be as steady
REPLAYS = 2


def _tables_units(seed):
    units = [(system, i) for system in SYSTEMS for i in ITERATIONS]
    random.Random(seed).shuffle(units)
    return units


def _render_tables(runs):
    """Tables III-VI rendered exactly as the table benchmarks write
    them (``results/table3..6``)."""
    from repro.core.problem import NONSQUARE_GEMM_TYPES, NONSQUARE_GEMV_TYPES
    from repro.core.tables import (first_threshold_iteration, render_table,
                                   threshold_table_for_runs)
    from repro.types import Kernel, Precision

    out = {}
    for table, kernel, title in (
        ("table3/square_gemm_thresholds.txt", Kernel.GEMM,
         "Table III ({}): square GEMM thresholds, S : D"),
        ("table4/square_gemv_thresholds.txt", Kernel.GEMV,
         "Table IV ({}): square GEMV thresholds, S : D"),
    ):
        out[table] = "\n\n".join(
            threshold_table_for_runs(runs[system], kernel, "square",
                                     title=title.format(system))
            for system in SYSTEMS
        ) + "\n"
    for table, kernel, types, title in (
        ("table5/nonsquare_gemm_first_threshold.txt", Kernel.GEMM,
         NONSQUARE_GEMM_TYPES,
         "Table V: first Transfer-Once threshold iteration (S : D)"),
        ("table6/nonsquare_gemv_first_threshold.txt", Kernel.GEMV,
         NONSQUARE_GEMV_TYPES,
         "Table VI: first Transfer-Once threshold iteration (S : D)"),
    ):
        rows = []
        for pt in types:
            row = [pt.name]
            for system in SYSTEMS:
                cells = []
                for precision in (Precision.SINGLE, Precision.DOUBLE):
                    it = first_threshold_iteration(
                        runs[system], kernel, pt.ident, precision)
                    cells.append("—" if it is None else str(it))
                row.append(" : ".join(cells))
            rows.append(row)
        out[table] = render_table(["Problem Type"] + list(SYSTEMS), rows,
                                  title=title) + "\n"
    return out


def _tables_pass(backends, units, work, checks):
    """Each unit is one (system, iterations) sweep of all 13 problem
    families: sweep, threshold detection, CSV writing.  Every unit runs
    cold into the empty cache and is then replayed from it REPLAYS
    times, unit by unit, so both rates sample the same stretch of the
    run."""
    from repro.core import runner
    from repro.core.config import RunConfig
    from repro.core.csvio import write_run
    from repro.core.problem import ALL_PROBLEM_TYPES

    steps = [("cold", "cold")] + [("replay", f"replay{r}")
                                  for r in range(REPLAYS)]

    idents = tuple(sorted({pt.ident for pt in ALL_PROBLEM_TYPES}))
    cache = work / "cache"
    timing = {"cold": [], "replay": []}
    runs = {phase: {system: {} for system in SYSTEMS} for phase in timing}
    for system, iterations in units:
        config = RunConfig(iterations=iterations, step=STEP,
                           max_dim=MAX_DIM, problem_idents=idents)
        for phase, label in steps:
            # no dirty pages from the previous sweep write back meanwhile
            os.sync()
            started = time.perf_counter()
            run = runner.run_sweep(backends[system], config,
                                   system_name=system, cache_dir=cache)
            answers = len(run.thresholds())
            write_run(run, work / label / f"{system}-i{iterations}")
            elapsed = time.perf_counter() - started
            timing[phase].append((cells_of(run), answers, elapsed))
            runs[phase][system][iterations] = run
            checks.check(run.cache_hit == (phase == "replay"),
                         f"{phase} {system} i{iterations}: cache_hit="
                         f"{run.cache_hit}")
    for phase in timing:
        for name, text in _render_tables(runs[phase]).items():
            golden = (ROOT / "results" / name).read_text()
            checks.check(text == golden,
                         f"{phase} pass: {name} differs from the golden")
    del runs, run
    for path in sorted((work / "cold").rglob("*.csv")):
        for _phase, label in steps[1:]:
            twin = work / label / path.relative_to(work / "cold")
            checks.check(
                twin.is_file() and twin.read_bytes() == path.read_bytes(),
                f"{label}: replayed {twin.name} is not byte-identical")
    shutil.rmtree(work, ignore_errors=True)
    return timing


def tables_sweep(args, work, checks):
    from repro.backends.simulated import AnalyticBackend
    from repro.systems.catalog import make_model

    backends = {s: AnalyticBackend(make_model(s)) for s in SYSTEMS}
    units = _tables_units(args.seed)
    out = {"detail": {"systems": SYSTEMS, "iterations": ITERATIONS,
                      "problem_families": 13, "dims": DIMS,
                      "units_per_pass": len(units)}}
    if args.trace:
        out["layers"] = traced_passes(
            lambda label, _tracer: _tables_pass(backends, units, work / label,
                                                checks))
        return out
    timing = {"cold": [], "replay": []}
    passes = max(1, round(args.seconds / TABLES_PASS_S))
    for i in range(passes):
        result = _tables_pass(backends, units, work / f"pass{i}", checks)
        for phase in timing:
            timing[phase].extend(result[phase])
    rates = {phase: [cells / s for cells, _a, s in timing[phase]]
             for phase in timing}
    answers = sum(a for phase in timing for _c, a, _s in timing[phase])
    busy = sum(s for phase in timing for _c, _a, s in timing[phase])
    cells = sum(c for c, _a, _s in timing["cold"])
    out["e2e"] = {
        "cold_cells_per_s": median(rates["cold"]),
        "warm_cells_per_s": median(rates["replay"]),
        "answers_per_s": answers / busy,
        "peak_rss_mb": peak_rss_mb(),
    }
    out["detail"].update({
        "passes": passes,
        "cells_per_pass": cells // passes,
        "cold_cells_per_s": out["e2e"]["cold_cells_per_s"],
        "replay_cells_per_s": out["e2e"]["warm_cells_per_s"],
    })
    return out


# -- campaign-exec ------------------------------------------------------


def _campaign_specs(seed):
    from repro.core.campaign import CampaignSpec
    from repro.types import Kernel

    rng = random.Random(seed)
    systems = list(SYSTEMS)
    iterations = list(ITERATIONS)
    rng.shuffle(systems)
    rng.shuffle(iterations)
    kernels = (Kernel.GEMM, Kernel.GEMV)
    full = CampaignSpec(
        name="blobbench", systems=tuple(systems), kernels=kernels,
        problems=("square", "mn_k32"), iterations=tuple(iterations),
        max_dim=MAX_DIM, step=STEP,
    )
    des = CampaignSpec(
        name="blobbench-des", systems=("dawn",), kernels=kernels,
        problems=("square", "mn_k32"), iterations=(8,), max_dim=1024,
        step=STEP, backend="des",
    )
    return full, des


EXECUTORS = ("inproc", "pool", "dist", "des_inproc", "des_pool")
#: rough seconds per execution on a 2-core host; only used to lay out
#: how many executions fit in --seconds, so the schedule (and with it
#: the check counts) depends on --seconds alone
NOMINAL_S = {"inproc": 4.0, "pool": 4.5, "dist": 8.0, "des_inproc": 1.1,
             "des_pool": 0.7}


def campaign_schedule(seconds):
    """Every executor once, then further rounds of the executors that
    still fit, dist every second round."""
    schedule, total, rnd = list(EXECUTORS), sum(NOMINAL_S.values()), 1
    while True:
        rnd += 1
        added = False
        for name in EXECUTORS:
            if name == "dist" and rnd % 2:
                continue
            if total + NOMINAL_S[name] <= seconds:
                schedule.append(name)
                total += NOMINAL_S[name]
                added = True
        if not added:
            return schedule


def _run_schedule(schedule, full, des, work, checks, tracer=None):
    """Run the executions in order, each timed from the campaign call to
    the written report, and check every report against the first
    in-process one."""
    from repro.core import workerpool
    from repro.core.campaign import report_rows, run_campaign, write_report
    from repro.dist.dispatcher import run_campaign_distributed

    runs = {
        "inproc": lambda out: run_campaign(full, jobs=1),
        "pool": lambda out: run_campaign(full, jobs=2),
        "dist": lambda out: run_campaign_distributed(
            full, dist_dir=out / "dist", worker_count=2, jobs=1),
        "des_inproc": lambda out: run_campaign(des, jobs=1),
        "des_pool": lambda out: run_campaign(des, jobs=2),
    }
    times = {name: [] for name in EXECUTORS}
    rows, cells = {}, {}
    pool_before = workerpool.pool_stats()
    for i, name in enumerate(schedule):
        out = work / f"{i:02d}-{name}"
        started = time.perf_counter()
        result = runs[name](out)
        write_report(result, out / "report")
        times[name].append(time.perf_counter() - started)
        got = report_rows(result)
        rows.setdefault(name, got)
        cells[name] = sum(cells_of(r) for r in result.results if r)
        checks.check(result.complete, f"{name} campaign did not complete")
        if name == "dist":
            fsck = subprocess.run(
                [sys.executable, "-m", "repro.cli", "fsck", str(out / "dist")],
                capture_output=True, text=True, timeout=120,
            )
            checks.check(fsck.returncode == 0,
                         f"gpu-blob fsck on the dist directory exited "
                         f"{fsck.returncode}: {fsck.stdout.strip()[-200:]}")
        if tracer is not None and name == "dist":
            dist = result.dist_stats
            for key in ("assignments", "retries", "steals"):
                tracer.count(f"dist.dispatcher.{key}", dist[key])
            tracer.count("dist.dispatcher.turnaround_p50_ms",
                         dist["turnaround"]["p50_ms"] or 0.0)
        del result
        shutil.rmtree(out, ignore_errors=True)
        want = rows["des_inproc" if name.startswith("des") else "inproc"]
        checks.check(len(got) == len(want),
                     f"{name}: {len(got)} rows vs {len(want)}")
        for row, ref in zip(got, want):
            checks.check(row == ref, f"{name} row differs: {row} != {ref}")
    if tracer is not None:
        pool_after = workerpool.pool_stats()
        for key in ("spawns", "reuses", "shards_executed", "shm_bytes",
                    "pickle_fallbacks"):
            tracer.count(f"core.workerpool.{key}",
                         pool_after[key] - pool_before[key])
    return times, rows, cells


def warm_pool():
    """Spawn the jobs=2 warm pool the way a campaign's first parallel
    sweep would, and wait until its workers answer."""
    from repro.core import workerpool

    pool = workerpool.get_pool(2)
    for future in [pool.submit(os.getpid) for _ in range(2)]:
        future.result(timeout=60)


def campaign_exec(args, work, checks):
    full, des = _campaign_specs(args.seed)
    warm_pool()
    log("phase pool-warm")
    out = {"detail": {
        "systems": full.systems, "iterations": full.iterations,
        "problems": full.problems, "dims": DIMS,
        "scenarios": len(full.systems) * len(full.iterations),
        "des_matrix": "dawn, 8 iterations, dims 1-1024 stride 8",
    }}
    if args.trace:
        out["layers"] = traced_passes(
            lambda label, tracer: _run_schedule(EXECUTORS, full, des,
                                                work / label, checks, tracer))
        return out
    schedule = campaign_schedule(args.seconds)
    times, rows, cells = _run_schedule(schedule, full, des, work, checks)
    med = {name: median(values) for name, values in times.items()}
    answers = sum(len(rows[name]) * len(times[name]) for name in EXECUTORS)
    out["e2e"] = {
        "cold_cells_per_s": cells["inproc"] / med["inproc"],
        "warm_cells_per_s": cells["pool"] / med["pool"],
        "answers_per_s": answers / sum(sum(v) for v in times.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    out["detail"].update({"executions": schedule,
                          "report_rows": len(rows["inproc"])})
    for name in EXECUTORS:
        label = name if name.startswith("des") else f"campaign_{name}"
        out["detail"][f"{label}_s"] = med[name]
    return out


# -- serve-mixed --------------------------------------------------------

HOT_FAMILIES = (("gemm", "square"), ("gemm", "mn_k32"), ("gemv", "square"))
HOT_ITERATIONS = (8, 64)
PARADIGMS = ("once", "always", "unified")
#: the latency phase's fixed offered rate, and the limit a request must
#: meet for a rate to count as sustained
LATENCY_RATE_RPS = 8.0
LATENCY_LIMIT_MS = 250.0
SEGMENTS = 4


def _hot_keys():
    return [
        {"system": system, "kernel": kernel, "problem": problem,
         "precision": precision, "iterations": iterations}
        for system in SYSTEMS
        for kernel, problem in HOT_FAMILIES
        for precision in ("single", "double")
        for iterations in HOT_ITERATIONS
    ]


class Mix:
    """Request stream with fixed shares: the seed orders the requests
    and picks the keys, never how much work they are."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.hot = _hot_keys()
        # iteration counts far from any hot key: each one is a key the
        # daemon has never seen, so it forces a sweep, a store and a
        # WAL append
        self.cold_iterations = self.rng.sample(range(200, 100000), 5000)
        self.cold_drawn = 0

    def _request(self, key, paradigm, series, cold):
        request = dict(key, paradigm=paradigm, max_dim=MAX_DIM, step=STEP,
                       cold=cold)
        if series:
            request["include_series"] = True
        return request

    def batch(self, n):
        """``n`` requests in shuffled blocks of 20 with exact shares (4
        cold, 4 hot with series, 12 plain hot), so every prefix the
        closed loop manages to send carries the same mix."""
        kinds = []
        while len(kinds) < n:
            block = ["cold"] * 4 + ["series"] * 4 + ["hot"] * 12
            self.rng.shuffle(block)
            kinds.extend(block)
        out = []
        for kind in kinds[:n]:
            paradigm = self.rng.choice(PARADIGMS)
            if kind == "cold":
                base = self.hot[self.cold_drawn % len(self.hot)]
                key = dict(base,
                           iterations=self.cold_iterations[self.cold_drawn])
                self.cold_drawn += 1
                out.append(self._request(key, paradigm, False, True))
            else:
                key = self.rng.choice(self.hot)
                out.append(self._request(key, paradigm, kind == "series",
                                         False))
        return out


def _get(port, path):
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=5) as response:
            return response.status
    except OSError:
        return 0


class Daemon:
    """One ``gpu-blob serve`` child with a fresh cache and the WAL on."""

    def __init__(self, work, traced=False):
        self.cache = work / "cache"
        self.trace_out = work / "daemon-trace.json"
        serve_args = ["serve", "--port", "0", "--cache-dir", str(self.cache),
                      "--workers", "2"]
        if traced:
            argv = [sys.executable, str(Path(__file__).parent / "daemon.py"),
                    str(self.trace_out)] + serve_args
        else:
            argv = [sys.executable, "-m", "repro.cli"] + serve_args
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        match = re.search(r":(\d+) ", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.port = int(match.group(1))
        while _get(self.port, "/readyz") != 200:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            time.sleep(0.005)

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self):
        """SIGTERM (the daemon drains), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        return code


def _warm(daemon, checks):
    from loadgen import closed_loop

    requests = [dict(key, paradigm="once", max_dim=MAX_DIM, step=STEP,
                     cold=False) for key in _hot_keys()]
    answers, _wall = closed_loop(daemon.port, requests, {})
    for answer in answers:
        checks.check(answer.status == 200,
                     f"warm-up answered {answer.status}")


def _percentile_with_tail(values, beyond=10):
    """The highest percentile with at least ``beyond`` samples above it:
    (percentile, value, sample count)."""
    values = sorted(values)
    n = len(values)
    if n <= beyond:
        return None, None, n
    return 100.0 * (n - beyond) / n, values[n - beyond - 1], n


def _latency_figures(answers):
    hot = [a.latency_s * 1e3 for a in answers if not a.cold and a.status == 200]
    cold = [a.latency_s * 1e3 for a in answers if a.cold and a.status == 200]
    pct, tail, n_hot = _percentile_with_tail(hot)
    late = sorted(a.lateness_s * 1e3 for a in answers)
    return {
        "hot_p50_ms": median(hot),
        "hot_tail_ms": tail,
        "hot_tail_percentile": pct,
        "hot_samples": n_hot,
        "cold_p50_ms": median(cold),
        "cold_samples": len(cold),
        "generator_late_p50_ms": median(late),
        "generator_late_max_ms": late[-1] if late else 0.0,
    }


def _sustained(answers, rate, start, count):
    """≥99% of requests met the limit (failures miss it) and the last
    request finished within the limit of the schedule's end."""
    met = sum(1 for a in answers
              if a.status == 200 and a.latency_s * 1e3 <= LATENCY_LIMIT_MS)
    end = max(a.done for a in answers)
    drained = end <= start + (count - 1) / rate + LATENCY_LIMIT_MS / 1e3
    return met >= 0.99 * count and drained


def _cells_per_s(answers, bodies, cold):
    rates = []
    for a in answers:
        if a.cold == cold and a.status == 200:
            samples = json.loads(bodies[a.digest])["sweep"]["samples"]
            rates.append(samples / a.latency_s)
    return median(rates)


def _verify_answers(answers, bodies, checks, work):
    """Every answer against an in-process reference sweep; series
    bodies byte-for-byte against ``write_series``."""
    from repro.backends.simulated import AnalyticBackend
    from repro.core.config import RunConfig
    from repro.core.csvio import FIELDNAMES, write_series
    from repro.core.runner import run_sweep
    from repro.core.threshold import threshold_for_series
    from repro.systems.catalog import make_model
    from repro.types import Kernel, Precision, TransferType

    backends = {s: AnalyticBackend(make_model(s)) for s in SYSTEMS}
    series_cache = {}
    expected_cache = {}
    scratch = work / "reference.csv"
    for a in answers:
        if not checks.check(a.status == 200,
                            f"request answered {a.status}: {a.request}"):
            continue
        body = json.loads(bodies[a.digest])
        checks.check(body.get("degraded") is False,
                     f"degraded answer: {a.request}")
        r = a.request
        key = (r["system"], r["kernel"], r["problem"], r["precision"],
               r["iterations"])
        if key not in series_cache:
            kernel = Kernel(r["kernel"])
            config = RunConfig(iterations=r["iterations"], step=STEP,
                               max_dim=MAX_DIM, kernels=(kernel,),
                               problem_idents=(r["problem"],),
                               precisions=(Precision(r["precision"]),))
            run = run_sweep(backends[r["system"]], config,
                            system_name=r["system"])
            series_cache[key] = run.series_for(kernel, r["problem"],
                                               Precision(r["precision"]))
        series = series_cache[key]
        ekey = key + (r["paradigm"], bool(r.get("include_series")))
        if ekey not in expected_cache:
            found = threshold_for_series(series, TransferType(r["paradigm"]),
                                         2)
            expected = {
                "found": found.found,
                "dims": ({"m": found.dims.m, "n": found.dims.n,
                          "k": found.dims.k} if found.found else None),
                "notation": str(found) if found.found else None,
                "index": found.index,
                "best_device": "gpu" if found.found else "cpu",
                "samples": len(series.all_samples()),
            }
            if r.get("include_series"):
                write_series(series, scratch)
                expected["csv"] = scratch.read_bytes()
            expected_cache[ekey] = expected
        expected = expected_cache[ekey]
        got = dict(body["threshold"], best_device=body["best_device"],
                   samples=body["sweep"]["samples"])
        want = {k: v for k, v in expected.items() if k != "csv"}
        checks.check(got == want, f"answer {got} != reference {want} "
                                  f"for {r}")
        if r.get("include_series"):
            rendered = io.StringIO(newline="")
            writer = csv.DictWriter(rendered, fieldnames=FIELDNAMES)
            writer.writeheader()
            writer.writerows(body["series"]["rows"])
            checks.check(
                rendered.getvalue().encode() == expected["csv"]
                and body["series"]["fieldnames"] == list(FIELDNAMES),
                f"series body differs from write_series for {r}")


def serve_mixed(args, work, checks):
    from loadgen import closed_loop, open_loop

    work.mkdir(parents=True, exist_ok=True)
    mix = Mix(args.seed)
    bodies = {}
    answers_all = []
    out = {"detail": {"latency_rate_rps": LATENCY_RATE_RPS,
                      "latency_limit_ms": LATENCY_LIMIT_MS,
                      "hot_keys": len(mix.hot), "connections": 2,
                      "segments": SEGMENTS, "dims": DIMS,
                      "mix": "4 new keys, 4 hot with series, 12 hot "
                             "per 20 requests"}}
    # per segment (the traced run makes one segment per daemon)
    n_latency = 20 * max(1, round(
        LATENCY_RATE_RPS * 0.55 * args.seconds / 20 / SEGMENTS))

    if args.trace:
        # the same fixed-rate phase against an untraced, a traced and
        # another untraced daemon; "wall" is the summed request latency
        walls = {}
        for label in ("untraced-1", "traced", "untraced-2"):
            daemon = Daemon(work / label, traced=label == "traced")
            log("phase daemon-up")
            try:
                _warm(daemon, checks)
                requests = Mix(args.seed).batch(n_latency)
                answers, start = open_loop(daemon.port, requests,
                                           LATENCY_RATE_RPS, bodies)
                walls[label] = (sum(a.latency_s for a in answers), start,
                                max(a.done for a in answers))
                answers_all.extend(answers)
            finally:
                checks.check(daemon.stop() == 0, "daemon exit code")
        trace = json.loads((work / "traced" / "daemon-trace.json").read_text())
        tracer = Tracer()
        tracer.spans = [[None, s, e, None] for s, e in trace["roots"]]
        traced_wall, start, end = walls["traced"]
        untraced_wall = min(walls["untraced-1"][0], walls["untraced-2"][0])
        layers = {k: tuple(v) for k, v in trace["layers"].items()}
        out["layers"] = _with_trace_summary(
            layers, tracer.coverage(start, end), traced_wall, untraced_wall)
        _verify_answers(answers_all, bodies, checks, work)
        return out

    daemon = Daemon(work / "daemon")
    log("phase daemon-up")
    try:
        _warm(daemon, checks)
        # latency and saturation alternate in SEGMENTS rounds so both
        # sample the whole run; request counts follow from --seconds
        # alone, so every run of a given length checks as many answers
        answers, sat_answers, sat_wall = [], [], 0.0
        n_sat = 20 * max(1, round(4.5 * args.seconds / 20 / SEGMENTS))
        for _ in range(SEGMENTS):
            got, _start = open_loop(daemon.port, mix.batch(n_latency),
                                    LATENCY_RATE_RPS, bodies)
            answers.extend(got)
            got, wall = closed_loop(daemon.port, mix.batch(n_sat), bodies)
            sat_answers.extend(got)
            sat_wall += wall
        answers_all.extend(answers + sat_answers)
        figures = _latency_figures(answers)
        throughput = sum(1 for a in sat_answers if a.status == 200) / sat_wall
        out["e2e"] = {
            "cold_cells_per_s": _cells_per_s(answers, bodies, cold=True),
            "warm_cells_per_s": _cells_per_s(answers, bodies, cold=False),
        }
        ladder = {}
        for share in (0.7, 0.9, 1.1):
            rate = share * throughput
            count = max(10, int(args.seconds * 2 // 3))
            step_answers, start = open_loop(daemon.port, mix.batch(count),
                                            rate, bodies)
            answers_all.extend(step_answers)
            ladder[f"{rate:.2f}"] = {
                "sustained": _sustained(step_answers, rate, start, count),
                "p50_ms": median([a.latency_s * 1e3 for a in step_answers]),
            }
        out["e2e"]["answers_per_s"] = throughput
        out["e2e"]["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        checks.check(daemon.stop() == 0, "daemon exit code")
    sustained = [float(rate) for rate, step in ladder.items()
                 if step["sustained"]]
    figures.update({
        "max_rate_rps": max(sustained) if sustained else 0.0,
        "rate_ladder": ladder,
        "saturation_rps": throughput,
        "requests": len(answers_all),
        "cold_requests": sum(1 for a in answers_all if a.cold),
    })
    out["detail"].update(figures)
    _verify_answers(answers_all, bodies, checks, work)
    return out


# -- shared -------------------------------------------------------------

#: a traced run skips its second untraced pass past this point, so it
#: stays inside the driver's wall-clock cap
TRACED_BUDGET_S = 100.0


def traced_passes(run_pass):
    """Untraced, traced, untraced: the overhead is the traced wall minus
    the faster untraced wall (the first pass of a process pays one-off
    warm-up costs, so it is often the slower one)."""
    begun = time.perf_counter()
    run_pass("untraced-1", None)
    untraced = [time.perf_counter() - begun]
    tracer = Tracer()
    install_layer_spans(tracer)
    started = time.perf_counter()
    try:
        run_pass("traced", tracer)
    finally:
        tracer.uninstall()
    ended = time.perf_counter()
    if ended - begun + untraced[0] <= TRACED_BUDGET_S:
        run_pass("untraced-2", None)
        untraced.append(time.perf_counter() - ended)
    return _with_trace_summary(
        layer_metrics(tracer), tracer.coverage(started, ended),
        ended - started, min(untraced))



def _with_trace_summary(layers, coverage, traced_wall, untraced_wall):
    layers = dict(layers)
    layers["trace.span_coverage"] = (100.0 * coverage, "%")
    layers["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    layers["trace.overhead_pct"] = (
        100.0 * (traced_wall - untraced_wall) / untraced_wall
        if untraced_wall else 0.0, "%")
    return layers


WORKLOADS = {
    "tables-sweep": tables_sweep,
    "serve-mixed": serve_mixed,
    "campaign-exec": campaign_exec,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checks = Checks()
    args.work.mkdir(parents=True, exist_ok=True)
    result = WORKLOADS[args.workload](args, args.work / "w", checks)
    from repro.core import workerpool

    workerpool.shutdown_all()
    result.update(attempted=checks.attempted, failed=checks.failed,
                  findings=checks.findings)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
