#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads.

    python3 perfbench/run.py --workload harvest|fleet_stream|whatif_mixed \
        --seed N --seconds S --trace 0|1

Builds the simulator and the measuring driver from source (Release only,
into .bench_build/), runs the workload for about S measured seconds on
inputs made from the seed, checks the outputs, prints every metric by name
with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, with tracing and obs off;
--trace 1 reports the per-layer metrics from a separate traced run.  The
exit code is 0 only when every correctness check passed.  The metric map
and the reasons behind each workload are in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
RUN_DIR = Path(".bench_build") / "run"

# whatif_mixed load shape.  The fixed offered query rate sits well under
# saturation on a 4-CPU host; ingest runs at the driver's fixed rate.
FIXED_QPS = 200.0
# max_qps: after the fixed phase the same daemon sees a staircase of
# query rates, each step 6% above the last (the driver's kRampRatio); the
# answer is the highest step whose query tail stays under this limit while
# the generator's backlog does not grow.
LATENCY_LIMIT_MS = 50.0
STEP_S = 0.5
# Shares of --seconds: the fixed phase, and the longest the staircase may
# run (it stops once two steps in a row fall behind).
FIXED_SHARE = 0.45
RAMP_SHARE = 0.55
SETUP_ROUNDS = 5
WARM_UP_S = 2.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "max_qps": "q/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "workload.site_log_ms": "ms",
    "workload.parse_swf_line_us": "us",
    "sim.events": "count",
    "sim.peak_queue_depth": "count",
    "sim.ns_per_event": "ns",
    "sched.passes": "count",
    "sched.us_per_pass": "us",
    "sched.stage.setup_us": "us",
    "sched.stage.priority_us": "us",
    "sched.stage.dispatch_us": "us",
    "sched.stage.backfill_us": "us",
    "sched.stage.gate_us": "us",
    "sched.priority_reuse_ratio": "ratio",
    "sched.priority_reuse_base": "count",
    "sched.backfill_start_ratio": "ratio",
    "sched.backfill_start_base": "count",
    "sched.profile_steps.p50": "count",
    "sched.profile_steps.max": "count",
    "core.simrun_build_ms": "ms",
    "core.slice_ms.p50": "ms",
    "core.slice_ms.p99": "ms",
    "core.finish_ms": "ms",
    "core.simrun_fork_us.p50": "us",
    "core.simrun_fork_us.p99": "us",
    "grid.build_ms": "ms",
    "grid.slice_ms.p50": "ms",
    "grid.slice_ms.p99": "ms",
    "grid.finish_ms": "ms",
    "grid.epochs": "count",
    "grid.jobs_per_batch": "jobs",
    "util.pool.tasks": "count",
    "util.pool.busy_hwm": "count",
    "util.pool.queue_hwm": "count",
    "util.pool.pools_per_query": "ratio",
    "service.parse_request_us": "us",
    "service.handle_query_ms.p50": "ms",
    "service.handle_query_ms.p99": "ms",
    "service.handle_ingest_ms.p50": "ms",
    "service.handle_ingest_ms.p99": "ms",
    "service.handle_rewind_ms.p50": "ms",
    "service.handle_rewind_ms.p99": "ms",
    "service.tailrun_fork_us.p50": "us",
    "service.status_rtt_us.p50": "us",
    "service.status_rtt_us.p99": "us",
    "service.rewinds": "count",
    "service.snapshots": "count",
    "service.stage.query_capture_us.p99": "us",
    "service.stage.query_verdict_us.p99": "us",
    "service.stage.ingest_apply_us.p99": "us",
    "service.stage.ingest_rewind_us.p99": "us",
    "bench.gen_lag_ms.p99": "ms",
    "bench.backlog_max": "count",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """A run that cannot produce a result: build, daemon or driver failure."""


# -- build and identity ------------------------------------------------------------


def build():
    """Configure and build the driver and the daemon.  Returns the driver,
    the daemon binary and the compiler."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no simulator sources next to perfbench/")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
         "--target", "perfbench", "istc"],
    ]
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = build_log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and ":" in key:
            cache[key.split(":", 1)[0]] = value
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing to report from a %r build"
                         % cache.get("CMAKE_BUILD_TYPE"))
    version = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
                             capture_output=True, text=True).stdout
    compiler = (version.splitlines() or ["unknown"])[0]
    return BUILD / "perfbench", BUILD / "istc" / "src" / "cli" / "istc", compiler


def fingerprint(args, compiler):
    """Host and build identity, printed with every result."""
    commit = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    # A checkout without git history still gets a content identity.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": "Release",
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- processes -------------------------------------------------------------------


def reap(proc, timeout):
    """Read a child's stdout to EOF (killing it after `timeout` seconds),
    reap it, and return (stdout, exit code, peak RSS in MiB)."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
    code, rss = benchlib.wait_peak_rss_mb(proc)
    return out, code, rss


def run_driver(driver, argv, timeout):
    """Run one driver subcommand.  Returns (raw measurements, peak RSS of
    the driver process in MiB)."""
    proc = subprocess.Popen([str(driver)] + [str(a) for a in argv],
                            stdout=subprocess.PIPE, text=True)
    out, code, rss = reap(proc, timeout)
    lines = out.strip().splitlines()
    if code not in (0, 1) or not lines:
        raise BenchError("driver %s failed (exit %d)" % (argv[0], code))
    raw = json.loads(lines[-1])
    if raw.get("build_type") != "Release":
        raise BenchError("driver is a %r build" % raw.get("build_type"))
    return raw, rss


class Daemon:
    """`istc serve` on a Unix socket inside the checkout: the natives-only
    Blue Mountain baseline, started as an operator would start it."""

    def __init__(self, istc, obs):
        RUN_DIR.mkdir(parents=True, exist_ok=True)
        self.socket = str(RUN_DIR / ("d%d.sock" % os.getpid()))
        cmd = [str(istc), "serve", "--site", "bluemtn", "--socket", self.socket]
        if obs:
            cmd.append("--obs")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if "listening" not in line:
            self.stop()
            raise BenchError("daemon did not start: %r" % line)

    def stop(self):
        """Reap the daemon (the load shuts it down; a daemon still up after
        10 s is killed).  Returns its peak RSS in MiB."""
        return reap(self.proc, 10.0)[2]


# -- results ----------------------------------------------------------------------


class Result:
    """Metrics with units and notes, plus the operation and check tally."""

    def __init__(self):
        self.metrics = {}
        self.notes = {}
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def put(self, name, value, unit, text=""):
        if not benchlib.valid_metric_name(name):
            raise BenchError("bad metric name %r" % name)
        self.metrics[name] = {"value": float(value), "unit": unit}
        if text:
            self.notes[name] = text

    def latency(self, prefix, samples):
        """`prefix`_p50_ms and `prefix`_p99_ms by the percentile rule."""
        med, tail, q, n = benchlib.summarize(samples)
        self.put(prefix + "_p50_ms", med, "ms", "n=%d" % n)
        self.put(prefix + "_p99_ms", tail, "ms", "n=%d, tail is p%.4g" % (n, 100 * q))

    def tally(self, raw, check=None):
        self.attempted += int(raw["attempted"])
        self.failed += int(raw["failed"])
        if check is not None:
            self.checks[check] = self.checks.get(check, True) and bool(raw["check_ok"])

    def absorb(self, other):
        """Take `other`'s metrics where this result has none, and its tally."""
        for name, m in other.metrics.items():
            if name not in self.metrics:
                self.metrics[name] = m
                if name in other.notes:
                    self.notes[name] = other.notes[name]
        self.attempted += other.attempted
        self.failed += other.failed
        for check, ok in other.checks.items():
            self.checks[check] = self.checks.get(check, True) and ok

    @property
    def correct(self):
        return self.failed == 0 and all(self.checks.values())


def layer_metrics(res, raw):
    """Per-layer metrics straight from a traced driver document: scalars by
    name, sample arrays through the percentile rule."""
    for key, value in raw.items():
        if isinstance(value, list):
            if not value:
                continue
            med, tail, q, n = benchlib.summarize(value)
            for suffix, v, text in ((".p50", med, "n=%d" % n),
                                    (".p99", tail, "n=%d, tail is p%.4g" % (n, 100 * q)),
                                    (".max", max(value), "n=%d" % n)):
                if key + suffix in PER_LAYER:
                    res.put(key + suffix, v, PER_LAYER[key + suffix], text)
        elif key in PER_LAYER:
            res.put(key, value, PER_LAYER[key])


def overhead_pct(untraced, traced):
    """Tracing cost as a slowdown: throughput lost, or latency added, in %."""
    return 100.0 * (untraced / traced - 1.0)


# -- harvest and fleet_stream -------------------------------------------------------


def batch_end_to_end(res, driver, command, seed, seconds):
    raw, rss = run_driver(driver, [command, "--seed", seed, "--seconds", seconds],
                          seconds + 150)
    res.tally(raw, "fork_equals_straight" if command == "harvest"
              else "fleet_hash_1_vs_n_threads")
    # Each distinct input counts once, by its fastest repeat (README,
    # "Repeats").
    inputs = raw["input"]
    jobs = benchlib.best_of_repeats(raw["jobs_per_s"], inputs, pick=max)
    queries = benchlib.best_of_repeats(raw["query_ms"], inputs)
    setups = benchlib.best_of_repeats(raw["setup_s"], inputs)
    res.put("setup_s", statistics.median(setups), "s",
            "median of %d inputs, %d set-ups" % (len(setups), len(inputs)))
    res.put("jobs_per_s", statistics.median(jobs), "jobs/s",
            "median of %d inputs, %d runs" % (len(jobs), len(inputs)))
    res.latency("query", queries)
    res.latency("ingest", benchlib.best_of_repeats(raw["ingest_ms"], inputs))
    res.put("max_qps", 1000.0 * len(queries) / sum(queries), "q/s",
            "one caller, back to back")
    res.put("peak_rss_mb", rss, "MiB", "driver process")


def batch_layers(res, driver, command, seed, seconds):
    raw, _ = run_driver(driver, [command, "--seed", seed, "--seconds", seconds,
                                 "--trace", 1], seconds + 150)
    res.tally(raw, command + "_traced")
    layer_metrics(res, raw)
    res.put("trace.overhead_pct",
            overhead_pct(raw["untraced_jobs_per_s"], raw["traced_jobs_per_s"]), "%",
            "jobs/s untraced vs traced")


# -- whatif_mixed --------------------------------------------------------------------


def whatif_rung(driver, istc, seed, seconds, *extra, trace=False):
    """One fresh daemon, preloaded through the socket, then the open loop
    for `seconds` at FIXED_QPS (plus whatever `extra` driver flags ask
    for).  The driver's raw document gains setup_s (daemon start, tail
    generation, preload) and the daemon's peak_rss_mb."""
    t0 = time.perf_counter()
    daemon = Daemon(istc, obs=trace)
    started = time.perf_counter() - t0
    try:
        raw, _ = run_driver(driver, [
            "load", "--seed", seed, "--socket", daemon.socket,
            "--query-rate", FIXED_QPS, "--seconds", "%.6g" % seconds,
            "--trace", int(trace)] + list(extra), seconds + 150)
    finally:
        rss = daemon.stop()
    raw["setup_s"] = started + raw["loggen_s"] + raw["preload_s"]
    raw["peak_rss_mb"] = rss
    return raw


def step_passes(samples, backlog, connections):
    """A rate step counts when its query tail is under the limit and the
    generator ended it holding no more due requests than it has
    connections: the backlog did not grow."""
    return (bool(samples) and benchlib.summarize(samples)[1] <= LATENCY_LIMIT_MS
            and backlog <= connections)


def warm_up(res, driver, istc, seed):
    """An unrecorded rung first.  On a host that has just been idle the
    first second or two of daemon load runs several times slower; that is
    the host waking up, not the code under test."""
    res.tally(whatif_rung(driver, istc, seed, WARM_UP_S))


def whatif_end_to_end(res, driver, istc, seed, seconds):
    warm_up(res, driver, istc, seed)
    # Set-up alone, several times: daemon start, tail generation, preload.
    setups = []
    for _ in range(SETUP_ROUNDS):
        raw = whatif_rung(driver, istc, seed, 1, "--preload-only", 1)
        res.tally(raw)
        setups.append(raw)
    steps = int(RAMP_SHARE * seconds / STEP_S)
    main = whatif_rung(driver, istc, seed, FIXED_SHARE * seconds,
                       "--ramp-steps", steps, "--step-seconds", STEP_S,
                       "--check", 1)
    res.tally(main, "forked_equals_scratch")
    setups.append(main)

    by_step = {}
    for ms, step in zip(main["query_ms"], main["query_step"]):
        by_step.setdefault(int(step), []).append(ms)
    fixed = by_step.get(0, [])
    staircase = [(FIXED_QPS, step_passes(fixed, 0, main["connections"]))]
    served = {FIXED_QPS: len(fixed) / (FIXED_SHARE * seconds)}
    for k, (rate, backlog, qps) in enumerate(zip(
            main["step_rate"], main["step_backlog"], main["step_served_qps"]),
            start=1):
        staircase.append((rate, step_passes(by_step.get(k, []), backlog,
                                            main["connections"])))
        served[rate] = qps
    best = benchlib.staircase_max(staircase)
    if best is None:
        raise BenchError("no rate met the latency limit")

    res.put("setup_s", statistics.median(r["setup_s"] for r in setups), "s",
            "median of %d daemon set-ups" % len(setups))
    res.put("jobs_per_s", statistics.median(
        r["preload_jobs"] / r["preload_s"] for r in setups), "jobs/s",
        "tail catch-up ingest, median of %d preloads" % len(setups))
    res.latency("query", fixed)
    res.latency("ingest", main["ingest_ms"] + main["late_ms"])
    # Reported as the rate the daemon actually served during that step.
    res.put("max_qps", served[best], "q/s", "offered %.0f; steps: %s" % (
        best, " ".join("%.0f%s" % (r, "+" if ok else "-") for r, ok in staircase)))
    res.put("peak_rss_mb", main["peak_rss_mb"], "MiB", "daemon process")


def whatif_layers(res, driver, istc, seed, seconds, overhead):
    """The service layer in-process, then a traced socket run (obs on,
    status probes); with `overhead`, also an untraced run to compare."""
    warm_up(res, driver, istc, seed)
    raw, _ = run_driver(driver, ["service", "--seed", seed, "--seconds",
                                 0.4 * seconds], seconds + 150)
    res.tally(raw, "service_replay")
    layer_metrics(res, raw)
    traced = whatif_rung(driver, istc, seed, 0.3 * seconds, trace=True)
    res.tally(traced)
    layer_metrics(res, traced)
    res.put("bench.gen_lag_ms.p99", benchlib.summarize(traced["gen_lag_ms"])[1],
            "ms", "n=%d" % len(traced["gen_lag_ms"]))
    res.put("bench.backlog_max", traced["backlog_max"], "count")
    if overhead:
        plain = whatif_rung(driver, istc, seed, 0.3 * seconds)
        res.tally(plain)
        res.put("trace.overhead_pct", overhead_pct(
            statistics.median(traced["query_ms"]),
            statistics.median(plain["query_ms"])), "%",
            "query p50 with obs and status probes vs without")


def measure(args, driver, istc):
    res = Result()
    seed, seconds = args.seed, float(args.seconds)
    if not args.trace:
        if args.workload == "whatif_mixed":
            whatif_end_to_end(res, driver, istc, seed, seconds)
        else:
            command = "harvest" if args.workload == "harvest" else "fleet"
            batch_end_to_end(res, driver, command, seed, seconds)
        return res, END_TO_END

    # Traced: the workload's own layers first; the layers it never drives
    # are then filled by short probes of the workloads that do, so every
    # traced run reports every per-layer metric (README: "Probes").
    own = 0.6 * seconds
    probe = 0.2 * seconds
    if args.workload == "harvest":
        batch_layers(res, driver, "harvest", seed, own)
    elif args.workload == "fleet_stream":
        batch_layers(res, driver, "fleet", seed, own)
    else:
        whatif_layers(res, driver, istc, seed, own, overhead=True)
    probes = Result()
    if args.workload != "harvest":
        batch_layers(probes, driver, "harvest", seed, probe)
    if args.workload != "fleet_stream":
        batch_layers(probes, driver, "fleet", seed, probe)
    if args.workload != "whatif_mixed":
        whatif_layers(probes, driver, istc, seed, probe, overhead=False)
    res.absorb(probes)
    return res, PER_LAYER


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("harvest", "fleet_stream", "whatif_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    os.chdir(ROOT)
    try:
        driver, istc, compiler = build()
        print(json.dumps({"fingerprint": fingerprint(args, compiler)}), flush=True)
        res, wanted = measure(args, driver, istc)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    missing = sorted(set(wanted) - set(res.metrics))
    if missing:
        print("perfbench: no value for %s" % ", ".join(missing), file=sys.stderr)
        return 1
    metrics = {name: res.metrics[name] for name in wanted}
    for name, m in metrics.items():
        print("%-36s %14.6g %-7s %s" % (name, m["value"], m["unit"],
                                        res.notes.get(name, "")))
    print("%-36s %14.6g %-7s %d of %d operations" % (
        "failed_frac", res.failed / max(res.attempted, 1), "ratio",
        res.failed, res.attempted))
    for check, ok in sorted(res.checks.items()):
        print("check %-30s %s" % (check, "pass" if ok else "FAIL"))
    print(json.dumps({"correct": res.correct, "attempted": max(res.attempted, 1),
                      "failed": res.failed, "metrics": metrics}), flush=True)
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
