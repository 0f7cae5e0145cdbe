#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

  python3 perfbench/run.py --workload warm_reuse --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and with it the rattrap libraries from src/) into
.bench_build/perfbench, runs the C++ harness for --seconds of repeats,
checks the correctness gates and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
prints the end-to-end metrics, from untraced repeats; --trace 1 prints the
per-layer metrics, from traced repeats that alternate with untraced ones
so the tracing overhead is measured too.  Metric definitions, workloads
and seeds are described in perfbench/README.md.

Exit status: 0 when every gate holds; 1 when a gate fails (the result is
still printed, with "correct": false); 2 when the benchmark cannot build
or run (nothing is printed on stdout).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
SELFTEST = os.path.join(BUILD_DIR, "perfbench_selftest")
LEDGER = os.path.join(BUILD_DIR, "fingerprints.json")

WORKLOADS = ("cold_churn", "warm_reuse", "qos_fault_storm", "rpc_loopback")
CLASSES = ("interactive", "standard", "batch")
TIME_UNITS = ("s", "ms", "us", "ns")

# (name, unit, source).  The source says which records a metric is read
# from:
#   setup     - the run's set-up measurements;
#   timed     - the short timed repeats, which cycle through seeds derived
#               from --seed (untraced repeats for end-to-end metrics,
#               traced ones for per-layer metrics);
#   reference - the repeats of --seed itself at the workload's reference
#               size, whose simulated-time figures and counts are the same
#               in every repeat;
#   run       - the run as a whole.
# A wall-clock time of timed repeats is the best repeat of each derived
# seed, averaged over the seeds: this host's speed drifts in phases of
# several seconds, and the fastest repeat is the one least disturbed by
# them.  sessions_per_s is the sessions of one repeat per seed over the sum
# of those best times.  Set-up time is the median of the run's set-ups, so
# that work moved into set-up shows.  Everything else is the median over
# its records.
END_TO_END = [
    ("sessions_per_s", "1/s", "timed"),
    ("setup_s", "s", "setup"),
    ("peak_rss_mb", "MB", "run"),
    ("sim_response_p50_ms", "sim_ms", "reference"),
    ("sim_response_p99_ms", "sim_ms", "reference"),
    ("sim_top_class_p99_ms", "sim_ms", "reference"),
    ("sim_energy_mj_mean", "mJ", "reference"),
    ("completed_share", "ratio", "reference"),
]

PER_LAYER = [
    ("loadgen.stream_s", "s", "setup"),
    ("workloads.exec_s", "s", "setup"),
    ("platform.init_s", "s", "setup"),
    ("session.submit_ns", "ns", "timed"),
    ("session.drain_s", "s", "timed"),
    ("session.drain_ns_per_session", "ns", "timed"),
    ("session.drain_late_early_ratio", "ratio", "reference"),
    ("summary.reduce_s", "s", "timed"),
    ("env.provisions_per_session", "ratio", "reference"),
    ("elastic.warm_hit_ratio", "ratio", "reference"),
    ("envdb.added", "count", "reference"),
    ("envdb.retired", "count", "reference"),
    ("env_count", "count", "reference"),
    ("elastic.layers.pinned_bytes", "B", "reference"),
    ("rss.per_session_kb", "KB", "timed"),
    ("dispatcher.affinity_hit_rate", "ratio", "reference"),
    ("warehouse.hit_ratio", "ratio", "reference"),
    ("warehouse.evictions", "count", "reference"),
    ("tmpfs.staged", "count", "reference"),
    ("tmpfs.stage_rejected", "count", "reference"),
    ("tmpfs.peak_bytes", "B", "reference"),
    ("net.up_bytes_per_session", "B", "reference"),
] + [
    ("phase.%s%s_ms" % (phase, stat), "sim_ms", "reference")
    for phase in ("connection", "preparation", "transfer", "computation",
                  "queue_wait")
    for stat in ("", "_p99")
] + [
    ("admission.rejected." + reason, "count", "reference")
    for reason in ("queue_full", "rate_limited", "overloaded", "tenant_quota")
] + [("qos.shed." + klass, "count", "reference") for klass in CLASSES] + [
    ("qos.promotions", "count", "reference"),
    ("admission.queue.peak", "count", "reference"),
] + [
    ("qos.queue.wait_p99_ms." + klass, "sim_ms", "reference")
    for klass in CLASSES
] + [
    ("failed_share", "ratio", "reference"),
    ("sim_response.samples", "count", "reference"),
    ("invariants.checks_run", "count", "reference"),
    ("invariants.sweep_us", "us", "reference"),
    ("invariants.sweep_late_early_ratio", "ratio", "reference"),
    ("monitor.crashes.detected", "count", "reference"),
    ("recovery.redispatched", "count", "reference"),
    ("net.connect_retries", "count", "reference"),
    ("transport.close_s", "s", "timed"),
    ("transport.result_rtt_p50_us", "us", "timed"),
    ("transport.result_rtt_p99_us", "us", "timed"),
    ("result_rtt.samples", "count", "timed"),
    ("transport.fetch_metrics_ms", "ms", "timed"),
    ("rpc.bytes_per_session", "B", "timed"),
    ("rpc.frames.in", "count", "timed"),
    ("rpc.frames.out", "count", "timed"),
    ("trace.overhead_share", "ratio", "run"),
]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on any failure."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured from another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                  "perfbench_harness", "perfbench_selftest"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build failed: %s" % error)
            return False
        if done.returncode != 0:
            log("build failed: %s" % " ".join(step))
            return False
    return True


def harness(args, timeout):
    """Runs the harness; its parsed JSON document, or None on failure."""
    try:
        done = subprocess.run([HARNESS] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        log("harness failed: %s" % error)
        return None
    if done.returncode != 0:
        log("harness exited %d" % done.returncode)
        return None
    try:
        return json.loads(done.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError) as error:
        log("harness printed no result: %s" % error)
        return None


def check_gates(run, twin_fingerprint=None, ledger=None):
    """Correctness gates over one harness run; a list of failure messages.

    `ledger` maps "<workload>/<seed>/<sessions>" to the fingerprint earlier
    runs of the same build recorded, so that traced and untraced runs of a
    seed must agree too; this run's fingerprints are added to it."""
    failures = []
    for record in run["setups"] + run["reps"]:
        for key, value in record.items():
            if key.startswith("gate.") and value is not True:
                failures.append("rep %s: %s failed"
                                % (record.get("rep", "setup"), key))
    by_input = {}
    for rep in run["reps"]:
        key = "%s/%d/%d" % (run["workload"], rep["seed"], rep["sessions"])
        by_input.setdefault(key, set()).add(rep["fingerprint"])
    for key, fingerprints in sorted(by_input.items()):
        if len(fingerprints) != 1:
            failures.append("metrics fingerprint differs across repeats "
                            "(traced and untraced) of %s: %s"
                            % (key, sorted(fingerprints)))
        if ledger is None:
            continue
        for fingerprint in sorted(fingerprints):
            if ledger.setdefault(key, fingerprint) != fingerprint:
                failures.append("metrics fingerprint %s differs from %s of "
                                "an earlier run (%s)"
                                % (fingerprint, ledger[key], key))
    timed = by_input.get("%s/%d/%d" % (run["workload"], run["seed"],
                                       run["sessions"]), set())
    if twin_fingerprint is not None and timed != {twin_fingerprint}:
        failures.append("rpc server metrics differ from the warm_reuse sim "
                        "twin: %s vs %s" % (sorted(timed), twin_fingerprint))
    return failures


def add_derived(run):
    """Adds the rpc counters, peak RSS and tracing overhead to the run."""
    for rep in run["reps"]:
        counters = rep.get("rpc_metrics", {}).get("counters", {})
        rep["rpc.frames.in"] = counters.get("rpc.frames.in", 0)
        rep["rpc.frames.out"] = counters.get("rpc.frames.out", 0)
        rep["rpc.bytes_per_session"] = (
            counters.get("rpc.bytes.in", 0) +
            counters.get("rpc.bytes.out", 0)) / rep["sessions"]
    run["peak_rss_mb"] = run["peak_rss_kb"] / 1024.0
    timed = [r for r in run["reps"] if r["sessions"] == run["sessions"]]
    traced = best_per_seed([r for r in timed if r["traced"]], "drive_s")
    untraced = best_per_seed([r for r in timed if not r["traced"]], "drive_s")
    both = traced.keys() & untraced.keys()
    if both:
        run["trace.overhead_share"] = (
            sum(traced[s] for s in both) / sum(untraced[s] for s in both)
            - 1.0)


def best_per_seed(records, name, higher=False):
    """The best value of `name` for each seed among `records`."""
    best = {}
    for r in records:
        value = r[name]
        if r["seed"] not in best or (value > best[r["seed"]]) == higher:
            best[r["seed"]] = value
    return best


def records_of(run, source, trace):
    if source == "setup":
        return run["setups"]
    if source == "timed":
        records = [r for r in run["reps"] if r["sessions"] == run["sessions"]]
    else:
        records = [r for r in run["reps"]
                   if r["sessions"] == run["reference_sessions"]
                   and r["seed"] == run["seed"]]
    # Traced runs read traced repeats, untraced runs untraced ones; a
    # reference repeat run alone serves both.
    return [r for r in records if r["traced"] == bool(trace)] or records


def reduce_metrics(run, trace):
    """The printed metrics of one harness run."""
    add_derived(run)
    metrics = {}
    for name, unit, source in PER_LAYER if trace else END_TO_END:
        records = [] if source == "run" else records_of(run, source, trace)
        if source == "run":
            value = run[name]
        elif name == "sessions_per_s":
            rates = best_per_seed(records, name, higher=True).values()
            value = len(rates) / sum(1.0 / rate for rate in rates)
        elif source == "setup" and name != "setup_s":
            value = min(r[name] for r in records)
        elif source != "setup" and unit in TIME_UNITS:
            value = statistics.mean(best_per_seed(records, name).values())
        else:
            value = statistics.median(r[name] for r in records)
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def update_ledger(run, twin):
    """Checks the gates against, and records into, the fingerprint ledger
    of this harness build."""
    info = os.stat(HARNESS)
    build_id = "%d-%d" % (info.st_size, info.st_mtime_ns)
    try:
        with open(LEDGER, encoding="utf-8") as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    if ledger.get("build") != build_id:
        ledger = {"build": build_id, "fingerprints": {}}
    failures = check_gates(run, twin, ledger["fingerprints"])
    with open(LEDGER, "w", encoding="utf-8") as f:
        json.dump(ledger, f)
    return failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sessions", type=int, default=0,
                        help="override the workload's session counts "
                             "(the benchmark's tests use tiny runs)")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not build():
        return 2
    common = ["--seed", str(args.seed)]
    if args.sessions > 0:
        common += ["--sessions", str(args.sessions)]
    run = harness(["--workload", args.workload, "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--min-reps", "16" if args.trace else "8",
                   "--trace-out",
                   os.path.join(BUILD_DIR, "spans-%s.json" % args.workload)]
                  + common, timeout=170)
    if run is None:
        return 2
    twin = None
    if args.workload == "rpc_loopback":
        # The server platform must end byte-identical to the in-process
        # run of the same config and seed.
        twin_run = harness(["--workload", "warm_reuse", "--seconds", "0",
                            "--min-reps", "1", "--max-reps", "1"] + common,
                           timeout=120)
        if twin_run is None:
            return 2
        twin = twin_run["reps"][0]["fingerprint"]
    failures = update_ledger(run, twin)
    for failure in failures:
        log("GATE " + failure)
    reps = run["reps"]
    result = {
        "correct": not failures,
        "attempted": sum(r["offered"] for r in reps),
        "failed": sum(r["transport_failures"] + r["stranded"] for r in reps),
        "metrics": reduce_metrics(run, args.trace),
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
