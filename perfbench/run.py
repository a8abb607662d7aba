#!/usr/bin/env python3
"""Benchmark of the Flock simulator: host cost and simulated RPC outcomes.

One workload per invocation (the form of BENCHMARK.json's command):

    python3 perfbench/run.py --workload fanin_echo --seed 1 --seconds 30 --trace 0

builds the driver (perfbench/driver) from the repository's sources, runs the
workload in fresh processes until --seconds have passed (at least three),
and prints one JSON object as the last line of stdout. Host time is the
processes' CPU time. --trace 0 reports the end-to-end metrics;
--trace 1 runs the per-layer traced run instead (an untraced twin, the traced
run, runs at 4 shards on several worker threads and at 1 shard, and a run
with another seed) and reports the per-layer metrics.

Everything at once, with a table of every metric and its unit:

    python3 perfbench/run.py --all [--seed 1] [--seconds 30]

rewrites BENCHMARK.json from the metric definitions below. The benchmark's own
unit tests:

    python3 perfbench/run.py --self-test

Exit status is non-zero when the build fails, an output is wrong, or a
determinism check fails.
"""
import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = [
    ("fanin_echo", "perf_smoke's world (1 server, 4x8 client threads, 64 B echo): "
                   "the per-RPC hot path of the event kernel, combine and dispatch"),
    ("scale_out", "the paper's 24-node testbed (704 lanes, 4 shards): setup memory, "
                  "sharded kernel, receiver QP scheduling and real coalescing"),
    ("extent_mix", "128 B metadata beside 1 MB extent reads and writes with "
                   "segmentation: few huge messages instead of many tiny ones"),
    ("conn_churn", "open-loop sessions (Join, ConnectAsync, 4 RPCs, Close, Leave): "
                   "the only load on the control plane and the lane lifecycle"),
]

# (name, unit, better, bound, clock). bound: the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "host"),
    ("host_cpu_s", "s", "lower", 0.25, "host"),
    ("sim_ms_per_cpu_s", "ms/s", "higher", 0.25, "host"),
    ("peak_rss_mb", "MB", "lower", 0.1, "host"),
    ("sim_mops", "Mops", "higher", 0.15, "sim"),
    ("sim_p50_us", "us", "lower", 0.15, "sim"),
    ("sim_p99_us", "us", "lower", 0.15, "sim"),
    ("sim_goodput_gbps", "Gbps", "higher", 0.15, "sim"),
]
SIM_METRICS = [m[0] for m in END_TO_END if m[4] == "sim"]

LAYERS = ["bench", "verbs", "flock", "ctrl", "sim"]

# (name, unit, better). Reported by the traced run.
PER_LAYER = [
    ("sim.events_per_rpc", "count", "lower"),
    ("sim.resumes_per_rpc", "count", "lower"),
    ("sim.direct_resume_frac", "ratio", "higher"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.shard_speedup", "x", "higher"),
    ("sim.host_ms_per_sim_ms", "ms/ms", "lower"),
    ("verbs.cluster_build_s", "s", "lower"),
    ("flock.runtime_start_s", "s", "lower"),
    ("flock.connect_s", "s", "lower"),
    ("flock.connect_us_per_lane", "us", "lower"),
    ("world.rss_setup_mb", "MB", "lower"),
    ("fabric.rss_kb_per_lane", "KB", "lower"),
    ("world.teardown_s", "s", "lower"),
    ("verbs.msgs_per_rpc", "count", "lower"),
    ("verbs.packets_per_rpc", "count", "lower"),
    ("verbs.payload_wire_ratio", "ratio", "higher"),
    ("verbs.cqes_per_rpc", "count", "lower"),
    ("verbs.stale_drops", "count", "lower"),
    ("verbs.remote_errors", "count", "lower"),
    ("rnic.qp_cache_miss_ratio", "ratio", "lower"),
    ("flock.combine.coalescing", "req/msg", "higher"),
    ("flock.combine.send_wait_us_p50", "us", "lower"),
    ("flock.combine.send_wait_us_p99", "us", "lower"),
    ("flock.rpc.await_us_p50", "us", "lower"),
    ("flock.rpc.await_us_p99", "us", "lower"),
    ("flock.sched.active_lanes", "count", "higher"),
    ("flock.sched.redistributions", "count", "lower"),
    ("flock.sched.credit_renewals_per_msg", "ratio", "lower"),
    ("flock.dispatch.server_coalescing", "req/msg", "higher"),
    ("flock.dispatch.responses_per_request", "ratio", "higher"),
    ("flock.segment.extent_us_p50", "us", "lower"),
    ("flock.segment.extent_ops", "count", "higher"),
    ("ctrl.connect_us_p50", "us", "lower"),
    ("ctrl.connect_us_p99", "us", "lower"),
    ("ctrl.first_call_us_p50", "us", "lower"),
    ("flock.lane.qps_created_per_session", "count", "lower"),
    ("flock.lane.qps_recycled_per_session", "count", "higher"),
    ("flock.close_us_per_session", "us", "lower"),
    ("ctrl.rejects", "count", "lower"),
    ("flock.retries", "count", "lower"),
    ("flock.failed_rpcs", "count", "lower"),
    ("flock.lane_failures", "count", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("latency.p99_samples", "count", "higher"),
] + [("host.self_ms." + layer, "ms", "lower") for layer in LAYERS] + [
    ("host.uncovered_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]

MIN_REPS = 3           # timed runs per invocation: medians, and same-seed checks
DEADLINE_S = 150       # stop starting new runs after this long
MIN_COVERAGE = 0.95    # traced run: host spans must cover this share of wall
OVERHEAD_PAIRS = 3     # runs per side behind trace.overhead_frac and
                       # sim.shard_speedup

# Worker threads of every run but the shard-speedup runs. Only scale_out
# has more than one shard. With as many threads as the host has CPUs, each
# window barrier waits for whichever thread another process preempted; two
# leave room for the rest of the host.
TIMED_WORKERS = 2


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def host_cpus():
    return len(os.sched_getaffinity(0))


def build(target="perfbench_driver"):
    if not os.path.exists(os.path.join(ROOT, "src", "flock", "runtime.h")):
        raise BenchError("the Flock sources (src/) are missing next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, host_cpus())))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def child_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_driver(binary, workload, seed, deadline, trace=False, shards=None,
               workers=TIMED_WORKERS, spans_out=None):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--trace=%d" % int(trace),
           "--workers=%d" % max(1, min(workers, host_cpus()))]
    if shards is not None:
        cmd.append("--shards=%d" % shards)
    if spans_out is not None:
        cmd.append("--spans-out=" + spans_out)
    start = time.monotonic()
    cpu = child_cpu_s()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % workload)
    wall = time.monotonic() - start
    cpu = child_cpu_s() - cpu
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError("%s: driver exited with %d" % (workload, proc.returncode))
    rep = json.loads(lines[-1])
    rep["wall_s"] = wall
    rep["cpu_s"] = cpu
    return rep


def check_rep(rep, errors):
    for e in rep["errors"]:
        errors.append("%s seed %d: %s" % (rep["workload"], rep["seed"], e["e"]))


def check_same_trace(a, b, what, errors):
    if a["fingerprint"] != b["fingerprint"]:
        errors.append("%s: fingerprint %s != %s (%s)" %
                      (a["workload"], a["fingerprint"], b["fingerprint"], what))
    for name in SIM_METRICS:
        if a["metrics"][name] != b["metrics"][name]:
            errors.append("%s: %s %r != %r (%s)" % (a["workload"], name,
                          a["metrics"][name], b["metrics"][name], what))


def timed(binary, workload, seed, seconds):
    """End-to-end metrics: medians of host metrics over repeated same-seed
    runs; sim metrics must repeat exactly."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps = []
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        if reps and time.monotonic() > deadline - 2 * reps[-1]["wall_s"]:
            break
        reps.append(run_driver(binary, workload, seed, start + 170))
    errors = []
    for rep in reps:
        check_rep(rep, errors)
        check_same_trace(reps[0], rep, "same seed, repeated", errors)
    host = {
        "setup_s": [r["metrics"]["setup_s"] for r in reps],
        "host_cpu_s": [r["cpu_s"] for r in reps],
        "sim_ms_per_cpu_s": [r["metrics"]["sim_ms_per_cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    values = {name: statistics.median(v) for name, v in host.items()}
    for name in SIM_METRICS:
        values[name] = reps[0]["metrics"][name]
    log("%s seed %d: %d runs; p50/p99 over %d samples (%d beyond p99)" % (
        workload, seed, len(reps), reps[0]["samples"]["sim_p99_us"]["n"],
        reps[0]["samples"]["sim_p99_us"]["beyond"]))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _, _ in END_TO_END}
    return result(reps, metrics, errors)


def traced(binary, workload, seed, seconds):
    """Per-layer metrics from the traced run. Around it: untraced twins for
    the tracing overhead, a run at another shard count and a run with
    another seed."""
    start = time.monotonic()
    deadline = start + 170
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_out = os.path.join(spans_dir, "%s-seed%d.jsonl" % (workload, seed))
    # Traced and untraced runs alternate, so drift in the host's load hits
    # both sides alike.
    plain, tracing = [], []
    for i in range(OVERHEAD_PAIRS):
        for trace in ((False, True) if i % 2 == 0 else (True, False)):
            rep = run_driver(binary, workload, seed, deadline, trace=trace,
                             spans_out=spans_out if trace and not tracing else None)
            (tracing if trace else plain).append(rep)
    other = run_driver(binary, workload, seed + 1, deadline)
    base = plain[0]
    reps = plain + tracing + [other]
    errors = []
    for rep in reps:
        check_rep(rep, errors)
    for rep in plain[1:] + tracing:
        check_same_trace(base, rep, "untraced vs traced", errors)
    if other["fingerprint"] == base["fingerprint"]:
        errors.append("%s: seeds %d and %d gave the same fingerprint: the seed "
                      "does not reach the inputs" % (workload, seed, seed + 1))

    def rate(rep):
        return rep["metrics"]["sim_ms_per_cpu_s"]

    def wall_rate(rep):
        return rep["sim_ms_per_wall_s"]

    tr = tracing[0]  # the run whose spans were written out
    layers = dict(tr["layers"])
    layers["trace.overhead_frac"] = (statistics.median(map(rate, plain)) /
                                     statistics.median(map(rate, tracing)) - 1)
    # Shard speedup: the measured window's wall-clock rate at 4 shards on
    # min(4, nproc) worker threads over that at 1 shard (medians of the
    # chunk-median rates), with identical traces. conn_churn stays on one
    # shard: its control-plane membership calls reach into other nodes' state
    # synchronously.
    layers["sim.shard_speedup"] = 0.0
    if workload != "conn_churn":
        many = [run_driver(binary, workload, seed, deadline, shards=4,
                           workers=4)
                for _ in range(OVERHEAD_PAIRS)]
        one = plain if base["shards"] == 1 else [
            run_driver(binary, workload, seed, deadline, shards=1)
            for _ in range(OVERHEAD_PAIRS)]
        for alt in many + (one if one is not plain else []):
            check_rep(alt, errors)
            check_same_trace(base, alt, "%d shards on %d workers vs %d shards" %
                             (alt["shards"], alt["workers"], base["shards"]), errors)
            reps.append(alt)
        layers["sim.shard_speedup"] = (statistics.median(map(wall_rate, many)) /
                                       statistics.median(map(wall_rate, one)))
    self_ms = tr["self_ms"]
    for layer in LAYERS:
        layers["host.self_ms." + layer] = self_ms.get(layer, 0.0)
    layers["host.self_ms.bench"] -= tr["main_uncovered_s"] * 1e3
    covered_s = tr["main_s"] - tr["main_uncovered_s"]
    layers["host.uncovered_ms"] = (tr["wall_s"] - covered_s) * 1e3
    layers["trace.coverage"] = covered_s / tr["wall_s"]
    layers["latency.p99_samples"] = tr["samples"]["sim_p99_us"]["n"]
    log("%s traced run: %d host spans written to %s" % (
        workload, tr["host_spans"], os.path.relpath(spans_out, ROOT)))
    log("  host self time by layer (ms): " + ", ".join(
        "%s %.1f" % (k[len("host.self_ms."):], v) for k, v in layers.items()
        if k.startswith("host.self_ms.")))
    log("  uncovered host time: %.1f ms outside main() (exec, loader, exit)" %
        ((tr["wall_s"] - tr["main_s"]) * 1e3))
    for gap in tr["gaps"]:
        log("  uncovered host time: %.3f ms between %s" % (gap["ms"], gap["between"]))
    if layers["trace.coverage"] < MIN_COVERAGE:
        errors.append("%s: host spans cover %.1f%% of the traced process's wall "
                      "time (< %.0f%%)" % (workload, 100 * layers["trace.coverage"],
                                           100 * MIN_COVERAGE))
    sessions = tr["sessions"]
    layers["flock.close_us_per_session"] = (tr["close_ms"] * 1e3 / sessions
                                            if sessions else 0.0)
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return result(reps, metrics, errors)


def result(reps, metrics, errors):
    for e in errors:
        log("CHECK FAILED: " + e)
    return {
        "correct": not errors,
        "attempted": int(sum(r["attempted"] for r in reps)),
        "failed": int(sum(r["failed"] for r in reps)),
        "metrics": metrics,
    }


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def run_all(seed, seconds):
    binary = build()
    ok = True
    table = []
    for workload, _ in WORKLOADS:
        for mode in (timed, traced):
            res = mode(binary, workload, seed, seconds)
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                table.append((workload, name, m["value"], m["unit"]))
    clock = {m[0]: m[4] for m in END_TO_END}
    print("%-12s %-38s %16s  %s" % ("workload", "metric", "value", "unit"))
    for workload, name, value, unit in table:
        print("%-12s %-38s %16.6g  %s%s" % (workload, name, value, unit,
              "  (%s)" % clock[name] if name in clock else ""))
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
        json.dump(manifest(), f, indent=2)
        f.write("\n")
    print("wrote BENCHMARK.json; all checks %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w for w, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return subprocess.run([build("perfbench_tests")]).returncode
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            parser.error("--workload, --all or --self-test is required")
        binary = build()
        mode = traced if args.trace else timed
        res = mode(binary, args.workload, args.seed, args.seconds)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
