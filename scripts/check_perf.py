#!/usr/bin/env python3
"""CI perf gate: compare a fresh perf_smoke run against the checked-in baseline.

Usage:
    check_perf.py BASELINE.json CURRENT.json [--max-regression=0.10]

perf_smoke emits one row per configuration (the "config" field): a "default"
single-shard row plus a shard-scaling pair ("scale_seq" / "scale_par") that
runs the same larger world sequentially and sharded. Four gates:

 1. Rate regression — the default row's wall-clock rates (events/s, rpcs/s)
    must not drop more than --max-regression vs the baseline row with the
    same config. Improvements never fail; refresh the baseline in the PR
    that moves the numbers.
 2. Trace identity — scale_seq and scale_par in the *current* run must report
    identical event counts, RPC counts and trace hashes: the sharded kernel
    must replay the sequential trace bit for bit (DESIGN.md §12).
 3. Shard speedup — scale_par must beat scale_seq by a factor that depends on
    the host parallelism actually available (the "host_cpus" field):
    >= 4x with 8+ effective cores, >= 2x with 4+, >= 1.2x with 2+; skipped on
    single-core hosts, where the worker pool collapses to one thread and the
    window loop can only break even.
 4. Baseline trace — the default row's event count, RPC count and trace hash
    must equal the baseline row's exactly. The simulation is deterministic,
    so any difference is a change to the simulated trace; a change that
    alters it on purpose refreshes the baseline and says why.

Passing --conn-storm=PATH additionally gates the connection-storm bench
(DESIGN.md §13) from its JSON dump: the optimized configuration's p99
time-to-first-RPC must beat the eager baseline by >= --min-ttfr-improvement
and stay under --max-ttfr-p99-us absolute at the offered join rate, with
zero control-plane rejects in either configuration. These are simulated-time
gates — deterministic, host-speed independent — so they are exact, not
thresholded against a checked-in baseline.

Passing --crossover=PATH gates the one-sided data plane (DESIGN.md §14) from
the onesided_crossover JSON dump: every swept cell must carry both an "rpc"
and a "onesided" row, and one-sided point reads must beat the RPC path by
>= --min-onesided-speedup at the 64B / 100%-read cell. Simulated-time gate,
same as the storm gates: exact.

Passing --extent-store=PATH gates the scatter-gather / segmentation data
path (DESIGN.md §16) from the extent_store JSON dump: the bimodal
configuration must move >= --min-extent-kb extents at >=
--min-extent-gbps sustained, keep the metadata p99 within
--max-meta-p99-ratio of the metadata-only solo run, and complete with zero
failures in either configuration. Simulated-time gate: exact.

Passing --tenant-isolation=PATH gates the multi-tenant service layer
(DESIGN.md §15) from the tenant_isolation JSON dump: under every attack
profile the victim tenant's p99 must stay within --max-victim-p99-ratio of
its solo run and its throughput above --min-victim-tput-frac of solo, with
zero victim failures, zero unknown-tenant rejects and zero leaked
admission accounting. Simulated-time gate: exact.
"""

import argparse
import json
import sys

# Rates gated against the baseline. Higher is better for every entry.
GATED_METRICS = ("events_per_sec", "rpcs_per_sec")
# Reported for context but not gated (events_per_rpc is a design property of
# the kernel, not a wall-clock rate; it moves only when event batching
# changes, and such a change must update the baseline deliberately).
INFO_METRICS = ("events_per_rpc", "sim_mops", "peak_rss_kb")
# Fields that must be bit-identical between the sequential and sharded run,
# and between the default row and its baseline.
IDENTITY_FIELDS = ("events", "rpcs", "trace_hash")


def load_rows(path):
    with open(path) as f:
        dump = json.load(f)
    rows = dump.get("rows", [])
    if not rows:
        sys.exit(f"error: {path} has no rows")
    by_config = {}
    for i, row in enumerate(rows):
        # Rows predating the multi-config schema carry no "config"; the first
        # row was always the default configuration.
        by_config[row.get("config", "default" if i == 0 else f"row{i}")] = row
    return by_config


def required_speedup(effective_cores):
    if effective_cores >= 8:
        return 4.0
    if effective_cores >= 4:
        return 2.0
    if effective_cores >= 2:
        return 1.2
    return None  # single-core host: the pool degenerates to one worker


def check_rates(base, cur, max_regression):
    failed = []
    print(f"{'metric':<18} {'baseline':>14} {'current':>14} {'delta':>8}")
    for metric in GATED_METRICS + INFO_METRICS:
        b, c = base.get(metric), cur.get(metric)
        if b is None or c is None:
            print(f"{metric:<18} {'(missing)':>14} {'(missing)':>14}")
            continue
        delta = (c - b) / b if b else 0.0
        gated = metric in GATED_METRICS
        mark = ""
        if gated and delta < -max_regression:
            failed.append(metric)
            mark = "  << REGRESSION"
        print(f"{metric:<18} {b:>14.0f} {c:>14.0f} {delta:>+7.1%}{mark}")
    return failed


def check_identity(title, names, a, b, tag, mark):
    """Fails every IDENTITY_FIELDS entry that differs between rows a and b
    (or is missing from a), printing the two side by side."""
    failed = []
    print(f"\n{title:<18} {names[0]:>22} {names[1]:>22}")
    for field in IDENTITY_FIELDS:
        x, y = a.get(field), b.get(field)
        note = ""
        if x is None or x != y:
            failed.append(f"{tag}:{field}")
            note = f"  << {mark}"
        print(f"{field:<18} {str(x):>22} {str(y):>22}{note}")
    return failed


def check_scaling(cur_rows):
    seq = cur_rows.get("scale_seq")
    par = cur_rows.get("scale_par")
    if seq is None or par is None:
        print("\nscaling pair: not present in current run (perf_smoke "
              "--scale=0?); identity and speedup gates skipped")
        return []
    failed = check_identity("identity", ("sequential", "sharded"), seq, par,
                            "identity", "TRACE DIVERGED")

    host_cpus = int(par.get("host_cpus", 0))
    shards = int(par.get("shards", 1))
    effective = min(shards, host_cpus)
    speedup = seq["wall_s"] / par["wall_s"] if par.get("wall_s") else 0.0
    need = required_speedup(effective)
    print(f"\nshard speedup: {speedup:.2f}x on {shards} shards "
          f"({host_cpus} host cpus, {effective} effective)")
    if need is None:
        print("speedup gate skipped: single-core host")
    elif speedup < need:
        failed.append("speedup")
        print(f"<< SPEEDUP BELOW GATE: {speedup:.2f}x < required {need:.1f}x")
    else:
        print(f"speedup gate passed: {speedup:.2f}x >= required {need:.1f}x")
    return failed


def check_crossover(path, min_speedup):
    """Gate the one-sided data plane (DESIGN.md §14) from the
    onesided_crossover JSON dump: both paths must have produced rows at every
    swept cell, and one-sided point reads must beat the RPC path by
    >= min_speedup at the 64B / 100%-read cell. Simulated-time gate: exact."""
    with open(path) as f:
        rows = json.load(f).get("rows", [])
    failed = []
    cells = {}
    gate = None
    for row in rows:
        p = row.get("path")
        if p == "gate":
            gate = row
        elif p in ("rpc", "onesided"):
            cells.setdefault((row.get("payload"), row.get("read_pct")), set()).add(p)
    lopsided = [c for c, paths in cells.items() if paths != {"rpc", "onesided"}]
    print(f"\ncrossover sweep: {len(cells)} cells with both paths required")
    if not cells or lopsided:
        failed.append("crossover:missing-paths")
        print(f"<< CELLS MISSING A PATH: {sorted(lopsided) or 'no cells at all'}")
    if gate is None:
        failed.append("crossover:missing-gate")
        print("<< NO GATE ROW IN DUMP")
    else:
        speedup = gate.get("speedup_64b_100r", 0.0)
        print(f"one-sided speedup at 64B/100% reads: {speedup:.2f}x")
        if speedup < min_speedup:
            failed.append("crossover:speedup")
            print(f"<< ONE-SIDED SPEEDUP BELOW GATE: {speedup:.2f}x < "
                  f"required {min_speedup:.1f}x")
        else:
            print(f"crossover gate passed: {speedup:.2f}x >= {min_speedup:.1f}x")
    return failed


def check_conn_storm(path, min_improvement, max_p99_us):
    rows = load_rows(path)
    eager = rows.get("eager")
    optimized = rows.get("optimized")
    if eager is None or optimized is None:
        return [f"conn_storm:missing-rows ({path})"]
    failed = []

    e_p99 = eager.get("ttfr_p99_ns", 0) / 1e3
    o_p99 = optimized.get("ttfr_p99_ns", 0) / 1e3
    improvement = e_p99 / o_p99 if o_p99 else 0.0
    print(f"\nconn_storm p99 TTFR: eager {e_p99:.1f} us, optimized "
          f"{o_p99:.1f} us -> {improvement:.2f}x")
    if improvement < min_improvement:
        failed.append("conn_storm:improvement")
        print(f"<< TTFR IMPROVEMENT BELOW GATE: {improvement:.2f}x < "
              f"required {min_improvement:.1f}x")
    if o_p99 <= 0 or o_p99 > max_p99_us:
        failed.append("conn_storm:p99")
        print(f"<< OPTIMIZED P99 TTFR ABOVE GATE: {o_p99:.1f} us > "
              f"{max_p99_us:.1f} us")
    for name, row in (("eager", eager), ("optimized", optimized)):
        rejects = sum(row.get(k, 0) for k in (
            "rejected_malformed", "rejected_replay", "rejected_no_endpoint",
            "rejected_not_member"))
        if rejects:
            failed.append(f"conn_storm:rejects:{name}")
            print(f"<< {name} SAW {rejects:.0f} CONTROL-PLANE REJECTS")
    if not failed:
        print(f"conn_storm gate passed: {improvement:.2f}x >= "
              f"{min_improvement:.1f}x, p99 {o_p99:.1f} us <= "
              f"{max_p99_us:.1f} us, zero rejects")
    return failed


def check_extent_store(path, min_extent_kb, min_extent_gbps, max_p99_ratio):
    """Gate the scatter-gather / segmentation path (DESIGN.md §16) from the
    extent_store JSON dump: bimodal extents at least min_extent_kb large and
    min_extent_gbps sustained, metadata p99 within max_p99_ratio of the
    metadata-only solo run, zero failures. Simulated-time gate: exact."""
    rows = load_rows(path)
    solo = rows.get("solo")
    bimodal = rows.get("bimodal")
    if solo is None or bimodal is None:
        return [f"extent_store:missing-rows ({path})"]
    failed = []
    solo_p99 = solo.get("meta_p99_ns", 0)
    extent_kb = bimodal.get("extent_kb", 0)
    gbps = bimodal.get("extent_gbps", 0.0)
    ratio = bimodal.get("meta_p99_ns", 0) / solo_p99 if solo_p99 else 0.0
    print(f"\nextent_store: solo meta p99 {solo_p99 / 1e3:.1f} us; bimodal "
          f"{extent_kb:.0f} KB extents at {gbps:.2f} GB/s, meta p99 "
          f"{bimodal.get('meta_p99_ns', 0) / 1e3:.1f} us ({ratio:.2f}x solo)")
    if extent_kb < min_extent_kb:
        failed.append("extent_store:extent-size")
        print(f"<< EXTENTS BELOW GATE: {extent_kb:.0f} KB < "
              f"required {min_extent_kb:.0f} KB")
    if gbps < min_extent_gbps:
        failed.append("extent_store:bandwidth")
        print(f"<< EXTENT BANDWIDTH BELOW GATE: {gbps:.2f} GB/s < "
              f"required {min_extent_gbps:.1f} GB/s")
    if ratio <= 0 or ratio > max_p99_ratio:
        failed.append("extent_store:meta-p99")
        print(f"<< METADATA P99 ABOVE GATE: {ratio:.2f}x > "
              f"{max_p99_ratio:.2f}x solo")
    for name, row in (("solo", solo), ("bimodal", bimodal)):
        if row.get("failures", 0):
            failed.append(f"extent_store:failures:{name}")
            print(f"<< {name} SAW {row['failures']:.0f} FAILED RPCs")
    if not failed:
        print(f"extent_store gate passed: {extent_kb:.0f} KB extents at "
              f"{gbps:.2f} GB/s with meta p99 {ratio:.2f}x <= "
              f"{max_p99_ratio:.2f}x solo, zero failures")
    return failed


def check_tenant_isolation(path, max_p99_ratio, min_tput_frac):
    """Gate the multi-tenant service layer (DESIGN.md §15) from the
    tenant_isolation JSON dump: victim p99/throughput bounded relative to its
    solo baseline under every attack profile, no victim failures, no
    unknown-tenant rejects, no leaked accounting. Simulated-time gate: exact."""
    rows = load_rows(path)
    solo = rows.get("solo")
    if solo is None:
        return [f"tenant_isolation:missing-solo ({path})"]
    failed = []
    solo_p99 = solo.get("victim_p99_ns", 0)
    solo_rps = solo.get("victim_rps", 0)
    print(f"\ntenant_isolation: solo victim p99 {solo_p99 / 1e3:.1f} us, "
          f"{solo_rps:.0f} rps")
    for name in ("hotloop", "oversized", "churn"):
        row = rows.get(name)
        if row is None:
            failed.append(f"tenant_isolation:missing-{name}")
            print(f"<< NO {name} ROW IN DUMP")
            continue
        p99 = row.get("victim_p99_ns", 0)
        rps = row.get("victim_rps", 0)
        ratio = p99 / solo_p99 if solo_p99 else 0.0
        frac = rps / solo_rps if solo_rps else 0.0
        print(f"  {name:<10} victim p99 {p99 / 1e3:.1f} us ({ratio:.2f}x "
              f"solo), {rps:.0f} rps ({frac:.2f}x solo), attacker ok "
              f"{row.get('attacker_ok', 0):.0f}")
        if ratio > max_p99_ratio:
            failed.append(f"tenant_isolation:p99:{name}")
            print(f"<< VICTIM P99 ABOVE GATE: {ratio:.2f}x > "
                  f"{max_p99_ratio:.2f}x solo")
        if frac < min_tput_frac:
            failed.append(f"tenant_isolation:tput:{name}")
            print(f"<< VICTIM THROUGHPUT BELOW GATE: {frac:.2f}x < "
                  f"{min_tput_frac:.2f}x solo")
        if row.get("victim_fail", 0):
            failed.append(f"tenant_isolation:victim-fail:{name}")
            print(f"<< {row['victim_fail']:.0f} VICTIM RPCs FAILED")
        if row.get("unknown_rejects", 0):
            failed.append(f"tenant_isolation:unknown-rejects:{name}")
            print(f"<< {row['unknown_rejects']:.0f} UNKNOWN-TENANT REJECTS")
    if not failed:
        print(f"tenant_isolation gate passed: victim p99 within "
              f"{max_p99_ratio:.2f}x and throughput above "
              f"{min_tput_frac:.2f}x solo under every attack")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        help="fail if a gated metric drops by more than this fraction",
    )
    parser.add_argument(
        "--conn-storm",
        default=None,
        help="conn_storm JSON dump to gate (improvement, absolute p99, rejects)",
    )
    parser.add_argument(
        "--min-ttfr-improvement",
        type=float,
        default=2.0,
        help="required eager/optimized p99 TTFR ratio in the conn_storm dump",
    )
    parser.add_argument(
        "--max-ttfr-p99-us",
        type=float,
        default=50.0,
        help="absolute ceiling on the optimized conn_storm p99 TTFR",
    )
    parser.add_argument(
        "--crossover",
        default=None,
        help="onesided_crossover JSON dump to gate (64B/100%%-read speedup)",
    )
    parser.add_argument(
        "--min-onesided-speedup",
        type=float,
        default=1.5,
        help="required one-sided/RPC throughput ratio at 64B, 100%% reads",
    )
    parser.add_argument(
        "--extent-store",
        default=None,
        help="extent_store JSON dump to gate (size, bandwidth, meta p99 ratio)",
    )
    parser.add_argument(
        "--min-extent-kb",
        type=float,
        default=1024.0,
        help="floor on the bimodal extent size in the extent_store dump",
    )
    parser.add_argument(
        "--min-extent-gbps",
        type=float,
        default=4.0,
        help="floor on sustained bimodal extent bandwidth (payload GB/s)",
    )
    parser.add_argument(
        "--max-meta-p99-ratio",
        type=float,
        default=2.0,
        help="ceiling on bimodal metadata p99 relative to the solo run",
    )
    parser.add_argument(
        "--tenant-isolation",
        default=None,
        help="tenant_isolation JSON dump to gate (victim p99/tput vs solo)",
    )
    parser.add_argument(
        "--max-victim-p99-ratio",
        type=float,
        default=2.0,
        help="ceiling on victim p99 relative to its solo run, per attack",
    )
    parser.add_argument(
        "--min-victim-tput-frac",
        type=float,
        default=0.8,
        help="floor on victim throughput relative to its solo run, per attack",
    )
    args = parser.parse_args()

    base_rows = load_rows(args.baseline)
    cur_rows = load_rows(args.current)

    failed = check_rates(base_rows["default"], cur_rows["default"],
                         args.max_regression)
    failed += check_identity("baseline trace", ("baseline", "current"),
                             base_rows["default"], cur_rows["default"],
                             "baseline", "TRACE CHANGED")
    failed += check_scaling(cur_rows)
    if args.conn_storm:
        failed += check_conn_storm(args.conn_storm, args.min_ttfr_improvement,
                                   args.max_ttfr_p99_us)
    if args.crossover:
        failed += check_crossover(args.crossover, args.min_onesided_speedup)
    if args.extent_store:
        failed += check_extent_store(args.extent_store, args.min_extent_kb,
                                     args.min_extent_gbps,
                                     args.max_meta_p99_ratio)
    if args.tenant_isolation:
        failed += check_tenant_isolation(args.tenant_isolation,
                                         args.max_victim_p99_ratio,
                                         args.min_victim_tput_frac)

    if failed:
        print(f"\nFAIL: {', '.join(failed)} (baseline {args.baseline})",
              file=sys.stderr)
        return 1
    print("\nOK: rates within "
          f"{args.max_regression:.0%}, default trace equals the baseline, "
          "sharded trace identical, speedup gate satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
