#!/usr/bin/env python3
"""Guard virtual-time bench results against a committed baseline.

The fig7 benches report *simulated* (virtual) time, so their numbers are
deterministic for a fixed NDPGEN_SCALE — any change is a timing-model
change, not machine noise. CI runs the benches with NDPGEN_BENCH_JSON_DIR
set, then calls this script to compare every BENCH_*.json against
bench/baseline.json and fails when scan throughput drops by more than the
threshold (time/cycle rows grow, or speedup rows shrink).

PE-phase critical-path cycles (rows whose x is "pe_phase_cycles") get
their own, usually tighter, threshold via --pe-phase-threshold: these are
pure PE-pipeline cycle counts, independent of flash timing, so they should
barely move. Baselines recorded before the multi-PE work carry no such
rows; the guard then notes the gap and passes instead of failing.

Tail-latency rows (series named "p99*", from fig_host_service) likewise
get a dedicated --p99-threshold: p99 is the host-service SLO, and a small
mean-throughput win that fattens the tail must still fail CI. Same grace
path — a baseline recorded before the host-service bench has no p99 rows,
so the dedicated guard notes the gap and defers to the general one.

Failover-recovery rows (series "failover_p99", from fig_cluster_failover)
get --failover-p99-threshold: the recovered-tail latency is the cluster's
availability SLO, and a change to failover/rebuild/hedging must not
quietly fatten it. Same grace path — a baseline recorded before the
cluster bench has no failover_p99 rows, so the dedicated guard notes the
gap and defers to the general one.

--obs-overhead-threshold arms the observability-overhead guard, which is
self-referential rather than baseline-relative: within the results, any
series carrying both an "<x>_traced" and an "<x>_untraced" row (emitted by
`ndpgen profile`) must agree to within the threshold. Tracing reports
virtual time, so the two should be *identical*; a drift means an
observability hook perturbed the simulation it claims to observe.

--scrub-overhead-threshold arms the scrub-overhead guard, also
self-referential: within the results, any bench carrying a
"foreground_p99|off" row plus "foreground_p99|<share>" rows (emitted by
fig_scrub_repair) must keep each scrubbed p99 within the bandwidth-steal
model bound share/(1-share) of the scrub-off p99, plus the threshold as
slack. Scrubbing is licensed to cost exactly the bandwidth share it
steals; overhead beyond model + slack means a change made background
scrubbing leak into foreground latency some other way.

--query-overhead-threshold arms the query-plan cut guard, also
self-referential: within the results, any series carrying both a
"<plan>_hw" and a "<plan>_sw" row (emitted by fig_query_plans) must keep
the PE-offloaded time within (1 + threshold) of the forced-SW-fallback
time. The compiler picks the HW/SW cut per plan; an offload that costs
more than the fallback it replaced means the cut policy (or the chain
pricing feeding it) regressed. Same grace path — results without paired
_hw/_sw rows make the guard note the gap and pass.

--sim-throughput-threshold arms the fast-vs-exact speedup guard, also
self-referential: any bench carrying both a "<series>_throughput|fast"
and a "<series>_throughput|exact" row must show the fast row at least
`threshold` times the exact one. fig7_scan emits two such pairs, both
wall-clock: sim_throughput (simulated cycles per second, fast-forward vs
cycle-exact PE simulation) and crc32c_throughput (MB/s of the dispatched
CRC32C kernel vs the byte-table oracle). Their units (cyc/s, MB/s) keep
them out of the baseline comparison; the ratio between the two rows of
the *same* run is machine-independent enough to gate on, and a collapse
to ~1x means a change quietly forced the fast path back to the slow one.

Usage:
  check_bench_regression.py --baseline bench/baseline.json --results DIR
  check_bench_regression.py --baseline bench/baseline.json --results DIR \
      --update   # regenerate the baseline from the results instead

Baseline format:
  {"scale": 2048, "threshold": 0.15,
   "benches": {"fig7_scan": {"<series>|<x>": {"value": v, "unit": u}, ...}}}
"""

import argparse
import json
import pathlib
import sys

# Lower is better: virtual seconds / milliseconds / PE cycles.
LOWER_BETTER = {"s", "ms", "cycles"}
# Higher is better: speedup ratios.
HIGHER_BETTER = {"x"}


def is_pe_phase_row(key):
    """True for PE-phase critical-path rows ("<series>|pe_phase_cycles")."""
    return key.endswith("|pe_phase_cycles")


def is_p99_row(key):
    """True for tail-latency rows ("p99*|<load point>")."""
    return key.split("|", 1)[0].startswith("p99")


def is_failover_p99_row(key):
    """True for cluster failover-recovery rows ("failover_p99|<segment>")."""
    return key.split("|", 1)[0] == "failover_p99"


def check_obs_overhead(benches, threshold):
    """Pairs *_traced/*_untraced rows within the results; returns
    (pairs_compared, failure_messages)."""
    compared = 0
    failures = []
    for bench, rows in sorted(benches.items()):
        for key in sorted(rows):
            if not key.endswith("_traced"):
                continue
            other = key[:-len("_traced")] + "_untraced"
            if other not in rows:
                continue
            compared += 1
            traced = rows[key]["value"]
            untraced = rows[other]["value"]
            reference = untraced if untraced != 0 else 1.0
            drift = abs(traced - untraced) / abs(reference)
            if drift > threshold:
                failures.append(
                    f"{bench} {key}: traced {traced:.3f} vs untraced "
                    f"{untraced:.3f} (drift {drift:.1%} > "
                    f"{threshold:.0%}) [obs-overhead]")
    return compared, failures


def check_scrub_overhead(benches, slack):
    """Pairs foreground_p99|off with every foreground_p99|<share> row in
    the same bench; returns (pairs_compared, failure_messages).

    The scrubber steals `share` of a member's read bandwidth, so the
    timing model bounds foreground inflation at share/(1-share). The
    guard allows that modeled cost plus `slack` on top — anything more
    means scrubbing cost foreground latency it is not licensed to."""
    compared = 0
    failures = []
    for bench, rows in sorted(benches.items()):
        off = rows.get("foreground_p99|off")
        if off is None or off["value"] <= 0:
            continue
        for key in sorted(rows):
            series, _, x = key.partition("|")
            if series != "foreground_p99" or x == "off":
                continue
            try:
                share = float(x)
            except ValueError:
                continue
            if not 0.0 < share < 1.0:
                continue
            compared += 1
            overhead = rows[key]["value"] / off["value"] - 1.0
            bound = share / (1.0 - share)
            if overhead > bound + slack:
                failures.append(
                    f"{bench} {key}: p99 {rows[key]['value']:.3f} is "
                    f"+{overhead:.1%} over scrub-off {off['value']:.3f} "
                    f"(model bound {bound:.1%} + slack {slack:.0%}) "
                    f"[scrub-overhead]")
    return compared, failures


def check_query_overhead(benches, threshold):
    """Pairs <plan>_hw/<plan>_sw rows within the results; returns
    (pairs_compared, failure_messages).

    Both rows report virtual time, so the comparison is deterministic:
    the compiled offload must never cost more than (1 + threshold) times
    the forced software fallback for the same plan."""
    compared = 0
    failures = []
    for bench, rows in sorted(benches.items()):
        for key in sorted(rows):
            if not key.endswith("_hw"):
                continue
            other = key[:-len("_hw")] + "_sw"
            if other not in rows:
                continue
            compared += 1
            hw = rows[key]["value"]
            sw = rows[other]["value"]
            if sw <= 0:
                failures.append(
                    f"{bench} {other}: non-positive SW-fallback time "
                    f"{sw:.3f} [query-overhead]")
                continue
            if hw > sw * (1.0 + threshold):
                failures.append(
                    f"{bench} {key}: offloaded {hw:.3f} vs SW fallback "
                    f"{sw:.3f} (+{hw / sw - 1.0:.1%} > {threshold:.0%}) "
                    f"[query-overhead]")
    return compared, failures


def check_throughput_pairs(benches, floor):
    """Pairs every <series>_throughput|fast row with its |exact row within
    the results; returns (pairs_compared, failure_messages)."""
    compared = 0
    failures = []
    for bench, rows in sorted(benches.items()):
        for key in sorted(rows):
            series, _, x = key.partition("|")
            if not series.endswith("_throughput") or x != "fast":
                continue
            exact = rows.get(f"{series}|exact")
            if exact is None:
                continue
            fast = rows[key]
            compared += 1
            unit = fast["unit"]
            if exact["value"] <= 0:
                failures.append(
                    f"{bench} {series}|exact: non-positive throughput "
                    f"{exact['value']:.3f} [sim-throughput]")
                continue
            speedup = fast["value"] / exact["value"]
            if speedup < floor:
                failures.append(
                    f"{bench} {series}: fast {fast['value']:.0f} {unit} is "
                    f"only {speedup:.1f}x exact {exact['value']:.0f} {unit} "
                    f"(floor {floor:.1f}x) [sim-throughput]")
    return compared, failures


def load_results(results_dir):
    benches = {}
    for path in sorted(pathlib.Path(results_dir).glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        rows = {}
        for row in data["rows"]:
            key = f"{row['series']}|{row['x']}"
            rows[key] = {"value": row["value"], "unit": row.get("unit", "")}
        benches[data["bench"]] = rows
    return benches


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--results", required=True,
                        help="directory holding BENCH_*.json files")
    parser.add_argument("--threshold", type=float, default=None,
                        help="max relative throughput drop (default: from "
                             "baseline file, else 0.15)")
    parser.add_argument("--pe-phase-threshold", type=float, default=None,
                        help="max relative growth of PE-phase critical-path "
                             "cycle rows (default: the general threshold); "
                             "noted and skipped when the baseline predates "
                             "PE-phase rows")
    parser.add_argument("--p99-threshold", type=float, default=None,
                        help="max relative growth of p99 tail-latency rows "
                             "(default: the general threshold); noted and "
                             "skipped when the baseline predates the "
                             "host-service bench")
    parser.add_argument("--failover-p99-threshold", type=float, default=None,
                        help="max relative growth of cluster failover_p99 "
                             "rows (default: the general threshold); noted "
                             "and skipped when the baseline predates the "
                             "cluster-failover bench")
    parser.add_argument("--obs-overhead-threshold", type=float, default=None,
                        help="max relative drift between paired *_traced/"
                             "*_untraced rows in the results (virtual time, "
                             "so instrumentation must not move it); guard "
                             "is off when the flag is absent")
    parser.add_argument("--scrub-overhead-threshold", type=float,
                        default=None,
                        help="max foreground p99 overhead of each "
                             "foreground_p99|<share> row over its "
                             "foreground_p99|off pair, beyond the "
                             "share/(1-share) model bound (slack, from "
                             "fig_scrub_repair); guard is off when the "
                             "flag is absent")
    parser.add_argument("--query-overhead-threshold", type=float,
                        default=None,
                        help="max relative excess of each <plan>_hw row "
                             "over its <plan>_sw pair (virtual time, from "
                             "fig_query_plans): the compiler's HW/SW cut "
                             "must never offload at a loss; guard is off "
                             "when the flag is absent")
    parser.add_argument("--sim-throughput-threshold", type=float,
                        default=None,
                        help="minimum <series>_throughput|fast over "
                             "<series>_throughput|exact speedup within the "
                             "results (wall-clock sim_throughput and "
                             "crc32c_throughput rows from fig7_scan); "
                             "guard is off when the flag is absent")
    parser.add_argument("--scale", type=int, default=None,
                        help="NDPGEN_SCALE the results were produced at "
                             "(recorded with --update, checked otherwise)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the results")
    args = parser.parse_args()

    benches = load_results(args.results)
    if not benches:
        print(f"error: no BENCH_*.json files in {args.results}")
        return 2

    baseline_path = pathlib.Path(args.baseline)
    if args.update:
        baseline = {
            "scale": args.scale if args.scale is not None else 2048,
            "threshold": args.threshold if args.threshold is not None
            else 0.15,
            "benches": benches,
        }
        baseline_path.write_text(json.dumps(baseline, indent=1,
                                            sort_keys=True) + "\n")
        rows = sum(len(r) for r in benches.values())
        print(f"wrote {baseline_path} ({len(benches)} benches, {rows} rows)")
        return 0

    baseline = json.loads(baseline_path.read_text())
    threshold = (args.threshold if args.threshold is not None
                 else baseline.get("threshold", 0.15))
    pe_threshold = (args.pe_phase_threshold
                    if args.pe_phase_threshold is not None else threshold)
    p99_threshold = (args.p99_threshold
                     if args.p99_threshold is not None else threshold)
    failover_threshold = (args.failover_p99_threshold
                          if args.failover_p99_threshold is not None
                          else threshold)
    if args.scale is not None and args.scale != baseline.get("scale"):
        print(f"error: results at scale {args.scale} cannot be compared "
              f"against a scale-{baseline.get('scale')} baseline")
        return 2

    failures = []
    compared = 0
    pe_compared = 0
    p99_compared = 0
    failover_compared = 0
    for bench, base_rows in baseline["benches"].items():
        new_rows = benches.get(bench)
        if new_rows is None:
            failures.append(f"{bench}: no BENCH_{bench}.json in results")
            continue
        for key, base in base_rows.items():
            new = new_rows.get(key)
            if new is None:
                # Renamed/removed rows are reported, never fatal — benches
                # may evolve; regenerate the baseline alongside.
                print(f"note: {bench} {key} missing from results")
                continue
            unit = base.get("unit", "")
            base_value, new_value = base["value"], new["value"]
            row_threshold = threshold
            tag = ""
            if is_pe_phase_row(key):
                pe_compared += 1
                row_threshold = pe_threshold
                tag = " [pe-phase]"
            elif is_failover_p99_row(key):
                failover_compared += 1
                row_threshold = failover_threshold
                tag = " [failover-p99]"
            elif is_p99_row(key):
                p99_compared += 1
                row_threshold = p99_threshold
                tag = " [p99]"
            if unit in LOWER_BETTER and base_value > 0:
                # Throughput ~ 1/time: a drop of `threshold` means the
                # time/cycle count grew past base / (1 - threshold).
                compared += 1
                limit = base_value / (1.0 - row_threshold)
                if new_value > limit:
                    drop = 1.0 - base_value / new_value
                    failures.append(
                        f"{bench} {key}: {new_value:.3f} {unit} vs baseline "
                        f"{base_value:.3f} (throughput -{drop:.1%}){tag}")
            elif unit in HIGHER_BETTER and base_value > 0:
                compared += 1
                limit = base_value * (1.0 - row_threshold)
                if new_value < limit:
                    drop = 1.0 - new_value / base_value
                    failures.append(
                        f"{bench} {key}: {new_value:.3f}{unit} vs baseline "
                        f"{base_value:.3f} (-{drop:.1%}){tag}")

    if args.obs_overhead_threshold is not None:
        obs_compared, obs_failures = check_obs_overhead(
            benches, args.obs_overhead_threshold)
        failures.extend(obs_failures)
        if obs_compared == 0:
            print("note: no *_traced/*_untraced row pairs in results; "
                  "obs-overhead guard had nothing to compare")
        else:
            print(f"obs-overhead guard: {obs_compared} traced/untraced "
                  f"pairs (threshold {args.obs_overhead_threshold:.0%})")
    if args.scrub_overhead_threshold is not None:
        scrub_compared, scrub_failures = check_scrub_overhead(
            benches, args.scrub_overhead_threshold)
        failures.extend(scrub_failures)
        if scrub_compared == 0:
            print("note: no foreground_p99 off/share row pairs in results; "
                  "scrub-overhead guard had nothing to compare")
        else:
            print(f"scrub-overhead guard: {scrub_compared} share rows "
                  f"(slack {args.scrub_overhead_threshold:.0%})")
    if args.query_overhead_threshold is not None:
        query_compared, query_failures = check_query_overhead(
            benches, args.query_overhead_threshold)
        failures.extend(query_failures)
        if query_compared == 0:
            print("note: no <plan>_hw/<plan>_sw row pairs in results; "
                  "query-overhead guard had nothing to compare")
        else:
            print(f"query-overhead guard: {query_compared} hw/sw plan "
                  f"pairs (threshold {args.query_overhead_threshold:.0%})")
    if args.sim_throughput_threshold is not None:
        sim_compared, sim_failures = check_throughput_pairs(
            benches, args.sim_throughput_threshold)
        failures.extend(sim_failures)
        if sim_compared == 0:
            print("note: no *_throughput fast/exact row pairs in "
                  "results; sim-throughput guard had nothing to compare")
        else:
            print(f"sim-throughput guard: {sim_compared} fast/exact pairs "
                  f"(floor {args.sim_throughput_threshold:.1f}x)")
    if pe_compared == 0:
        # Grace path: a baseline recorded before the multi-PE benches has
        # no pe_phase_cycles rows. The general guard still ran; the
        # dedicated PE-phase guard just has nothing to hold on to.
        print("note: baseline has no pe_phase_cycles rows; "
              "PE-phase guard skipped (regenerate with --update to arm it)")
    else:
        print(f"pe-phase guard: {pe_compared} critical-path rows "
              f"(threshold {pe_threshold:.0%})")
    if p99_compared == 0:
        # Same grace path for baselines predating the host-service bench.
        print("note: baseline has no p99 rows; tail-latency guard skipped "
              "(regenerate with --update to arm it)")
    else:
        print(f"p99 guard: {p99_compared} tail-latency rows "
              f"(threshold {p99_threshold:.0%})")
    if failover_compared == 0:
        # Same grace path for baselines predating the cluster bench.
        print("note: baseline has no failover_p99 rows; failover-recovery "
              "guard skipped (regenerate with --update to arm it)")
    else:
        print(f"failover-p99 guard: {failover_compared} recovery rows "
              f"(threshold {failover_threshold:.0%})")
    print(f"checked {compared} rows against {baseline_path} "
          f"(threshold {threshold:.0%})")
    if failures:
        print(f"\n{len(failures)} regression(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
