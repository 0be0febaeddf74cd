#!/usr/bin/env python3
"""Diff two benchmark JSON runs with a statistically-aware regression gate.

Inputs are raw google-benchmark JSON reports (as produced by
`bench_wrapper --json=FILE`, with or without --benchmark_repetitions), a
flat {"BM_Name": nanoseconds} map (the format BENCH_PR2.json snapshots
use), or a ledger/run.py result line ({"correct", ..., "metrics":
{name: {"value", "unit"}}}). Benchmarks are matched by name; real_time
means, or ledger metric values, are compared.

When a report carries repetition aggregates (mean/stddev), or enough raw
repetitions to compute them, a regression is flagged only when it is both
over --threshold percent AND statistically significant: the mean delta must
exceed --sigmas standard errors of the difference. Runs without spread
information fall back to the plain threshold. A ledger metric is held to
its own direction (`better`) and `bound` from BENCHMARK.json instead of
--threshold; a metric without a bound there falls back to --threshold.

  tools/bench_compare.py old.json new.json
  tools/bench_compare.py --threshold 15 --sigmas 3 old.json new.json
  tools/bench_compare.py --warn-only BENCH_PR2.json#bench_txn.after new.json
  tools/bench_compare.py BENCH_PR18.json#ledger_smoke.serve_benign last.json

A `FILE#dotted.path` selector digs into a composite JSON file (used to
compare against the committed BENCH_PR2.json snapshot). Exit status is 1 if
any matched benchmark regressed (unless --warn-only), 2 on usage/parse
errors.
"""

import argparse
import json
import math
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json"
)


def _scale_for(entry, path):
    unit = entry.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
    if scale is None:
        sys.exit(f"bench_compare: unknown time_unit '{unit}' in {path}")
    return scale


def _ledger_stats(metrics):
    """A ledger/run.py result's metrics, each tagged with its direction and
    bound as BENCHMARK.json declares them."""
    try:
        with open(BENCHMARK_JSON, "r", encoding="utf-8") as f:
            benchmark = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {BENCHMARK_JSON}: {e}")
    declared = {
        m["name"]: m
        for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])
    }
    stats = {}
    for name, metric in metrics.items():
        d = declared.get(name, {})
        stats[name] = {
            "mean": float(metric["value"]),
            "stddev": None,
            "n": 1,
            "better": d.get("better", "lower"),
            "bound": d.get("bound"),
        }
    return stats


def load_stats(spec):
    """Returns {name: {"mean": value, "stddev": value|None, "n": reps}} from
    FILE or FILE#path; ledger metrics also carry "better" and "bound"."""
    path, _, selector = spec.partition("#")
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    for key in filter(None, selector.split(".")):
        if not isinstance(data, dict) or key not in data:
            sys.exit(f"bench_compare: selector '{selector}' not in {path}")
        data = data[key]

    if isinstance(data, dict) and "benchmarks" in data:  # google-benchmark
        aggregates = {}  # base name -> {"mean": ns, "stddev": ns}
        raw = {}  # base name -> [ns, ...] (one entry per repetition)
        for b in data["benchmarks"]:
            scale = _scale_for(b, path)
            if b.get("run_type") == "aggregate":
                agg = b.get("aggregate_name")
                if agg not in ("mean", "stddev"):
                    continue  # median/cv/user-defined: not needed here.
                base = b.get("run_name") or b["name"].rsplit("_", 1)[0]
                aggregates.setdefault(base, {})[agg] = (
                    float(b["real_time"]) * scale
                )
            else:
                base = b.get("run_name", b["name"])
                raw.setdefault(base, []).append(float(b["real_time"]) * scale)

        stats = {}
        for base, reps in raw.items():
            agg = aggregates.get(base, {})
            if "mean" in agg:  # Repetition aggregates: the authoritative pair.
                stats[base] = {
                    "mean": agg["mean"],
                    "stddev": agg.get("stddev"),
                    "n": max(len(reps), 1),
                }
            elif len(reps) > 1:  # Raw repetitions: compute our own spread.
                stats[base] = {
                    "mean": statistics.fmean(reps),
                    "stddev": statistics.stdev(reps),
                    "n": len(reps),
                }
            else:  # Single run: point estimate, no spread.
                stats[base] = {"mean": reps[0], "stddev": None, "n": 1}
        # Aggregate-only reports (--benchmark_report_aggregates_only).
        for base, agg in aggregates.items():
            if base not in stats and "mean" in agg:
                stats[base] = {
                    "mean": agg["mean"],
                    "stddev": agg.get("stddev"),
                    "n": 1,
                }
        if stats:
            return stats
        sys.exit(f"bench_compare: no benchmarks in {spec}")
    if isinstance(data, dict) and isinstance(data.get("metrics"), dict):
        return _ledger_stats(data["metrics"])  # ledger/run.py result line
    if isinstance(data, dict) and all(
        isinstance(v, (int, float)) for v in data.values()
    ):
        return {  # flat snapshot map: point estimates
            k: {"mean": float(v), "stddev": None, "n": 1}
            for k, v in data.items()
        }
    sys.exit(
        f"bench_compare: {spec} is neither a gbench report, a ledger result "
        "nor a flat map"
    )


def significant(old, new, worse_by, sigmas):
    """True when the mean got worse by more than `sigmas` standard errors of
    the difference; None when either side lacks spread information (caller
    falls back to the plain threshold)."""
    so, sn = old["stddev"], new["stddev"]
    if so is None or sn is None:
        return None
    se = math.sqrt(so * so / max(old["n"], 1) + sn * sn / max(new["n"], 1))
    if se == 0.0:
        return worse_by > 0.0
    return worse_by > sigmas * se


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline run (FILE or FILE#dotted.path)")
    parser.add_argument("new", help="candidate run (FILE or FILE#dotted.path)")
    parser.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="max tolerated real_time mean increase in percent, for "
        "metrics without their own bound (default 25)",
    )
    parser.add_argument(
        "--sigmas",
        type=float,
        default=2.0,
        metavar="Z",
        help="standard errors of difference a regression must also exceed "
        "when both runs carry stddev (default 2)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0 (CI smoke on shared boxes)",
    )
    args = parser.parse_args()

    old = load_stats(args.old)
    new = load_stats(args.new)
    common = [name for name in old if name in new]
    if not common:
        sys.exit("bench_compare: no common benchmarks between the two runs")

    def fmt(s):
        if s["stddev"] is None:
            return f"{s['mean']:12.6g}"
        return f"{s['mean']:12.6g} ±{s['stddev']:8.4g}"

    width = max(len(n) for n in common)
    regressions = []
    print(f"{'benchmark'.ljust(width)}  {'old':>12}  {'new':>12}  delta")
    for name in common:
        o, n = old[name], new[name]
        delta = (
            (n["mean"] - o["mean"]) / o["mean"] * 100.0
            if o["mean"] > 0
            else 0.0
        )
        # Lower is better unless the metric says otherwise.
        sign = -1.0 if o.get("better") == "higher" else 1.0
        bound = o.get("bound")
        limit = bound * 100.0 if bound is not None else args.threshold
        flag = ""
        if sign * delta > limit:
            sig = significant(o, n, sign * (n["mean"] - o["mean"]), args.sigmas)
            if sig is None:  # No spread info: the bound alone decides.
                flag = "  REGRESSION"
                regressions.append((name, delta, limit))
            elif sig:
                flag = "  REGRESSION (significant)"
                regressions.append((name, delta, limit))
            else:
                flag = "  over threshold but within noise"
        print(f"{name.ljust(width)}  {fmt(o)}  {fmt(n)}  {delta:+7.1f}%{flag}")

    only_old = sorted(set(old) - set(new))
    only_new = sorted(set(new) - set(old))
    if only_old:
        print(f"only in baseline: {', '.join(only_old)}")
    if only_new:
        print(f"only in candidate: {', '.join(only_new)}")

    if regressions:
        print(f"\n{len(regressions)} benchmark(s) regressed past their bound:")
        for name, delta, limit in regressions:
            print(f"  {name}: {delta:+.1f}% (bound {limit:.0f}%)")
        if not args.warn_only:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
