#!/usr/bin/env python3
"""Multi-tenant serving load driver: sweeps serve_bench over a grid of
graft densities and hostile-mix rates, checks that every scenario's
survival invariants held (serve_bench exits non-zero otherwise), and
merges the results into a BENCH_PR9.json-style snapshot:

  {
    "_meta":   { date, note },
    "smoke":   <full google-benchmark JSON of the --smoke scenario, with
                per-epoch repetitions so bench_compare.py --sigmas can
                gate statistically>,
    "grid":    { "d<density>_h<hostile>": {p50, p99, p999, mean,
                 req_cost, throughput, ...}, ... }   (medians over epochs)
  }

The committed snapshot also keeps a "coarse_vs_sharded" pair, measured
with a serve_bench mode that re-created the global mutex the sharded lock
table replaced; that mode is gone, and the pair stays as the frozen record.

Usage: serve_load.py <serve_bench-binary> <workdir> [--out FILE] [--quick]
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

DENSITIES = [0.25, 0.5, 1.0]
HOSTILE_RATES = [0.0, 0.05, 0.1]
METRICS = ["p50", "p99", "p999", "mean", "req_cost"]


def fail(message):
    print(f"serve_load: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(bench, json_path, extra):
    argv = [bench, "--json", json_path] + extra
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(
            f"{' '.join(argv)} exited {proc.returncode} "
            f"(survival invariants violated?):\n{proc.stdout}\n{proc.stderr}"
        )
    try:
        with open(json_path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {json_path}: {e}")


def summarize(report):
    """Median over the per-epoch entries of each serve/<metric>."""
    by_name = {}
    for b in report["benchmarks"]:
        by_name.setdefault(b["run_name"], []).append(float(b["real_time"]))
    out = {}
    for metric in METRICS:
        samples = by_name.get(f"serve/{metric}")
        if not samples:
            fail(f"report missing serve/{metric}")
        out[metric] = round(statistics.median(samples), 1)
    out["throughput"] = round(1e9 / out["req_cost"], 0)
    serve = report.get("serve", {})
    for key in ("installers", "hostile_installers", "epochs", "threads"):
        if key in serve:
            out[key] = serve[key]
    if serve.get("invariants_failed", 0) != 0:
        fail(f"scenario reported failed invariants: {serve}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", help="path to the serve_bench binary")
    parser.add_argument("workdir", help="scratch directory for per-run JSON")
    parser.add_argument("--out", default=None, help="merged snapshot path")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke-scale scenarios (fast local iteration)",
    )
    args = parser.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    scale = ["--installers", "48", "--requests", "12"] if args.quick else []

    # --- The committed smoke baseline (what check.sh gates against) -------
    print("serve_load: smoke scenario (4 epochs for spread)...")
    smoke = run(
        args.bench,
        os.path.join(args.workdir, "smoke.json"),
        ["--smoke", "--epochs", "4"],
    )
    summarize(smoke)  # Invariant + shape check; the full report is kept.

    # --- Density x hostile grid -------------------------------------------
    grid = {}
    for density in DENSITIES:
        for hostile in HOSTILE_RATES:
            tag = f"d{density:.2f}_h{hostile:.2f}"
            print(f"serve_load: grid {tag}...")
            report = run(
                args.bench,
                os.path.join(args.workdir, f"{tag}.json"),
                scale + ["--density", str(density), "--hostile", str(hostile)],
            )
            grid[tag] = summarize(report)

    merged = {
        "_meta": {
            "date": datetime.date.today().isoformat(),
            "note": (
                "serve_bench multi-tenant serving scenarios. 'smoke' is the "
                "full gbench report of --smoke --epochs 4 (per-epoch "
                "repetitions; gate with tools/bench_compare.py --sigmas 2 "
                "BENCH_PR9.json#smoke new.json). 'grid' holds per-scenario "
                "medians over epochs; latencies in ns. Every scenario "
                "passed all survival invariants (serve_bench exits non-zero "
                "otherwise)."
            ),
        },
        "smoke": smoke,
        "grid": grid,
    }

    out_path = args.out or os.path.join(args.workdir, "BENCH_PR9.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")

    print(f"serve_load: OK -> {out_path}")


if __name__ == "__main__":
    main()
