#!/usr/bin/env python3
"""Runs one workload of the serving ledger benchmark and prints its result.

    python3 ledger/run.py --workload serve_benign --seed 1 --seconds 20 --trace 0
    python3 ledger/run.py --selftest

Run from the root of a checkout. The script builds ledger_bench from source
into .bench_build/ledger (incremental after the first run), runs it, passes
its report through, and prints one JSON object as the last line of stdout:

  --trace 0  every end-to-end metric (medians over the run's trials);
  --trace 1  every per-layer metric, from a spanned run in its own process,
             plus the tracing overhead against an unspanned run of equal
             length (each gets half of --seconds).

A failed build, wrong answer or broken survival invariant exits non-zero
without a result. --selftest builds and runs the benchmark's arithmetic
tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
LEDGER = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
WORKLOADS = ("serve_benign", "serve_hostile", "tenant_churn")
RUN_TIMEOUT_S = 170


def build(target):
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", LEDGER, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("ledger: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def bench(binary, workload, seed, seconds, spans):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--scratch", SCRATCH]
    if spans:
        cmd.append("--spans")
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("ledger: run timed out: " + " ".join(cmd))
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def overhead(traced, untraced):
    """Traced minus untraced, as a percentage of untraced."""
    return 100.0 * (traced - untraced) / untraced


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("ledger_test")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("ledger_bench")
    if args.trace == 0:
        run = bench(binary, args.workload, args.seed, args.seconds, False)
        metrics = run["end_to_end"]
        attempted, failed = run["attempted"], run["failed"]
    else:
        half = max(1.0, args.seconds / 2)
        plain = bench(binary, args.workload, args.seed, half, False)
        spanned = bench(binary, args.workload, args.seed, half, True)
        metrics = dict(spanned["per_layer"])
        e2e_plain, e2e_spanned = plain["end_to_end"], spanned["end_to_end"]
        for name, key in (("span.overhead.throughput_pct", "throughput_rps"),
                          ("span.overhead.req_p50_pct", "req_p50_us")):
            metrics[name] = {"value": overhead(e2e_spanned[key]["value"],
                                               e2e_plain[key]["value"]),
                             "unit": "%"}
            print("tracing overhead: %s %.6g -> %.6g (%+.2f%%)" % (
                key, e2e_plain[key]["value"], e2e_spanned[key]["value"],
                metrics[name]["value"]))
        attempted = plain["attempted"] + spanned["attempted"]
        failed = plain["failed"] + spanned["failed"]

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
