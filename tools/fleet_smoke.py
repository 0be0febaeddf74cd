#!/usr/bin/env python3
"""Fleet attach smoke test: N kernels spool into one dir, one view reads all.

Spawns several graftstat self-test processes configured (purely through the
environment, the way a real fleet would be) to spool rotated segment rings
into a shared VINO_SPOOL directory, then runs `graftstat --fleet <dir>
--json --once` and checks that the multiplexed view is complete:

  * every kernel appears, keyed by its vspool.<pid>.<k> stream,
  * every stream reads back closed and continuous (no gaps, no corruption),
  * the small segment cap really forced rotation on each stream,
  * per-kernel tier run counts sum to the invocation count,
  * the fleet union aggregates every kernel's records and carries a valid
    merged abort-cost fit spanning all of them.

Usage: fleet_smoke.py <graftstat-binary> <workdir>
"""

import json
import os
import shutil
import subprocess
import sys

KERNELS = 3
INVOCATIONS = 512


def fail(message):
    print(f"fleet_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <graftstat-binary> <workdir>")
    graftstat, workdir = sys.argv[1], sys.argv[2]
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    env = dict(os.environ)
    env["VINO_SPOOL"] = workdir
    env["VINO_SPOOL_SEGMENT_BYTES"] = "32768"  # Force rotation...
    env["VINO_SPOOL_SEGMENTS"] = "1000"        # ...reclaim nothing.
    procs = [
        subprocess.Popen(
            [graftstat, "--json", "--invocations", str(INVOCATIONS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
        for _ in range(KERNELS)
    ]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        if proc.returncode != 0:
            fail(f"kernel process exited {proc.returncode}:\n"
                 f"{stderr.decode(errors='replace')}")

    fleet_cmd = [graftstat, "--fleet", workdir, "--json", "--once"]
    proc = subprocess.run(fleet_cmd, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        fail(f"{' '.join(fleet_cmd)} exited {proc.returncode}:\n{proc.stderr}")
    try:
        view = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"fleet view printed invalid JSON ({e}):\n{proc.stdout}")

    kernels = view["kernels"]
    if len(kernels) != KERNELS:
        fail(f"expected {KERNELS} kernels, got {len(kernels)}: "
             f"{sorted(k['kernel'] for k in kernels)}")

    total_records = 0
    for k in kernels:
        key, spool = k["kernel"], k["spool"]
        if spool["status"] != "OK" or not spool["closed"]:
            fail(f"kernel {key}: stream not cleanly closed: {spool}")
        if spool["corrupt_batches"] != 0 or spool["seq_gaps"] != 0:
            fail(f"kernel {key}: stream corrupt or gapped: {spool}")
        if spool["segments"] < 2:
            fail(f"kernel {key}: segment cap never rotated: {spool}")
        total_records += spool["records"]
        runs = k["runs"]
        run_total = sum(runs.values())
        invocations = sum(g["invocations"] for g in k["grafts"])
        if run_total != invocations:
            fail(f"kernel {key}: tier runs {runs} sum to {run_total}, "
                 f"not {invocations}")
        if k["txn"]["aborts"] == 0:
            fail(f"kernel {key}: abort-heavy workload recorded no aborts")

    fleet = view["fleet"]
    if fleet["kernels"] != KERNELS:
        fail(f"fleet union counted {fleet['kernels']} kernels")
    if fleet["trace"]["records"] != total_records:
        fail(f"fleet union records {fleet['trace']['records']} != per-kernel "
             f"sum {total_records}")
    union_fit = fleet["abort_cost_global"]
    if not union_fit["valid"]:
        fail(f"fleet union abort-cost fit invalid: {union_fit}")
    per_kernel_samples = sum(k["abort_cost_global"]["samples"]
                             for k in kernels
                             if k["abort_cost_global"]["valid"])
    if union_fit["samples"] != per_kernel_samples:
        fail(f"union fit samples {union_fit['samples']} != per-kernel sum "
             f"{per_kernel_samples}")
    # Symmetric deployment: every kernel runs the same five profiles, so
    # each union graft row must span the whole fleet.
    for g in fleet["grafts"]:
        if g["kernels"] != KERNELS:
            fail(f"union graft {g} not present on every kernel")

    print(f"fleet_smoke: OK ({KERNELS} kernels, {total_records} records, "
          f"union fit over {union_fit['samples']} aborts)")


if __name__ == "__main__":
    main()
