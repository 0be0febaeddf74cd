#!/usr/bin/env python3
"""Spool golden test: live, replay and follow print one report.

graftstat's self-test reduces its own trace stream and, before it prints,
checks the result against the kernel's own counters (exit 1 on a mismatch).
This test spools that run with --spool-out (drained every 128 invocations,
so the stream is lossless) and checks that:

  * the report's schema holds in every mode: the workload aborted (in the
    transaction counts and in some graft), the global abort-cost fit is
    valid, the trace has records, a tiered graft exists, each graft's runs
    add up to its invocations, and the per-tier latency counts add up to
    the invocation count;
  * --spool and --follow reproduce the live report member for member
    (txn, trace, latency, runs, abort_cost_global, grafts), and the spool
    reads back clean: closed, no loss, no gap, no corruption;
  * the same holds for a rotated segment ring (VINO_SPOOL_SEGMENT_BYTES
    forces several rotations; VINO_SPOOL_SEGMENTS keeps every segment);
  * a copy with one flipped payload byte reads SPOOL_CORRUPT and exits 1
    under --spool, --follow and --fleet --once;
  * a spool under a directory named `a"b\\c` still gives valid JSON from
    --spool, --follow and --fleet.

Usage: spool_golden.py <graftstat-binary> <workdir>
"""

import json
import os
import shutil
import struct
import subprocess
import sys

INVOCATIONS = 1024
REPORT_KEYS = ("txn", "trace", "latency", "runs", "abort_cost_global",
               "grafts")
FILE_HEADER_BYTES = 16
BATCH_HEADER = struct.Struct("<IIQQII")  # magic flags seq lost count crc
RECORD_BYTES = 48


def fail(message):
    print(f"spool_golden: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_json(argv, expect_exit=0, env=None):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=env)
    if proc.returncode != expect_exit:
        fail(f"{argv} exited {proc.returncode}, not {expect_exit}:\n"
             f"{proc.stderr}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"{argv} printed invalid JSON ({e}):\n{proc.stdout}")


def self_test(graftstat, spool, **rotation):
    """Runs the spooled self-test; `rotation` sets the segment env knobs."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("VINO_SPOOL_SEGMENT_BYTES", "VINO_SPOOL_SEGMENTS")}
    env.update(rotation)
    live = run_json([graftstat, "--json", "--invocations", str(INVOCATIONS),
                     "--spool-out", spool], env=env)
    if live["spool_out"]["lost_total"] != 0:
        fail(f"live run lost records: {live['spool_out']}")
    return live


def check_schema(tag, report):
    """The invariants every mode's report must satisfy."""
    if report["txn"]["aborts"] == 0:
        fail(f"{tag}: abort-heavy run produced no aborts")
    if not report["abort_cost_global"]["valid"]:
        fail(f"{tag}: abort-cost fit did not converge")
    if report["trace"]["records"] == 0:
        fail(f"{tag}: flight recorder captured nothing")
    grafts = report["grafts"]
    if not any(g["aborts"] > 0 for g in grafts):
        fail(f"{tag}: no per-graft aborts")
    if not any(g["runs"]["tier0"] + g["runs"]["tier1"] > 0 for g in grafts):
        fail(f"{tag}: no per-tier invocation counts (program graft missing?)")
    for g in grafts:
        if sum(g["runs"].values()) != g["invocations"]:
            fail(f"{tag}: tier attribution {g['runs']} does not sum to "
                 f"{g['invocations']} invocations for graft {g['trace_id']}")
    invoke = report["latency"]["invoke"]["count"]
    tiers = report["latency"]["tiers"]
    if sum(t["count"] for t in tiers.values()) != invoke:
        fail(f"{tag}: per-tier latency counts {tiers} do not partition the "
             f"{invoke} invocations")


def check_clean(tag, spool):
    if spool["status"] != "OK" or not spool["closed"] or spool["truncated"]:
        fail(f"{tag}: spool not clean: {spool}")
    if spool["corrupt_batches"] != 0 or spool["lost_total"] != 0:
        fail(f"{tag}: spool lost or corrupt: {spool}")
    if spool["first_batch_seq"] != 0 or spool["seq_gaps"] != 0:
        fail(f"{tag}: spool stream not continuous: {spool}")


def check_same_report(tag, live, view):
    """`view` must equal `live` in every report member. The live report
    alone knows graft names; everything else is the same field."""
    live_grafts = [{k: v for k, v in g.items() if k != "name"}
                   for g in live["grafts"]]
    for key in REPORT_KEYS:
        want = live_grafts if key == "grafts" else live[key]
        if view[key] != want:
            fail(f"{tag}: '{key}' diverged from the live report:\n"
                 f"live   {json.dumps(want)}\nreplay {json.dumps(view[key])}")


def check_replay(tag, graftstat, live, spool):
    check_schema(f"{tag}: live", live)
    replay = run_json([graftstat, "--spool", spool, "--json"])
    follow = run_json([graftstat, "--follow", spool, "--json",
                       "--interval-ms", "10"])
    for mode, view in (("--spool", replay), ("--follow", follow)):
        check_clean(f"{tag} {mode}", view["spool"])
        check_schema(f"{tag} {mode}", view)
        check_same_report(f"{tag} {mode}", live, view)
    return replay["spool"]


def flip_payload_byte(src, dst, batch_index):
    """Copies spool `src` to `dst` with one payload byte of the given
    batch flipped."""
    data = bytearray(open(src, "rb").read())
    offset = FILE_HEADER_BYTES
    for _ in range(batch_index):
        count = BATCH_HEADER.unpack_from(data, offset)[4]
        offset += BATCH_HEADER.size + count * RECORD_BYTES
    if BATCH_HEADER.unpack_from(data, offset)[4] == 0:
        fail(f"batch {batch_index} of {src} has no payload to corrupt")
    data[offset + BATCH_HEADER.size + 5] ^= 0xFF
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    open(dst, "wb").write(bytes(data))


def check_corrupt_everywhere(graftstat, spool, workdir):
    """One flipped payload byte is SPOOL_CORRUPT, exit 1, in every mode."""
    fleet_dir = os.path.join(workdir, "corrupt-fleet")
    shutil.rmtree(fleet_dir, ignore_errors=True)
    corrupt = os.path.join(fleet_dir, "vspool.1.0.bin")
    flip_payload_byte(spool, corrupt, 2)
    views = {
        "--spool": run_json([graftstat, "--spool", corrupt, "--json"], 1),
        "--follow": run_json([graftstat, "--follow", corrupt, "--json",
                              "--interval-ms", "10"], 1),
    }
    fleet = run_json([graftstat, "--fleet", fleet_dir, "--json", "--once"], 1)
    views["--fleet --once"] = fleet["kernels"][0]
    for mode, view in views.items():
        spool_stats = view["spool"]
        if (spool_stats["status"] != "SPOOL_CORRUPT" or
                spool_stats["corrupt_batches"] != 1):
            fail(f"{mode} on a corrupted spool: {spool_stats}")


def check_json_escaping(graftstat, spool, workdir):
    """Paths holding `"` and `\\` still make valid JSON in every mode."""
    odd_dir = os.path.join(workdir, 'a"b\\c')
    shutil.rmtree(odd_dir, ignore_errors=True)
    os.makedirs(odd_dir)
    odd = os.path.join(odd_dir, "vspool.1.0.bin")
    shutil.copyfile(spool, odd)
    for argv in ([graftstat, "--spool", odd, "--json"],
                 [graftstat, "--follow", odd, "--json", "--interval-ms", "10"]):
        view = run_json(argv)
        if view["spool"]["path"] != odd:
            fail(f"{argv}: path came back as {view['spool']['path']!r}")
    fleet = run_json([graftstat, "--fleet", odd_dir, "--json"])
    if fleet["dir"] != odd_dir or len(fleet["kernels"]) != 1:
        fail(f"--fleet under {odd_dir!r}: dir {fleet['dir']!r}, "
             f"{len(fleet['kernels'])} kernels")


def main():
    if len(sys.argv) != 3:
        fail(f"usage: {sys.argv[0]} <graftstat-binary> <workdir>")
    graftstat, workdir = sys.argv[1], sys.argv[2]
    os.makedirs(workdir, exist_ok=True)

    # --- Plain single-file spool -----------------------------------------
    spool = os.path.join(workdir, "golden.vspool")
    live = self_test(graftstat, spool)
    check_corrupt_everywhere(graftstat, spool, workdir)
    check_json_escaping(graftstat, spool, workdir)
    rs = check_replay("plain", graftstat, live, spool)

    # --- Rotated segment-ring spool --------------------------------------
    # Small segments force several rotations; the generous cap means nothing
    # is reclaimed, so the chain must replay to the *identical* report.
    rbase = os.path.join(workdir, "golden.rspool")
    rlive = self_test(graftstat, rbase, VINO_SPOOL_SEGMENT_BYTES="65536",
                      VINO_SPOOL_SEGMENTS="64")
    rso = rlive["spool_out"]
    if rso["segments"] < 2:
        fail(f"rotated live run never rotated: {rso}")
    if rso["segments_reclaimed"] != 0:
        fail(f"rotated live run reclaimed segments; golden must be "
             f"lossless: {rso}")
    rrs = check_replay("rotated", graftstat, rlive, rbase)
    if rrs["segments"] < 2:
        fail(f"chain replay collapsed to one segment: {rrs}")

    print(f"spool_golden: OK ({INVOCATIONS} invocations, "
          f"{rs['records']} records plain + {rrs['records']} rotated over "
          f"{rrs['segments']} segments; live == --spool == --follow; "
          f"corruption and odd paths handled in every mode)")


if __name__ == "__main__":
    main()
