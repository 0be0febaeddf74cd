#!/usr/bin/env bash
# Tier-1 verification gate, mechanically catching what code review misses:
#   1. normal build + full ctest suite, run twice: once with the loader
#      forced to the Tier-1 direct-threaded engine (VINO_EXEC_TIER=1, also
#      the default) and once pinned to the Tier-0 interpreter
#      (VINO_EXEC_TIER=0),
#   2. offline verifier audit: vverify (the same VerifySandbox analysis the
#      loader runs) must accept every example graft graftc emits, and the
#      misbehavior zoo — whose forged-toolchain grafts the loader's verifier
#      refuses at load time — must contain every attack; a grep finds
#      no hand-set proof or artifact and no stray AssumeVerified caller;
#      and, on a GCC x86-64 build, objdump finds at least one indirect
#      jump in the Tier-1 dispatcher per vISA op (one per handler) and nm
#      finds the Tier-0 interpreter on a 64-byte boundary,
#   3. flaky-dispatch guard: robustness_test, net_test, trace_test,
#      serve_survival_test, watchdog_test and drift_test repeated 20x
#      until-fail (the mixed sync/async event case was an 18/20 flake
#      before the worker pool; net_test races deliveries against connection
#      lookups, trace_test a drain cursor against writers,
#      serve_survival_test serving threads against hostile aborts, lock
#      deadlines and install churn, watchdog_test arming threads against
#      the ticker, and drift_test's eject case times real undo replays that
#      a loaded box can stall; any regression shows up here),
#   4. flight recorder live: the whole suite re-run with VINO_TRACE=1 (every
#      instrumentation site exercised with the ring hot) and every kernel
#      spooling, then every spool replayed with graftstat --spool — among
#      them serve_survival_test's, whose kernel must spool losslessly,
#   5. fleet observability: three kernel processes spool rotated segment
#      rings into one VINO_SPOOL directory and `graftstat --fleet --json
#      --once` must multiplex all of them (tools/fleet_smoke.py), repeated
#      under the flake guard since it exercises real process interleaving,
#   6. adversarial graft fuzzing: graftfuzz --smoke — deterministic
#      survive-and-eject campaigns (fixed seeds, all three program classes,
#      both execution tiers) against a live kernel with the spool attached;
#      any anomaly (sandbox escape, tier divergence, missed ejection, lost
#      events, spool loss) fails the gate and leaves a reproducer bundle
#      under build/fuzz-artifacts,
#   7. ThreadSanitizer build + the concurrency-heavy tests, so dispatch
#      races (Drain vs DispatchAsync, pool lifecycle, txn locks, a ring
#      drain racing its writers, concurrent Tier-1 dispatch over one shared
#      compiled artifact, lock-table sharding, namespace install/invoke/
#      remove churn, a charge walking a billing chain that is being
#      re-billed, concurrent aborts ending drift windows, multi-tenant
#      serving under hostile load) fail CI
#      instead of shipping; the tier-differential and op-semantics tests
#      then re-run pinned to the Tier-0 interpreter (the list already ran
#      them on the default Tier 1), and the fuzz smoke re-runs under TSan,
#   8. AddressSanitizer+UBSan build + the full suite (minus alloc_test,
#      whose global operator-new counter conflicts with ASan's allocator
#      interposition), so heap misuse and undefined behaviour in the Vm /
#      packing / undo-replay paths fail CI too; the tier-differential tests
#      re-run pinned to Tier 0, and the fuzz smoke re-runs under ASan+UBSan
#      as well.
#
# Usage: tools/check.sh [--fast] [--bench]
#   --fast   skip the sanitizer stages (normal build + tests + flake guard
#            + a reduced-budget fuzz smoke).
#   --bench  also run the micro-benchmarks and a short ledger run per
#            BENCHMARK.json workload, and diff them against the committed
#            BENCH_PR29 (wrapper, sfi), BENCH_PR26 (wrapper with the
#            flight recorder on), BENCH_PR25 (lockmgr), BENCH_PR23 (txn),
#            BENCH_PR22 (ledger) and BENCH_PR19 (net) json snapshots (warn-only:
#            shared CI boxes are too noisy for a hard perf gate; read the
#            table — unless VINO_QUIET_RUNNER=1 marks the box as quiet
#            enough to make a regression a hard failure).

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
BENCH=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    --bench) BENCH=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== [1/8] build + full test suite (both execution tiers) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
# The loader's tier selection honours VINO_EXEC_TIER (unset defaults to the
# Tier-1 direct-threaded engine). The whole suite must hold both with the
# default and with the process pinned to the Tier-0 interpreter.
VINO_EXEC_TIER=1 ctest --test-dir build --output-on-failure -j "$JOBS"
VINO_EXEC_TIER=0 ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== [2/8] offline verifier audit: vverify over example grafts + zoo =="
AUDIT_DIR="$PWD/build/graft-audit"
rm -rf "$AUDIT_DIR" && mkdir -p "$AUDIT_DIR"
for src in examples/grafts/*.vasm; do
  name="$(basename "${src%.vasm}")"
  build/tools/graftc "$src" "$AUDIT_DIR/$name.graft"
done
# Offline audit must agree with the loader: every graft the toolchain emits
# passes the identical VerifySandbox analysis.
build/tools/vverify "$AUDIT_DIR"/*.graft
# The zoo's forged-toolchain grafts take the other side of the agreement:
# the in-kernel loader refuses each one ([SURVIVED], never [ FAILED ]).
build/examples/misbehavior_zoo > "$AUDIT_DIR/zoo.out"
if grep -q 'FAILED' "$AUDIT_DIR/zoo.out"; then
  echo "misbehavior zoo reported a failed containment:" >&2
  grep 'FAILED' "$AUDIT_DIR/zoo.out" >&2
  exit 1
fi
grep -q 'Forged toolchain' "$AUDIT_DIR/zoo.out" || {
  echo "zoo output missing the forged-toolchain section" >&2; exit 1; }
echo "verifier audit: ok (offline vverify and in-kernel loader agree)"
# The type system refuses a Graft or an engine run built from a raw Program;
# this refuses a proof or artifact set by hand, and the escape hatch outside
# its two callers.
CXX_SOURCES=(src tests bench tools --include='*.h' --include='*.cc')
HATCH_OK='^(src/fuzz/fuzz_harness\.cc|bench/bench_kernel\.h|src/sfi/verifier\.(h|cc)):'
if grep -rnE 'verified\s*=\s*true|(\.|->)compiled\s*=([^=]|$)' \
    "${CXX_SOURCES[@]}" ||
   grep -rn 'AssumeVerified(' "${CXX_SOURCES[@]}" | grep -vE "$HATCH_OK"; then
  echo "a hand-set proof or artifact, or AssumeVerified misused (above)" >&2
  exit 1
fi
echo "proof boundary: ok (only VerifyAndCompile and its two hatches)"
# Tier 1's dispatch: every handler keeps its own indirect jump. Under GCC,
# src/sfi/CMakeLists.txt compiles threaded_vm.cc with -fno-gcse
# -fno-crossjumping; without them the handlers share a handful of jumps.
# (The count reads x86-64 mnemonics.)
if grep -qs 'CMAKE_CXX_COMPILER_ID "GNU"' build/CMakeFiles/*/CMakeCXXCompiler.cmake &&
   [[ "$(uname -m)" == "x86_64" ]]; then
  OP_ROWS="$(grep -c '^  X(' src/sfi/isa.h)"
  DISPATCH_JUMPS="$(objdump -d --no-show-raw-insn -C build/src/sfi/libvino_sfi.a |
    awk '/^[0-9a-f]+ <.*ThreadedExec/ {f = 1; next} /^[0-9a-f]+ </ {f = 0}
         f && /jmp +\*/ {n++} END {print n + 0}')"
  if (( DISPATCH_JUMPS < OP_ROWS )); then
    echo "ThreadedExec has $DISPATCH_JUMPS indirect jumps for $OP_ROWS ops:" \
      "handlers share a dispatch (src/sfi/CMakeLists.txt)" >&2
    exit 1
  fi
  echo "tier-1 dispatch: ok ($DISPATCH_JUMPS indirect jumps for $OP_ROWS ops)"
  # Tier 0's interpreter starts on a cache line of its own (vm.cc is built
  # with -falign-functions=64), so its rows do not follow the linker's
  # placement of its neighbours: Vm::Run, and RunLoop<false> when it is out
  # of line, must sit on a 64-byte boundary in a linked binary.
  TIER0_SYMS="$(nm -C build/bench/bench_sfi |
    grep -E ' vino::Vm::Run\(|RunLoop<false>\(' | grep -v '\[clone' || true)"
  if [[ -z "$TIER0_SYMS" ]]; then
    echo "Vm::Run not found in build/bench/bench_sfi" >&2
    exit 1
  fi
  while read -r addr _ sym; do
    if (( 0x$addr % 64 != 0 )); then
      echo "Tier-0 interpreter off a 64-byte boundary: $sym at" \
        "0x$addr (src/sfi/CMakeLists.txt)" >&2
      exit 1
    fi
  done <<< "$TIER0_SYMS"
  echo "tier-0 alignment: ok (Vm::Run on a 64-byte boundary)"
fi

echo "== [3/8] flaky-dispatch guard: robustness/net/trace/serve-survival/watchdog/drift tests x20 =="
ctest --test-dir build \
  -R 'robustness_test|net_test|trace_test|serve_survival_test|watchdog_test|drift_test' \
  --repeat until-fail:20 --output-on-failure

echo "== [4/8] flight recorder live: suite with VINO_TRACE=1 + spooling + graftstat =="
# VINO_SPOOL makes every VinoKernel constructed by the suite spool its
# flight recorder to a per-kernel file (serve_survival_test asserts its own
# spool lost nothing); every spool produced must then parse cleanly with
# graftstat --spool (exit 0 tolerates truncated tails, rejects corruption).
# Absolute: ctest runs tests with the build tree as working directory.
SPOOL_DIR="$PWD/build/spool-smoke"
rm -rf "$SPOOL_DIR" && mkdir -p "$SPOOL_DIR"
VINO_TRACE=1 VINO_SPOOL="$SPOOL_DIR" \
  ctest --test-dir build --output-on-failure -j "$JOBS"
SPOOL_COUNT=0
for f in "$SPOOL_DIR"/vspool.*.bin; do
  [[ -e "$f" ]] || continue
  build/tools/graftstat --spool "$f" --json >/dev/null
  SPOOL_COUNT=$((SPOOL_COUNT + 1))
done
if [[ "$SPOOL_COUNT" -eq 0 ]]; then
  echo "spool smoke: no spool files produced under VINO_SPOOL" >&2
  exit 1
fi
echo "spool smoke: ok ($SPOOL_COUNT spools replayed cleanly)"
# graftstat's report schema is checked by graftstat_spool_golden, which the
# suite above just ran traced and spooled (and stages 1 and 8 run too).

echo "== [5/8] fleet observability: multi-kernel spool dir + --fleet attach =="
# Three graftstat self-test processes spool rotated segment rings into one
# VINO_SPOOL directory; one --fleet view must multiplex all of them. Real
# process interleaving, so it runs under the same until-fail flake guard as
# the dispatch tests.
ctest --test-dir build -R graftstat_fleet_smoke --repeat until-fail:5 \
  --output-on-failure

echo "== [6/8] adversarial graft fuzzing: graftfuzz --smoke =="
# Deterministic survive-and-eject campaigns: fixed seeds drive generated
# valid / forged / byte-soup programs through the full load -> verify ->
# install -> invoke -> abort/eject lifecycle on a live kernel with the
# spool attached. Any anomaly exits non-zero and leaves a reproducer
# bundle (program bytes, disassembly, seed, spool tail, triage) under
# build/fuzz-artifacts. --fast keeps the stage but trims the per-seed
# program budget.
FUZZ_ART="$PWD/build/fuzz-artifacts"
rm -rf "$FUZZ_ART" && mkdir -p "$FUZZ_ART"
FUZZ_BUDGET=()
if [[ "$FAST" == "1" ]]; then
  FUZZ_BUDGET=(--programs 150)
fi
build/tools/graftfuzz --smoke --artifacts "$FUZZ_ART" \
  ${FUZZ_BUDGET[@]+"${FUZZ_BUDGET[@]}"}

if [[ "$BENCH" == "1" ]]; then
  # Shared CI boxes are too noisy for a hard perf gate, so the default is
  # warn-only; a runner that declares itself quiet (VINO_QUIET_RUNNER=1)
  # turns a regression (a ≥2-sigma one for the micros, one past its
  # BENCHMARK.json bound for the ledger) into a hard failure.
  BENCH_GATE=(--warn-only)
  GATE_LABEL="warn-only"
  if [[ "${VINO_QUIET_RUNNER:-0}" == "1" ]]; then
    BENCH_GATE=()
    GATE_LABEL="hard gate, quiet runner"
  fi
  # Every program row on the tier the loader picks, the poll sweep and the
  # spinner on both tiers, the namespace visit, the tenant sweep and the
  # loader; and the engines' own micros. BENCH_PR29.json holds the change
  # and, as bench_wrapper_parent and bench_sfi_parent, the parent, pinned
  # and alternated on one box, in this build type (RelWithDebInfo) and, as
  # *_release, in Release.
  echo "== [bench] wrapper micro vs BENCH_PR29.json ($GATE_LABEL) =="
  build/bench/bench_wrapper --json="build/bench_wrapper.smoke.json" \
    --benchmark_min_time=0.05 >/dev/null
  tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
    "BENCH_PR29.json#bench_wrapper" "build/bench_wrapper.smoke.json"
  echo "== [bench] sfi micro vs BENCH_PR29.json ($GATE_LABEL) =="
  build/bench/bench_sfi --json="build/bench_sfi.smoke.json" \
    --benchmark_min_time=0.05 >/dev/null
  tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
    "BENCH_PR29.json#bench_sfi" "build/bench_sfi.smoke.json"
  # The one-closure undo log (BENCH_PR23.json holds the change and, as
  # bench_txn_parent, the parent on the same box).
  echo "== [bench] txn micro vs BENCH_PR23.json ($GATE_LABEL) =="
  build/bench/bench_txn --json="build/bench_txn.smoke.json" \
    --benchmark_min_time=0.05 >/dev/null
  tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
    "BENCH_PR23.json#bench_txn" "build/bench_txn.smoke.json"
  # The same wrapper with the flight recorder on: one record and three
  # clock reads per traced invocation (BENCH_PR26.json holds the change and,
  # as bench_wrapper_traced_parent, the parent on the same box).
  echo "== [bench] traced wrapper micro vs BENCH_PR26.json ($GATE_LABEL) =="
  VINO_TRACE=1 build/bench/bench_wrapper \
    --json="build/bench_wrapper_traced.smoke.json" \
    --benchmark_min_time=0.05 >/dev/null
  tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
    "BENCH_PR26.json#bench_wrapper_traced" \
    "build/bench_wrapper_traced.smoke.json"
  # The lock table, one cache line per shard, every row priced on glibc's
  # multi-threaded mutex path (BENCH_PR25.json holds the change and, as
  # bench_lockmgr_parent, the parent on the same box).
  echo "== [bench] lock manager micro vs BENCH_PR25.json ($GATE_LABEL) =="
  build/bench/bench_lockmgr --benchmark_out=build/bench_lockmgr.smoke.json \
    --benchmark_out_format=json --benchmark_min_time=0.05 >/dev/null
  tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
    "BENCH_PR25.json#bench_lockmgr" "build/bench_lockmgr.smoke.json"
  echo "== [bench] net stack micro vs BENCH_PR19.json ($GATE_LABEL) =="
  build/bench/bench_net --json="build/bench_net.smoke.json" \
    --benchmark_min_time=0.05 >/dev/null
  tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} --sigmas 2 \
    "BENCH_PR19.json#bench_net" "build/bench_net.smoke.json"
  echo "== [bench] serving ledger vs BENCH_PR22.json ($GATE_LABEL) =="
  # A short run of each gated workload; its last line is the result, and
  # each end-to-end metric is held to its own direction and bound from
  # BENCHMARK.json.
  for w in serve_benign serve_hostile; do
    python3 ledger/run.py --workload "$w" --seed 1 --seconds 10 \
      > "build/ledger.$w.out"
    tail -n 1 "build/ledger.$w.out" > "build/ledger.$w.json"
    tools/bench_compare.py ${BENCH_GATE[@]+"${BENCH_GATE[@]}"} \
      "BENCH_PR22.json#ledger_smoke.$w" "build/ledger.$w.json"
  done
fi

if [[ "$FAST" == "1" ]]; then
  echo "== [7/8] [8/8] skipped (--fast) =="
  exit 0
fi

echo "== [7/8] ThreadSanitizer: concurrency-heavy tests =="
cmake -B build-tsan -S . -DVINO_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
# TSAN_OPTIONS: fail the test process on the first report; tools/tsan.supp
# silences libstdc++ _Sp_atomic false positives (see that file).
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/tools/tsan.supp" \
  ctest --test-dir build-tsan \
  -R 'worker_pool_test|robustness_test|stress_test|net_test|graft_point_test|txn_lock_test|watchdog_test|kernel_test|drift_test|trace_test|trace_spool_test|abort_delivery_test|threaded_vm_test|install_stress_test|lockmgr_test|grafted_lockmgr_test|serve_survival_test|property_test|isa_roundtrip_test' \
  --output-on-failure -j "$JOBS"
# The tier-differential fuzz, the threaded dispatcher's shared-artifact
# races and the op-semantics boundary cases ran above on the default
# Tier 1; once more with the loader pinned to the Tier-0 interpreter.
VINO_EXEC_TIER=0 \
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/tools/tsan.supp" \
  ctest --test-dir build-tsan \
  -R 'property_test|threaded_vm_test|abort_delivery_test|isa_roundtrip_test' \
  --output-on-failure -j "$JOBS"
# The survive-and-eject fuzz smoke under TSan: spool drainer, watchdogless
# abort delivery, and event-pool dispatch racing inside one live kernel.
TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/tools/tsan.supp" \
  build-tsan/tools/graftfuzz --smoke --artifacts "$FUZZ_ART"

echo "== [8/8] AddressSanitizer+UBSan: full suite (minus alloc_test) =="
cmake -B build-asan -S . -DVINO_SANITIZE=address >/dev/null
cmake --build build-asan -j "$JOBS"
# alloc_test is excluded: it replaces global operator new to count heap
# traffic, which defeats (and is defeated by) ASan's allocator interposition.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir build-asan -E 'alloc_test' --output-on-failure -j "$JOBS"
# Differential tier coverage under ASan too: the suite above ran on the
# default Tier 1, so the op-semantics boundary cases (shift by 64,
# INT64_MIN >> 63, signed compares) run once more under UBSan with the
# loader pinned to the Tier-0 interpreter.
VINO_EXEC_TIER=0 \
ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir build-asan \
  -R 'property_test|threaded_vm_test|abort_delivery_test|isa_roundtrip_test' \
  --output-on-failure -j "$JOBS"
# The fuzz smoke under ASan+UBSan: generated hostility through the whole
# load/verify/invoke/eject path with heap misuse and UB checked live.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  build-asan/tools/graftfuzz --smoke --artifacts "$FUZZ_ART"

echo "All checks passed."
