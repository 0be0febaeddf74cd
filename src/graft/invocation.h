// The one graft invocation wrapper (paper §3.1, Figure 3).
//
// Function graft points and event graft points used to each carry their own
// copy of the safe-path sequence — begin transaction, swap in the graft's
// resource account, arm the watchdog, run the graft (native or Vm), check
// the asynchronous abort flag, validate, commit or abort. Two copies of a
// wrapper is two places for a fix (or an instrumentation hook) to miss one;
// this header is the single shared implementation both point types call.
//
// Division of labour: RunGraftInvocation owns everything *inside* the
// transaction window, including per-graft accounting (CountInvocation /
// CountAbort). Point-level policy — fall back to the default function,
// strike counting, forcible removal vs. handler removal, per-point stats —
// stays with the caller, which knows what kind of point it is.
//
// Hot-path discipline: nothing is constructed per invocation. Each graft
// point pins one GraftExecContext — both execution-engine tiers and a
// prebuilt RunOptions whose abort predicate is a capture-free function
// pointer — and every invocation borrows it. The engines are stateless
// (Run is const; all execution state lives on Run's stack), so concurrent
// invocations of the same point share the pinned context safely. Which
// tier a program runs on was decided once at load time (the Tier-1
// artifact either travels with the Program or doesn't); the wrapper just
// reads that decision. The thread's KernelContext is resolved
// once and threaded through the transaction scope, the account swap, and
// the abort polls. Steady state performs zero heap allocations (recycled
// transaction, lean undo log); tests/alloc_test.cc asserts it with tracing
// both off and on.

#ifndef VINOLITE_SRC_GRAFT_INVOCATION_H_
#define VINOLITE_SRC_GRAFT_INVOCATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "src/base/clock.h"
#include "src/base/context.h"
#include "src/base/histogram.h"
#include "src/base/status.h"
#include "src/base/trace.h"
#include "src/graft/graft.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/host.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/vm.h"
#include "src/txn/txn_manager.h"
#include "src/txn/watchdog.h"

namespace vino {

// Per-graft-point execution context, built once when the point is
// constructed (or reconfigured) and reused by every invocation. Immutable
// while invocations are in flight; a point that wants different budgets
// rebuilds its context outside the hot path.
struct GraftExecContext {
  GraftExecContext(const HostCallTable* host, uint64_t fuel = 10'000'000,
                   uint32_t poll_interval = 64)
      : vm(host), threaded_vm(host) {
    options.fuel = fuel;
    options.poll_interval = poll_interval;
    // Capture-free: the engine polls the calling thread's own innermost
    // transaction, which needs no per-invocation state.
    options.abort_requested = [](void*) { return TxnManager::AbortPending(); };
  }

  // Prebuilt execution options for program grafts (POD; shared by all
  // concurrent invocations of this point).
  RunOptions options;

  // The pinned execution engines, one per tier. Stateless — safe to enter
  // concurrently. Tier selection already happened in the loader; EngineFor
  // just follows the artifact.
  Vm vm;
  ThreadedVm threaded_vm;

  [[nodiscard]] const ExecutionEngine& EngineFor(const Program& program) const {
    if (program.compiled != nullptr) {
      return threaded_vm;
    }
    return vm;
  }

  // Optional wall-clock budget, enforced by a Watchdog (§4.5). Both fuel
  // and wall budget may be set; whichever trips first aborts.
  Watchdog* watchdog = nullptr;
  Micros wall_budget = 0;  // 0 = no wall-clock bound.

  // Optional borrowed result validator, run *inside* the transaction window
  // (the paper's safe path checks results before commit). Null = accept
  // any result. Borrowed to keep the hot path free of std::function copies.
  const std::function<bool(uint64_t, std::span<const uint64_t>)>* validator =
      nullptr;

  // Optional borrowed histogram receiving the whole invocation's duration
  // (all paths) when tracing is enabled. Graft points lend none; graftstat's
  // self-test lends its own as the reference its reduced report must equal.
  LatencyHistogram* latency = nullptr;

  // Optional borrowed per-tier histograms, indexed by tier_plus1 (0 =
  // native / no tier, 1 = Tier 0, 2 = Tier 1). Unlike deriving tiers from
  // a ring snapshot, these are exact under wrap-around, which is what lets
  // graftstat assert sum(per-tier counts) == invocations live.
  LatencyHistogram* tier_latency[kExecTierCount + 1] = {};
};

struct InvocationOutcome {
  // kOk = the graft ran to completion and its transaction committed.
  // Anything else is the failure/abort reason; the transaction was aborted
  // (undo replayed, locks released) before returning.
  Status status = Status::kOk;

  // The graft's return value; meaningful only when status == kOk.
  uint64_t value = 0;

  // The validator's verdict (true when no validator was supplied);
  // meaningful only when status == kOk. An invalid result still commits —
  // §4.2: the *result* is ignored, not the graft's transactional effects —
  // and the caller decides about strikes and fallback.
  bool result_valid = true;
};

// Runs `graft` through the full safe-path wrapper: begin txn → account swap
// → watchdog → run (native or Vm) → validate → commit/abort. Never throws;
// never leaves a transaction or a swapped account behind.
//
// Defined inline: this is the one call a graft-point makes per invocation,
// and keeping it inlinable lets the callers' Invoke() keep the recycled
// begin/commit on the same few cache lines (measurably faster than the
// out-of-line version on the null-graft micro).
inline InvocationOutcome RunGraftInvocation(TxnManager& txn_manager,
                                            const std::shared_ptr<Graft>& graft,
                                            std::span<const uint64_t> args,
                                            const GraftExecContext& exec) {
  graft->CountInvocation();

  // Execution tier for trace attribution, biased by one so 0 keeps meaning
  // "no tier" (native grafts, legacy spools). The load-time decision is the
  // artifact itself, so this is a pointer test, not policy.
  const uint16_t tier_plus1 =
      graft->is_native()
          ? 0
          : static_cast<uint16_t>(
                (graft->program().compiled != nullptr
                     ? static_cast<uint16_t>(ExecTier::kTier1)
                     : static_cast<uint16_t>(ExecTier::kTier0)) +
                1);

  // Flight recorder (src/base/trace.h): one relaxed load when disabled;
  // begin/end records bracketing the safe path when enabled. `traced` is
  // sampled once so begin and end records always pair up.
  const bool traced = trace::Enabled();
  uint64_t invoke_start_ns = 0;
  if (traced) {
    invoke_start_ns = trace::NowNs();
    trace::Post(trace::Event::kInvokeBegin,
                trace::PackInvokeTag(graft->is_native()
                                         ? trace::PathTag::kUnsafe
                                         : trace::PathTag::kSafe,
                                     tier_plus1),
                0, graft->trace_id(), 0);
  }

  // The wrapper (paper §3.1): begin a transaction, swap in the graft's
  // resource account, run, commit. One KernelContext lookup serves the
  // whole invocation; the account swap is a single pointer exchange each
  // way.
  KernelContext& kctx = KernelContext::Current();
  TxnScope scope(txn_manager, kctx);
  ScopedAccount account_swap(kctx, &graft->account());

  // Optional wall-clock budget: the watchdog posts an abort to this thread
  // if the invocation outlives it.
  std::optional<Watchdog::Scope> wall_budget;
  if (exec.watchdog != nullptr && exec.wall_budget > 0) {
    wall_budget.emplace(*exec.watchdog, exec.wall_budget);
  }

  InvocationOutcome outcome;
  Status failure = Status::kOk;

  if (graft->is_native()) {
    // Unsafe path: host C++ runs unprotected. It may still signal abort by
    // returning a status.
    Result<uint64_t> r = graft->native_fn()(args, &graft->image());
    if (r.ok()) {
      outcome.value = r.value();
    } else {
      failure = r.status();
    }
    // Native grafts cannot be preempted mid-run; honour any abort request
    // that arrived while they executed.
    if (IsOk(failure) && TxnManager::AbortPending(kctx)) {
      failure = scope.txn()->abort_reason();
    }
  } else {
    // The engine the loader picked: the Tier-1 artifact travels with the
    // program, so this is one branch, and the chosen engine is a pinned
    // member of the context — nothing is built here.
    const ExecutionEngine& engine = exec.EngineFor(graft->program());
    const RunOutcome run = engine.Run(
        graft->program(), &graft->image(), args, exec.options,
        CallerIdentity{graft->owner().uid, graft->owner().privileged});
    graft->CountTierRun(run.tier);
    if (IsOk(run.status)) {
      outcome.value = run.ret;
    } else {
      failure = run.status;
    }
  }

  if (!IsOk(failure)) {
    // Abort: replay undo, release locks. The caller applies its removal
    // policy (forcible removal / handler removal) and falls back.
    // Abort-cost attribution (§4.5): L and G are read *before* Abort
    // consumes them, and the abort itself is timed, so this graft's
    // a + b·L + c·G model accumulates one sample per abort — traced or not,
    // because that model is the drift detector's only input. Aborts are the
    // rare path; its two clock reads cost nothing that matters.
    const uint64_t held_locks = scope.txn()->lock_count();
    const uint64_t undo_len = scope.txn()->undo().size();
    const uint64_t abort_start_ns = trace::NowNs();
    scope.Abort(failure);
    const uint64_t now_ns = trace::NowNs();
    graft->CountAbort();
    graft->RecordAbortCost(held_locks, undo_len, now_ns - abort_start_ns);
    outcome.status = failure;
    if (traced) {
      // Mirror the sample into the trace stream so a spool replay
      // (graftstat --spool) re-fits the same per-graft a + b·L + c·G
      // model without the live process. G rides in the 16-bit tag,
      // saturating — an undo log past 65535 records is not a graft this
      // model describes anyway.
      trace::Post(trace::Event::kAbortCost,
                  static_cast<uint16_t>(undo_len > 0xFFFF ? 0xFFFF : undo_len),
                  static_cast<uint32_t>(held_locks), graft->trace_id(),
                  now_ns - abort_start_ns);
      if (exec.latency != nullptr) {
        exec.latency->Record(now_ns - invoke_start_ns);
      }
      if (exec.tier_latency[tier_plus1] != nullptr) {
        exec.tier_latency[tier_plus1]->Record(now_ns - invoke_start_ns);
      }
      trace::Post(trace::Event::kInvokeEnd,
                  trace::PackInvokeTag(trace::PathTag::kAbort, tier_plus1),
                  static_cast<uint32_t>(held_locks), graft->trace_id(),
                  now_ns - invoke_start_ns);
    }
    return outcome;
  }

  // Results checking happens inside the transaction window, as in the
  // paper's safe path.
  outcome.result_valid =
      exec.validator == nullptr || !*exec.validator ||
      (*exec.validator)(outcome.value, args);

  // A commit can still turn into an abort (an asynchronous lock time-out
  // beat us to it). L and G are captured up front while the transaction is
  // intact so that path keeps its per-graft abort-cost sample — Commit
  // consumes the transaction either way. Untraced, a clean commit reads no
  // clock: only a commit that starts with an abort already pending is
  // sampled for the drift detector.
  const bool sampled = traced || TxnManager::AbortPending(kctx);
  uint64_t pre_locks = 0;
  uint64_t pre_undo = 0;
  uint64_t commit_start_ns = 0;
  if (sampled) {
    pre_locks = scope.txn()->lock_count();
    pre_undo = scope.txn()->undo().size();
    commit_start_ns = trace::NowNs();
  }
  const Status commit_status = scope.Commit();
  const uint64_t now_ns = sampled ? trace::NowNs() : 0;
  if (!IsOk(commit_status)) {
    graft->CountAbort();
    outcome.status = commit_status;
    if (sampled) {
      graft->RecordAbortCost(pre_locks, pre_undo, now_ns - commit_start_ns);
    }
  }
  if (traced) {
    if (!IsOk(commit_status)) {
      trace::Post(trace::Event::kAbortCost,
                  static_cast<uint16_t>(pre_undo > 0xFFFF ? 0xFFFF : pre_undo),
                  static_cast<uint32_t>(pre_locks), graft->trace_id(),
                  now_ns - commit_start_ns);
    }
    if (exec.latency != nullptr) {
      exec.latency->Record(now_ns - invoke_start_ns);
    }
    if (exec.tier_latency[tier_plus1] != nullptr) {
      exec.tier_latency[tier_plus1]->Record(now_ns - invoke_start_ns);
    }
    trace::Post(trace::Event::kInvokeEnd,
                trace::PackInvokeTag(!IsOk(commit_status)
                                         ? trace::PathTag::kAbort
                                         : (graft->is_native()
                                                ? trace::PathTag::kUnsafe
                                                : trace::PathTag::kSafe),
                                     tier_plus1),
                !IsOk(commit_status) ? static_cast<uint32_t>(pre_locks) : 0,
                graft->trace_id(), now_ns - invoke_start_ns);
  }
  return outcome;
}

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_INVOCATION_H_
