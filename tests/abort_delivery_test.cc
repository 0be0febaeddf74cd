// Regression tests for asynchronous abort delivery (paper §3.2).
//
// Two bugs these pin down:
//  1. Stale cross-thread aborts poisoned sibling nested transactions: a
//     posted request carried no transaction identity, Begin() cleared the
//     pending word only at top level, so a watchdog or lock-timeout fire
//     that landed after its victim ended aborted whatever nested
//     transaction the thread ran next. Posts are now tagged with the target
//     transaction id and discarded at consumption when the target is no
//     longer in the thread's active chain.
//  2. A commit-time abort (the asynchronous request beating Commit) lost
//     its per-graft abort-cost sample and posted kInvokeEnd with a lock
//     count of 0 — the wrapper now captures L and G before Commit() so the
//     §4.5 model gets one sample per abort on every path.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/base/context.h"
#include "src/base/trace.h"
#include "src/graft/function_point.h"
#include "src/graft/graft.h"
#include "src/graft/invocation.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

constexpr GraftIdentity kRoot{0, true};

int32_t Reason(Status s) { return static_cast<int32_t>(s); }

TEST(AbortDeliveryTest, StalePostToFinishedSiblingIsDiscarded) {
  TxnManager manager;
  KernelContext& ctx = KernelContext::Current();
  Transaction* outer = manager.Begin();
  Transaction* a = manager.Begin();
  const uint64_t a_id = a->id();
  EXPECT_EQ(manager.Commit(a), Status::kOk);

  // A late lock-timeout / watchdog fire aimed at the already-finished
  // nested transaction lands now — after its target ended, before the
  // sibling begins.
  ASSERT_TRUE(KernelContext::PostAbortRequest(ctx.os_id,
                                              Reason(Status::kTxnTimedOut),
                                              a_id));

  // The innocent sibling must not inherit the doom.
  Transaction* b = manager.Begin();
  EXPECT_FALSE(TxnManager::AbortPending());
  EXPECT_FALSE(b->abort_requested());
  EXPECT_EQ(manager.Commit(b), Status::kOk);
  EXPECT_EQ(manager.Commit(outer), Status::kOk);
}

TEST(AbortDeliveryTest, StalePostDoesNotTurnSiblingCommitIntoAbort) {
  // Same shape, but the sibling goes straight to Commit without passing a
  // preemption point — the commit-side consumption must discard too.
  TxnManager manager;
  KernelContext& ctx = KernelContext::Current();
  Transaction* outer = manager.Begin();
  Transaction* a = manager.Begin();
  const uint64_t a_id = a->id();
  EXPECT_EQ(manager.Commit(a), Status::kOk);
  ASSERT_TRUE(KernelContext::PostAbortRequest(ctx.os_id,
                                              Reason(Status::kTxnTimedOut),
                                              a_id));
  Transaction* b = manager.Begin();
  EXPECT_EQ(manager.Commit(b), Status::kOk);
  EXPECT_EQ(manager.Commit(outer), Status::kOk);
  EXPECT_EQ(manager.stats().aborts, 0u);
}

TEST(AbortDeliveryTest, PostTargetingAncestorAbortsInnermost) {
  // The paper's semantics: the victim thread aborts its *innermost*
  // transaction even when the contended lock belongs to an outer one; the
  // chain unwinds one level per (re-)post.
  TxnManager manager;
  KernelContext& ctx = KernelContext::Current();
  Transaction* outer = manager.Begin();
  Transaction* inner = manager.Begin();
  ASSERT_TRUE(KernelContext::PostAbortRequest(ctx.os_id,
                                              Reason(Status::kTxnTimedOut),
                                              outer->id()));
  EXPECT_TRUE(TxnManager::AbortPending());
  EXPECT_EQ(inner->abort_reason(), Status::kTxnTimedOut);
  manager.Abort(inner, inner->abort_reason());

  // One level unwound; the still-blocked waiter re-posts against the owner.
  ASSERT_TRUE(KernelContext::PostAbortRequest(ctx.os_id,
                                              Reason(Status::kTxnTimedOut),
                                              outer->id()));
  EXPECT_TRUE(TxnManager::AbortPending());
  EXPECT_EQ(outer->abort_reason(), Status::kTxnTimedOut);
  manager.Abort(outer, outer->abort_reason());
}

TEST(AbortDeliveryTest, WildcardPostStillAbortsInnermost) {
  // Target 0 keeps the legacy thread-policing semantics: whatever is
  // innermost when the post is consumed.
  TxnManager manager;
  Transaction* txn = manager.Begin();
  ASSERT_TRUE(KernelContext::PostAbortRequest(KernelContext::Current().os_id,
                                              Reason(Status::kTxnTimedOut)));
  EXPECT_TRUE(TxnManager::AbortPending());
  EXPECT_EQ(txn->abort_reason(), Status::kTxnTimedOut);
  manager.Abort(txn, txn->abort_reason());
}

TEST(AbortDeliveryTest, CommitTimeAbortKeepsPerGraftAbortCostSample) {
  trace::SetEnabled(true);

  TxnManager manager;
  HostCallTable host;
  TxnLock lock("attr.lock");

  FunctionGraftPoint::Config config;
  config.validator = [](uint64_t, std::span<const uint64_t>) {
    // The validator runs inside the transaction window, after the native
    // path's abort check and before Commit — the last spot an asynchronous
    // abort can land. Post one aimed at the current transaction.
    KernelContext& ctx = KernelContext::Current();
    KernelContext::PostAbortRequest(ctx.os_id, Reason(Status::kTxnTimedOut),
                                    ctx.txn->id());
    return true;
  };
  FunctionGraftPoint point(
      "attr.point", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      config, &manager, &host, nullptr);

  auto graft = std::make_shared<Graft>(
      "locker",
      [&lock](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        EXPECT_EQ(lock.Acquire(), Status::kOk);  // Held at commit: L = 1.
        return 0ull;
      },
      kRoot);
  ASSERT_EQ(point.Replace(graft), Status::kOk);

  EXPECT_EQ(point.Invoke({}), 7u);  // Commit became abort; default ran.
  EXPECT_EQ(graft->aborts(), 1u);
  EXPECT_FALSE(lock.held());

  // The per-graft §4.5 model gained exactly one sample, with L = 1.
  const AbortCostModel::Fitted fit = graft->abort_cost().Fit();
  EXPECT_EQ(fit.samples, 1u);
  EXPECT_DOUBLE_EQ(fit.mean_locks, 1.0);

  // The kInvokeEnd record reports the abort path with the lock count.
  struct Collector : trace::TraceSink {
    std::vector<trace::TaggedRecord> got;
    void OnRecord(const trace::TaggedRecord& r) override { got.push_back(r); }
  } sink;
  trace::DrainCursor cursor;
  (void)cursor.DrainInto(sink);
  bool found = false;
  for (const trace::TaggedRecord& tr : sink.got) {
    if (tr.record.event == static_cast<uint16_t>(trace::Event::kInvokeEnd) &&
        tr.record.tag == static_cast<uint16_t>(trace::PathTag::kAbort) &&
        tr.record.a == graft->trace_id()) {
      EXPECT_EQ(tr.record.a32, 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  trace::SetEnabled(false);
}

// ---------------------------------------------------------------------
// Tier-1 asynchronous abort delivery. The direct-threaded engine replaced
// the interpreter's per-iteration poll with its own countdown; these pin
// down that a cross-thread PostAbortRequest still lands mid-program on
// Tier 1, and that the PR 6 poll_interval==0 clamp (0 means "poll every
// instruction", not "poll after ~4B instructions") survived the rewrite.
// ---------------------------------------------------------------------

// A graft program that announces itself through a host call (publishing
// its thread's os_id and innermost transaction id), then spins forever.
// The only way out is an asynchronous abort — or fuel exhaustion, which
// the tests treat as failure evidence.
struct SpinningGraft {
  HostCallTable host;
  std::atomic<bool> started{false};
  std::atomic<uint64_t> os_id{0};
  std::atomic<uint64_t> txn_id{0};
  std::shared_ptr<Graft> graft;

  SpinningGraft() {
    const uint32_t sync_id = host.Register(
        "test.announce",
        [this](HostCallContext&) -> Result<uint64_t> {
          KernelContext& kctx = KernelContext::Current();
          os_id.store(kctx.os_id, std::memory_order_relaxed);
          txn_id.store(kctx.txn->id(), std::memory_order_relaxed);
          started.store(true, std::memory_order_release);
          return 0ull;
        },
        true);

    Asm a("tier1-spinner");
    auto top = a.NewLabel();
    a.LoadImm(R1, sync_id);
    a.CallR(R1);
    a.LoadImm(R2, 1);
    a.Bind(top);
    a.Add(R3, R3, R2);
    a.Jmp(top);
    Result<Program> inst = Instrument(*a.Finish(), MisfitOptions{16});
    EXPECT_TRUE(inst.ok());
    const Result<VerifiedProgram> p =
        VerifyAndCompile(*inst, host, ExecTier::kTier1);
    EXPECT_TRUE(p.ok());
    EXPECT_EQ(p->tier(), ExecTier::kTier1);
    graft = std::make_shared<Graft>("tier1-spinner", *p, kRoot, 4096);
  }
};

TEST(AbortDeliveryTest, CrossThreadPostLandsMidProgramOnTier1) {
  TxnManager manager;
  SpinningGraft spin;

  // Default poll cadence; fuel bounded so a lost abort fails the test with
  // kSfiFuelExhausted instead of hanging it.
  GraftExecContext exec(&spin.host, /*fuel=*/50'000'000, /*poll_interval=*/64);

  std::thread poster([&spin] {
    while (!spin.started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(KernelContext::PostAbortRequest(
        spin.os_id.load(std::memory_order_relaxed),
        Reason(Status::kTxnTimedOut),
        spin.txn_id.load(std::memory_order_relaxed)));
  });

  const InvocationOutcome outcome =
      RunGraftInvocation(manager, spin.graft, {}, exec);
  poster.join();

  // The engine reports a poll-consumed abort as kTxnAborted (the posted
  // reason was consumed into the transaction); what matters here is that it
  // is an abort, not fuel exhaustion or a completed run.
  EXPECT_EQ(outcome.status, Status::kTxnAborted);
  EXPECT_EQ(spin.graft->aborts(), 1u);
  // The abort was consumed by the Tier-1 engine, not an interpreter
  // fallback: the invocation is attributed to tier 1.
  EXPECT_EQ(spin.graft->tier_runs(ExecTier::kTier1), 1u);
  EXPECT_EQ(spin.graft->tier_runs(ExecTier::kTier0), 0u);
}

TEST(AbortDeliveryTest, Tier1PollIntervalZeroClampsToEveryInstruction) {
  // PR 6 regression, Tier-1 edition: poll_interval == 0 must clamp to 1.
  // An unclamped countdown would wrap and never poll, so the spinner would
  // burn its whole fuel budget and return kSfiFuelExhausted instead of the
  // posted kTxnTimedOut.
  TxnManager manager;
  SpinningGraft spin;

  GraftExecContext exec(&spin.host, /*fuel=*/20'000'000, /*poll_interval=*/0);

  std::thread poster([&spin] {
    while (!spin.started.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(KernelContext::PostAbortRequest(
        spin.os_id.load(std::memory_order_relaxed),
        Reason(Status::kTxnTimedOut),
        spin.txn_id.load(std::memory_order_relaxed)));
  });

  const InvocationOutcome outcome =
      RunGraftInvocation(manager, spin.graft, {}, exec);
  poster.join();

  EXPECT_EQ(outcome.status, Status::kTxnAborted);
  EXPECT_EQ(spin.graft->tier_runs(ExecTier::kTier1), 1u);
}

}  // namespace
}  // namespace vino
