// Transaction system tests: undo log replay, nesting, commit/abort
// semantics, accessor helpers, async abort requests, and the recycling
// slab's no-leak-across-reuse property.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/context.h"
#include "src/base/rng.h"
#include "src/txn/accessor.h"
#include "src/txn/transaction.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"
#include "src/txn/undo_log.h"

namespace vino {
namespace {

TEST(UndoLogTest, ReplaysLifo) {
  UndoLog log;
  std::vector<int> order;
  log.Push([&order] { order.push_back(1); });
  log.Push([&order] { order.push_back(2); });
  log.Push([&order] { order.push_back(3); });
  log.ReplayAndClear();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  EXPECT_TRUE(log.empty());
}

TEST(UndoLogTest, InlineEntriesAvoidAllocation) {
  UndoLog log;
  uint64_t slot = 11;
  // A word restore: the slot's address and its prior value, kept inline.
  const auto restore = [p = &slot, old_value = slot] { *p = old_value; };
  EXPECT_TRUE(UndoClosure(restore).is_inline());
  log.Push(restore);
  slot = 99;
  log.ReplayAndClear();
  EXPECT_EQ(slot, 11u);
}

TEST(UndoLogTest, MergePreservesGlobalLifoOrder) {
  UndoLog parent;
  UndoLog child;
  std::vector<std::string> order;
  parent.Push([&order] { order.push_back("parent-1"); });
  child.Push([&order] { order.push_back("child-1"); });
  child.Push([&order] { order.push_back("child-2"); });
  child.MergeInto(parent);
  EXPECT_TRUE(child.empty());
  EXPECT_EQ(parent.size(), 3u);
  parent.ReplayAndClear();
  // Child ops happened after parent-1, so they undo first, newest first.
  EXPECT_EQ(order,
            (std::vector<std::string>{"child-2", "child-1", "parent-1"}));
}

TEST(UndoLogTest, ClosuresWithDestructorsAreDestroyedOnEveryPath) {
  // A shared_ptr capture has a destructor, and five words go to the heap:
  // the log must end each such entry exactly once, whether it is replayed,
  // cleared unrun, merged into a parent or dropped with the log, and after
  // the vector has grown past its first block.
  const auto token = std::make_shared<int>(0);
  const auto push_both = [&token](UndoLog& log, int n) {
    for (int i = 0; i < n; ++i) {
      log.Push([token] { ++*token; });
      uint64_t a = 1, b = 2, c = 3, d = 4;
      log.Push([token, a, b, c, d] { *token += static_cast<int>(d - c); });
    }
  };
  {
    UndoLog log;
    push_both(log, 12);  // 24 entries: past the first 16-entry block.
    EXPECT_EQ(token.use_count(), 25);
    log.ReplayAndClear();
    EXPECT_EQ(*token, 24);
    EXPECT_EQ(token.use_count(), 1);

    push_both(log, 2);
    log.Clear();
    EXPECT_EQ(*token, 24);  // Cleared unrun.
    EXPECT_EQ(token.use_count(), 1);

    UndoLog child;
    push_both(log, 1);
    push_both(child, 2);
    child.MergeInto(log);
    EXPECT_EQ(token.use_count(), 7);
    log.ReplayAndClear();
    EXPECT_EQ(*token, 30);
    EXPECT_EQ(token.use_count(), 1);

    push_both(log, 3);
  }
  EXPECT_EQ(token.use_count(), 1);  // Dropped with the log.
}

class TxnTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // No transaction may leak across tests.
    ASSERT_EQ(TxnManager::Current(), nullptr);
  }
  TxnManager manager_;
};

TEST_F(TxnTest, CommitDiscardUndo) {
  uint64_t state = 1;
  Transaction* txn = manager_.Begin();
  EXPECT_EQ(TxnManager::Current(), txn);
  TxnSet(&state, uint64_t{2});
  EXPECT_EQ(state, 2u);
  EXPECT_EQ(manager_.Commit(txn), Status::kOk);
  EXPECT_EQ(state, 2u);  // Committed state survives.
  EXPECT_EQ(TxnManager::Current(), nullptr);
}

TEST_F(TxnTest, AbortReplaysUndo) {
  uint64_t state = 1;
  Transaction* txn = manager_.Begin();
  TxnSet(&state, uint64_t{2});
  TxnSet(&state, uint64_t{3});
  manager_.Abort(txn, Status::kTxnAborted);
  EXPECT_EQ(state, 1u);  // Both writes undone, in LIFO order.
  EXPECT_EQ(TxnManager::Current(), nullptr);
}

TEST_F(TxnTest, TxnSetWithoutTransactionIsPlainWrite) {
  uint64_t state = 1;
  TxnSet(&state, uint64_t{5});
  EXPECT_EQ(state, 5u);
}

TEST_F(TxnTest, NestedCommitMergesIntoParent) {
  uint64_t a = 1;
  uint64_t b = 10;
  Transaction* parent = manager_.Begin();
  TxnSet(&a, uint64_t{2});

  Transaction* child = manager_.Begin();
  EXPECT_EQ(child->parent(), parent);
  EXPECT_EQ(child->depth(), 1);
  TxnSet(&b, uint64_t{20});
  EXPECT_EQ(manager_.Commit(child), Status::kOk);
  EXPECT_EQ(TxnManager::Current(), parent);

  // Aborting the parent now undoes the child's committed work too.
  manager_.Abort(parent, Status::kTxnAborted);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 10u);
}

TEST_F(TxnTest, NestedAbortDoesNotDisturbParent) {
  // "any graft can abort without aborting its calling graft" (§3.1).
  uint64_t a = 1;
  uint64_t b = 10;
  Transaction* parent = manager_.Begin();
  TxnSet(&a, uint64_t{2});

  Transaction* child = manager_.Begin();
  TxnSet(&b, uint64_t{20});
  manager_.Abort(child, Status::kTxnAborted);
  EXPECT_EQ(b, 10u);  // Child undone.
  EXPECT_EQ(a, 2u);   // Parent's write intact.
  EXPECT_EQ(TxnManager::Current(), parent);

  EXPECT_EQ(manager_.Commit(parent), Status::kOk);
  EXPECT_EQ(a, 2u);
}

TEST_F(TxnTest, DeepNesting) {
  uint64_t state[8] = {};
  std::vector<Transaction*> txns;
  for (int i = 0; i < 8; ++i) {
    txns.push_back(manager_.Begin());
    TxnSet(&state[i], uint64_t{1});
  }
  EXPECT_EQ(txns.back()->depth(), 7);
  // Commit the inner four, abort the rest: writes 4..7 merged upward into
  // txn 3, which aborts, undoing everything from depth >= 3.
  for (int i = 7; i >= 4; --i) {
    EXPECT_EQ(manager_.Commit(txns[static_cast<size_t>(i)]), Status::kOk);
  }
  manager_.Abort(txns[3], Status::kTxnAborted);
  for (int i = 2; i >= 0; --i) {
    EXPECT_EQ(manager_.Commit(txns[static_cast<size_t>(i)]), Status::kOk);
  }
  EXPECT_EQ(state[0], 1u);
  EXPECT_EQ(state[1], 1u);
  EXPECT_EQ(state[2], 1u);
  for (int i = 3; i < 8; ++i) {
    EXPECT_EQ(state[i], 0u) << i;
  }
}

TEST_F(TxnTest, RequestAbortTurnsCommitIntoAbort) {
  uint64_t state = 1;
  Transaction* txn = manager_.Begin();
  TxnSet(&state, uint64_t{2});
  txn->RequestAbort(Status::kTxnTimedOut);
  EXPECT_TRUE(txn->abort_requested());
  EXPECT_EQ(manager_.Commit(txn), Status::kTxnTimedOut);
  EXPECT_EQ(state, 1u);
  EXPECT_EQ(TxnManager::Current(), nullptr);
  EXPECT_EQ(manager_.stats().timeout_aborts, 1u);
}

TEST_F(TxnTest, PostedThreadAbortIsPickedUpByPoll) {
  Transaction* txn = manager_.Begin();
  const uint64_t os_id = KernelContext::Current().os_id;
  EXPECT_FALSE(TxnManager::AbortPending());

  EXPECT_TRUE(KernelContext::PostAbortRequest(
      os_id, static_cast<int32_t>(Status::kTxnTimedOut)));
  EXPECT_TRUE(TxnManager::AbortPending());
  EXPECT_TRUE(txn->abort_requested());
  EXPECT_EQ(txn->abort_reason(), Status::kTxnTimedOut);
  manager_.Abort(txn, txn->abort_reason());
}

TEST_F(TxnTest, PostToUnknownThreadFails) {
  EXPECT_FALSE(KernelContext::PostAbortRequest(
      0xdeadbeef, static_cast<int32_t>(Status::kTxnTimedOut)));
}

TEST_F(TxnTest, StaleAbortRequestDoesNotPoisonNextTransaction) {
  const uint64_t os_id = KernelContext::Current().os_id;
  EXPECT_TRUE(KernelContext::PostAbortRequest(
      os_id, static_cast<int32_t>(Status::kTxnTimedOut)));
  // No transaction active: poll clears it.
  EXPECT_FALSE(TxnManager::AbortPending());
  Transaction* txn = manager_.Begin();
  EXPECT_FALSE(TxnManager::AbortPending());
  EXPECT_EQ(manager_.Commit(txn), Status::kOk);
}

TEST_F(TxnTest, TxnScopeAbortsIfNotCommitted) {
  uint64_t state = 1;
  {
    TxnScope scope(manager_);
    TxnSet(&state, uint64_t{2});
    // No commit: destructor aborts.
  }
  EXPECT_EQ(state, 1u);
  EXPECT_EQ(manager_.stats().aborts, 1u);
}

TEST_F(TxnTest, TxnScopeCommit) {
  uint64_t state = 1;
  {
    TxnScope scope(manager_);
    TxnSet(&state, uint64_t{2});
    EXPECT_EQ(scope.Commit(), Status::kOk);
  }
  EXPECT_EQ(state, 2u);
}

TEST_F(TxnTest, TxnOnAbortCompensation) {
  int opens = 0;
  {
    TxnScope scope(manager_);
    ++opens;  // "open a file"
    TxnOnAbort([&opens] { --opens; });
    scope.Abort(Status::kTxnAborted);
  }
  EXPECT_EQ(opens, 0);
}

TEST_F(TxnTest, StatsAccumulate) {
  for (int i = 0; i < 3; ++i) {
    Transaction* t = manager_.Begin();
    EXPECT_EQ(manager_.Commit(t), Status::kOk);
  }
  Transaction* outer = manager_.Begin();
  Transaction* inner = manager_.Begin();
  manager_.Abort(inner, Status::kTxnAborted);
  EXPECT_EQ(manager_.Commit(outer), Status::kOk);

  const TxnStats s = manager_.stats();
  EXPECT_EQ(s.begins, 5u);
  EXPECT_EQ(s.commits, 4u);
  EXPECT_EQ(s.aborts, 1u);
  EXPECT_EQ(s.nested_begins, 1u);
}

TEST_F(TxnTest, DeferredDeleteRunsOnCommitOnly) {
  int deletes = 0;
  {
    Transaction* txn = manager_.Begin();
    TxnDeferDelete([&deletes] { ++deletes; });
    EXPECT_EQ(deletes, 0);  // Not yet: the transaction could still abort.
    EXPECT_EQ(manager_.Commit(txn), Status::kOk);
  }
  EXPECT_EQ(deletes, 1);
}

TEST_F(TxnTest, DeferredDeleteDiscardedOnAbort) {
  int deletes = 0;
  Transaction* txn = manager_.Begin();
  TxnDeferDelete([&deletes] { ++deletes; });
  manager_.Abort(txn, Status::kTxnAborted);
  EXPECT_EQ(deletes, 0);  // The aborted graft's delete never happened.
}

TEST_F(TxnTest, DeferredDeleteRidesNestedCommitToOutcome) {
  int deletes = 0;
  Transaction* outer = manager_.Begin();
  Transaction* inner = manager_.Begin();
  TxnDeferDelete([&deletes] { ++deletes; });
  ASSERT_EQ(manager_.Commit(inner), Status::kOk);
  EXPECT_EQ(deletes, 0);  // Inner committed, but the outer could abort.
  EXPECT_EQ(outer->deferred_count(), 1u);
  manager_.Abort(outer, Status::kTxnAborted);
  EXPECT_EQ(deletes, 0);  // And it did: the delete is gone.

  Transaction* again = manager_.Begin();
  Transaction* inner2 = manager_.Begin();
  TxnDeferDelete([&deletes] { ++deletes; });
  ASSERT_EQ(manager_.Commit(inner2), Status::kOk);
  ASSERT_EQ(manager_.Commit(again), Status::kOk);
  EXPECT_EQ(deletes, 1);  // Full commit chain: delete executed once.
}

TEST_F(TxnTest, DeferredDeleteWithoutTransactionRunsImmediately) {
  int deletes = 0;
  TxnDeferDelete([&deletes] { ++deletes; });
  EXPECT_EQ(deletes, 1);
}

TEST_F(TxnTest, FirstAbortReasonWins) {
  Transaction* txn = manager_.Begin();
  txn->RequestAbort(Status::kTxnLimitExceeded);
  txn->RequestAbort(Status::kTxnTimedOut);
  EXPECT_EQ(txn->abort_reason(), Status::kTxnLimitExceeded);
  manager_.Abort(txn, txn->abort_reason());
}

// --- Transaction recycling (the per-thread slab) -----------------------

TEST_F(TxnTest, BeginRecyclesTheLastFinishedTransaction) {
  Transaction* first = manager_.Begin();
  const uint64_t first_id = first->id();
  ASSERT_EQ(manager_.Commit(first), Status::kOk);
  // The slab is thread-local LIFO, so the very next Begin must hand back
  // the same object — that pointer identity IS the recycling.
  Transaction* second = manager_.Begin();
  EXPECT_EQ(second, first);
  EXPECT_NE(second->id(), first_id);  // ...under a fresh id.
  ASSERT_EQ(manager_.Commit(second), Status::kOk);
}

// Asserts every field a graft could observe is in just-constructed state.
void ExpectPristine(Transaction* txn) {
  EXPECT_EQ(txn->parent(), nullptr);
  EXPECT_EQ(txn->depth(), 0);
  EXPECT_EQ(txn->state(), TxnState::kActive);
  EXPECT_TRUE(txn->undo().empty());
  EXPECT_EQ(txn->lock_count(), 0u);
  EXPECT_EQ(txn->deferred_count(), 0u);
  EXPECT_FALSE(txn->abort_requested());
  EXPECT_EQ(txn->abort_reason(), Status::kTxnAborted);  // The default.
}

TEST_F(TxnTest, RecycledTransactionLeaksNothingAcrossReuse) {
  // Property test: run randomized commit/abort/nested-merge cycles that
  // dirty every piece of transaction state — word-restore and compensation
  // undo entries, locks, deferred deletes, abort requests posted both
  // directly and via the thread's context — then assert the next Begin()
  // on this thread sees pristine state every time.
  Rng rng(0xdead5eed);
  TxnLock lock_a("recycle-a");
  TxnLock lock_b("recycle-b");
  uint64_t slot = 0;
  int deferred_runs = 0;

  for (int iter = 0; iter < 500; ++iter) {
    Transaction* txn = manager_.Begin();
    ExpectPristine(txn);

    const uint64_t dirt = rng.Next();
    if (dirt & 1) {
      TxnSet(&slot, rng.Next());  // Word-restore undo entry.
    }
    if (dirt & 2) {
      TxnOnAbort([&slot] { slot = 0; });  // Compensation undo entry.
    }
    if (dirt & 4) {
      ASSERT_EQ(lock_a.Acquire(), Status::kOk);
      lock_a.Release();  // Deferred by 2PL until commit/abort.
    }
    if (dirt & 8) {
      TxnDeferDelete([&deferred_runs] { ++deferred_runs; });
    }
    if (dirt & 16) {
      // Nested child that merges its undo, lock, and deferred action up.
      Transaction* child = manager_.Begin();
      TxnSet(&slot, rng.Next());
      ASSERT_EQ(lock_b.Acquire(), Status::kOk);
      lock_b.Release();
      TxnDeferDelete([&deferred_runs] { ++deferred_runs; });
      ASSERT_EQ(manager_.Commit(child), Status::kOk);
    }
    if (dirt & 32) {
      txn->RequestAbort(Status::kTxnLimitExceeded);
    } else if (dirt & 64) {
      ASSERT_TRUE(KernelContext::PostAbortRequest(
          KernelContext::Current().os_id,
          static_cast<int32_t>(Status::kTxnTimedOut)));
    }

    if (dirt & 128) {
      manager_.Abort(txn, Status::kTxnAborted);
    } else {
      (void)manager_.Commit(txn);  // May turn into an abort; both fine.
    }

    ASSERT_FALSE(lock_a.held());
    ASSERT_FALSE(lock_b.held());
    ASSERT_EQ(TxnManager::Current(), nullptr);
  }

  // And one more beyond the loop, after every flavour of dirt has cycled
  // through the slab.
  Transaction* final_txn = manager_.Begin();
  ExpectPristine(final_txn);
  ASSERT_EQ(manager_.Commit(final_txn), Status::kOk);
}

TEST_F(TxnTest, RecyclingSurvivesDeepNestingBeyondSlabCap) {
  // 64 simultaneous transactions exceed the 32-deep slab cap on unwind;
  // the overflow path (plain delete) must coexist with recycling.
  std::vector<Transaction*> txns;
  for (int i = 0; i < 64; ++i) {
    txns.push_back(manager_.Begin());
  }
  for (int i = 63; i >= 0; --i) {
    ASSERT_EQ(manager_.Commit(txns[static_cast<size_t>(i)]), Status::kOk);
  }
  Transaction* txn = manager_.Begin();
  ExpectPristine(txn);
  ASSERT_EQ(manager_.Commit(txn), Status::kOk);
}

TEST_F(TxnTest, SlabMissAndOverflowCountsSurfaceInStats) {
  // The thread's slab holds at most kMaxSlabSize parked transactions (and
  // may start warm from earlier tests on this thread), so a 2x-cap-deep
  // nest must miss at least kMaxSlabSize times on the way down and overflow
  // at least kMaxSlabSize times on the way back up.
  constexpr int kDepth = static_cast<int>(TxnManager::kMaxSlabSize) * 2;
  std::vector<Transaction*> txns;
  for (int i = 0; i < kDepth; ++i) {
    txns.push_back(manager_.Begin());
  }
  for (int i = kDepth - 1; i >= 0; --i) {
    ASSERT_EQ(manager_.Commit(txns[static_cast<size_t>(i)]), Status::kOk);
  }
  TxnStats s = manager_.stats();
  EXPECT_GE(s.slab_misses, TxnManager::kMaxSlabSize);
  EXPECT_GE(s.slab_overflows, TxnManager::kMaxSlabSize);
  EXPECT_LE(s.slab_misses, static_cast<uint64_t>(kDepth));
  EXPECT_LE(s.slab_overflows, static_cast<uint64_t>(kDepth));

  // A shallow begin/commit cycle afterwards is served from the (now full)
  // slab: no new misses, no new overflows below the cap.
  const uint64_t misses_before = s.slab_misses;
  Transaction* txn = manager_.Begin();
  ASSERT_EQ(manager_.Commit(txn), Status::kOk);
  EXPECT_EQ(manager_.stats().slab_misses, misses_before);
}

TEST_F(TxnTest, DeepNestingBeyondSlabCapUndoesCorrectly) {
  // >cap nesting must degrade to heap fallback, not corruption or silent
  // abort: every level's write is tracked, a mid-chain abort undoes exactly
  // the merged-in suffix, and the survivors commit clean.
  constexpr int kDepth = static_cast<int>(TxnManager::kMaxSlabSize) + 16;
  constexpr int kAbortAt = static_cast<int>(TxnManager::kMaxSlabSize) + 4;
  std::vector<uint64_t> state(kDepth, 0);
  std::vector<Transaction*> txns;
  for (int i = 0; i < kDepth; ++i) {
    txns.push_back(manager_.Begin());
    TxnSet(&state[static_cast<size_t>(i)], uint64_t{1});
  }
  EXPECT_EQ(txns.back()->depth(), kDepth - 1);
  for (int i = kDepth - 1; i > kAbortAt; --i) {
    ASSERT_EQ(manager_.Commit(txns[static_cast<size_t>(i)]), Status::kOk);
  }
  manager_.Abort(txns[kAbortAt], Status::kTxnAborted);
  for (int i = kAbortAt - 1; i >= 0; --i) {
    ASSERT_EQ(manager_.Commit(txns[static_cast<size_t>(i)]), Status::kOk);
  }
  for (int i = 0; i < kDepth; ++i) {
    EXPECT_EQ(state[static_cast<size_t>(i)], i < kAbortAt ? 1u : 0u) << i;
  }
}

}  // namespace
}  // namespace vino
