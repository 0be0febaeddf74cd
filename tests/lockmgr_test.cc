// Lock manager case-study tests (Figures 4 and 5, and the grafted
// manager): all three must agree under the default policies; the indirected
// manager must honour replaced policies, but never past the lock table's
// conflict check.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/graft/namespace.h"
#include "src/lockmgr/grafted_lock_manager.h"
#include "src/lockmgr/lock_manager.h"

namespace vino {
namespace {

TEST(LockModeTest, Compatibility) {
  EXPECT_TRUE(Compatible(LockMode::kShared, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kShared, LockMode::kExclusive));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kExclusive));
}

// The grafted manager with the kernel pieces it needs, default-constructible
// for the typed suite. The pieces are a base so they are built first.
struct GraftedLockManagerPieces {
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
};
class TestGraftedLockManager : private GraftedLockManagerPieces,
                               public GraftedLockManager {
 public:
  TestGraftedLockManager() : GraftedLockManager("lockmgr.typed", &txn, &host, &ns) {}
};

template <typename Manager>
class LockManagerTest : public ::testing::Test {
 protected:
  Manager mgr_;
};

using Managers = ::testing::Types<SimpleLockManager, PolicyLockManager,
                                  TestGraftedLockManager>;
TYPED_TEST_SUITE(LockManagerTest, Managers);

TYPED_TEST(LockManagerTest, SharedReadersCoexist) {
  EXPECT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  EXPECT_EQ(this->mgr_.GetLock(1, 101, LockMode::kShared), Status::kOk);
  EXPECT_TRUE(this->mgr_.Holds(1, 100));
  EXPECT_TRUE(this->mgr_.Holds(1, 101));
}

TYPED_TEST(LockManagerTest, WriterBlocksBehindReader) {
  EXPECT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  EXPECT_EQ(this->mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  EXPECT_FALSE(this->mgr_.Holds(1, 200));
  EXPECT_EQ(this->mgr_.WaiterCount(1), 1u);
}

TYPED_TEST(LockManagerTest, ReleasePromotesWaiter) {
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(1, 200, LockMode::kShared), Status::kBusy);
  ASSERT_EQ(this->mgr_.GetLock(1, 201, LockMode::kShared), Status::kBusy);
  ASSERT_EQ(this->mgr_.ReleaseLock(1, 100), Status::kOk);
  // Both shared waiters promoted together.
  EXPECT_TRUE(this->mgr_.Holds(1, 200));
  EXPECT_TRUE(this->mgr_.Holds(1, 201));
  EXPECT_EQ(this->mgr_.WaiterCount(1), 0u);
}

TYPED_TEST(LockManagerTest, FifoPromotionStopsAtConflict) {
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(this->mgr_.GetLock(1, 201, LockMode::kShared), Status::kBusy);
  ASSERT_EQ(this->mgr_.ReleaseLock(1, 100), Status::kOk);
  // Only the first (exclusive) waiter is promoted.
  EXPECT_TRUE(this->mgr_.Holds(1, 200));
  EXPECT_FALSE(this->mgr_.Holds(1, 201));
  EXPECT_EQ(this->mgr_.WaiterCount(1), 1u);
}

TYPED_TEST(LockManagerTest, DoubleAcquireRejected) {
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  EXPECT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kAlreadyExists);
}

TYPED_TEST(LockManagerTest, ReleaseOfUnheldFails) {
  EXPECT_EQ(this->mgr_.ReleaseLock(1, 100), Status::kNotFound);
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  EXPECT_EQ(this->mgr_.ReleaseLock(1, 999), Status::kNotFound);
}

TYPED_TEST(LockManagerTest, ResourcesIndependent) {
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  EXPECT_EQ(this->mgr_.GetLock(2, 200, LockMode::kExclusive), Status::kOk);
}

TEST(ReaderPriorityTest, DefaultPolicyBargesPastWaitingWriter) {
  // The policy decision Figure 4 hard-codes: "any incoming lock request can
  // be granted if it does not conflict with any holders, ignoring the locks
  // on the wait list (e.g., it implements a reader priority locking
  // protocol)".
  SimpleLockManager mgr;
  ASSERT_EQ(mgr.GetLock(1, 100, LockMode::kShared), Status::kOk);
  ASSERT_EQ(mgr.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  // A new reader barges past the waiting writer.
  EXPECT_EQ(mgr.GetLock(1, 101, LockMode::kShared), Status::kOk);
}

TEST(PolicyTest, FairGrantPolicyPreventsBarging) {
  PolicyLockManager mgr;
  mgr.SetGrantPolicy(&PolicyLockManager::FairGrantPolicy);
  ASSERT_EQ(mgr.GetLock(1, 100, LockMode::kShared), Status::kOk);
  ASSERT_EQ(mgr.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  // Under the fair policy the new reader queues behind the writer.
  EXPECT_EQ(mgr.GetLock(1, 101, LockMode::kShared), Status::kBusy);
  EXPECT_EQ(mgr.WaiterCount(1), 2u);
}

TEST(PolicyTest, QueuePolicyControlsInsertionOrder) {
  PolicyLockManager mgr;
  // LIFO queueing: newest waiter first.
  mgr.SetQueuePolicy([](const LockState&, const LockRequest&) -> size_t { return 0; });
  ASSERT_EQ(mgr.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(mgr.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(mgr.GetLock(1, 201, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(mgr.ReleaseLock(1, 100), Status::kOk);
  EXPECT_TRUE(mgr.Holds(1, 201));  // Last in, first out.
  EXPECT_FALSE(mgr.Holds(1, 200));
}

TEST(PolicyTest, MalformedQueuePolicyOutputClamped) {
  PolicyLockManager mgr;
  mgr.SetQueuePolicy([](const LockState&, const LockRequest&) -> size_t {
    return 1'000'000;  // Way out of range.
  });
  ASSERT_EQ(mgr.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  EXPECT_EQ(mgr.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  EXPECT_EQ(mgr.WaiterCount(1), 1u);  // Clamped to append, not a crash.
}

TEST(PolicyTest, GrantPolicyCannotGrantConflictingRequests) {
  // A grant policy may deny what the holders allow, but the table refuses a
  // grant that conflicts with a holder whatever the policy answers (as for
  // GraftedLockMgrTest.GraftCannotGrantConflictingRequests).
  PolicyLockManager mgr;
  mgr.SetGrantPolicy([](const LockState&, const LockRequest&) { return true; });
  ASSERT_EQ(mgr.GetLock(1, 100, LockMode::kShared), Status::kOk);
  EXPECT_EQ(mgr.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  EXPECT_FALSE(mgr.Holds(1, 200));
  EXPECT_EQ(mgr.WaiterCount(1), 1u);
}

TEST(PolicyTest, NullRestoresDefault) {
  PolicyLockManager mgr;
  mgr.SetGrantPolicy(&PolicyLockManager::FairGrantPolicy);
  mgr.SetGrantPolicy(nullptr);
  ASSERT_EQ(mgr.GetLock(1, 100, LockMode::kShared), Status::kOk);
  ASSERT_EQ(mgr.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  // Default (reader priority) again: barging allowed.
  EXPECT_EQ(mgr.GetLock(1, 101, LockMode::kShared), Status::kOk);
}

// --- CancelWait: a timed-out waiter must not strand later grants ---------

TYPED_TEST(LockManagerTest, CancelWaitRemovesQueuedRequest) {
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  EXPECT_EQ(this->mgr_.CancelWait(1, 200), Status::kOk);
  EXPECT_EQ(this->mgr_.WaiterCount(1), 0u);
  EXPECT_FALSE(this->mgr_.Holds(1, 200));
}

TYPED_TEST(LockManagerTest, CancelledFrontWaiterUnblocksThoseBehindIt) {
  // The PR-9 anomaly: promotion is FIFO and stops at the first conflict, so
  // an abandoned exclusive waiter at the front of the queue used to strand
  // every compatible waiter behind it forever.
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(this->mgr_.GetLock(1, 201, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(this->mgr_.ReleaseLock(1, 100), Status::kOk);
  // 200 promoted; 201 waits behind it.
  ASSERT_TRUE(this->mgr_.Holds(1, 200));
  ASSERT_FALSE(this->mgr_.Holds(1, 201));
  // 200's requester times out and withdraws — CancelWait doubles as the
  // atomic "release if the grant raced in" path, and must promote 201.
  EXPECT_EQ(this->mgr_.CancelWait(1, 200), Status::kOk);
  EXPECT_TRUE(this->mgr_.Holds(1, 201));
  EXPECT_EQ(this->mgr_.WaiterCount(1), 0u);
}

TYPED_TEST(LockManagerTest, CancelledMidQueueWaiterPromotesCompatibleRun) {
  // holders=[excl 100], waiters=[shared 200, excl 300, shared 201]: when
  // 300 gives up, nothing promotes yet (100 still holds); when 100 then
  // releases, the whole shared run is granted together.
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(1, 200, LockMode::kShared), Status::kBusy);
  ASSERT_EQ(this->mgr_.GetLock(1, 300, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(this->mgr_.GetLock(1, 201, LockMode::kShared), Status::kBusy);
  ASSERT_EQ(this->mgr_.CancelWait(1, 300), Status::kOk);
  EXPECT_EQ(this->mgr_.WaiterCount(1), 2u);
  ASSERT_EQ(this->mgr_.ReleaseLock(1, 100), Status::kOk);
  EXPECT_TRUE(this->mgr_.Holds(1, 200));
  EXPECT_TRUE(this->mgr_.Holds(1, 201));
  EXPECT_EQ(this->mgr_.WaiterCount(1), 0u);
}

TYPED_TEST(LockManagerTest, CancelWaitOfUnknownHolderFails) {
  EXPECT_EQ(this->mgr_.CancelWait(1, 100), Status::kNotFound);
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  EXPECT_EQ(this->mgr_.CancelWait(1, 999), Status::kNotFound);
}

TYPED_TEST(LockManagerTest, QueuedHolderAskingAgainIsNotQueuedTwice) {
  // A second copy of a queued request used to outlive the requester's
  // CancelWait and be promoted by the next release: a requester that had
  // withdrawn then held the lock, and nobody would release it.
  ASSERT_EQ(this->mgr_.GetLock(7, 1, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(7, 2, LockMode::kExclusive), Status::kBusy);
  EXPECT_EQ(this->mgr_.GetLock(7, 2, LockMode::kExclusive), Status::kBusy);
  EXPECT_EQ(this->mgr_.WaiterCount(7), 1u);
  ASSERT_EQ(this->mgr_.CancelWait(7, 2), Status::kOk);
  ASSERT_EQ(this->mgr_.ReleaseLock(7, 1), Status::kOk);
  EXPECT_FALSE(this->mgr_.Holds(7, 2));
  EXPECT_EQ(this->mgr_.WaiterCount(7), 0u);
  EXPECT_EQ(this->mgr_.GetLock(7, 3, LockMode::kExclusive), Status::kOk);
}

TYPED_TEST(LockManagerTest, QueuedHolderIsNotGrantedASecondMode) {
  // Reader priority would grant a queued writer's shared re-request past
  // its own queue entry; the release would then promote the entry, and the
  // holder would hold twice and release once.
  ASSERT_EQ(this->mgr_.GetLock(7, 1, LockMode::kShared), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(7, 2, LockMode::kExclusive), Status::kBusy);
  EXPECT_EQ(this->mgr_.GetLock(7, 2, LockMode::kShared), Status::kBusy);
  EXPECT_FALSE(this->mgr_.Holds(7, 2));
  EXPECT_EQ(this->mgr_.WaiterCount(7), 1u);
  ASSERT_EQ(this->mgr_.ReleaseLock(7, 1), Status::kOk);
  ASSERT_TRUE(this->mgr_.Holds(7, 2));
  ASSERT_EQ(this->mgr_.ReleaseLock(7, 2), Status::kOk);
  EXPECT_FALSE(this->mgr_.Holds(7, 2));
  EXPECT_EQ(this->mgr_.GetLock(7, 3, LockMode::kExclusive), Status::kOk);
}

TYPED_TEST(LockManagerTest, IdleEntryAnswersLikeAnAbsentOne) {
  // Resource 1 drains and its entry stays in the table for reuse; resource
  // 2 was never used. Every query reads the same on both.
  ASSERT_EQ(this->mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(this->mgr_.GetLock(1, 200, LockMode::kShared), Status::kBusy);
  ASSERT_EQ(this->mgr_.ReleaseLock(1, 100), Status::kOk);
  ASSERT_EQ(this->mgr_.ReleaseLock(1, 200), Status::kOk);
  for (const LockResourceId resource : {LockResourceId{1}, LockResourceId{2}}) {
    for (const LockHolderId holder : {LockHolderId{100}, LockHolderId{200}}) {
      EXPECT_FALSE(this->mgr_.Holds(resource, holder)) << resource;
      EXPECT_EQ(this->mgr_.ReleaseLock(resource, holder), Status::kNotFound)
          << resource;
      EXPECT_EQ(this->mgr_.CancelWait(resource, holder), Status::kNotFound)
          << resource;
    }
    EXPECT_EQ(this->mgr_.WaiterCount(resource), 0u) << resource;
  }
  EXPECT_EQ(this->mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kOk);
  EXPECT_EQ(this->mgr_.GetLock(1, 100, LockMode::kShared), Status::kBusy);
}

TEST(LockTableTest, IdleEntrySnapshotsAnEmptyState) {
  LockTable table;
  const LockRequest request{100, LockMode::kExclusive};
  ASSERT_EQ(table.Apply(1, request, LockTable::GrantIfHoldersAllow{},
                        LockTable::AppendToQueue{}),
            Status::kOk);
  LockState held;
  EXPECT_EQ(table.Snapshot(1, 100, &held), Status::kAlreadyExists);
  ASSERT_EQ(table.ReleaseLock(1, 100), Status::kOk);
  for (const LockResourceId resource : {LockResourceId{1}, LockResourceId{2}}) {
    LockState out;
    EXPECT_EQ(table.Snapshot(resource, 100, &out), Status::kOk) << resource;
    EXPECT_TRUE(out.holders.empty()) << resource;
    EXPECT_TRUE(out.waiters.empty()) << resource;
  }
}

TEST(PolicyTest, DenyOnIdleLockCannotStrandTheQueue) {
  // A pathological policy denies everything. With no holders there is no
  // future release to promote the queue, so GetLock itself must promote —
  // kernel liveness outranks policy.
  PolicyLockManager mgr;
  mgr.SetGrantPolicy([](const LockState&, const LockRequest&) { return false; });
  EXPECT_EQ(mgr.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  EXPECT_TRUE(mgr.Holds(1, 100));
}

// --- Sharded table under concurrency -------------------------------------

TEST(ShardedLockTest, ConcurrentDisjointResourcesStayConsistent) {
  SimpleLockManager mgr;
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mgr, t] {
      const LockHolderId holder = 1000 + static_cast<LockHolderId>(t);
      for (int i = 0; i < kIterations; ++i) {
        const LockResourceId resource =
            static_cast<LockResourceId>((t * kIterations + i) % 64);
        const LockMode mode =
            (i % 3 == 0) ? LockMode::kExclusive : LockMode::kShared;
        const Status got = mgr.GetLock(resource, holder, mode);
        if (got == Status::kOk) {
          ASSERT_TRUE(mgr.Holds(resource, holder));
          ASSERT_EQ(mgr.ReleaseLock(resource, holder), Status::kOk);
        } else {
          ASSERT_EQ(got, Status::kBusy);
          // Poll briefly, then withdraw like a timed-out TxnLock waiter.
          bool granted = false;
          for (int spin = 0; spin < 100 && !granted; ++spin) {
            granted = mgr.Holds(resource, holder);
          }
          if (granted) {
            ASSERT_EQ(mgr.ReleaseLock(resource, holder), Status::kOk);
          } else {
            // Queued, so we are in waiters or (if the promotion raced the
            // poll) in holders; CancelWait handles both atomically.
            ASSERT_EQ(mgr.CancelWait(resource, holder), Status::kOk);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // Quiesced: every resource drained — no holders, no stranded waiters.
  for (LockResourceId r = 0; r < 64; ++r) {
    EXPECT_EQ(mgr.WaiterCount(r), 0u) << r;
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_FALSE(mgr.Holds(r, 1000 + static_cast<LockHolderId>(t)));
    }
  }
}

}  // namespace
}  // namespace vino
