// TxnLock tests: two-phase locking, contention time-outs aborting the
// holder, deadlock breaking, and nested-transaction lock transfer.
// Cross-thread tests use real threads with short real-time time-outs.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/base/context.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

TxnLock::Options FastTimeout() {
  TxnLock::Options options;
  options.contention_timeout = 5'000;  // 5 ms.
  options.poll_quantum = 200;
  return options;
}

class TxnLockTest : public ::testing::Test {
 protected:
  TxnManager manager_;
};

TEST_F(TxnLockTest, PlainAcquireRelease) {
  TxnLock lock("l");
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  EXPECT_TRUE(lock.held());
  lock.Release();
  EXPECT_FALSE(lock.held());
}

TEST_F(TxnLockTest, ReentrantOnSameThread) {
  TxnLock lock("l");
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  lock.Release();
  EXPECT_TRUE(lock.held());  // Still held: matched releases required.
  lock.Release();
  EXPECT_FALSE(lock.held());
}

TEST_F(TxnLockTest, TryAcquire) {
  TxnLock lock("l");
  EXPECT_EQ(lock.TryAcquire(), Status::kOk);
  std::thread other([&lock] { EXPECT_EQ(lock.TryAcquire(), Status::kBusy); });
  other.join();
  lock.Release();
}

TEST_F(TxnLockTest, TwoPhaseHoldsUntilCommit) {
  TxnLock lock("l");
  Transaction* txn = manager_.Begin();
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  lock.Release();               // Deferred under 2PL.
  EXPECT_TRUE(lock.held());     // Still held!
  EXPECT_EQ(txn->lock_count(), 1u);
  EXPECT_EQ(manager_.Commit(txn), Status::kOk);
  EXPECT_FALSE(lock.held());    // Released at commit.
}

TEST_F(TxnLockTest, AbortReleasesLocks) {
  TxnLock lock("l");
  Transaction* txn = manager_.Begin();
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  manager_.Abort(txn, Status::kTxnAborted);
  EXPECT_FALSE(lock.held());
}

TEST_F(TxnLockTest, NestedCommitTransfersLockToParent) {
  TxnLock lock("l");
  Transaction* parent = manager_.Begin();
  Transaction* child = manager_.Begin();
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  EXPECT_EQ(manager_.Commit(child), Status::kOk);
  EXPECT_TRUE(lock.held());  // Parent now owns it.
  EXPECT_EQ(parent->lock_count(), 1u);
  EXPECT_EQ(manager_.Commit(parent), Status::kOk);
  EXPECT_FALSE(lock.held());
}

TEST_F(TxnLockTest, NestedAbortReleasesOnlyItsOwnLocks) {
  TxnLock outer_lock("outer");
  TxnLock inner_lock("inner");
  Transaction* parent = manager_.Begin();
  EXPECT_EQ(outer_lock.Acquire(), Status::kOk);
  Transaction* child = manager_.Begin();
  EXPECT_EQ(inner_lock.Acquire(), Status::kOk);
  manager_.Abort(child, Status::kTxnAborted);
  EXPECT_FALSE(inner_lock.held());
  EXPECT_TRUE(outer_lock.held());
  EXPECT_EQ(manager_.Commit(parent), Status::kOk);
  EXPECT_FALSE(outer_lock.held());
}

TEST_F(TxnLockTest, ContentionHandoffWithoutTimeout) {
  // Uncontended-to-contended handoff: holder releases promptly; waiter gets
  // the lock without any abort machinery. "Promptly" is measured against a
  // timeout no scheduling stall of the 1 ms holder reaches; the cases that
  // need the timeout to fire keep FastTimeout().
  TxnLock::Options options = FastTimeout();
  options.contention_timeout = 1'000'000;  // 1 s.
  TxnLock lock("l", options);
  ASSERT_EQ(lock.Acquire(), Status::kOk);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    EXPECT_EQ(lock.Acquire(), Status::kOk);
    acquired.store(true);
    lock.Release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  lock.Release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
  EXPECT_EQ(lock.timeout_fires(), 0u);
}

TEST_F(TxnLockTest, WaiterTimeoutAbortsHoldersTransaction) {
  // The paper's central resource-hoarding defence: a graft's transaction
  // holds a lock too long; the waiter's time-out aborts it; the abort
  // releases the lock; the waiter proceeds.
  TxnLock lock("hoarded", FastTimeout());
  std::atomic<bool> holder_ready{false};
  std::atomic<bool> holder_aborted{false};

  std::thread holder([&] {
    TxnManager manager;  // Holder's own manager is irrelevant to the lock.
    Transaction* txn = manager.Begin();
    ASSERT_EQ(lock.Acquire(), Status::kOk);
    holder_ready.store(true);
    // The "while (1);" graft: spin at preemption points until aborted.
    while (!TxnManager::AbortPending()) {
      std::this_thread::yield();
    }
    EXPECT_EQ(txn->abort_reason(), Status::kTxnTimedOut);
    manager.Abort(txn, txn->abort_reason());  // Releases the lock.
    holder_aborted.store(true);
  });

  while (!holder_ready.load()) {
    std::this_thread::yield();
  }
  // Waiter (no transaction of its own) blocks, then times out the holder.
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  holder.join();
  EXPECT_TRUE(holder_aborted.load());
  EXPECT_GE(lock.timeout_fires(), 1u);
  lock.Release();
}

TEST_F(TxnLockTest, NonTransactionalHolderIsNotAborted) {
  // A plain kernel thread holding the lock cannot be aborted; the waiter
  // just waits until the holder releases.
  TxnLock lock("plain", FastTimeout());
  std::atomic<bool> holder_ready{false};
  std::atomic<bool> release_now{false};

  std::thread holder([&] {
    ASSERT_EQ(lock.Acquire(), Status::kOk);
    holder_ready.store(true);
    while (!release_now.load()) {
      std::this_thread::yield();
    }
    lock.Release();
  });

  while (!holder_ready.load()) {
    std::this_thread::yield();
  }
  std::thread releaser([&] {
    // Give the waiter time to fire its (ineffective) timeout, then release.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release_now.store(true);
  });
  EXPECT_EQ(lock.Acquire(), Status::kOk);
  holder.join();
  releaser.join();
  lock.Release();
}

TEST_F(TxnLockTest, DeadlockBrokenByTimeout) {
  // Classic ABBA deadlock between two transactions; the time-out mechanism
  // must let at least one make progress and both terminate.
  TxnLock lock_a("a", FastTimeout());
  TxnLock lock_b("b", FastTimeout());
  std::atomic<int> completed{0};
  std::atomic<int> aborted{0};

  auto worker = [&](TxnLock& first, TxnLock& second) {
    TxnManager manager;
    Transaction* txn = manager.Begin();
    if (!IsOk(first.Acquire())) {
      manager.Abort(txn, Status::kTxnTimedOut);
      ++aborted;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const Status second_status = second.Acquire();
    if (!IsOk(second_status) || TxnManager::AbortPending()) {
      manager.Abort(txn, Status::kTxnTimedOut);
      ++aborted;
      return;
    }
    EXPECT_EQ(manager.Commit(txn), Status::kOk);
    ++completed;
  };

  std::thread t1([&] { worker(lock_a, lock_b); });
  std::thread t2([&] { worker(lock_b, lock_a); });
  t1.join();
  t2.join();

  // Both finished (no hang — reaching here proves it) and no lock leaked.
  EXPECT_EQ(completed.load() + aborted.load(), 2);
  EXPECT_FALSE(lock_a.held());
  EXPECT_FALSE(lock_b.held());
}

TEST_F(TxnLockTest, DoomedWaiterUnwindsInsteadOfBlocking) {
  // A waiter whose own transaction got an abort request must return
  // kTxnAborted rather than keep waiting.
  TxnLock lock("l", FastTimeout());
  ASSERT_EQ(lock.Acquire(), Status::kOk);  // Main thread holds (no txn).

  std::atomic<bool> waiter_started{false};
  std::thread waiter([&] {
    TxnManager manager;
    Transaction* txn = manager.Begin();
    waiter_started.store(true);
    txn->RequestAbort(Status::kTxnAborted);
    EXPECT_EQ(lock.Acquire(), Status::kTxnAborted);
    manager.Abort(txn, Status::kTxnAborted);
  });
  waiter.join();
  EXPECT_TRUE(waiter_started.load());
  lock.Release();
}

TEST_F(TxnLockTest, TryAcquireRegistersWithTransaction) {
  TxnLock lock("l");
  Transaction* txn = manager_.Begin();
  EXPECT_EQ(lock.TryAcquire(), Status::kOk);
  EXPECT_EQ(txn->lock_count(), 1u);
  lock.Release();              // Deferred: 2PL.
  EXPECT_TRUE(lock.held());
  EXPECT_EQ(manager_.Commit(txn), Status::kOk);
  EXPECT_FALSE(lock.held());
}

TEST_F(TxnLockTest, GuardReleasesOnScopeExit) {
  TxnLock lock("l");
  {
    TxnLockGuard guard(lock);
    EXPECT_EQ(guard.status(), Status::kOk);
    EXPECT_TRUE(lock.held());
  }
  EXPECT_FALSE(lock.held());
}

}  // namespace
}  // namespace vino
