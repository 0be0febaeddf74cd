// Watchdog tests: the §4.5 clock-boundary time-out mechanism, standalone
// and integrated with graft invocation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "src/base/context.h"
#include "src/graft/function_point.h"
#include "src/txn/txn_manager.h"
#include "src/txn/watchdog.h"

namespace vino {
namespace {

constexpr GraftIdentity kRoot{0, true};

// Polls the calling thread's preemption point until it reports an abort, or
// five seconds pass. Returns whether the abort came.
bool SpinUntilAbortPending() {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!TxnManager::AbortPending()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(WatchdogTest, FiresAfterBudgetExpires) {
  Watchdog dog(/*tick=*/1'000);  // 1 ms ticks for fast tests.
  TxnManager manager;
  Transaction* txn = manager.Begin();
  {
    Watchdog::Scope scope(dog, /*budget=*/2'000);
    ASSERT_TRUE(SpinUntilAbortPending()) << "watchdog never fired";
    EXPECT_EQ(txn->abort_reason(), Status::kTxnTimedOut);
    EXPECT_EQ(dog.fires(), 1u);
    manager.Abort(txn, txn->abort_reason());
  }
  EXPECT_EQ(dog.fires(), 1u);  // Counted once, however often it is seen.
}

TEST(WatchdogTest, BudgetNeverFiresBeforeItIsDue) {
  // Budgets shorter than, between and longer than whole ticks.
  Watchdog dog(1'000);
  TxnManager manager;
  for (const Micros budget : {Micros{1}, Micros{1'500}, Micros{4'000}}) {
    Transaction* txn = manager.Begin();
    const auto armed = std::chrono::steady_clock::now();
    Watchdog::Scope scope(dog, budget);
    ASSERT_TRUE(SpinUntilAbortPending()) << "budget " << budget;
    EXPECT_GE(std::chrono::steady_clock::now() - armed,
              std::chrono::microseconds(budget))
        << "budget " << budget << " fired early";
    manager.Abort(txn, txn->abort_reason());
  }
  EXPECT_EQ(dog.fires(), 3u);
}

TEST(WatchdogTest, ClosedScopeNeverFires) {
  Watchdog dog(1'000);
  TxnManager manager;
  Transaction* txn = manager.Begin();
  { Watchdog::Scope scope(dog, 1'000); }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // Past due.
  EXPECT_FALSE(TxnManager::AbortPending());
  EXPECT_EQ(manager.Commit(txn), Status::kOk);
  EXPECT_EQ(dog.fires(), 0u);
  EXPECT_EQ(KernelContext::Current().pending_abort.load(), 0u);
}

TEST(WatchdogTest, ExpiredBudgetRefusesACommitNoPollPreceded) {
  // This thread never polls: the commit is where it notices. A helper armed
  // after it on the same watchdog polls, so once the helper's budget has
  // expired, this thread's has too.
  Watchdog dog(1'000);
  TxnManager manager;
  Transaction* txn = manager.Begin();
  Watchdog::Scope scope(dog, 1'000);
  bool helper_fired = false;
  std::thread helper([&] {
    Transaction* helper_txn = manager.Begin();
    Watchdog::Scope helper_scope(dog, 1'000);
    helper_fired = SpinUntilAbortPending();
    manager.Abort(helper_txn, Status::kTxnTimedOut);
  });
  helper.join();
  ASSERT_TRUE(helper_fired);
  EXPECT_EQ(manager.Commit(txn), Status::kTxnTimedOut);
  EXPECT_EQ(dog.fires(), 2u);
  EXPECT_EQ(manager.stats().timeout_aborts, 2u);
}

TEST(WatchdogTest, ScopeClosingAfterExpiryLeavesNoAbortBehind) {
  Watchdog dog(1'000);
  TxnManager manager;
  Transaction* txn = manager.Begin();
  {
    Watchdog::Scope scope(dog, 500);
    ASSERT_TRUE(SpinUntilAbortPending());
    manager.Abort(txn, txn->abort_reason());
  }
  Transaction* next = manager.Begin();
  EXPECT_FALSE(TxnManager::AbortPending());
  EXPECT_EQ(manager.Commit(next), Status::kOk);
  EXPECT_EQ(dog.fires(), 1u);
}

TEST(WatchdogTest, NestedScopesKeepTheEarliestExpiry) {
  // A short budget inside a long one fires alone; once it closes, the long
  // one governs again and has not expired.
  Watchdog dog(1'000);
  TxnManager manager;
  Watchdog::Scope outer(dog, 1'000'000);  // 1 s: never expires here.
  Transaction* txn = manager.Begin();
  {
    Watchdog::Scope inner(dog, 500);
    ASSERT_TRUE(SpinUntilAbortPending());
    manager.Abort(txn, txn->abort_reason());
  }
  EXPECT_EQ(dog.fires(), 1u);
  Transaction* next = manager.Begin();
  EXPECT_FALSE(TxnManager::AbortPending());
  EXPECT_EQ(manager.Commit(next), Status::kOk);
  EXPECT_EQ(dog.fires(), 1u);
}

TEST(WatchdogTest, OuterBudgetExpiringInsideNestedWorkAbortsBothLevels) {
  // A graft invocation nested in another, as the wrapper arms them: the
  // outer budget is the earlier one and expires while the inner runs. The
  // inner transaction aborts first; the outer budget is still expired, so
  // the outer transaction must not commit either.
  Watchdog dog(1'000);
  TxnManager manager;
  Transaction* outer = manager.Begin();
  Watchdog::Scope outer_budget(dog, 2'000);
  {
    Transaction* inner = manager.Begin();
    Watchdog::Scope inner_budget(dog, 1'000'000);
    ASSERT_TRUE(SpinUntilAbortPending());
    EXPECT_EQ(inner->abort_reason(), Status::kTxnTimedOut);
    manager.Abort(inner, inner->abort_reason());
  }
  EXPECT_TRUE(TxnManager::AbortPending());
  EXPECT_EQ(manager.Commit(outer), Status::kTxnTimedOut);
  EXPECT_EQ(dog.fires(), 1u);  // One budget, one fire.
}

TEST(WatchdogTest, ConcurrentScopesFireOnlyTheExpiredThread) {
  // Four threads arm and disarm in a loop, as serving clients do around
  // every invocation, while a fifth thread's budget expires. Only the fifth
  // is aborted, and the fire is counted once.
  Watchdog dog(1'000);
  TxnManager manager;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> rounds{0};
  std::atomic<uint64_t> worker_aborts{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&] {
      while (!stop.load()) {
        Transaction* txn = manager.Begin();
        {
          Watchdog::Scope scope(dog, 1'000'000);  // 1 s: never expires.
          if (TxnManager::AbortPending()) {
            ++worker_aborts;
          }
        }
        if (manager.Commit(txn) != Status::kOk) {
          ++worker_aborts;
        }
        ++rounds;
      }
    });
  }

  Status victim_reason = Status::kOk;
  std::thread victim([&] {
    Transaction* txn = manager.Begin();
    Watchdog::Scope scope(dog, 2'000);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!TxnManager::AbortPending() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    victim_reason = txn->abort_reason();
    manager.Abort(txn, Status::kTxnTimedOut);
  });
  victim.join();
  stop.store(true);
  for (std::thread& worker : workers) {
    worker.join();
  }

  EXPECT_EQ(victim_reason, Status::kTxnTimedOut);
  EXPECT_EQ(dog.fires(), 1u);
  EXPECT_EQ(worker_aborts.load(), 0u);
  EXPECT_GT(rounds.load(), 0u);
}

TEST(WatchdogTest, OneWatchdogNeverFiresAnothersBudget) {
  // Two kernels' watchdogs in one process, the second of them built where a
  // destroyed one stood. This thread has armed all three; a budget armed
  // through one is fired by that one alone.
  std::optional<Watchdog> dog;
  dog.emplace(1'000);
  Watchdog other(1'000);
  TxnManager manager;
  { Watchdog::Scope scope(*dog, 1'000'000); }
  { Watchdog::Scope scope(other, 1'000'000); }
  dog.reset();
  dog.emplace(1'000);

  Transaction* txn = manager.Begin();
  {
    Watchdog::Scope scope(*dog, 500);
    ASSERT_TRUE(SpinUntilAbortPending());
    manager.Abort(txn, txn->abort_reason());
  }
  EXPECT_EQ(dog->fires(), 1u);
  EXPECT_EQ(other.fires(), 0u);
}

TEST(WatchdogTest, ScopeOnAnotherWatchdogDisplacesUntilItCloses) {
  // An invocation at a point on another kernel's watchdog runs under that
  // budget alone; the displaced one governs again once it closes.
  Watchdog dog(1'000);
  Watchdog other(1'000);
  TxnManager manager;
  Transaction* txn = manager.Begin();
  Watchdog::Scope short_budget(dog, 1'000);
  {
    Watchdog::Scope long_budget(other, 1'000'000);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(TxnManager::AbortPending());
  }
  ASSERT_TRUE(SpinUntilAbortPending());
  EXPECT_EQ(txn->abort_reason(), Status::kTxnTimedOut);
  manager.Abort(txn, txn->abort_reason());
  EXPECT_EQ(dog.fires(), 1u);
  EXPECT_EQ(other.fires(), 0u);
}

TEST(WatchdogTest, WallBudgetAbortsNativeGraftThatBlocks) {
  // A native graft that "blocks" (sleeps in host code) cannot be stopped by
  // fuel; the wall-clock budget gets it.
  Watchdog dog(1'000);
  TxnManager txn;
  HostCallTable host;

  FunctionGraftPoint::Config config;
  config.watchdog = &dog;
  config.wall_budget = 3'000;  // 3 ms.
  FunctionGraftPoint point(
      "wd.point", [](std::span<const uint64_t>) -> uint64_t { return 7; }, config,
      &txn, &host, nullptr);

  auto sleeper = std::make_shared<Graft>(
      "sleeper",
      [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        // Poll preemption points while "processing" for far too long.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (!TxnManager::AbortPending()) {
          if (std::chrono::steady_clock::now() >= deadline) {
            return 1ull;  // Give up; the test will fail on stats below.
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        return 2ull;  // Wrapper notices AbortPending and aborts.
      },
      kRoot);
  ASSERT_EQ(point.Replace(sleeper), Status::kOk);

  EXPECT_EQ(point.Invoke({}), 7u);  // Fallback to default after abort.
  EXPECT_EQ(point.stats().graft_aborts, 1u);
  EXPECT_FALSE(point.grafted());
  EXPECT_GE(dog.fires(), 1u);
}

TEST(WatchdogTest, WallBudgetAbortsSpinningVmGraft) {
  // A VM graft with effectively unlimited fuel is still bounded in time.
  Watchdog dog(1'000);
  TxnManager txn;
  HostCallTable host;

  FunctionGraftPoint::Config config;
  config.watchdog = &dog;
  config.wall_budget = 3'000;
  config.fuel = ~0ull;  // Unlimited.
  FunctionGraftPoint point(
      "wd.vm.point", [](std::span<const uint64_t>) -> uint64_t { return 9; },
      config, &txn, &host, nullptr);

  Program spin;
  spin.name = "spin";
  spin.code.push_back(Instruction{Op::kJmp, 0, 0, 0, 0});
  spin.instrumented = true;  // Hand-built; the verifier still proves it.
  spin.sandbox_log2 = 16;
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
      "spin", *VerifyAndCompile(spin, host), kRoot, 4096)),
            Status::kOk);

  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(point.Invoke({}), 9u);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));  // Bounded by time, not fuel.
  EXPECT_GE(dog.fires(), 1u);
}

TEST(WatchdogTest, FastGraftUnaffectedByBudget) {
  Watchdog dog(1'000);
  TxnManager txn;
  HostCallTable host;
  FunctionGraftPoint::Config config;
  config.watchdog = &dog;
  config.wall_budget = 100'000;
  FunctionGraftPoint point(
      "wd.fast", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &txn, &host, nullptr);
  auto quick = std::make_shared<Graft>(
      "quick",
      [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        return 5ull;
      },
      kRoot);
  ASSERT_EQ(point.Replace(quick), Status::kOk);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(point.Invoke({}), 5u);
  }
  EXPECT_EQ(dog.fires(), 0u);
  EXPECT_EQ(point.stats().graft_aborts, 0u);
}

}  // namespace
}  // namespace vino
