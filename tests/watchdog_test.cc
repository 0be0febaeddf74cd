// Watchdog tests: the §4.5 clock-boundary time-out mechanism, standalone
// and integrated with graft invocation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
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

TEST(WatchdogTest, FiresAfterBudgetExpires) {
  Watchdog dog(/*tick=*/1'000);  // 1 ms ticks for fast tests.
  TxnManager manager;
  Transaction* txn = manager.Begin();

  (void)dog.Arm(/*budget=*/2'000, Status::kTxnTimedOut);
  // Spin at preemption points until the abort lands.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!TxnManager::AbortPending()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "watchdog never fired";
    std::this_thread::yield();
  }
  EXPECT_EQ(txn->abort_reason(), Status::kTxnTimedOut);
  EXPECT_GE(dog.fires(), 1u);
  manager.Abort(txn, txn->abort_reason());
}

TEST(WatchdogTest, DisarmPreventsFiring) {
  Watchdog dog(1'000);
  const uint64_t token = dog.Arm(2'000);
  dog.Disarm(token);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(dog.fires(), 0u);
  EXPECT_EQ(KernelContext::Current().pending_abort.load(), 0);
}

TEST(WatchdogTest, DisarmAfterExpiryIsSafe) {
  Watchdog dog(1'000);
  const uint64_t token = dog.Arm(500);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GE(dog.fires(), 1u);
  dog.Disarm(token);  // No-op, no crash.
  // Consume the posted abort so later tests see clean context state.
  KernelContext::Current().pending_abort.store(0);
}

TEST(WatchdogTest, ScopeDisarmsOnExit) {
  Watchdog dog(1'000);
  {
    Watchdog::Scope scope(dog, 1'000'000);  // Generous budget, never fires.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(dog.fires(), 0u);
}

TEST(WatchdogTest, MultipleTimersIndependent) {
  Watchdog dog(1'000);
  const uint64_t keep = dog.Arm(1'000'000);
  (void)dog.Arm(500);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_EQ(dog.fires(), 1u);  // Only the short one fired.
  dog.Disarm(keep);
  KernelContext::Current().pending_abort.store(0);
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
  { Watchdog::Scope scope(*dog, 1'000'000); }
  { Watchdog::Scope scope(other, 1'000'000); }
  dog.reset();
  dog.emplace(1'000);

  (void)dog->Arm(500);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (dog->fires() + other.fires() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(dog->fires(), 1u);
  EXPECT_EQ(other.fires(), 0u);
  KernelContext::Current().pending_abort.store(0);
}

TEST(WatchdogTest, ThreadsBeyondTheListTableShareLists) {
  // More threads arm one watchdog at once than it has lists (256), so the
  // last ones share lists, as does this thread. Sharing costs contention,
  // never correctness: disarmed budgets stay silent, an expiring one fires
  // once.
  constexpr int kThreads = 300;
  Watchdog dog(1'000);
  std::latch all_armed(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const uint64_t token = dog.Arm(1'000'000);
      all_armed.arrive_and_wait();  // All alive at once: no id is reused.
      dog.Disarm(token);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(dog.fires(), 0u);

  (void)dog.Arm(500);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (dog.fires() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(dog.fires(), 1u);
  KernelContext::Current().pending_abort.store(0);
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
  spin.instrumented = true;  // Hand-built; fine for a direct Replace.
  spin.sandbox_log2 = 16;
  ASSERT_EQ(point.Replace(std::make_shared<Graft>("spin", spin, kRoot, 4096)),
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
