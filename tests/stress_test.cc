// Concurrency stress: many threads running transactions over a shared set
// of TxnLocks with random lock orders. The time-out mechanism must
// guarantee global forward progress (every thread finishes) and the
// accounting must balance — no lock leaked, no undo misapplied.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/resource/account.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

TEST(StressTest, ManyThreadsRandomLockOrdersAlwaysTerminate) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  constexpr int kLocks = 3;

  TxnLock::Options options;
  options.contention_timeout = 2'000;
  options.poll_quantum = 200;
  std::array<std::unique_ptr<TxnLock>, kLocks> locks;
  for (int i = 0; i < kLocks; ++i) {
    locks[static_cast<size_t>(i)] =
        std::make_unique<TxnLock>("stress." + std::to_string(i), options);
  }

  // Shared state mutated under lock 0, with undo logging; committed
  // increments must all survive, aborted ones must all vanish.
  static std::atomic<uint64_t> committed_expected{0};
  static uint64_t shared_counter = 0;
  committed_expected = 0;
  shared_counter = 0;

  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&locks, t, &finished] {
      TxnManager manager;
      Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
      for (int round = 0; round < kRounds; ++round) {
        Transaction* txn = manager.Begin();
        bool doomed = false;

        // Acquire 1-3 locks in a random order (deadlock-prone by design).
        const int want = static_cast<int>(rng.Range(1, kLocks));
        size_t order[kLocks] = {0, 1, 2};
        std::swap(order[0], order[rng.Below(kLocks)]);
        std::swap(order[1], order[1 + rng.Below(kLocks - 1)]);
        bool holds_zero = false;
        for (int i = 0; i < want && !doomed; ++i) {
          const Status s = locks[order[static_cast<size_t>(i)]]->Acquire();
          if (!IsOk(s)) {
            doomed = true;
          } else if (order[static_cast<size_t>(i)] == 0) {
            holds_zero = true;
          }
        }

        if (!doomed && holds_zero) {
          TxnSet(&shared_counter, shared_counter + 1);
        }
        if (!doomed && rng.Chance(0.1)) {
          // Simulate a graft hoarding: wait for someone to time us out,
          // but give up quickly if nobody contends.
          for (int spin = 0; spin < 20 && !TxnManager::AbortPending(); ++spin) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }

        if (doomed || TxnManager::AbortPending()) {
          manager.Abort(txn, Status::kTxnTimedOut);
        } else {
          if (IsOk(manager.Commit(txn)) && holds_zero) {
            committed_expected.fetch_add(1);
          }
        }
      }
      finished.fetch_add(1);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // Everyone terminated (reaching here proves no deadlock) and no lock is
  // still held.
  EXPECT_EQ(finished.load(), kThreads);
  for (const auto& lock : locks) {
    EXPECT_FALSE(lock->held()) << lock->name();
  }
  // Undo soundness under concurrency: the counter equals the number of
  // increments whose transaction committed.
  EXPECT_EQ(shared_counter, committed_expected.load());
}

TEST(StressTest, ConcurrentTransactionsIndependentPerThread) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  TxnManager manager;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager] {
      for (int i = 0; i < kPerThread; ++i) {
        Transaction* txn = manager.Begin();
        Transaction* nested = manager.Begin();
        if ((i & 1) != 0) {
          ASSERT_EQ(manager.Commit(nested), Status::kOk);
          ASSERT_EQ(manager.Commit(txn), Status::kOk);
        } else {
          manager.Abort(nested, Status::kTxnAborted);
          manager.Abort(txn, Status::kTxnAborted);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const TxnStats stats = manager.stats();
  EXPECT_EQ(stats.begins, static_cast<uint64_t>(kThreads) * kPerThread * 2);
  EXPECT_EQ(stats.commits + stats.aborts, stats.begins);
  EXPECT_EQ(stats.nested_begins, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(StressTest, SponsoredChargesRaceWithoutOvercommit) {
  ResourceAccount sponsor("sponsor");
  sponsor.SetLimit(ResourceType::kMemory, 10'000);
  std::array<std::unique_ptr<ResourceAccount>, 4> grafts;
  for (size_t i = 0; i < grafts.size(); ++i) {
    grafts[i] = std::make_unique<ResourceAccount>("g" + std::to_string(i));
    ASSERT_EQ(grafts[i]->BillTo(&sponsor), Status::kOk);
  }
  std::atomic<uint64_t> granted{0};
  std::vector<std::thread> threads;
  for (auto& graft : grafts) {
    threads.emplace_back([&graft, &granted] {
      for (int i = 0; i < 5000; ++i) {
        if (IsOk(graft->Charge(ResourceType::kMemory, 1))) {
          granted.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(granted.load(), 10'000u);
  EXPECT_EQ(sponsor.usage(ResourceType::kMemory), 10'000u);
}

// A charge walks the billing chain without taking any account's mutex, so
// the walk races BillTo. Every charge must still land on the root of one of
// the two chains the middle account is billed along, never on an account
// in the middle of a chain or outside both.
TEST(StressTest, ChargesFollowAChainThatIsBeingRebilled) {
  ResourceAccount root_a("root-a");
  ResourceAccount root_b("root-b");
  ResourceAccount middle("middle");
  ResourceAccount leaf("leaf");
  ResourceAccount outsider("outsider");
  for (ResourceAccount* a : {&root_a, &root_b, &middle, &leaf, &outsider}) {
    a->SetLimit(ResourceType::kMemory, 1'000'000);
  }
  ASSERT_EQ(middle.BillTo(&root_a), Status::kOk);
  ASSERT_EQ(leaf.BillTo(&middle), Status::kOk);

  constexpr uint64_t kCharges = 20'000;
  std::atomic<bool> charging{true};
  std::thread rebiller([&] {
    for (int i = 0; charging.load(std::memory_order_relaxed); ++i) {
      EXPECT_EQ(middle.BillTo(i % 2 == 0 ? &root_b : &root_a), Status::kOk);
    }
  });
  uint64_t granted = 0;
  for (uint64_t i = 0; i < kCharges; ++i) {
    granted += IsOk(leaf.Charge(ResourceType::kMemory, 1)) ? 1 : 0;
  }
  charging.store(false, std::memory_order_relaxed);
  rebiller.join();

  EXPECT_EQ(granted, kCharges);
  EXPECT_EQ(root_a.usage(ResourceType::kMemory) +
                root_b.usage(ResourceType::kMemory),
            kCharges);
  EXPECT_EQ(middle.usage(ResourceType::kMemory), 0u);
  EXPECT_EQ(leaf.usage(ResourceType::kMemory), 0u);
  EXPECT_EQ(outsider.usage(ResourceType::kMemory), 0u);
}

}  // namespace
}  // namespace vino
