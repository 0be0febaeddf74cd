// WorkerPool: the bounded pool under async event dispatch. Core contract:
// a submitted task runs exactly once in every configuration — pool worker,
// inline on a saturated queue, inline after shutdown — and Drain()/
// Shutdown() never strand queued work.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/base/worker_pool.h"

namespace vino {
namespace {

TEST(WorkerPoolTest, ExecutesEverySubmittedTask) {
  WorkerPool::Config config;
  config.workers = 4;
  WorkerPool pool(config);
  std::atomic<int> runs{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&runs] { runs.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(runs.load(), 1000);
  const auto s = pool.stats();
  EXPECT_EQ(s.submitted, 1000u);
  EXPECT_EQ(s.executed + s.inline_runs, 1000u);
}

TEST(WorkerPoolTest, ZeroWorkerConfigGetsHardwareSizedPool) {
  WorkerPool pool(WorkerPool::Config{});
  EXPECT_GE(pool.worker_count(), 2u);
}

TEST(WorkerPoolTest, SaturationRunsInlineAndNeverDrops) {
  // One worker, wedged; capacity 2. Further submits must run on the
  // submitting thread instead of vanishing.
  WorkerPool::Config config;
  config.workers = 1;
  config.queue_capacity = 2;
  WorkerPool pool(config);

  std::atomic<bool> release{false};
  std::atomic<int> runs{0};
  pool.Submit([&release] {
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<int> ran_on_this_thread{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&runs, &ran_on_this_thread, self] {
      runs.fetch_add(1);
      if (std::this_thread::get_id() == self) {
        ran_on_this_thread.fetch_add(1);
      }
    });
  }
  release.store(true);
  pool.Drain();
  EXPECT_EQ(runs.load(), 10);
  EXPECT_GT(ran_on_this_thread.load(), 0);  // Saturation → inline fallback.
  const auto s = pool.stats();
  EXPECT_GT(s.inline_runs, 0u);
  EXPECT_EQ(s.executed + s.inline_runs, 11u);
  EXPECT_LE(s.peak_queue_depth, 2u);
}

TEST(WorkerPoolTest, ShutdownRunsQueuedTasksThenGoesInline) {
  WorkerPool::Config config;
  config.workers = 1;
  config.queue_capacity = 64;
  WorkerPool pool(config);
  std::atomic<int> runs{0};
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&runs] { runs.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(runs.load(), 32);  // Queued work completed before join.

  // Post-shutdown submission still executes — on the caller.
  pool.Submit([&runs] { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 33);
  EXPECT_GE(pool.stats().inline_runs, 1u);
}

TEST(WorkerPoolTest, ConcurrentSubmittersAllComplete) {
  WorkerPool::Config config;
  config.workers = 3;
  config.queue_capacity = 8;  // Small: force the inline path under load.
  WorkerPool pool(config);
  std::atomic<int> runs{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 8; ++t) {
    submitters.emplace_back([&pool, &runs] {
      for (int i = 0; i < 250; ++i) {
        pool.Submit([&runs] { runs.fetch_add(1); });
      }
    });
  }
  for (auto& t : submitters) {
    t.join();
  }
  pool.Drain();
  EXPECT_EQ(runs.load(), 8 * 250);
  EXPECT_LE(pool.stats().peak_active_workers, 3u);
}

TEST(WorkerPoolTest, DrainWaitsForExecutingTask) {
  WorkerPool::Config config;
  config.workers = 2;
  WorkerPool pool(config);
  std::atomic<bool> finished{false};
  pool.Submit([&finished] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.store(true);
  });
  pool.Drain();
  EXPECT_TRUE(finished.load());
}

}  // namespace
}  // namespace vino
