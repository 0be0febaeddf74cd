// Figures 4 and 5: the price of encapsulating policy decisions behind
// indirections. "On our system, function calls typically cost approximately
// 35 cycles at 8.3 ns/cycle; these add up remarkably quickly."
//
// BM_SimpleGetLock is Figure 4 (hard-coded policy); BM_PolicyGetLock is
// Figure 5 with the default policies behind std::function indirections;
// BM_PolicyGetLockFairPolicy installs a non-default grant policy.
// BM_SimpleGetLockSharedTable prices what threads on one table share.
//
// main() starts and joins one thread before any row runs. glibc takes a
// cheaper mutex path until a process starts its first thread (a std::mutex
// lock+unlock read ~10 ns before and ~24 ns after on a 4-vCPU Xeon VM), so
// without it the rows would price the lock table below what the
// multi-threaded kernel pays, and a multi-threaded row would shift every
// row after it.

#include <benchmark/benchmark.h>

#include <thread>

#include "bench/gbench_main.h"
#include "src/lockmgr/lock_manager.h"

namespace vino {
namespace {

void BM_SimpleGetLock(benchmark::State& state) {
  SimpleLockManager mgr;
  uint64_t holder = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.GetLock(7, holder, LockMode::kShared));
    benchmark::DoNotOptimize(mgr.ReleaseLock(7, holder));
    ++holder;
  }
}
BENCHMARK(BM_SimpleGetLock);

void BM_PolicyGetLock(benchmark::State& state) {
  PolicyLockManager mgr;
  uint64_t holder = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.GetLock(7, holder, LockMode::kShared));
    benchmark::DoNotOptimize(mgr.ReleaseLock(7, holder));
    ++holder;
  }
}
BENCHMARK(BM_PolicyGetLock);

void BM_PolicyGetLockFairPolicy(benchmark::State& state) {
  PolicyLockManager mgr;
  mgr.SetGrantPolicy(&PolicyLockManager::FairGrantPolicy);
  uint64_t holder = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.GetLock(7, holder, LockMode::kShared));
    benchmark::DoNotOptimize(mgr.ReleaseLock(7, holder));
    ++holder;
  }
}
BENCHMARK(BM_PolicyGetLockFairPolicy);

void BM_SimpleContended(benchmark::State& state) {
  // Writer held; each iteration queues and dequeues a waiter, exercising
  // the queue-policy decision point.
  SimpleLockManager mgr;
  benchmark::DoNotOptimize(mgr.GetLock(7, 1, LockMode::kExclusive));
  uint64_t holder = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.GetLock(7, holder, LockMode::kExclusive));
    benchmark::DoNotOptimize(mgr.ReleaseLock(7, 1));  // Promotes the waiter.
    benchmark::DoNotOptimize(mgr.GetLock(7, 1, LockMode::kExclusive));  // Queues.
    benchmark::DoNotOptimize(mgr.ReleaseLock(7, holder));  // Promotes 1.
    ++holder;
  }
}
BENCHMARK(BM_SimpleContended);

void BM_PolicyContended(benchmark::State& state) {
  PolicyLockManager mgr;
  benchmark::DoNotOptimize(mgr.GetLock(7, 1, LockMode::kExclusive));
  uint64_t holder = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.GetLock(7, holder, LockMode::kExclusive));
    benchmark::DoNotOptimize(mgr.ReleaseLock(7, 1));
    benchmark::DoNotOptimize(mgr.GetLock(7, 1, LockMode::kExclusive));
    benchmark::DoNotOptimize(mgr.ReleaseLock(7, holder));
    ++holder;
  }
}
BENCHMARK(BM_PolicyContended);

void BM_PlainFunctionCall(benchmark::State& state) {
  // Reference point for the "~35 cycles per call" framing.
  auto fn = +[](uint64_t x) { return x + 1; };
  volatile auto fp = fn;
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v = fp(v));
  }
}
BENCHMARK(BM_PlainFunctionCall);

void BM_StdFunctionCall(benchmark::State& state) {
  std::function<uint64_t(uint64_t)> fn = [](uint64_t x) { return x + 1; };
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v = fn(v));
  }
}
BENCHMARK(BM_StdFunctionCall);

void BM_SimpleGetLockSharedTable(benchmark::State& state) {
  // BM_SimpleGetLock with every thread on one table, each on a resource of
  // its own: threads:2 against threads:1 is what the table's shared state
  // (shard mutexes, shard cache lines) costs two uncontended clients.
  // Resources 7 and 8 hash to shards 7 and 6.
  static SimpleLockManager mgr;
  const auto resource = static_cast<LockResourceId>(7 + state.thread_index());
  uint64_t holder = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mgr.GetLock(resource, holder, LockMode::kShared));
    benchmark::DoNotOptimize(mgr.ReleaseLock(resource, holder));
    ++holder;
  }
}
BENCHMARK(BM_SimpleGetLockSharedTable)->Threads(2)->Threads(1);

}  // namespace
}  // namespace vino

int main(int argc, char** argv) {
  std::thread([] {}).join();
  return vino::RunGbenchMain(argc, argv);
}
