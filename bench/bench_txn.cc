// §3.1/§4.6 transaction micro-costs, as google-benchmark micros:
//  * transaction begin+commit and begin+abort (the tables' fixed overhead),
//  * nested begin+commit,
//  * undo-entry push,
//  * TxnSet accessor vs. a plain store,
//  * TxnLock acquire/release vs. a plain std::mutex — the paper's "each use
//    of a transaction lock instead of a conventional kernel mutex lock adds
//    approximately 19us".

#include <benchmark/benchmark.h>

#include <mutex>

#include "bench/gbench_main.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

void BM_BeginCommit(benchmark::State& state) {
  TxnManager manager;
  for (auto _ : state) {
    Transaction* txn = manager.Begin();
    benchmark::DoNotOptimize(manager.Commit(txn));
  }
}
BENCHMARK(BM_BeginCommit);

void BM_BeginAbort(benchmark::State& state) {
  TxnManager manager;
  for (auto _ : state) {
    Transaction* txn = manager.Begin();
    manager.Abort(txn, Status::kTxnAborted);
  }
}
BENCHMARK(BM_BeginAbort);

void BM_NestedBeginCommit(benchmark::State& state) {
  TxnManager manager;
  Transaction* outer = manager.Begin();
  for (auto _ : state) {
    Transaction* inner = manager.Begin();
    benchmark::DoNotOptimize(manager.Commit(inner));
  }
  manager.Abort(outer, Status::kTxnAborted);
}
BENCHMARK(BM_NestedBeginCommit);

void BM_UndoPush(benchmark::State& state) {
  // One word restore, the entry TxnSet pushes.
  TxnManager manager;
  static uint64_t slot = 0;
  Transaction* txn = manager.Begin();
  for (auto _ : state) {
    txn->undo().Push([p = &slot, old_value = slot] { *p = old_value; });
    if (txn->undo().size() >= 4096) {
      state.PauseTiming();
      manager.Abort(txn, Status::kTxnAborted);
      txn = manager.Begin();
      state.ResumeTiming();
    }
  }
  manager.Abort(txn, Status::kTxnAborted);
}
BENCHMARK(BM_UndoPush);

void BM_PlainStore(benchmark::State& state) {
  static uint64_t slot = 0;
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(slot = ++v);
  }
}
BENCHMARK(BM_PlainStore);

void BM_TxnSetInsideTxn(benchmark::State& state) {
  TxnManager manager;
  static uint64_t slot = 0;
  Transaction* txn = manager.Begin();
  uint64_t v = 0;
  for (auto _ : state) {
    TxnSet(&slot, ++v);
    if (txn->undo().size() >= 4096) {
      state.PauseTiming();
      manager.Abort(txn, Status::kTxnAborted);
      txn = manager.Begin();
      state.ResumeTiming();
    }
  }
  manager.Abort(txn, Status::kTxnAborted);
}
BENCHMARK(BM_TxnSetInsideTxn);

void BM_StdMutexLockUnlock(benchmark::State& state) {
  std::mutex m;
  for (auto _ : state) {
    m.lock();
    m.unlock();
  }
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_TxnLockNoTransaction(benchmark::State& state) {
  TxnLock lock("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(lock.Acquire());
    lock.Release();
  }
}
BENCHMARK(BM_TxnLockNoTransaction);

void BM_TxnLockInsideTransaction(benchmark::State& state) {
  // The full 2PL cycle: acquire inside a transaction; release happens at
  // commit. This is the paper's "transaction lock" cost.
  TxnManager manager;
  TxnLock lock("bench");
  for (auto _ : state) {
    Transaction* txn = manager.Begin();
    benchmark::DoNotOptimize(lock.Acquire());
    lock.Release();  // Deferred.
    benchmark::DoNotOptimize(manager.Commit(txn));
  }
}
BENCHMARK(BM_TxnLockInsideTransaction);

void BM_AbortWithLocks(benchmark::State& state) {
  TxnManager manager;
  std::vector<std::unique_ptr<TxnLock>> locks;
  for (int64_t i = 0; i < state.range(0); ++i) {
    locks.push_back(std::make_unique<TxnLock>("l" + std::to_string(i)));
  }
  for (auto _ : state) {
    Transaction* txn = manager.Begin();
    for (auto& lock : locks) {
      benchmark::DoNotOptimize(lock->Acquire());
    }
    manager.Abort(txn, Status::kTxnAborted);
  }
}
BENCHMARK(BM_AbortWithLocks)->Arg(0)->Arg(1)->Arg(4)->Arg(16);

}  // namespace
}  // namespace vino

int main(int argc, char** argv) { return vino::RunGbenchMain(argc, argv); }
