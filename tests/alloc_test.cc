// Hot-path memory discipline: the steady-state safe path performs ZERO heap
// allocations. Guards the PR-2 invocation-path work (transaction recycling,
// lean undo log, unified wrapper) against regression by counting every
// global operator new between two markers. The lock table and the net
// stack's delivery are held to the same rule, alone and in the serving
// ledger's request shape.
//
// The hook lives in this dedicated test binary so the count is meaningful:
// within a measured window the only running code is the path under test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/base/trace_spool.h"
#include "src/graft/function_point.h"
#include "src/graft/invocation.h"
#include "src/graft/namespace.h"
#include "src/lockmgr/grafted_lock_manager.h"
#include "src/lockmgr/lock_manager.h"
#include "src/net/net_stack.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_manager.h"
#include "src/txn/undo_log.h"
#include "src/txn/watchdog.h"

namespace {

std::atomic<uint64_t> g_news{0};
std::atomic<uint64_t> g_deletes{0};

void CountedFree(void* p) noexcept {
  if (p != nullptr) {
    g_deletes.fetch_add(1, std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

// Replacement global allocation functions: count, then defer to malloc/free.
// (Sized/aligned/nothrow variants funnel here in libstdc++; counting the two
// base news is enough for a regression tripwire. Deletes are counted too, so
// news minus deletes is the number of blocks still live.)
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace vino {
namespace {

constexpr GraftIdentity kRoot{0, true};

uint64_t AllocCount() { return g_news.load(std::memory_order_relaxed); }

int64_t LiveBlocks() {
  return static_cast<int64_t>(g_news.load(std::memory_order_relaxed)) -
         static_cast<int64_t>(g_deletes.load(std::memory_order_relaxed));
}

class AllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::Instance().SetMinLevel(LogLevel::kError);
    // Touch the thread context (registry insert allocates once per thread).
    (void)KernelContext::Current();
  }
  TxnManager txn_;
  HostCallTable host_;
};

TEST_F(AllocTest, SteadyStateBeginCommitIsAllocationFree) {
  // Warm: first Begin news the Transaction; Commit parks it on the slab.
  for (int i = 0; i < 8; ++i) {
    Transaction* txn = txn_.Begin();
    ASSERT_EQ(txn_.Commit(txn), Status::kOk);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    Transaction* txn = txn_.Begin();
    ASSERT_EQ(txn_.Commit(txn), Status::kOk);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
}

TEST_F(AllocTest, SteadyStateAbortWithInlineUndoIsAllocationFree) {
  uint64_t slot = 0;
  // Warm: the first transaction allocates the object and its undo capacity.
  for (int i = 0; i < 8; ++i) {
    Transaction* txn = txn_.Begin();
    TxnSet(&slot, uint64_t{1});
    txn_.Abort(txn, Status::kTxnAborted);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    Transaction* txn = txn_.Begin();
    TxnSet(&slot, uint64_t{1});  // Word restore: an inline closure.
    TxnSet(&slot, uint64_t{2});
    txn_.Abort(txn, Status::kTxnAborted);
    ASSERT_EQ(slot, 0u);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
}

TEST_F(AllocTest, SteadyStateNullNativeGraftSafePathIsAllocationFree) {
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn_, &host_, nullptr);
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
                "null-native",
                [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
                  return 0ull;
                },
                kRoot)),
            Status::kOk);
  for (int i = 0; i < 8; ++i) {
    (void)point.Invoke({});  // Warm slab + stats shard.
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    (void)point.Invoke({});
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_TRUE(point.grafted()) << "graft must not have been removed";
}

TEST_F(AllocTest, WatchdogArmedSafePathIsAllocationFree) {
  // The kernel's point shape (VinoKernel::DefaultPointConfig): every
  // invocation arms and disarms the kernel's watchdog, which writes the
  // thread's own context and allocates nothing.
  Watchdog dog;
  FunctionGraftPoint::Config config;
  config.watchdog = &dog;
  config.wall_budget = 1'000'000;  // 1 s: never fires.
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 7; }, config,
      &txn_, &host_, nullptr);
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
                "null-native",
                [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
                  return 0ull;
                },
                kRoot)),
            Status::kOk);
  for (int i = 0; i < 8; ++i) {
    (void)point.Invoke({});  // Warm slab and stats shard.
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    (void)point.Invoke({});
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_TRUE(point.grafted()) << "graft must not have been removed";
  EXPECT_EQ(dog.fires(), 0u);
}

TEST_F(AllocTest, ByNameVisitWithThreeReferenceCaptureIsAllocationFree) {
  // The ledger's request loop: a by-name visit whose visitor captures three
  // references, one more than std::function's inline buffer holds.
  GraftNamespace ns;
  const std::string name = "tenant.7.policy";
  FunctionGraftPoint point(
      name, [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn_, &host_, &ns);
  const uint64_t args[2] = {1, 2};
  uint64_t result = 0;
  uint64_t visits = 0;
  const auto visit = [&] {
    return ns.WithFunction(
        name, [&args, &result, &visits](FunctionGraftPoint& p) {
          result = p.Invoke(args);
          ++visits;
          return Status::kOk;
        });
  };
  for (int i = 0; i < 8; ++i) {
    (void)visit();  // Warm the stats shard.
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(visit(), Status::kOk);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_EQ(result, 7u);
  EXPECT_EQ(visits, 10'008u);
}

TEST_F(AllocTest, SmallCaptureUndoClosureStaysInline) {
  uint64_t slot = 0;
  // 32 bytes of capture: pointer + three words — the documented budget.
  uint64_t a = 1, b = 2, c = 3;
  UndoClosure small([&slot, a, b, c] { slot = a + b + c; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(slot, 6u);

  // One word over budget: falls back to the heap but still runs.
  uint64_t d = 4;
  UndoClosure big([&slot, a, b, c, d] { slot = a + b + c + d; });
  EXPECT_FALSE(big.is_inline());
  UndoClosure moved(std::move(big));
  moved();
  EXPECT_EQ(slot, 10u);
}

TEST_F(AllocTest, SteadyStateClosureUndoAbortIsAllocationFree) {
  // Undo entries with inline-eligible captures: once the undo log is warm,
  // a capture-carrying abort path performs zero allocations (the closure's
  // small-buffer storage).
  uint64_t slot = 0;
  const auto run_once = [&] {
    Transaction* txn = txn_.Begin();
    TxnMutate([&] { slot = 1; }, [&slot] { slot = 0; });
    TxnOnAbort([&slot] { slot += 0; });
    txn_.Abort(txn, Status::kTxnAborted);
  };
  for (int i = 0; i < 8; ++i) {
    run_once();
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    run_once();
    ASSERT_EQ(slot, 0u);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
}

TEST_F(AllocTest, NestedCommitsGrowTheParentLogGeometrically) {
  // One open parent absorbs 1,000 nested one-entry commits. Each merge
  // appends to the parent's undo log, which must grow geometrically rather
  // than to exactly its new size.
  constexpr uint64_t kCommits = 1'000;
  std::vector<uint64_t> slots(kCommits, 0);
  const uint64_t before = AllocCount();
  Transaction* parent = txn_.Begin();
  for (uint64_t i = 0; i < kCommits; ++i) {
    Transaction* child = txn_.Begin();
    TxnSet(&slots[i], i + 1);
    ASSERT_EQ(txn_.Commit(child), Status::kOk);
  }
  const uint64_t allocations = AllocCount() - before;
  EXPECT_EQ(parent->undo().size(), kCommits);
  txn_.Abort(parent, Status::kTxnAborted);
  EXPECT_LE(allocations, 16u);
  for (uint64_t i = 0; i < kCommits; ++i) {
    ASSERT_EQ(slots[i], 0u) << "entry " << i << " was not replayed";
  }
}

TEST_F(AllocTest, SteadyStateDeferredActionIsAllocationFree) {
  // A deferred delete whose capture is three words, more than
  // std::function's inline buffer holds: once the transaction's deferred
  // list is warm, deferring and running it allocates nothing.
  uint64_t deletes = 0;
  uint64_t* target = &deletes;
  const uint64_t a = 1;
  const uint64_t b = 2;
  const auto run_once = [&] {
    Transaction* txn = txn_.Begin();
    TxnDeferDelete([target, a, b] { *target += b - a; });
    ASSERT_EQ(txn_.Commit(txn), Status::kOk);
  };
  for (int i = 0; i < 8; ++i) {
    run_once();
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    run_once();
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_EQ(deletes, 10'008u);
}

TEST_F(AllocTest, TracingEnabledSafePathIsAllocationFree) {
  // The flight recorder's own hot path: with tracing ON, a warmed safe path
  // (ring allocated on the thread's first post, histogram and cost-model
  // shards are plain atomics) still performs zero allocations.
  trace::SetEnabled(true);
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn_, &host_, nullptr);
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
                "null-native",
                [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
                  return 0ull;
                },
                kRoot)),
            Status::kOk);
  for (int i = 0; i < 8; ++i) {
    (void)point.Invoke({});  // Warm slab, stats shard, and trace ring.
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    (void)point.Invoke({});
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  trace::SetEnabled(false);
}

TEST_F(AllocTest, TracingEnabledAbortPathIsAllocationFree) {
  // The transaction layer's abort path with tracing on. The manager posts
  // no record and reads no clock (the invocation wrapper times it), so a
  // warmed abort stays allocation-free.
  trace::SetEnabled(true);
  uint64_t slot = 0;
  for (int i = 0; i < 8; ++i) {
    Transaction* txn = txn_.Begin();
    TxnSet(&slot, uint64_t{1});
    txn_.Abort(txn, Status::kTxnAborted);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    Transaction* txn = txn_.Begin();
    TxnSet(&slot, uint64_t{1});
    txn_.Abort(txn, Status::kTxnAborted);
    ASSERT_EQ(slot, 0u);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  trace::SetEnabled(false);
}

TEST_F(AllocTest, TracingEnabledWrapperAbortPathIsAllocationFree) {
  // A traced abort through the invocation wrapper: three clock reads, the
  // graft's abort-cost sample, the manager's abort histogram, and the
  // kInvokeEnd and kAbortCost records — none of which may allocate.
  trace::SetEnabled(true);
  uint64_t slot = 0;
  const auto graft = std::make_shared<Graft>(
      "undo-then-abort",
      [&slot](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        TxnSet(&slot, uint64_t{1});
        return Status::kTxnAborted;
      },
      kRoot);
  const GraftExecContext exec(&host_);
  for (int i = 0; i < 8; ++i) {
    (void)RunGraftInvocation(txn_, graft, {}, exec);
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(RunGraftInvocation(txn_, graft, {}, exec).status,
              Status::kTxnAborted);
    ASSERT_EQ(slot, 0u);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  trace::SetEnabled(false);
}

TEST_F(AllocTest, SteadyStateNullProgramGraftSafePathIsAllocationFree) {
  // The full safe path: transaction, account swap, Vm entry/exit, abort
  // polling, result validation, commit — still zero allocations.
  FunctionGraftPoint::Config config;
  config.validator = [](uint64_t result, std::span<const uint64_t>) {
    return result == 0;
  };
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &txn_, &host_, nullptr);
  Asm a("null");
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
      "null", *VerifyAndCompile(*inst, host_), kRoot, 4096)),
            Status::kOk);
  for (int i = 0; i < 8; ++i) {
    (void)point.Invoke({});
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    (void)point.Invoke({});
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_TRUE(point.grafted()) << "graft must not have been removed";
}

TEST_F(AllocTest, TracingAndSpoolingEnabledSafePathIsAllocationFree) {
  // The full observability stack live: tracing ON and a background
  // SpoolDrainer draining this thread's ring to disk at an aggressive
  // cadence while the safe path runs. The drain cycle is steady-state
  // allocation-free by design (reserved cursor scratch, reserved writer
  // batch, raw fd writes) — this is the gate that keeps it that way.
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = ::testing::TempDir() + "vino_alloc_spool.bin";
  options.min_interval_us = 200;  // Drain often: overlap with the window.
  options.max_interval_us = 2'000;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn_, &host_, nullptr);
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
                "null-native",
                [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
                  return 0ull;
                },
                kRoot)),
            Status::kOk);
  for (int i = 0; i < 8; ++i) {
    (void)point.Invoke({});  // Warm slab, stats shard, and trace ring.
  }
  drainer->DrainNow();  // Warm the cursor's per-ring map on this ring.
  drainer->DrainNow();

  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    (void)point.Invoke({});
  }
  drainer->DrainNow();  // At least one full drain inside the window.
  EXPECT_EQ(AllocCount() - before, 0u);

  drainer->Stop();
  EXPECT_EQ(drainer->stats().writer_status, Status::kOk);
  EXPECT_GT(drainer->stats().records, 0u);
  trace::SetEnabled(false);
  std::remove(options.path.c_str());
}

TEST_F(AllocTest, TracingEnabledProgramGraftSafePathIsAllocationFree) {
  // The pinned-Vm program path with the flight recorder live: per-point
  // execution context (no per-invocation RunOptions/Vm construction), the
  // single cached-context account swap, four TSC clock reads, and four ring
  // posts — zero allocations once warm.
  trace::SetEnabled(true);
  FunctionGraftPoint::Config config;
  config.validator = [](uint64_t result, std::span<const uint64_t>) {
    return result == 0;
  };
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &txn_, &host_, nullptr);
  Asm a("null");
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
      "null", *VerifyAndCompile(*inst, host_), kRoot, 4096)),
            Status::kOk);
  for (int i = 0; i < 8; ++i) {
    (void)point.Invoke({});  // Warm slab, stats shard, and trace ring.
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    (void)point.Invoke({});
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_TRUE(point.grafted()) << "graft must not have been removed";
  trace::SetEnabled(false);
}

// --- The lock table ------------------------------------------------------

// Allocations made by 10,000 uncontended GetLock+ReleaseLock pairs on one
// warm resource, each by a new holder.
template <typename Manager>
uint64_t UncontendedGetReleaseAllocations(Manager& mgr) {
  LockHolderId holder = 1;
  const auto pair = [&mgr, &holder] {
    EXPECT_EQ(mgr.GetLock(7, holder, LockMode::kExclusive), Status::kOk);
    EXPECT_EQ(mgr.ReleaseLock(7, holder), Status::kOk);
    ++holder;
  };
  for (int i = 0; i < 8; ++i) {
    pair();  // Warm the resource's entry (and the trace ring, if on).
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    pair();
  }
  return AllocCount() - before;
}

TEST_F(AllocTest, UncontendedGetReleaseIsAllocationFree) {
  // A drained entry stays in its shard, holder capacity kept, and an empty
  // wait queue owns no memory: the pair allocates nothing on all three
  // managers (the grafted one ungrafted, consulting its default closures).
  SimpleLockManager simple;
  PolicyLockManager policy;
  GraftNamespace ns;
  GraftedLockManager grafted("lockmgr.alloc", &txn_, &host_, &ns);
  EXPECT_EQ(UncontendedGetReleaseAllocations(simple), 0u);
  EXPECT_EQ(UncontendedGetReleaseAllocations(policy), 0u);
  EXPECT_EQ(UncontendedGetReleaseAllocations(grafted), 0u);
}

TEST_F(AllocTest, IdleLockEntriesAreBounded) {
  // One get+release on each of 100,000 resources leaves every entry idle.
  // A shard keeps at most kIdleEntriesPerShard of them, each holding two
  // blocks (its map node and its holder vector), plus its bucket array.
  SimpleLockManager mgr;
  ASSERT_EQ(mgr.GetLock(0, 1, LockMode::kShared), Status::kOk);  // Trace ring.
  ASSERT_EQ(mgr.ReleaseLock(0, 1), Status::kOk);
  const int64_t before = LiveBlocks();
  for (LockResourceId r = 0; r < 100'000; ++r) {
    ASSERT_EQ(mgr.GetLock(r, 1, LockMode::kExclusive), Status::kOk);
    ASSERT_EQ(mgr.ReleaseLock(r, 1), Status::kOk);
  }
  constexpr int64_t kBound = static_cast<int64_t>(
      LockTable::kShardCount * (2 * LockTable::kIdleEntriesPerShard + 1));
  EXPECT_LE(LiveBlocks() - before, kBound);
  // Every entry, kept or erased, answers as an absent one.
  for (LockResourceId r = 0; r < 100'000; r += 997) {
    ASSERT_FALSE(mgr.Holds(r, 1));
    ASSERT_EQ(mgr.WaiterCount(r), 0u);
  }
}

TEST_F(AllocTest, DrainedQueueEntryIsReusedAllocationFree) {
  // A resource that had a queue: its entry drains, goes idle, and then
  // serves uncontended pairs with no allocation, and its queue still
  // promotes in FIFO order.
  SimpleLockManager mgr;
  const auto contend = [&mgr] {
    ASSERT_EQ(mgr.GetLock(7, 1, LockMode::kExclusive), Status::kOk);
    ASSERT_EQ(mgr.GetLock(7, 2, LockMode::kExclusive), Status::kBusy);
    ASSERT_EQ(mgr.GetLock(7, 3, LockMode::kExclusive), Status::kBusy);
    ASSERT_EQ(mgr.WaiterCount(7), 2u);
    ASSERT_EQ(mgr.ReleaseLock(7, 1), Status::kOk);
    EXPECT_TRUE(mgr.Holds(7, 2));  // First in, first promoted.
    EXPECT_FALSE(mgr.Holds(7, 3));
    ASSERT_EQ(mgr.ReleaseLock(7, 2), Status::kOk);
    EXPECT_TRUE(mgr.Holds(7, 3));
    ASSERT_EQ(mgr.ReleaseLock(7, 3), Status::kOk);
    EXPECT_EQ(mgr.WaiterCount(7), 0u);
  };
  contend();
  const uint64_t before = AllocCount();
  for (LockHolderId holder = 100; holder < 10'100; ++holder) {
    ASSERT_EQ(mgr.GetLock(7, holder, LockMode::kExclusive), Status::kOk);
    ASSERT_EQ(mgr.ReleaseLock(7, holder), Status::kOk);
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  contend();
}

// --- A whole serving request ----------------------------------------------

// The echo handler: recv the request into the arena, send it back, close.
std::shared_ptr<Graft> EchoHandler(const HostCallTable& host) {
  constexpr int64_t kArena = 65536;  // Default arena, 4 KB kernel region.
  Asm a("echo");
  a.Mov(R6, R0);
  a.LoadImm(R1, kArena);
  a.LoadImm(R2, 1024);
  a.Call(host.IdOf("net.recv").value());
  a.Mov(R2, R0);
  a.Mov(R0, R6);
  a.LoadImm(R1, kArena);
  a.Call(host.IdOf("net.send").value());
  a.Mov(R0, R6);
  a.Call(host.IdOf("net.close").value());
  a.LoadImm(R0, 1);
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  EXPECT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>(
      "echo", *VerifyAndCompile(*inst, host), kRoot, 4096);
  graft->account().SetLimit(ResourceType::kNetBandwidth, uint64_t{1} << 40);
  return graft;
}

TEST_F(AllocTest, ServingRequestIsAllocationFree) {
  // The serving ledger's request: a by-name invoke of a grafted point that
  // arms the watchdog, a lock, an HTTP-style delivery whose handler
  // replies through net.send, the reply's lookup, and the release.
  Watchdog dog;
  GraftNamespace ns;
  NetStack net(&txn_, &host_, &ns);
  SimpleLockManager locks;
  FunctionGraftPoint::Config config;
  config.watchdog = &dog;
  config.wall_budget = 1'000'000;  // 1 s: never fires.
  const std::string name = "tenant.7.policy";
  FunctionGraftPoint point(
      name, [](std::span<const uint64_t>) -> uint64_t { return 7; }, config,
      &txn_, &host_, &ns);
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
                "null-native",
                [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
                  return 0ull;
                },
                kRoot)),
            Status::kOk);
  constexpr uint16_t kPort = 2007;
  ASSERT_EQ(net.ListenTcp(kPort)->AddHandler(EchoHandler(host_), 0),
            Status::kOk);
  static constexpr char kRequest[] = "GET / HTTP/1.0\r\n\r\n";  // The ledger's.

  const uint64_t args[2] = {1, 7};
  uint64_t failures = 0;
  LockHolderId holder = 0;
  const auto request = [&] {
    uint64_t result = 1;
    const Status looked = ns.WithFunction(name, [&](FunctionGraftPoint& p) {
      result = p.Invoke(args);
      return Status::kOk;
    });
    ++holder;
    const LockResourceId resource = holder % 16;
    const Status got = locks.GetLock(resource, holder, LockMode::kShared);
    const Result<ConnectionId> conn = net.DeliverConnection(kPort, kRequest);
    const Connection* reply = conn.ok() ? net.FindConnection(*conn) : nullptr;
    const Status released = locks.ReleaseLock(resource, holder);
    if (looked != Status::kOk || result != 0 || got != Status::kOk ||
        reply == nullptr || reply->tx != kRequest || released != Status::kOk) {
      ++failures;
    }
  };
  // Warm a whole lap of the connection ring: each slot's request and reply
  // buffers grow on the slot's first use and are kept after it.
  for (size_t i = 0; i < NetStack::kRingSlots + 64; ++i) {
    request();
  }
  const uint64_t before = AllocCount();
  for (int i = 0; i < 10'000; ++i) {
    request();
  }
  EXPECT_EQ(AllocCount() - before, 0u);
  EXPECT_EQ(failures, 0u);
  EXPECT_TRUE(point.grafted());
  EXPECT_EQ(dog.fires(), 0u);
}

}  // namespace
}  // namespace vino
