// Edge cases and hostile inputs across modules: memory-image boundaries,
// interpreter corner cases, multi-block file reads, concurrent event
// dispatch.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/fs/file_system.h"
#include "src/graft/event_point.h"
#include "src/graft/namespace.h"
#include "src/sfi/assembler.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

constexpr GraftIdentity kRoot{0, true};

// --- MemoryImage boundaries ---------------------------------------------

TEST(MemoryImageTest, ArenaAlignedToItsSize) {
  for (uint32_t log2 : {4u, 12u, 16u, 20u}) {
    MemoryImage image(5000, log2);
    EXPECT_EQ(image.arena_base() % image.arena_size(), 0u) << log2;
    EXPECT_GE(image.arena_base(), image.kernel_size());
    EXPECT_EQ(image.arena_size(), uint64_t{1} << log2);
  }
}

TEST(MemoryImageTest, ArenaNeverAtAddressZero) {
  MemoryImage image(0, 16);  // Even with an empty kernel region.
  EXPECT_GT(image.arena_base(), 0u);
}

TEST(MemoryImageTest, GuardBytesAbsorbWideAccessAtArenaEnd) {
  MemoryImage image(4096, 12);
  const uint64_t last_byte = image.arena_base() + image.arena_size() - 1;
  // An 8-byte access at the final arena byte stays in bounds (guard).
  EXPECT_TRUE(image.InBounds(last_byte, 8));
  // But it is not "in arena" (host-call destination checks still refuse).
  EXPECT_FALSE(image.InArena(last_byte, 8));
  EXPECT_TRUE(image.InArena(last_byte, 1));
}

TEST(MemoryImageTest, CheckedAccessorsRejectOutOfBounds) {
  MemoryImage image(4096, 12);
  uint8_t buf[16] = {};
  EXPECT_EQ(image.Read(image.total_size(), buf, 1), Status::kOutOfRange);
  EXPECT_EQ(image.Write(image.total_size() - 4, buf, 8), Status::kOutOfRange);
  EXPECT_EQ(image.Read(~0ull, buf, 1), Status::kOutOfRange);
  // Overflow-probing length.
  EXPECT_EQ(image.Read(8, buf, ~0ull), Status::kOutOfRange);
}

TEST(MemoryImageTest, InArenaRejectsOverflowingRanges) {
  MemoryImage image(4096, 12);
  EXPECT_FALSE(image.InArena(image.arena_base(), image.arena_size() + 1));
  EXPECT_FALSE(image.InArena(~0ull, 1));
  EXPECT_TRUE(image.InArena(image.arena_base(), image.arena_size()));
}

// --- Interpreter corner cases ---------------------------------------------

class VmEdgeTest : public ::testing::Test {
 protected:
  VmEdgeTest() : image_(4096, 16), vm_(&host_) {}
  HostCallTable host_;
  MemoryImage image_;
  Vm vm_;
};

TEST_F(VmEdgeTest, EmptyProgramRejected) {
  Program p;
  EXPECT_EQ(vm_.RunUnverified(p, &image_, {}, RunOptions{}).status, Status::kBadGraft);
}

TEST_F(VmEdgeTest, FallingOffTheEndTrapsNotCrashes) {
  // Hand-built program that skips verification: branch past the last
  // instruction.
  Program p;
  p.name = "fall";
  p.code.push_back(Instruction{Op::kNop, 0, 0, 0, 0});
  EXPECT_EQ(vm_.RunUnverified(p, &image_, {}, RunOptions{}).status, Status::kBadGraft);
}

TEST_F(VmEdgeTest, DivisionByZeroYieldsZero) {
  Asm a("div0");
  a.LoadImm(R1, 42).LoadImm(R2, 0).DivU(R0, R1, R2).Halt();
  EXPECT_EQ(vm_.RunUnverified(*a.Finish(), &image_, {}, RunOptions{}).ret, 0u);
  Asm b("rem0");
  b.LoadImm(R1, 42).LoadImm(R2, 0).RemU(R0, R1, R2).Halt();
  EXPECT_EQ(vm_.RunUnverified(*b.Finish(), &image_, {}, RunOptions{}).ret, 0u);
}

TEST_F(VmEdgeTest, ExtraArgumentsBeyondSixIgnored) {
  Asm a("argsum");
  a.Add(R0, R0, R5).Halt();
  const std::vector<uint64_t> args{1, 0, 0, 0, 0, 6, 999, 999};
  const RunOutcome out = vm_.RunUnverified(*a.Finish(), &image_, args, RunOptions{});
  EXPECT_EQ(out.ret, 7u);  // r0=1 + r5=6; args 7 and 8 dropped.
}

TEST_F(VmEdgeTest, ShiftAmountsMasked) {
  Asm a("shifts");
  a.LoadImm(R1, 1).LoadImm(R2, 64).Shl(R0, R1, R2).Halt();  // 64 & 63 == 0.
  EXPECT_EQ(vm_.RunUnverified(*a.Finish(), &image_, {}, RunOptions{}).ret, 1u);
}

TEST_F(VmEdgeTest, SignedBranchesUseSignedComparison) {
  Asm a("signed");
  auto less = a.NewLabel();
  a.LoadImm(R1, -5).LoadImm(R2, 3);
  a.BltS(R1, R2, less);
  a.LoadImm(R0, 0).Halt();
  a.Bind(less);
  a.LoadImm(R0, 1).Halt();
  EXPECT_EQ(vm_.RunUnverified(*a.Finish(), &image_, {}, RunOptions{}).ret, 1u);

  // Unsigned comparison sees -5 as huge.
  Asm b("unsigned");
  auto less_u = b.NewLabel();
  b.LoadImm(R1, -5).LoadImm(R2, 3);
  b.BltU(R1, R2, less_u);
  b.LoadImm(R0, 0).Halt();
  b.Bind(less_u);
  b.LoadImm(R0, 1).Halt();
  EXPECT_EQ(vm_.RunUnverified(*b.Finish(), &image_, {}, RunOptions{}).ret, 0u);
}

TEST_F(VmEdgeTest, RawEscapeHatchStillVerified) {
  Asm a("raw");
  a.Raw(Instruction{static_cast<Op>(200), 0, 0, 0, 0});
  a.Halt();
  EXPECT_FALSE(a.Finish().ok());
}

TEST_F(VmEdgeTest, CallToUnregisteredIdTraps) {
  Asm a("wildcall");
  a.Call(777).Halt();
  EXPECT_EQ(vm_.RunUnverified(*a.Finish(), &image_, {}, RunOptions{}).status,
            Status::kSfiTrap);
}

// --- File system: multi-block reads ---------------------------------------

class FsEdgeTest : public ::testing::Test {
 protected:
  FsEdgeTest()
      : disk_(DiskParams{}, &clock_),
        cache_(64, 8, &disk_, &clock_),
        fs_(&disk_, &cache_, &txn_, &host_, &ns_) {}
  ManualClock clock_;
  SimDisk disk_;
  BufferCache cache_;
  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  FlatFileSystem fs_;
};

TEST_F(FsEdgeTest, ReadSpanningBlocksFetchesEach) {
  Result<FileId> id = fs_.CreateFile("f", 16 * 4096);
  ASSERT_TRUE(id.ok());
  Result<OpenFile*> f = fs_.Open(*id);
  ASSERT_TRUE(f.ok());
  // Bytes [2000, 12000) starting mid-block: touches blocks 0, 1, 2.
  Result<OpenFile::ReadResult> r = (*f)->Read(2000, 10000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(cache_.stats().demand_reads, 3u);
  EXPECT_GT(r->stall, 0u);
}

TEST_F(FsEdgeTest, SequentialWindowStopsAtEof) {
  Result<FileId> id = fs_.CreateFile("f", 3 * 4096);
  ASSERT_TRUE(id.ok());
  Result<OpenFile*> f = fs_.Open(*id);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Read(0, 4096).ok());
  ASSERT_TRUE((*f)->Read(4096, 4096).ok());  // Sequential: prefetch ahead.
  // Only one block remains before EOF; the window must clamp.
  EXPECT_LE((*f)->stats().prefetches_enqueued, 1u);
}

TEST_F(FsEdgeTest, CursorAdvancesAcrossReads) {
  Result<FileId> id = fs_.CreateFile("f", 8 * 4096);
  ASSERT_TRUE(id.ok());
  Result<OpenFile*> f = fs_.Open(*id);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Read(4096).ok());  // Cursor read.
  EXPECT_EQ((*f)->offset(), 4096u);
  ASSERT_TRUE((*f)->Read(100).ok());
  EXPECT_EQ((*f)->offset(), 4196u);
}

TEST_F(FsEdgeTest, PrefetchOfCachedBlockIsFreeTrue) {
  Result<FileId> id = fs_.CreateFile("f", 8 * 4096);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(cache_.Read(0).ok());
  EXPECT_TRUE(cache_.Prefetch(0));  // Already cached: trivially satisfied.
  EXPECT_EQ(cache_.stats().prefetches_issued, 0u);
}

// --- Concurrent event dispatch ---------------------------------------------

TEST(EventStressTest, ConcurrentAsyncDispatches) {
  TxnManager txn;
  HostCallTable host;
  std::atomic<uint64_t> runs{0};
  EventGraftPoint point("stress.ev", EventGraftPoint::Config{}, &txn, &host,
                        nullptr);
  auto counter = std::make_shared<Graft>(
      "counter",
      [&runs](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        runs.fetch_add(1);
        return 0ull;
      },
      kRoot);
  counter->account().SetLimit(ResourceType::kThreads, 64);
  ASSERT_EQ(point.AddHandler(counter, 1), Status::kOk);

  for (int i = 0; i < 32; ++i) {
    point.DispatchAsync({static_cast<uint64_t>(i)});
  }
  point.Drain();
  EXPECT_EQ(runs.load(), 32u);
  EXPECT_EQ(point.stats().handler_runs, 32u);
  EXPECT_EQ(counter->account().usage(ResourceType::kThreads), 0u);
}

TEST(EventStressTest, MixedSyncAsyncDispatch) {
  TxnManager txn;
  HostCallTable host;
  std::atomic<uint64_t> runs{0};
  EventGraftPoint point("mixed.ev", EventGraftPoint::Config{}, &txn, &host,
                        nullptr);
  auto counter = std::make_shared<Graft>(
      "counter",
      [&runs](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        runs.fetch_add(1);
        return 0ull;
      },
      kRoot);
  counter->account().SetLimit(ResourceType::kThreads, 8);
  ASSERT_EQ(point.AddHandler(counter, 1), Status::kOk);

  std::thread t([&point] {
    for (int i = 0; i < 10; ++i) {
      point.DispatchAsync({1});
    }
  });
  for (int i = 0; i < 10; ++i) {
    point.Dispatch({});
  }
  t.join();
  point.Drain();
  // Every dispatched event ran its handler — thread-limit pressure (limit
  // 8, 10 async dispatches in flight) degrades to inline delivery, never a
  // dropped event.
  EXPECT_EQ(runs.load(), 20u);
  const auto stats = point.stats();
  EXPECT_EQ(stats.events, 20u);
  EXPECT_EQ(stats.handler_runs, 20u);
}

TEST(EventStressTest, ThreadLimitZeroStillDeliversInline) {
  TxnManager txn;
  HostCallTable host;
  std::atomic<uint64_t> runs{0};
  EventGraftPoint point("nothread.ev", EventGraftPoint::Config{}, &txn, &host,
                        nullptr);
  auto counter = std::make_shared<Graft>(
      "counter",
      [&runs](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        runs.fetch_add(1);
        return 0ull;
      },
      kRoot);
  // No thread budget at all: every async dispatch must degrade to a
  // synchronous inline run on the dispatching thread.
  counter->account().SetLimit(ResourceType::kThreads, 0);
  ASSERT_EQ(point.AddHandler(counter, 1), Status::kOk);

  for (int i = 0; i < 16; ++i) {
    point.DispatchAsync({static_cast<uint64_t>(i)});
  }
  point.Drain();
  EXPECT_EQ(runs.load(), 16u);
  const auto stats = point.stats();
  EXPECT_EQ(stats.handler_runs, 16u);
  EXPECT_EQ(stats.async_inline_runs, 16u);
  EXPECT_EQ(stats.async_pool_runs, 0u);
}

TEST(EventStressTest, DrainRacesDispatchAsync) {
  TxnManager txn;
  HostCallTable host;
  std::atomic<uint64_t> runs{0};
  EventGraftPoint point("drainrace.ev", EventGraftPoint::Config{}, &txn, &host,
                        nullptr);
  auto counter = std::make_shared<Graft>(
      "counter",
      [&runs](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        runs.fetch_add(1);
        return 0ull;
      },
      kRoot);
  counter->account().SetLimit(ResourceType::kThreads, 16);
  ASSERT_EQ(point.AddHandler(counter, 1), Status::kOk);

  constexpr int kDispatchers = 4;
  constexpr int kPerDispatcher = 50;
  std::vector<std::thread> dispatchers;
  dispatchers.reserve(kDispatchers);
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([&point] {
      for (int i = 0; i < kPerDispatcher; ++i) {
        point.DispatchAsync({1});
      }
    });
  }
  // Drain concurrently with the dispatchers: every Drain call must return
  // (no deadlock, no stranded in-flight count) even while new dispatches
  // keep arriving.
  std::thread drainer([&point] {
    for (int i = 0; i < 20; ++i) {
      point.Drain();
      std::this_thread::yield();
    }
  });
  for (auto& t : dispatchers) {
    t.join();
  }
  drainer.join();
  point.Drain();
  EXPECT_EQ(runs.load(), static_cast<uint64_t>(kDispatchers) * kPerDispatcher);
  EXPECT_EQ(counter->account().usage(ResourceType::kThreads), 0u);
}

TEST(EventStressTest, StatsInvariantsUnderMixedDispatch) {
  TxnManager txn;
  HostCallTable host;
  EventGraftPoint point("invariant.ev", EventGraftPoint::Config{}, &txn, &host,
                        nullptr);
  auto make_counter = [](const std::string& name) {
    return std::make_shared<Graft>(
        name,
        [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
          return 0ull;
        },
        kRoot);
  };
  auto a = make_counter("a");
  auto b = make_counter("b");
  a->account().SetLimit(ResourceType::kThreads, 4);
  b->account().SetLimit(ResourceType::kThreads, 1);  // Mostly inline.
  ASSERT_EQ(point.AddHandler(a, 1), Status::kOk);
  ASSERT_EQ(point.AddHandler(b, 2), Status::kOk);

  constexpr uint64_t kSync = 25;
  constexpr uint64_t kAsync = 25;
  for (uint64_t i = 0; i < kSync; ++i) {
    point.Dispatch({});
  }
  for (uint64_t i = 0; i < kAsync; ++i) {
    point.DispatchAsync({i});
  }
  point.Drain();

  // Documented invariants (event_point.h): with a fixed handler set and no
  // aborts, every event reaches every handler exactly once, and every
  // async invocation is accounted as either a pool run or an inline run.
  const auto stats = point.stats();
  EXPECT_EQ(stats.events, kSync + kAsync);
  EXPECT_EQ(stats.handler_runs, (kSync + kAsync) * 2);
  EXPECT_EQ(stats.handler_aborts, 0u);
  EXPECT_EQ(stats.async_pool_runs + stats.async_inline_runs, kAsync * 2);
  EXPECT_EQ(a->account().usage(ResourceType::kThreads), 0u);
  EXPECT_EQ(b->account().usage(ResourceType::kThreads), 0u);
}

}  // namespace
}  // namespace vino
