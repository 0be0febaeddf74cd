// File system substrate tests: the disk model, buffer cache + prefetch
// quota, the flat file system, and the compute-ra graft point protocol.

#include <gtest/gtest.h>

#include "src/base/context.h"
#include "src/fs/buffer_cache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

TEST(SimDiskTest, ServiceTimeComponents) {
  ManualClock clock;
  SimDisk disk(DiskParams{}, &clock);
  // Same-block access: no seek, but rotation + transfer.
  const Micros no_seek = disk.ServiceTime(100, 100);
  const Micros far_seek = disk.ServiceTime(0, DiskParams{}.block_count - 1);
  EXPECT_GT(no_seek, 0u);
  EXPECT_GT(far_seek, no_seek);
  // Full-stroke seek approaches avg_seek + rotation + transfer.
  EXPECT_GE(far_seek, DiskParams{}.avg_seek);
}

TEST(SimDiskTest, RequestsSerialize) {
  ManualClock clock;
  SimDisk disk(DiskParams{}, &clock);
  Result<Micros> first = disk.Submit(1000);
  ASSERT_TRUE(first.ok());
  Result<Micros> second = disk.Submit(2000);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second.value(), first.value());  // Queued behind the first.
  EXPECT_GT(disk.stats().total_queue_delay, 0u);
}

TEST(SimDiskTest, SubmitAndWaitAdvancesClock) {
  ManualClock clock;
  SimDisk disk(DiskParams{}, &clock);
  Result<Micros> stall = disk.SubmitAndWait(5000);
  ASSERT_TRUE(stall.ok());
  EXPECT_GT(stall.value(), 0u);
  EXPECT_EQ(clock.NowMicros(), stall.value());
  EXPECT_TRUE(disk.Idle());
}

TEST(SimDiskTest, OutOfRangeBlockRejected) {
  ManualClock clock;
  SimDisk disk(DiskParams{}, &clock);
  EXPECT_FALSE(disk.Submit(DiskParams{}.block_count).ok());
}

class BufferCacheTest : public ::testing::Test {
 protected:
  BufferCacheTest() : disk_(DiskParams{}, &clock_), cache_(8, 4, &disk_, &clock_) {}

  ManualClock clock_;
  SimDisk disk_;
  BufferCache cache_;
};

TEST_F(BufferCacheTest, MissThenHit) {
  Result<BufferCache::AccessResult> miss = cache_.Read(10);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->hit);
  EXPECT_GT(miss->stall, 0u);

  Result<BufferCache::AccessResult> hit = cache_.Read(10);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->hit);
  EXPECT_EQ(hit->stall, 0u);
}

TEST_F(BufferCacheTest, PrefetchEliminatesStallAfterComputeTime) {
  ASSERT_TRUE(cache_.Prefetch(20));
  // "Compute" long enough for the prefetch to complete.
  clock_.Advance(60'000);
  Result<BufferCache::AccessResult> hit = cache_.Read(20);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->hit);
  EXPECT_EQ(hit->stall, 0u);
}

TEST_F(BufferCacheTest, EarlyReadStallsOnlyForRemainder) {
  ASSERT_TRUE(cache_.Prefetch(20));
  const Micros full = disk_.busy_until();
  clock_.Advance(full / 2);  // Read arrives mid-transfer.
  Result<BufferCache::AccessResult> partial = cache_.Read(20);
  ASSERT_TRUE(partial.ok());
  EXPECT_TRUE(partial->hit);
  EXPECT_EQ(partial->stall, full - full / 2);
  EXPECT_EQ(cache_.stats().prefetch_hits, 1u);
}

TEST_F(BufferCacheTest, ReadAheadQuotaBoundsGreedyPrefetch) {
  // The 100 MB-greedy-graft scenario: only `quota` prefetches in flight.
  int accepted = 0;
  for (BlockId b = 100; b < 200; ++b) {
    if (cache_.Prefetch(b)) {
      ++accepted;
    }
  }
  EXPECT_EQ(accepted, 4);  // == readahead quota.
  EXPECT_EQ(cache_.stats().prefetches_denied, 96u);
  EXPECT_LE(cache_.size(), 8u);
}

TEST_F(BufferCacheTest, ConsumingPrefetchReturnsQuota) {
  for (BlockId b = 100; b < 104; ++b) {
    ASSERT_TRUE(cache_.Prefetch(b));
  }
  EXPECT_FALSE(cache_.Prefetch(104));  // Quota exhausted.
  clock_.Advance(1'000'000);
  ASSERT_TRUE(cache_.Read(100).ok());  // Consume one.
  EXPECT_TRUE(cache_.Prefetch(104));   // Quota returned.
}

TEST_F(BufferCacheTest, LruEvictionWhenFull) {
  for (BlockId b = 0; b < 8; ++b) {
    ASSERT_TRUE(cache_.Read(b).ok());
  }
  EXPECT_EQ(cache_.size(), 8u);
  ASSERT_TRUE(cache_.Read(100).ok());  // Evicts block 0 (coldest).
  EXPECT_EQ(cache_.size(), 8u);
  EXPECT_FALSE(cache_.Cached(0));
  EXPECT_TRUE(cache_.Cached(7));
}

class FileSystemTest : public ::testing::Test {
 protected:
  FileSystemTest()
      : disk_(DiskParams{}, &clock_),
        cache_(64, 8, &disk_, &clock_),
        fs_(&disk_, &cache_, &txn_, &host_, &ns_) {}

  OpenFile* MakeAndOpen(const std::string& name, uint64_t size) {
    Result<FileId> id = fs_.CreateFile(name, size);
    EXPECT_TRUE(id.ok());
    Result<OpenFile*> open = fs_.Open(*id);
    EXPECT_TRUE(open.ok());
    return *open;
  }

  ManualClock clock_;
  SimDisk disk_;
  BufferCache cache_;
  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  FlatFileSystem fs_;
};

TEST_F(FileSystemTest, CreateLookupAndSize) {
  Result<FileId> id = fs_.CreateFile("data", 12 << 20);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(fs_.FileSize(*id), 12u << 20);
  ASSERT_TRUE(fs_.LookupFile("data").ok());
  EXPECT_EQ(fs_.LookupFile("data").value(), *id);
  EXPECT_FALSE(fs_.LookupFile("nope").ok());
  EXPECT_EQ(fs_.CreateFile("data", 1).status(), Status::kAlreadyExists);
  EXPECT_EQ(fs_.CreateFile("", 1).status(), Status::kInvalidArgs);
}

TEST_F(FileSystemTest, DiskFullRejected) {
  EXPECT_EQ(fs_.CreateFile("huge", DiskParams{}.block_count * 4096 + 1).status(),
            Status::kNoMemory);
}

TEST_F(FileSystemTest, ReadBoundsChecked) {
  OpenFile* f = MakeAndOpen("f", 8192);
  EXPECT_FALSE(f->Read(8192, 1).ok());  // At EOF.
  EXPECT_FALSE(f->Read(0, 0).ok());     // Empty read.
  Result<OpenFile::ReadResult> r = f->Read(4096, 100'000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->bytes_read, 4096u);  // Clamped to EOF.
}

TEST_F(FileSystemTest, SequentialDefaultPrefetches) {
  OpenFile* f = MakeAndOpen("seq", 64 * 4096);
  // First read: cold, no sequential history.
  ASSERT_TRUE(f->Read(0, 4096).ok());
  // Second sequential read establishes the pattern and prefetches ahead.
  ASSERT_TRUE(f->Read(4096, 4096).ok());
  EXPECT_GT(f->stats().prefetches_enqueued, 0u);

  // Give the prefetches time to land, then the next block is free.
  clock_.Advance(100'000);
  Result<OpenFile::ReadResult> third = f->Read(8192, 4096);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->cache_hit);
  EXPECT_EQ(third->stall, 0u);
}

TEST_F(FileSystemTest, RandomAccessGetsNoDefaultPrefetch) {
  OpenFile* f = MakeAndOpen("rand", 64 * 4096);
  ASSERT_TRUE(f->Read(0, 4096).ok());
  ASSERT_TRUE(f->Read(32 * 4096, 4096).ok());
  ASSERT_TRUE(f->Read(7 * 4096, 4096).ok());
  EXPECT_EQ(f->stats().prefetches_enqueued, 0u);
  EXPECT_EQ(cache_.stats().hits + cache_.stats().prefetch_hits, 0u);
}

TEST_F(FileSystemTest, SeekValidatesOffset) {
  OpenFile* f = MakeAndOpen("s", 8192);
  EXPECT_EQ(f->Seek(4096), Status::kOk);
  EXPECT_EQ(f->offset(), 4096u);
  EXPECT_EQ(f->Seek(9000), Status::kOutOfRange);
}

TEST_F(FileSystemTest, OpenChargesFileHandle) {
  ResourceAccount account("app");
  account.SetLimit(ResourceType::kFileHandles, 1);
  ScopedAccount scope(&account);

  Result<FileId> id = fs_.CreateFile("f", 4096);
  ASSERT_TRUE(id.ok());
  Result<OpenFile*> first = fs_.Open(*id);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(fs_.Open(*id).status(), Status::kLimitExceeded);
  ASSERT_EQ(fs_.Close(*first), Status::kOk);
  EXPECT_TRUE(fs_.Open(*id).ok());  // Handle returned on close.
}

TEST_F(FileSystemTest, ReadaheadPointInNamespace) {
  OpenFile* f = MakeAndOpen("n", 4096);
  const std::string name =
      "openfile." + std::to_string(f->open_id()) + ".compute-ra";
  const auto visit = [this, &name] {
    return ns_.WithFunction(name, [](FunctionGraftPoint&) { return Status::kOk; });
  };
  EXPECT_EQ(visit(), Status::kOk);
  ASSERT_EQ(fs_.Close(f), Status::kOk);
  EXPECT_EQ(visit(), Status::kNotFound);
}

// The paper's §4.1.2 graft: reads the application's hint buffer and asks
// for exactly those extents.
std::shared_ptr<Graft> HintFollowingGraft(const HostCallTable& host) {
  // Args: r0=offset r1=len r2=hint addr r3=hint count r4=out addr r5=max.
  // Copy min(hint_count, max) (offset,len) pairs from hints to output;
  // return the count.
  Asm a("hint-ra");
  auto loop = a.NewLabel();
  auto done = a.NewLabel();
  a.Mov(R6, R3);
  a.BgeU(R5, R6, loop);
  a.Mov(R6, R5);  // r6 = min(count, max)
  a.Bind(loop);
  a.LoadImm(R7, 0);  // index
  auto copy = a.NewLabel();
  a.Bind(copy);
  a.BgeU(R7, R6, done);
  a.ShlI(R8, R7, 4);          // index * 16
  a.Add(R9, R2, R8);          // hint pair addr
  a.Add(R10, R4, R8);         // out pair addr
  a.Ld64(R11, R9);            // offset
  a.St64(R10, R11);
  a.Ld64(R11, R9, 8);         // length
  a.St64(R10, R11, 8);
  a.AddI(R7, R7, 1);
  a.Jmp(copy);
  a.Bind(done);
  a.Mov(R0, R6);
  a.Halt();
  Result<Program> p = a.Finish();
  EXPECT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p);
  EXPECT_TRUE(inst.ok());
  return std::make_shared<Graft>(
      "hint-ra", *VerifyAndCompile(*inst, host), kUser, 4096);
}

TEST_F(FileSystemTest, ReadaheadGraftPrefetchesHintedBlocks) {
  OpenFile* f = MakeAndOpen("hinted", 3000 * 4096);
  ASSERT_EQ(f->readahead_point().Replace(HintFollowingGraft(host_)),
            Status::kOk);

  // The application announces its next (random) read.
  ASSERT_EQ(f->WriteHints({{500 * 4096, 4096}}), Status::kOk);
  ASSERT_TRUE(f->Read(100 * 4096, 4096).ok());
  EXPECT_EQ(f->stats().prefetches_enqueued, 1u);

  // Compute, then the hinted block is already (or nearly) in cache.
  clock_.Advance(100'000);
  Result<OpenFile::ReadResult> hinted = f->Read(500 * 4096, 4096);
  ASSERT_TRUE(hinted.ok());
  EXPECT_TRUE(hinted->cache_hit);
  EXPECT_EQ(hinted->stall, 0u);
}

TEST_F(FileSystemTest, GraftExtentsValidated) {
  OpenFile* f = MakeAndOpen("v", 10 * 4096);
  ASSERT_EQ(f->readahead_point().Replace(HintFollowingGraft(host_)),
            Status::kOk);
  // Hints pointing past EOF and with zero length must be dropped.
  ASSERT_EQ(f->WriteHints({{100 * 4096, 4096},  // Beyond EOF.
                           {0, 0},              // Empty.
                           {4096, 4096}}),      // Valid.
            Status::kOk);
  ASSERT_TRUE(f->Read(0, 4096).ok());
  EXPECT_EQ(f->stats().prefetches_enqueued, 1u);
  EXPECT_EQ(f->stats().prefetch_extents_rejected, 2u);
}

TEST_F(FileSystemTest, AbortedGraftArenaNotHarvested) {
  // Regression: when the graft aborts, the default policy's return value
  // (a count of directly enqueued blocks) must NOT be reinterpreted as a
  // count of extents sitting in the dead graft's arena.
  OpenFile* f = MakeAndOpen("a", 64 * 4096);
  Asm spin("spin-ra");
  auto top = spin.NewLabel();
  spin.Bind(top);
  spin.Jmp(top);
  Result<Program> inst = Instrument(*spin.Finish());
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>(
      "spin-ra", *VerifyAndCompile(*inst, host_), kUser, 4096);
  // Poison the arena output area with plausible extents that must never be
  // prefetched.
  MemoryImage& arena = graft->image();
  const uint64_t out = arena.arena_base() + kRaOutputOffset;
  ASSERT_EQ(arena.WriteU64(out, 40 * 4096), Status::kOk);
  ASSERT_EQ(arena.WriteU64(out + 8, 4096), Status::kOk);

  // Establish sequential history first, so the default policy invoked after
  // the abort returns a nonzero enqueue count (the bug's trigger).
  ASSERT_TRUE(f->Read(0, 4096).ok());
  ASSERT_EQ(f->readahead_point().Replace(graft), Status::kOk);
  ASSERT_TRUE(f->Read(4096, 4096).ok());  // Graft spins -> abort -> default.
  EXPECT_FALSE(f->readahead_point().grafted());
  EXPECT_GT(f->stats().prefetches_enqueued, 0u);  // Default did enqueue.
  // Nothing from the poisoned arena: block 40 was never prefetched.
  Result<BlockId> poisoned = fs_.BlockFor(f->file_id(), 40 * 4096);
  ASSERT_TRUE(poisoned.ok());
  EXPECT_FALSE(cache_.Cached(*poisoned));
}

TEST_F(FileSystemTest, GreedyGraftBoundedByGlobalQuota) {
  OpenFile* f = MakeAndOpen("greedy", 3000 * 4096);
  ASSERT_EQ(f->readahead_point().Replace(HintFollowingGraft(host_)),
            Status::kOk);
  // Ask for 40 blocks at once; the global policy issues at most the
  // read-ahead quota (8) and keeps the rest queued.
  std::vector<std::pair<uint64_t, uint64_t>> hints;
  for (uint64_t i = 0; i < 40; ++i) {
    hints.emplace_back((100 + i) * 4096, 4096);
  }
  ASSERT_EQ(f->WriteHints(hints), Status::kOk);
  ASSERT_TRUE(f->Read(0, 4096).ok());
  EXPECT_EQ(f->stats().prefetches_enqueued, 40u);
  EXPECT_LE(cache_.prefetches_in_flight(), 8u);
  EXPECT_GT(f->prefetch_queue_depth(), 0u);  // Remainder queued, not lost.
}

}  // namespace
}  // namespace vino
