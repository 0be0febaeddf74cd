// Spool robustness: the format round-trips, and every way a spool file can
// be damaged — zero-length, bad header, truncated tail, flipped payload bit
// — yields a clean partial parse with a status, never a crash. Plus the
// SpoolDrainer end-to-end path and its adaptive cadence policy.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/base/trace.h"
#include "src/base/trace_spool.h"

namespace vino {
namespace {

trace::TaggedRecord MakeRecord(uint64_t seq, uint64_t os_id = 7) {
  trace::TaggedRecord tagged;
  tagged.record.time_ns = 1000 + seq;
  tagged.record.event = static_cast<uint16_t>(trace::Event::kLockAcquire);
  tagged.record.tag = 3;
  tagged.record.a32 = static_cast<uint32_t>(seq);
  tagged.record.a = seq;
  tagged.record.b = seq ^ 0xABCDu;
  tagged.os_id = os_id;
  tagged.seq = seq;
  return tagged;
}

class TraceSpoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "vino_spool_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(::getpid()) + ".bin";
    trace::ResetForTest();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    trace::SetEnabled(false);
    trace::ResetForTest();
  }
  std::string path_;
};

TEST_F(TraceSpoolTest, Crc32MatchesKnownVector) {
  // The canonical CRC-32 (IEEE) check value.
  EXPECT_EQ(spool::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(spool::Crc32("", 0), 0u);
}

TEST_F(TraceSpoolTest, WriterReaderRoundTrip) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 10; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  writer.set_lost_total(5);
  ASSERT_EQ(writer.Commit(), Status::kOk);
  for (uint64_t i = 10; i < 13; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  writer.set_lost_total(9);
  ASSERT_EQ(writer.Close(), Status::kOk);
  EXPECT_EQ(writer.records_written(), 13u);
  EXPECT_EQ(writer.batches_written(), 3u);  // Two data batches + trailer.

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &stats), Status::kOk);
  ASSERT_EQ(records.size(), 13u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
    EXPECT_EQ(records[i].os_id, 7u);
    EXPECT_EQ(records[i].record.a, i);
    EXPECT_EQ(records[i].record.b, i ^ 0xABCDu);
    EXPECT_EQ(records[i].record.time_ns, 1000 + i);
  }
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.corrupt_batches, 0u);
  EXPECT_EQ(stats.lost_total, 9u);  // The trailer carries the final counter.
  EXPECT_TRUE(stats.closed);
  EXPECT_FALSE(stats.truncated);
}

TEST_F(TraceSpoolTest, ZeroLengthFileIsCleanError) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolTruncated);
  EXPECT_TRUE(records.empty());
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.batches, 0u);
}

TEST_F(TraceSpoolTest, BadFileHeaderIsCleanError) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[32] = "definitely not a spool header..";
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);

  std::vector<trace::TaggedRecord> records;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records), Status::kSpoolCorrupt);
  EXPECT_TRUE(records.empty());
}

// Version 2 is one kInvokeEnd per invocation; version 1 also posted begin
// and transaction records, so a reader that took a v1 spool would count
// every invocation and transaction twice. It refuses one instead.
TEST_F(TraceSpoolTest, WriterStampsVersionTwoAndReaderRefusesVersionOne) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  writer.OnRecord(MakeRecord(0));
  ASSERT_EQ(writer.Close(), Status::kOk);

  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  spool::FileHeader header;
  ASSERT_EQ(std::fread(&header, sizeof(header), 1, f), 1u);
  EXPECT_EQ(header.version, 2u);
  EXPECT_EQ(spool::kFormatVersion, 2u);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records), Status::kOk);
  EXPECT_EQ(records.size(), 1u);

  header.version = 1;
  ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
  std::fclose(f);
  records.clear();
  EXPECT_EQ(spool::ReadSpoolChain(path_, records), Status::kSpoolCorrupt);
  EXPECT_TRUE(records.empty());
}

TEST_F(TraceSpoolTest, MissingFileIsCleanError) {
  std::vector<trace::TaggedRecord> records;
  EXPECT_EQ(spool::ReadSpoolChain(path_ + ".nope", records), Status::kNotFound);
  EXPECT_TRUE(records.empty());
}

TEST_F(TraceSpoolTest, TruncatedTailYieldsCompleteBatchesOnly) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 6; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);
  for (uint64_t i = 6; i < 10; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  const uint64_t full_bytes = writer.bytes_written();

  // Cut into the second data batch's payload: everything after the first
  // batch must be withheld, everything before it delivered.
  const uint64_t keep = sizeof(spool::FileHeader) +
                        sizeof(spool::BatchHeader) +
                        6 * sizeof(trace::TaggedRecord) +
                        sizeof(spool::BatchHeader) + 10;
  ASSERT_LT(keep, full_bytes);
  ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(keep)), 0);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolTruncated);
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records.back().seq, 5u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_FALSE(stats.closed);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.corrupt_batches, 0u);
}

TEST_F(TraceSpoolTest, CorruptBatchCrcIsSkippedNotFatal) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 4; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);
  for (uint64_t i = 4; i < 9; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Close(), Status::kOk);

  // Flip one byte inside the FIRST batch's payload.
  std::FILE* f = std::fopen(path_.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f,
                       static_cast<long>(sizeof(spool::FileHeader) +
                                         sizeof(spool::BatchHeader) + 5),
                       SEEK_SET),
            0);
  const uint8_t evil = 0xFF;
  ASSERT_EQ(std::fwrite(&evil, 1, 1, f), 1u);
  std::fclose(f);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  // One flipped bit costs one batch: the second batch and the trailer still
  // parse, and the overall status reports the corruption.
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolCorrupt);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records.front().seq, 4u);
  EXPECT_EQ(stats.corrupt_batches, 1u);
  EXPECT_EQ(stats.batches, 2u);  // Second data batch + trailer.
  EXPECT_TRUE(stats.closed);
}

TEST_F(TraceSpoolTest, FollowerDeliversBatchesIncrementally) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 5; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);

  spool::ChainedFollower follower;
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 5u);
  EXPECT_FALSE(follower.closed());

  // Nothing new: a poll is a no-op, not an error.
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 5u);

  for (uint64_t i = 5; i < 8; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 8u);
  EXPECT_TRUE(follower.closed());
  EXPECT_EQ(records.back().seq, 7u);
}

TEST_F(TraceSpoolTest, DrainerSpoolsPostedRecordsEndToEnd) {
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  for (uint64_t i = 0; i < 100; ++i) {
    trace::Post(trace::Event::kResourceCharge, 0, 0, i, i * 2);
  }
  drainer->DrainNow();
  for (uint64_t i = 100; i < 150; ++i) {
    trace::Post(trace::Event::kResourceCharge, 0, 0, i, i * 2);
  }
  drainer->Stop();  // Final drain + trailer.

  const spool::SpoolDrainer::Stats stats = drainer->stats();
  EXPECT_EQ(stats.records, 150u);
  EXPECT_EQ(stats.lost_total, 0u);
  EXPECT_EQ(stats.writer_status, Status::kOk);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats read_stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &read_stats), Status::kOk);
  EXPECT_TRUE(read_stats.closed);
  ASSERT_EQ(records.size(), 150u);
  // Exactly-once, in per-thread order: seq is dense and the payload matches.
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].record.a, i);
    EXPECT_EQ(records[i].record.b, i * 2);
  }
}

TEST_F(TraceSpoolTest, DrainerReportsWrapLossInBatches) {
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  // The background thread must not drain before we wrap: park it at a huge
  // interval and drive drains by hand.
  options.min_interval_us = 10'000'000;
  options.max_interval_us = 10'000'000;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  const uint64_t total = trace::kRingRecords + 500;
  for (uint64_t i = 0; i < total; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, i, 0);
  }
  drainer->Stop();

  EXPECT_GE(drainer->stats().lost_total, 500u);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats read_stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &read_stats), Status::kOk);
  // The spool says exactly how much history it is missing.
  EXPECT_GE(read_stats.lost_total, 500u);
  EXPECT_EQ(read_stats.records + read_stats.lost_total, total);
  // What survived is the most recent window, in order.
  EXPECT_EQ(records.back().record.a, total - 1);
}

TEST_F(TraceSpoolTest, DrainerCadenceAdaptsToOccupancy) {
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  // Intervals long enough that the background thread never drains on its
  // own during the test: every adaptation step below is ours.
  options.min_interval_us = 10'000'000;
  options.max_interval_us = 80'000'000;
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  // Idle rings: each drain doubles the sleep until it parks at max.
  drainer->DrainNow();
  drainer->DrainNow();
  drainer->DrainNow();
  drainer->DrainNow();
  EXPECT_EQ(drainer->stats().interval_us, 80'000'000u);

  // A burst past the hot threshold (≥ 50% of ring capacity pending) makes
  // the next drain halve the sleep again.
  for (uint64_t i = 0; i < trace::kRingRecords * 3 / 4; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, i, 0);
  }
  drainer->DrainNow();
  EXPECT_EQ(drainer->stats().interval_us, 40'000'000u);
  EXPECT_GE(drainer->stats().last_occupancy_permille,
            spool::SpoolDrainer::kHotOccupancyPermille);
  drainer->Stop();
}

TEST_F(TraceSpoolTest, StartRejectsBadOptions) {
  spool::SpoolDrainer::Options options;  // Empty path.
  EXPECT_FALSE(spool::SpoolDrainer::Start(options).ok());
  options.path = "/nonexistent-dir-xyz/spool.bin";
  EXPECT_FALSE(spool::SpoolDrainer::Start(options).ok());
  options.path = path_;
  options.min_interval_us = 0;
  EXPECT_FALSE(spool::SpoolDrainer::Start(options).ok());
}

// ---------------------------------------------------------------------------
// Rotation: size-capped segment rings.

class SpoolRotationTest : public TraceSpoolTest {
 protected:
  void TearDown() override {
    for (const uint64_t index : spool::ListSegments(path_)) {
      std::remove(spool::SegmentPath(path_, index).c_str());
    }
    TraceSpoolTest::TearDown();
  }

  // Writes a closed chain of exactly three segments holding one data batch
  // each, of the given record counts, numbered from seq 0. The 200-byte cap
  // rotates after any batch of four or more records (a segment is then at
  // least 16 + 32 + 4·48 = 240 bytes), so `last` must stay below four for
  // the close trailer to share the final segment.
  void WriteThreeSegments(uint64_t first, uint64_t middle, uint64_t last) {
    spool::SpoolWriter writer;
    ASSERT_EQ(writer.OpenRotating(path_, {200, 100}), Status::kOk);
    uint64_t seq = 0;
    for (const uint64_t count : {first, middle}) {
      for (uint64_t i = 0; i < count; ++i) {
        writer.OnRecord(MakeRecord(seq++));
      }
      ASSERT_EQ(writer.Commit(), Status::kOk);
    }
    for (uint64_t i = 0; i < last; ++i) {
      writer.OnRecord(MakeRecord(seq++));
    }
    ASSERT_EQ(writer.Close(), Status::kOk);
    ASSERT_EQ(spool::ListSegments(path_).size(), 3u);
  }

  // Overwrites `len` bytes of segment `index` at `offset`.
  void Poke(uint64_t index, long offset, const void* bytes, size_t len) {
    std::FILE* f =
        std::fopen(spool::SegmentPath(path_, index).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
    std::fclose(f);
  }
};

TEST_F(SpoolRotationTest, SegmentPathsRoundTripAndRejectPlainSpools) {
  const std::string path = spool::SegmentPath("/tmp/x/vspool.12.0", 7);
  EXPECT_EQ(path, "/tmp/x/vspool.12.0.s7.bin");
  std::string base;
  uint64_t index = 0;
  ASSERT_TRUE(spool::ParseSegmentPath(path, &base, &index));
  EXPECT_EQ(base, "/tmp/x/vspool.12.0");
  EXPECT_EQ(index, 7u);
  // A kernel's single-file spool has trailing dot-fields but no `.s` infix:
  // it must never parse as a segment of some other stream.
  EXPECT_FALSE(spool::ParseSegmentPath("/tmp/x/vspool.12.0.bin", &base,
                                       &index));
  EXPECT_FALSE(spool::ParseSegmentPath("/tmp/x/vspool.12.0.sX.bin", &base,
                                       &index));
  EXPECT_FALSE(spool::ParseSegmentPath("/tmp/x/vspool.12.0.s3", &base,
                                       &index));
}

TEST_F(SpoolRotationTest, RotatingWriterChainsLosslesslyAcrossSegments) {
  spool::SpoolWriter writer;
  // Rotate after every batch (any nonzero byte count exceeds a 1-byte cap);
  // keep everything.
  ASSERT_EQ(writer.OpenRotating(path_, {1, 100}), Status::kOk);
  uint64_t seq = 0;
  for (int batch = 0; batch < 5; ++batch) {
    for (int i = 0; i < 4; ++i) {
      writer.OnRecord(MakeRecord(seq++));
    }
    writer.set_lost_total(static_cast<uint64_t>(batch));  // Stream property.
    ASSERT_EQ(writer.Commit(), Status::kOk);
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  EXPECT_GE(writer.segments_created(), 5u);
  EXPECT_EQ(writer.segments_reclaimed(), 0u);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &stats), Status::kOk);
  // Every record survives the segment boundaries, in order.
  ASSERT_EQ(records.size(), 20u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
  }
  // batch_seq / lost_total are stream state: continuous across segments.
  EXPECT_TRUE(stats.closed);
  EXPECT_EQ(stats.first_batch_seq, 0u);
  EXPECT_EQ(stats.seq_gaps, 0u);
  EXPECT_EQ(stats.lost_total, 4u);
  EXPECT_GE(stats.segments, 5u);
  EXPECT_EQ(stats.corrupt_batches, 0u);
}

TEST_F(SpoolRotationTest, CapReclaimsOldestSegmentAndReaderReportsIt) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.OpenRotating(path_, {1, 2}), Status::kOk);  // Keep 2.
  uint64_t seq = 0;
  for (int batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 3; ++i) {
      writer.OnRecord(MakeRecord(seq++));
    }
    ASSERT_EQ(writer.Commit(), Status::kOk);
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  EXPECT_GT(writer.segments_reclaimed(), 0u);

  // Only the capped live window remains on disk.
  const std::vector<uint64_t> segments = spool::ListSegments(path_);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments.front(), writer.first_segment());

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &stats), Status::kOk);
  // The reader gets the most recent suffix and *says* how it starts
  // mid-stream — a reclaimed front is reported, never a silent hole.
  EXPECT_TRUE(stats.closed);
  EXPECT_GT(stats.first_batch_seq, 0u);
  EXPECT_EQ(stats.seq_gaps, 0u);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().seq, 17u);  // The newest record survives.
  EXPECT_EQ(records.size() % 3, 0u);   // Whole batches only.
}

TEST_F(SpoolRotationTest, ChainedFollowerTailsAcrossLiveRotation) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.OpenRotating(path_, {1, 100}), Status::kOk);

  spool::ChainedFollower follower;
  std::vector<trace::TaggedRecord> records;
  uint64_t seq = 0;
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 2; ++i) {
      writer.OnRecord(MakeRecord(seq++));
    }
    ASSERT_EQ(writer.Commit(), Status::kOk);
    // Interleaved tailing: each poll must cross the rotation the writer
    // just performed.
    if (batch == 0) {
      ASSERT_EQ(follower.Open(path_), Status::kOk);
    }
    ASSERT_EQ(follower.Poll(records), Status::kOk);
    EXPECT_EQ(records.size(), (static_cast<size_t>(batch) + 1) * 2);
    EXPECT_FALSE(follower.closed());
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
  ASSERT_EQ(records.size(), 8u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
  }
  EXPECT_EQ(follower.stats().seq_gaps, 0u);
  EXPECT_GE(follower.stats().segments, 4u);
}

TEST_F(SpoolRotationTest, ChainedFollowerOpenIsRetryableBeforeFirstData) {
  // Tailing a kernel that has not started yet: Open keeps failing softly
  // until the first segment's header lands, then succeeds — it must never
  // wedge into kAlreadyExists (the fleet attach loop retries it).
  spool::ChainedFollower follower;
  EXPECT_EQ(follower.Open(path_), Status::kNotFound);
  EXPECT_EQ(follower.Open(path_), Status::kNotFound);

  spool::SpoolWriter writer;
  ASSERT_EQ(writer.OpenRotating(path_, {1, 100}), Status::kOk);
  writer.OnRecord(MakeRecord(0));
  ASSERT_EQ(writer.Commit(), Status::kOk);
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 1u);
  ASSERT_EQ(writer.Close(), Status::kOk);
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
}

TEST_F(SpoolRotationTest, FollowerReopensWhenFileRotatedAwayUnderneath) {
  // The --follow regression: a *plain* spool renamed away mid-tail (think
  // logrotate) used to park the reader on its stale fd forever. The chain
  // reader notices the displacement, finishes the old incarnation, and
  // re-reads the new file; the restarted stream's batch_seq reset is
  // reported as a sequence gap, not silently merged.
  spool::SpoolWriter writer1;
  ASSERT_EQ(writer1.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 4; ++i) {
    writer1.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer1.Commit(), Status::kOk);
  ASSERT_EQ(writer1.Commit(), Status::kOk);  // No-op, keeps file unclosed.

  spool::ChainedFollower follower;
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  ASSERT_EQ(records.size(), 4u);

  // Rotate the file away and start a new stream at the same path.
  const std::string moved = path_ + ".old";
  ASSERT_EQ(std::rename(path_.c_str(), moved.c_str()), 0);
  spool::SpoolWriter writer2;
  ASSERT_EQ(writer2.Open(path_), Status::kOk);
  for (uint64_t i = 100; i < 103; ++i) {
    writer2.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer2.Close(), Status::kOk);

  // One poll cycle: detect displacement, fold, reopen, drain the new file.
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
  ASSERT_EQ(records.size(), 7u);
  EXPECT_EQ(records[4].seq, 100u);
  EXPECT_GE(follower.stats().seq_gaps, 1u);  // The seq-0 restart.
  std::remove(moved.c_str());
}

TEST_F(SpoolRotationTest, FollowerReopensWhenFileTruncatedUnderneath) {
  spool::SpoolWriter writer1;
  ASSERT_EQ(writer1.Open(path_), Status::kOk);
  for (uint64_t i = 0; i < 5; ++i) {
    writer1.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer1.Commit(), Status::kOk);

  spool::ChainedFollower follower;
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  std::vector<trace::TaggedRecord> records;
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  ASSERT_EQ(records.size(), 5u);

  // A restarted writer truncates the same path (same inode, shorter file):
  // st_size < consumed offset is the displacement signal.
  spool::SpoolWriter writer2;
  ASSERT_EQ(writer2.Open(path_), Status::kOk);
  writer2.OnRecord(MakeRecord(200));
  ASSERT_EQ(writer2.Close(), Status::kOk);

  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
  ASSERT_EQ(records.size(), 6u);
  EXPECT_EQ(records.back().seq, 200u);
}

TEST_F(SpoolRotationTest, CorruptBatchInMiddleSegmentCostsOnlyThatBatch) {
  WriteThreeSegments(5, 4, 3);
  // Flip one payload byte of the middle segment's only data batch.
  const uint8_t evil = 0xFF;
  Poke(1, static_cast<long>(sizeof(spool::FileHeader) +
                            sizeof(spool::BatchHeader) + 5),
       &evil, 1);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolCorrupt);
  // The batches on either side still arrive, in order; the skipped batch
  // was framed, so the sequence stays continuous.
  ASSERT_EQ(records.size(), 8u);
  const uint64_t want[] = {0, 1, 2, 3, 4, 9, 10, 11};
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, want[i]);
  }
  EXPECT_EQ(stats.corrupt_batches, 1u);
  EXPECT_EQ(stats.seq_gaps, 0u);
  EXPECT_TRUE(stats.closed);
}

TEST_F(SpoolRotationTest, BadBatchMagicInMiddleSegmentStopsTheScan) {
  WriteThreeSegments(4, 4, 3);
  // An unframeable batch header: nothing after it can be trusted.
  const uint32_t garbage = 0xDEADBEEFu;
  Poke(1, static_cast<long>(sizeof(spool::FileHeader)), &garbage,
       sizeof(garbage));

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolCorrupt);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.back().seq, 3u);
  EXPECT_FALSE(stats.closed);
}

TEST_F(SpoolRotationTest, SuccessorWithHalfAFileHeaderIsTruncatedThenPickedUp) {
  spool::SpoolWriter writer;
  ASSERT_EQ(writer.OpenRotating(path_, {1, 100}), Status::kOk);
  for (uint64_t i = 0; i < 4; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Commit(), Status::kOk);  // Rotates: s1 holds a header.
  // The writer is mid-rotation: only half of s1's header has landed.
  const std::string s1 = spool::SegmentPath(path_, 1);
  ASSERT_EQ(::truncate(s1.c_str(), sizeof(spool::FileHeader) / 2), 0);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  EXPECT_EQ(spool::ReadSpoolChain(path_, records, &stats),
            Status::kSpoolTruncated);
  EXPECT_EQ(records.size(), 4u);
  EXPECT_TRUE(stats.truncated);

  spool::ChainedFollower follower;
  ASSERT_EQ(follower.Open(path_), Status::kOk);
  records.clear();
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_EQ(records.size(), 4u);
  EXPECT_FALSE(follower.closed());

  // The rest of the header lands; the writer carries on in s1.
  const spool::FileHeader header;
  Poke(1, 0, &header, sizeof(header));
  for (uint64_t i = 4; i < 7; ++i) {
    writer.OnRecord(MakeRecord(i));
  }
  ASSERT_EQ(writer.Close(), Status::kOk);
  ASSERT_EQ(follower.Poll(records), Status::kOk);
  EXPECT_TRUE(follower.closed());
  ASSERT_EQ(records.size(), 7u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i);
  }
  EXPECT_EQ(follower.stats().seq_gaps, 0u);
}

TEST_F(SpoolRotationTest, DrainerRotatesAndAccountingStaysLossless) {
  // Drainer-vs-writers stress under forced rotation (TSan covers this test
  // via tools/check.sh): everything posted is either delivered through the
  // segment chain or counted in lost_total — never silently dropped at a
  // segment boundary.
  trace::SetEnabled(true);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  options.rotation.segment_bytes = 16 * 1024;  // Force frequent rotation.
  options.rotation.max_segments = 1000;        // ...but reclaim nothing.
  auto started = spool::SpoolDrainer::Start(options);
  ASSERT_TRUE(started.ok());
  auto drainer = std::move(started.value());

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        trace::Post(trace::Event::kResourceCharge,
                    static_cast<uint16_t>(t), 0, i, i);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  drainer->Stop();

  const spool::SpoolDrainer::Stats ds = drainer->stats();
  EXPECT_GT(ds.segments, 1u);
  EXPECT_EQ(ds.segments_reclaimed, 0u);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(path_, records, &stats), Status::kOk);
  EXPECT_TRUE(stats.closed);
  EXPECT_EQ(stats.seq_gaps, 0u);
  EXPECT_EQ(stats.first_batch_seq, 0u);
  EXPECT_GT(stats.segments, 1u);
  // The lossless ledger: delivered + lost == posted.
  EXPECT_EQ(stats.records + stats.lost_total, kThreads * kPerThread);
  EXPECT_EQ(records.size(), stats.records);
}

TEST_F(SpoolRotationTest, EnvRotationKnobsDeriveSegmentedOptions) {
  // DeriveEnvSpoolOptions honors the rotation knobs; explicit paths win
  // over VINO_SPOOL but still pick up the segment configuration.
  // (check.sh runs the whole suite with VINO_SPOOL set — park it.)
  const char* spool_dir = std::getenv("VINO_SPOOL");
  const std::string saved = spool_dir != nullptr ? spool_dir : "";
  ::unsetenv("VINO_SPOOL");
  ::setenv("VINO_SPOOL_SEGMENT_BYTES", "4096", 1);
  ::setenv("VINO_SPOOL_SEGMENTS", "3", 1);
  spool::SpoolDrainer::Options options;
  options.path = path_;
  EXPECT_TRUE(spool::DeriveEnvSpoolOptions(&options));
  EXPECT_EQ(options.path, path_);
  EXPECT_EQ(options.rotation.segment_bytes, 4096u);
  EXPECT_EQ(options.rotation.max_segments, 3u);
  ::unsetenv("VINO_SPOOL_SEGMENT_BYTES");
  ::unsetenv("VINO_SPOOL_SEGMENTS");

  spool::SpoolDrainer::Options plain;
  EXPECT_FALSE(spool::DeriveEnvSpoolOptions(&plain));  // No env, no path.
  if (spool_dir != nullptr) {
    ::setenv("VINO_SPOOL", saved.c_str(), 1);
  }
}

}  // namespace
}  // namespace vino
