// Flight-recorder tests: ring semantics (wrap-around, drop accounting),
// snapshot/merge ordering, torn-record immunity under concurrent writers
// (run under TSan by tools/check.sh), enable/disable races, and the
// histogram + abort-cost-model math the recorder exports.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/base/context.h"
#include "src/base/histogram.h"
#include "src/base/trace.h"

namespace vino {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::ResetForTest();
    trace::SetEnabled(true);
  }
  void TearDown() override {
    trace::SetEnabled(false);
    trace::ResetForTest();
  }
};

TEST_F(TraceTest, PostAndSnapshotRoundTrip) {
  trace::Post(trace::Event::kTxnBegin, 0, 7, 100, 0);
  trace::Post(trace::Event::kTxnCommit, 0, 2, 100, 5);
  trace::SnapshotStats stats;
  const auto records = trace::Snapshot(&stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.rings, 1u);

  EXPECT_EQ(static_cast<trace::Event>(records[0].record.event),
            trace::Event::kTxnBegin);
  EXPECT_EQ(records[0].record.a32, 7u);
  EXPECT_EQ(records[0].record.a, 100u);
  EXPECT_EQ(records[0].os_id, KernelContext::Current().os_id);
  EXPECT_EQ(records[0].seq, 0u);

  EXPECT_EQ(static_cast<trace::Event>(records[1].record.event),
            trace::Event::kTxnCommit);
  EXPECT_EQ(records[1].record.b, 5u);
  EXPECT_EQ(records[1].seq, 1u);
  // One writer, monotonic clock: time-ordered.
  EXPECT_LE(records[0].record.time_ns, records[1].record.time_ns);
}

TEST_F(TraceTest, WrapAroundKeepsMostRecentAndCountsDrops) {
  const uint64_t total = trace::kRingRecords + 100;
  for (uint64_t i = 0; i < total; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, i, 0);
  }
  trace::SnapshotStats stats;
  const auto records = trace::Snapshot(&stats);
  // A wrapped ring yields capacity - 1 records: the oldest in-window slot
  // is the one a concurrent writer would be overwriting, and a reader
  // cannot prove it was not, so it is conservatively dropped.
  ASSERT_EQ(records.size(), trace::kRingRecords - 1);
  EXPECT_EQ(stats.dropped, 101u);
  // The survivors are the most recent posts, oldest first.
  EXPECT_EQ(records.front().record.a, 101u);
  EXPECT_EQ(records.front().seq, 101u);
  EXPECT_EQ(records.back().record.a, total - 1);
  // The monotonic wrap counter reports total overwritten history, derived
  // from head, so it is exact (unlike `dropped`, which conservatively adds
  // the one unprovable slot).
  EXPECT_EQ(stats.overwritten, 100u);

  // And it only grows: more wrapping, bigger counter — a later consumer can
  // always tell how much of the ring's life it missed.
  for (uint64_t i = 0; i < 50; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, total + i, 0);
  }
  trace::SnapshotStats after;
  (void)trace::Snapshot(&after);
  EXPECT_EQ(after.overwritten, 150u);
}

TEST_F(TraceTest, EventAndPathTagNamesAreStable) {
  EXPECT_EQ(trace::EventName(trace::Event::kInvokeBegin), "invoke-begin");
  EXPECT_EQ(trace::EventName(trace::Event::kPoolSaturated), "pool-saturated");
  EXPECT_EQ(trace::PathTagName(trace::PathTag::kNull), "null");
  EXPECT_EQ(trace::PathTagName(trace::PathTag::kAbort), "abort");
}

TEST_F(TraceTest, DrainDeliversThroughSink) {
  trace::Post(trace::Event::kWatchdogFire, 0, 0, 1, 2);
  trace::Post(trace::Event::kGraftEjected, 0, 0, 3, 4);
  struct Collector : trace::TraceSink {
    std::vector<trace::TaggedRecord> got;
    void OnRecord(const trace::TaggedRecord& r) override { got.push_back(r); }
  } sink;
  const trace::SnapshotStats stats = trace::Drain(sink);
  EXPECT_EQ(stats.records, 2u);
  ASSERT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(static_cast<trace::Event>(sink.got[1].record.event),
            trace::Event::kGraftEjected);
}

TEST_F(TraceTest, ResetForTestForgetsHistory) {
  trace::Post(trace::Event::kTxnBegin, 0, 0, 1, 0);
  trace::ResetForTest();
  trace::SnapshotStats stats;
  EXPECT_TRUE(trace::Snapshot(&stats).empty());
  EXPECT_EQ(stats.rings, 0u);
  // A post after reset lands in a fresh ring (the cached thread-local ring
  // pointer must notice the generation bump).
  trace::Post(trace::Event::kTxnBegin, 0, 0, 2, 0);
  const auto records = trace::Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].record.a, 2u);
  EXPECT_EQ(records[0].seq, 0u);
}

// The core lock-free claim: records delivered by a snapshot taken while
// writers are mid-post are never torn. Every writer stamps each record with
// a == its sequence number and b == a XOR a per-thread magic; a torn record
// (words from two different posts) fails the invariant.
TEST_F(TraceTest, MultiWriterSnapshotDuringWriteDeliversNoTornRecords) {
  constexpr int kWriters = 4;
  constexpr uint64_t kPostsPerWriter = 3 * trace::kRingRecords;  // Wraps.
  std::atomic<int> writers_done{0};
  // Raised just before the first snapshot: the writers start only then, so
  // that snapshot overlaps them however the threads are scheduled.
  std::atomic<bool> snapshotting{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &writers_done, &snapshotting] {
      while (!snapshotting.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t magic = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1);
      for (uint64_t i = 0; i < kPostsPerWriter; ++i) {
        trace::Post(trace::Event::kLockAcquire,
                    static_cast<uint16_t>(w), static_cast<uint32_t>(w), i,
                    i ^ magic);
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // Snapshot continuously while the writers hammer their rings.
  uint64_t snapshots = 0;
  uint64_t checked = 0;
  snapshotting.store(true, std::memory_order_release);
  do {
    trace::SnapshotStats stats;
    const auto records = trace::Snapshot(&stats);
    ++snapshots;
    for (const auto& r : records) {
      if (static_cast<trace::Event>(r.record.event) !=
          trace::Event::kLockAcquire) {
        continue;  // A stray record from the harness thread.
      }
      const int w = static_cast<int>(r.record.tag);
      ASSERT_LT(w, kWriters);
      const uint64_t magic =
          0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1);
      ASSERT_EQ(r.record.b, r.record.a ^ magic)
          << "torn record delivered: writer " << w << " seq " << r.seq;
      ++checked;
    }
  } while (writers_done.load(std::memory_order_acquire) < kWriters);
  for (auto& t : writers) {
    t.join();
  }
  EXPECT_GT(snapshots, 0u);

  // Quiescent now: the final snapshot sees each writer's full recent window,
  // untorn and in per-thread seq order.
  const auto records = trace::Snapshot();
  uint64_t last_seq[kWriters];
  bool seen[kWriters] = {};
  for (const auto& r : records) {
    if (static_cast<trace::Event>(r.record.event) !=
        trace::Event::kLockAcquire) {
      continue;
    }
    const int w = static_cast<int>(r.record.tag);
    ASSERT_LT(w, kWriters);
    const uint64_t magic = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1);
    ASSERT_EQ(r.record.b, r.record.a ^ magic);
    ++checked;
    if (seen[w]) {
      EXPECT_GT(r.seq, last_seq[w]) << "per-writer seq must be monotonic";
    }
    seen[w] = true;
    last_seq[w] = r.seq;
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------------
// Incremental drain (DrainCursor) — the spool drainer's read side.

struct CursorCollector : trace::TraceSink {
  std::vector<trace::TaggedRecord> got;
  void OnRecord(const trace::TaggedRecord& r) override { got.push_back(r); }
};

TEST_F(TraceTest, DrainCursorDeliversEachRecordExactlyOnce) {
  trace::DrainCursor cursor;
  CursorCollector sink;

  trace::Post(trace::Event::kTxnBegin, 0, 0, 1, 0);
  trace::Post(trace::Event::kTxnCommit, 0, 0, 1, 0);
  trace::DrainCursor::Stats stats = cursor.DrainInto(sink);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.lost, 0u);
  ASSERT_EQ(sink.got.size(), 2u);

  // Nothing new: a second drain is empty, not a re-delivery.
  stats = cursor.DrainInto(sink);
  EXPECT_EQ(stats.records, 0u);
  EXPECT_EQ(sink.got.size(), 2u);

  trace::Post(trace::Event::kTxnAbort, 0, 0, 2, 0);
  stats = cursor.DrainInto(sink);
  EXPECT_EQ(stats.records, 1u);
  ASSERT_EQ(sink.got.size(), 3u);
  // Per-thread seq is dense across drains: exactly-once, in order.
  for (uint64_t i = 0; i < sink.got.size(); ++i) {
    EXPECT_EQ(sink.got[i].seq, i);
  }
}

TEST_F(TraceTest, DrainCursorAccountsWrapLossBetweenDrains) {
  trace::DrainCursor cursor;
  CursorCollector sink;

  // The cursor arrives after the ring has already wrapped: everything it
  // missed is counted, nothing is fabricated.
  const uint64_t total = trace::kRingRecords + 500;
  for (uint64_t i = 0; i < total; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, i, 0);
  }
  trace::DrainCursor::Stats stats = cursor.DrainInto(sink);
  EXPECT_EQ(stats.records, trace::kRingRecords - 1);
  EXPECT_EQ(stats.lost, 501u);  // 500 wrapped + the unprovable oldest slot.
  EXPECT_EQ(stats.records + stats.lost, total);
  EXPECT_EQ(sink.got.back().record.a, total - 1);

  // Once it is keeping up, no further loss — and lost_total stays put.
  for (uint64_t i = 0; i < 10; ++i) {
    trace::Post(trace::Event::kLockAcquire, 0, 0, total + i, 0);
  }
  stats = cursor.DrainInto(sink);
  EXPECT_EQ(stats.records, 10u);
  EXPECT_EQ(stats.lost, 0u);
  EXPECT_EQ(stats.lost_total, 501u);
}

TEST_F(TraceTest, DrainCursorSurvivesResetForTest) {
  trace::DrainCursor cursor;
  CursorCollector sink;
  trace::Post(trace::Event::kTxnBegin, 0, 0, 1, 0);
  (void)cursor.DrainInto(sink);
  ASSERT_EQ(sink.got.size(), 1u);

  trace::ResetForTest();  // Generation bump: stale positions are forgotten.
  trace::Post(trace::Event::kTxnBegin, 0, 0, 2, 0);
  const trace::DrainCursor::Stats stats = cursor.DrainInto(sink);
  EXPECT_EQ(stats.records, 1u);
  ASSERT_EQ(sink.got.size(), 2u);
  EXPECT_EQ(sink.got.back().record.a, 2u);
  EXPECT_EQ(sink.got.back().seq, 0u);  // Fresh ring, fresh stream.
}

// The satellite stress test (run under TSan by tools/check.sh): a drainer
// continuously draining while writer threads hammer their rings. Delivered
// records must be untorn (b == a XOR per-writer magic) and each writer's
// stream must arrive with strictly monotonic seq — exactly-once, no
// duplicates, no reordering within a thread.
TEST_F(TraceTest, DrainCursorVersusWritersDeliversUntornMonotonicStreams) {
  constexpr int kWriters = 4;
  constexpr uint64_t kPostsPerWriter = 3 * trace::kRingRecords;  // Wraps.
  std::atomic<int> writers_done{0};
  // Raised by the drain loop just before its first drain: the writers
  // start only then, so that drain overlaps them however the threads are
  // scheduled.
  std::atomic<bool> draining{false};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, &writers_done, &draining] {
      while (!draining.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t magic =
          0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1);
      for (uint64_t i = 0; i < kPostsPerWriter; ++i) {
        trace::Post(trace::Event::kLockAcquire,
                    static_cast<uint16_t>(w), static_cast<uint32_t>(w), i,
                    i ^ magic);
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }

  trace::DrainCursor cursor;
  CursorCollector sink;
  uint64_t drains = 0;
  draining.store(true, std::memory_order_release);
  do {
    (void)cursor.DrainInto(sink);
    ++drains;
  } while (writers_done.load(std::memory_order_acquire) < kWriters);
  for (auto& t : writers) {
    t.join();
  }
  const trace::DrainCursor::Stats final_stats = cursor.DrainInto(sink);
  EXPECT_GT(drains, 0u);

  uint64_t last_seq[kWriters];
  bool seen[kWriters] = {};
  uint64_t delivered[kWriters] = {};
  for (const auto& r : sink.got) {
    if (static_cast<trace::Event>(r.record.event) !=
        trace::Event::kLockAcquire) {
      continue;  // A stray record from the harness thread.
    }
    const int w = static_cast<int>(r.record.tag);
    ASSERT_LT(w, kWriters);
    const uint64_t magic = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(w + 1);
    ASSERT_EQ(r.record.b, r.record.a ^ magic)
        << "torn record delivered: writer " << w << " seq " << r.seq;
    // Each writer posts only these records on a fresh thread, so its ring
    // seq IS the post index.
    ASSERT_EQ(r.record.a, r.seq);
    if (seen[w]) {
      ASSERT_GT(r.seq, last_seq[w]) << "duplicate or reordered delivery";
    }
    seen[w] = true;
    last_seq[w] = r.seq;
    ++delivered[w];
  }
  // Exactly-once bookkeeping: per writer, delivered + lost == posted. The
  // split depends on drain/writer timing; the sum must not.
  uint64_t total_delivered = 0;
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_TRUE(seen[w]) << "writer " << w << " vanished from the drain";
    EXPECT_EQ(last_seq[w], kPostsPerWriter - 1)
        << "writer " << w << "'s final record must always be delivered";
    total_delivered += delivered[w];
  }
  EXPECT_EQ(total_delivered + final_stats.lost_total,
            static_cast<uint64_t>(kWriters) * kPostsPerWriter);
}

// Toggling the enable flag while writers post must be race-free; a site that
// narrowly misses a toggle just posts (or skips) one event.
TEST_F(TraceTest, EnableDisableRacesAreBenign) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        VINO_TRACE(trace::Event::kResourceCharge, 0, 0, i, i);
        ++i;
      }
    });
  }
  for (int i = 0; i < 2000; ++i) {
    trace::SetEnabled(i % 2 == 0);
    if (i % 64 == 0) {
      (void)trace::Snapshot();
    }
  }
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }
  trace::SetEnabled(true);
  (void)trace::Snapshot();  // Still coherent.
}

// ---------------------------------------------------------------------------
// Histogram.

TEST(LatencyHistogramTest, BucketsAndQuantiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.QuantileNs(0.5), 0u);

  // 90 fast ops (~100 ns), 9 medium (~10 µs), 1 slow (~1 ms).
  for (int i = 0; i < 90; ++i) h.Record(100);
  for (int i = 0; i < 9; ++i) h.Record(10'000);
  h.Record(1'000'000);

  EXPECT_EQ(h.Count(), 100u);
  EXPECT_EQ(h.SumNs(), 90u * 100 + 9u * 10'000 + 1'000'000);
  // Quantiles are bucket upper bounds: 100 -> [64,127], 10000 -> [8192,16383],
  // 1000000 -> [524288,1048575].
  EXPECT_EQ(h.QuantileNs(0.50), 127u);
  EXPECT_EQ(h.QuantileNs(0.95), 16'383u);
  EXPECT_EQ(h.QuantileNs(0.999), 1'048'575u);

  uint64_t buckets[kHistogramBuckets];
  h.ReadBuckets(buckets);
  EXPECT_EQ(buckets[LatencyHistogram::Bucket(100)], 90u);
  EXPECT_EQ(buckets[LatencyHistogram::Bucket(10'000)], 9u);
  EXPECT_EQ(buckets[LatencyHistogram::Bucket(1'000'000)], 1u);
}

TEST(LatencyHistogramTest, ZeroAndHugeDurationsLandInEdgeBuckets) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(~uint64_t{0});
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_EQ(LatencyHistogram::Bucket(0), 0u);
  EXPECT_EQ(LatencyHistogram::Bucket(~uint64_t{0}), kHistogramBuckets - 1);
  EXPECT_EQ(h.QuantileNs(0.0), 0u);
}

// ---------------------------------------------------------------------------
// Abort-cost model.

TEST(AbortCostModelTest, RecoversSyntheticPlane) {
  // cost = 35 µs + 10 µs · L + 0.5 µs · G, exactly (paper §4.5's measured
  // shape). With exact integer samples the normal equations are exact.
  AbortCostModel model;
  for (uint64_t l = 0; l <= 4; ++l) {
    for (uint64_t g = 0; g <= 8; g += 2) {
      model.Record(l, g, 35'000 + 10'000 * l + 500 * g);
    }
  }
  const auto fit = model.Fit();
  ASSERT_TRUE(fit.valid);
  EXPECT_EQ(fit.samples, 25u);
  EXPECT_NEAR(fit.a_ns, 35'000.0, 1.0);
  EXPECT_NEAR(fit.b_ns, 10'000.0, 1.0);
  EXPECT_NEAR(fit.c_ns, 500.0, 1.0);
  EXPECT_NEAR(fit.mean_locks, 2.0, 1e-9);
  EXPECT_NEAR(fit.mean_undo, 4.0, 1e-9);
}

TEST(AbortCostModelTest, DegeneratePredictorsPinToZero) {
  // Every sample has L == 0 and G == 0: the lock and undo columns carry no
  // information, so their coefficients must be zero, not garbage.
  AbortCostModel model;
  for (int i = 0; i < 10; ++i) {
    model.Record(0, 0, 42'000);
  }
  const auto fit = model.Fit();
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.a_ns, 42'000.0, 1.0);
  EXPECT_EQ(fit.b_ns, 0.0);
  EXPECT_EQ(fit.c_ns, 0.0);
}

TEST(AbortCostModelTest, EmptyModelIsInvalid) {
  AbortCostModel model;
  EXPECT_FALSE(model.Fit().valid);
  EXPECT_EQ(model.samples(), 0u);
}

TEST(AbortCostModelTest, ConstantUndoStillFitsLocks) {
  // G never varies: c pins to zero, a and b still recoverable.
  AbortCostModel model;
  for (uint64_t l = 0; l <= 6; ++l) {
    model.Record(l, 3, 20'000 + 5'000 * l);
  }
  const auto fit = model.Fit();
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.b_ns, 5'000.0, 1.0);
}

}  // namespace
}  // namespace vino
