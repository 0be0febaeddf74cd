// graftstat's reducer (tools/replay_report.h) on a hand-built record
// stream: invocations, tier runs, per-tier latency buckets and transaction
// counts all come from kInvokeEnd records, one per invocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>

#include "src/base/histogram.h"
#include "src/base/trace.h"
#include "tools/replay_report.h"

namespace vino {
namespace {

using trace::Event;
using trace::PathTag;

trace::TaggedRecord Rec(Event event, uint16_t tag, uint32_t a32, uint64_t a,
                        uint64_t b) {
  static uint64_t seq = 0;
  trace::TaggedRecord tagged;
  tagged.record.time_ns = 1000 + seq;
  tagged.record.event = static_cast<uint16_t>(event);
  tagged.record.tag = tag;
  tagged.record.a32 = a32;
  tagged.record.a = a;
  tagged.record.b = b;
  tagged.os_id = 1;
  tagged.seq = seq++;
  return tagged;
}

trace::TaggedRecord End(PathTag path, uint16_t tier_plus1, uint64_t graft,
                        uint64_t ns, uint32_t locks = 0) {
  return Rec(Event::kInvokeEnd, trace::PackInvokeTag(path, tier_plus1), locks,
             graft, ns);
}

bool SameHistogram(const LatencyHistogram& h,
                   std::initializer_list<uint64_t> samples) {
  LatencyHistogram want;
  for (const uint64_t ns : samples) {
    want.Record(ns);
  }
  uint64_t got_buckets[kHistogramBuckets];
  uint64_t want_buckets[kHistogramBuckets];
  h.ReadBuckets(got_buckets);
  want.ReadBuckets(want_buckets);
  return std::equal(std::begin(got_buckets), std::end(got_buckets),
                    std::begin(want_buckets)) &&
         h.SumNs() == want.SumNs();
}

constexpr uint64_t kProgramGraft = 11;  // Runs on Tier 1 (tier + 1 = 2).
constexpr uint64_t kNativeGraft = 12;

void Feed(ReplayReport& report) {
  for (const uint64_t ns : {100, 200, 300}) {
    report.OnRecord(End(PathTag::kSafe, 2, kProgramGraft, ns));
  }
  report.OnRecord(End(PathTag::kAbort, 2, kProgramGraft, 5000, /*locks=*/2));
  report.OnRecord(Rec(Event::kAbortCost, /*G=*/3, /*L=*/2, kProgramGraft, 4000));
  report.OnRecord(End(PathTag::kUnsafe, 0, kNativeGraft, 50, /*locks=*/1));
  report.OnRecord(End(PathTag::kUnsafe, 0, kNativeGraft, 60));
  report.OnRecord(Rec(Event::kGraftDegraded, 1, 0, kNativeGraft, 0));
  // The ungrafted path: trace id 0, no transaction.
  report.OnRecord(End(PathTag::kNull, 0, 0, 10));
  report.OnRecord(End(PathTag::kNull, 0, 0, 20));
  report.OnRecord(Rec(Event::kLockAcquire, 0, 0, 99, 0));
}

TEST(ReplayReportTest, EndRecordsGiveInvocationsTiersLatencyAndTxns) {
  ReplayReport report;
  Feed(report);

  EXPECT_EQ(report.records, 11u);
  EXPECT_EQ(report.event_counts["invoke-end"], 8u);

  // Each grafted end record is one transaction; its path says how it
  // ended. The ungrafted ones open none.
  EXPECT_EQ(report.txn_begins, 6u);
  EXPECT_EQ(report.txn_commits, 5u);
  EXPECT_EQ(report.txn_aborts, 1u);

  ASSERT_EQ(report.grafts.size(), 3u);
  const ReplayReport::GraftAgg& program = report.grafts.at(kProgramGraft);
  EXPECT_EQ(program.invocations, 4u);
  EXPECT_EQ(program.aborts, 1u);
  EXPECT_EQ(program.runs[2], 4u);
  EXPECT_EQ(program.runs[0] + program.runs[1], 0u);
  EXPECT_FALSE(program.degraded);
  EXPECT_EQ(program.model.Fit().samples, 1u);
  EXPECT_DOUBLE_EQ(program.model.Fit().mean_locks, 2.0);
  EXPECT_DOUBLE_EQ(program.model.Fit().mean_undo, 3.0);

  const ReplayReport::GraftAgg& native = report.grafts.at(kNativeGraft);
  EXPECT_EQ(native.invocations, 2u);
  EXPECT_EQ(native.aborts, 0u);
  EXPECT_EQ(native.runs[0], 2u);
  EXPECT_TRUE(native.degraded);

  EXPECT_EQ(report.grafts.at(0).invocations, 2u);

  // Per-tier latency, bucket for bucket; the tiers partition the total.
  EXPECT_TRUE(SameHistogram(report.invoke_latency,
                            {100, 200, 300, 5000, 50, 60, 10, 20}));
  EXPECT_TRUE(SameHistogram(report.tier_latency[0], {50, 60, 10, 20}));
  EXPECT_TRUE(SameHistogram(report.tier_latency[1], {}));
  EXPECT_TRUE(SameHistogram(report.tier_latency[2], {100, 200, 300, 5000}));
}

TEST(ReplayReportTest, MergeAddsKernelsUp) {
  ReplayReport a;
  ReplayReport b;
  Feed(a);
  Feed(b);
  ReplayReport fleet;
  fleet.Merge(a);
  fleet.Merge(b);

  EXPECT_EQ(fleet.txn_begins, 12u);
  EXPECT_EQ(fleet.txn_aborts, 2u);
  EXPECT_EQ(fleet.grafts.at(kProgramGraft).kernels, 2u);
  EXPECT_EQ(fleet.grafts.at(kProgramGraft).invocations, 8u);
  EXPECT_EQ(fleet.tier_latency[2].Count(), 8u);
  EXPECT_EQ(fleet.invoke_latency.SumNs(), 2 * a.invoke_latency.SumNs());
}

}  // namespace
}  // namespace vino
