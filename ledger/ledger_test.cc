// The ledger's own arithmetic, on hand-built inputs: quantile selection and
// sample counts, ratios and their printed bases, the span reducer's self
// times and sum check, and the stream generator's determinism.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "spans.h"
#include "stats.h"
#include "stream.h"

namespace ledger {
namespace {

TEST(Quantile, NearestRankOnOneToHundred) {
  std::vector<uint32_t> v;
  for (uint32_t i = 100; i >= 1; --i) v.push_back(i);  // Unsorted input.
  EXPECT_EQ(Quantile(v, 0.50), 50);
  EXPECT_EQ(Quantile(v, 0.99), 99);
  EXPECT_EQ(Quantile(v, 0.999), 100);
  EXPECT_EQ(Quantile(v, 1.0), 100);
  EXPECT_EQ(Quantile(v, 0.001), 1);
}

TEST(Quantile, SmallAndEmptySets) {
  std::vector<uint32_t> empty;
  EXPECT_EQ(Quantile(empty, 0.5), 0);
  std::vector<uint32_t> one{7};
  EXPECT_EQ(Quantile(one, 0.5), 7);
  EXPECT_EQ(Quantile(one, 0.99), 7);
  std::vector<uint32_t> two{9, 3};
  EXPECT_EQ(Quantile(two, 0.5), 3);  // ceil(0.5 * 2) = rank 1.
  EXPECT_EQ(Quantile(two, 0.51), 9);
}

TEST(Summarize, ReportsTheSampleCount) {
  std::vector<uint64_t> v(1000);
  for (uint64_t i = 0; i < v.size(); ++i) v[i] = i + 1;
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.p999, 999);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(Ratio, PrintsItsBaseAndReadsZeroWithoutOne) {
  const Ratio r{3, 12};
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
  EXPECT_EQ(r.Text(), "3/12");
  const Ratio none{0, 0};
  EXPECT_EQ(none.value(), 0);
  EXPECT_EQ(none.Text(), "0/0");
}

// request [0,100]: lookup [0,40] holding invoke [10,30]; get [40,50];
// deliver [50,90]; the remaining 10 ns are the request's own (client.other).
std::vector<Span> OneRequest(uint64_t base) {
  SpanLog log(16);
  log.Open(Layer::kRequest, base + 0);
  log.Open(Layer::kLookup, base + 0);
  log.Open(Layer::kInvokeSafe, base + 10);
  log.Close(base + 30);
  log.Next(Layer::kLockGet, base + 40);
  log.Next(Layer::kDeliver, base + 50);
  log.Close(base + 90);
  log.Close(base + 100);
  return log.spans();
}

TEST(Reduce, SelfTimesSubtractChildren) {
  Reduction red;
  Reduce(OneRequest(1000), red);
  auto self = [&](Layer l) { return red.self_ns[static_cast<size_t>(l)]; };
  ASSERT_EQ(self(Layer::kLookup).size(), 1u);
  EXPECT_EQ(self(Layer::kLookup)[0], 20u);  // 40 minus the 20 ns invoke.
  EXPECT_EQ(red.total_ns[static_cast<size_t>(Layer::kLookup)][0], 40u);
  EXPECT_EQ(self(Layer::kInvokeSafe)[0], 20u);
  EXPECT_EQ(self(Layer::kLockGet)[0], 10u);
  EXPECT_EQ(self(Layer::kDeliver)[0], 40u);
  EXPECT_EQ(self(Layer::kRequest)[0], 10u);
  EXPECT_EQ(red.roots, 1u);
  EXPECT_EQ(red.sum_misses, 0u);
  EXPECT_EQ(red.max_sum_error_ns, 0u);
}

TEST(Reduce, SumCheckCatchesAChildOutlivingItsParent) {
  std::vector<Span> spans = OneRequest(0);
  // Stretch the deliver span 30 ns past the end of its request.
  for (Span& s : spans) {
    if (s.layer == Layer::kDeliver) s.end_ns = 130;
  }
  Reduction red;
  Reduce(spans, red);
  EXPECT_EQ(red.roots, 1u);
  EXPECT_EQ(red.sum_misses, 1u);
  EXPECT_EQ(red.max_sum_error_ns, 30u);
}

TEST(Reduce, RootsAreCheckedOneByOne) {
  std::vector<Span> spans = OneRequest(0);
  const std::vector<Span> second = OneRequest(100);
  spans.insert(spans.end(), second.begin(), second.end());
  Reduction red;
  Reduce(spans, red);
  EXPECT_EQ(red.roots, 2u);
  EXPECT_EQ(red.sum_misses, 0u);
  EXPECT_EQ(red.self_ns[static_cast<size_t>(Layer::kRequest)].size(), 2u);
}

TEST(SpanLog, DropsPastCapacityAndKeepsParents) {
  SpanLog log(2);
  log.Open(Layer::kRequest, 0);
  log.Open(Layer::kLookup, 1);
  log.Open(Layer::kInvokeDefault, 2);  // No room: dropped.
  log.Close(3);
  log.Close(4);
  log.Close(5);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.spans()[1].parent, 1);
  EXPECT_EQ(log.spans()[1].end_ns, 4u);
  EXPECT_EQ(log.spans()[0].end_ns, 5u);
}

TEST(Stream, SameSeedSameStreamOtherSeedOther) {
  StreamConfig config = DefaultConfig(Workload::kServeHostile);
  config.tenants = 80;
  config.ops_per_client = 2000;
  const Plan a = MakePlan(Workload::kServeHostile, 7, config);
  const Plan b = MakePlan(Workload::kServeHostile, 7, config);
  const Plan c = MakePlan(Workload::kServeHostile, 8, config);
  ASSERT_EQ(a.streams.size(), 2u);
  for (size_t i = 0; i < a.streams.size(); ++i) {
    EXPECT_EQ(Digest(a.streams[i]), Digest(b.streams[i]));
    EXPECT_NE(Digest(a.streams[i]), Digest(c.streams[i]));
  }
}

TEST(Stream, ClientsOnlyTouchTheirOwnTenants) {
  StreamConfig config = DefaultConfig(Workload::kServeHostile);
  config.tenants = 80;
  config.ops_per_client = 2000;
  const Plan plan = MakePlan(Workload::kServeHostile, 3, config);
  int hostile = 0;
  for (const TenantPlan& t : plan.tenants) hostile += t.hostile ? 1 : 0;
  EXPECT_EQ(hostile, 8);
  for (int c = 0; c < 2; ++c) {
    int retries = 0;
    for (const Op& op : plan.streams[static_cast<size_t>(c)]) {
      EXPECT_TRUE(ServedBy(plan, c, op.tenant));
      if (op.kind == OpKind::kRetry) {
        ++retries;
        const TenantPlan& t = plan.tenants[op.tenant];
        EXPECT_TRUE(t.hostile);
        EXPECT_EQ(op.family, AttackFamily(t.attack));
      }
      if (op.kind == OpKind::kChurn) {
        EXPECT_FALSE(plan.tenants[op.tenant].hostile);
        EXPECT_TRUE(plan.tenants[op.tenant].grafted >> op.family & 1);
      }
      EXPECT_LT(op.resource, static_cast<uint32_t>(kLockResources));
    }
    EXPECT_GT(retries, 0);
  }
}

TEST(Stream, BenignTenantsGraftThreeOfFourFamilies) {
  const Plan plan =
      MakePlan(Workload::kTenantChurn, 5, DefaultConfig(Workload::kTenantChurn));
  for (const TenantPlan& t : plan.tenants) {
    EXPECT_EQ(__builtin_popcount(t.grafted), 3);
  }
  ASSERT_EQ(plan.streams.size(), 2u);
  for (const Op& op : plan.streams[1]) {
    EXPECT_EQ(op.kind, OpKind::kOnboard);
    EXPECT_LT(op.tenant, static_cast<uint32_t>(plan.slots.size()));
  }
}

}  // namespace
}  // namespace ledger
