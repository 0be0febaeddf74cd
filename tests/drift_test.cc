// Abort-cost drift detection (src/graft/drift.h): a graft whose recovery
// cost drifts away from its fitted a + b·L + c·G model is flagged
// kGraftDegraded after `strike_windows` consecutive bad windows, and —
// only under the opt-in eject policy — removed by its graft point on the
// next invocation. Well-behaved grafts must never trip the detector.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/trace.h"
#include "src/graft/drift.h"
#include "src/graft/event_point.h"
#include "src/graft/function_point.h"
#include "src/graft/graft.h"
#include "src/graft/namespace.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

constexpr GraftIdentity kRoot{0, true};

// A tight deterministic policy: 8-sample windows, a fit resting on ≥ 32
// prior samples, 2 strikes to degrade.
DriftPolicy TestPolicy(bool eject = false) {
  DriftPolicy policy;
  policy.eject = eject;
  policy.window_samples = 8;
  policy.min_model_samples = 32;
  policy.cost_ratio = 2.0;
  policy.min_excess_ns = 2'000;
  policy.strike_windows = 2;
  return policy;
}

// Synthetic abort shapes following cost = 1000 + 100·L + 10·G exactly, with
// decorrelated L and G so the least-squares fit is well-conditioned.
struct Shape {
  uint64_t locks;
  uint64_t undo;
  uint64_t cost;
};

Shape ConformingSample(uint64_t i) {
  const uint64_t locks = i % 4;
  const uint64_t undo = (i * 7) % 16;
  return {locks, undo, 1000 + 100 * locks + 10 * undo};
}

Shape InflatedSample(uint64_t i) {
  Shape shape = ConformingSample(i);
  shape.cost = 40'000;  // Far above both the fit and the historical median.
  return shape;
}

class DriftTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::ResetForTest();
    trace::SetEnabled(true);
    SetGlobalDriftPolicy(TestPolicy());
  }
  void TearDown() override {
    SetGlobalDriftPolicy(DriftPolicy{});
    trace::SetEnabled(false);
    trace::ResetForTest();
  }

  // Feeds `n` samples through the graft's abort-cost path.
  static void Feed(Graft& graft, uint64_t n, Shape (*make)(uint64_t),
                   uint64_t start = 0) {
    for (uint64_t i = start; i < start + n; ++i) {
      const Shape s = make(i);
      graft.RecordAbortCost(s.locks, s.undo, s.cost);
    }
  }

  static std::shared_ptr<Graft> NativeGraft(const std::string& name) {
    return std::make_shared<Graft>(
        name,
        [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
          return 42ull;
        },
        kRoot);
  }

  static size_t CountDegradedEvents(uint64_t trace_id) {
    struct Collector : trace::TraceSink {
      std::vector<trace::TaggedRecord> got;
      void OnRecord(const trace::TaggedRecord& r) override { got.push_back(r); }
    } sink;
    trace::DrainCursor cursor;
    (void)cursor.DrainInto(sink);
    size_t count = 0;
    for (const trace::TaggedRecord& tagged : sink.got) {
      if (tagged.record.event ==
              static_cast<uint16_t>(trace::Event::kGraftDegraded) &&
          tagged.record.a == trace_id) {
        ++count;
      }
    }
    return count;
  }
};

TEST_F(DriftTest, DetectorIgnoresConformingWindows) {
  DriftDetector detector;
  AbortCostModel model;
  LatencyHistogram hist;
  const DriftPolicy policy = TestPolicy();
  for (uint64_t i = 0; i < 80; ++i) {
    const Shape s = ConformingSample(i);
    model.Record(s.locks, s.undo, s.cost);
    hist.Record(s.cost);
    const DriftVerdict verdict =
        detector.Record(policy, model, hist, s.locks, s.undo, s.cost);
    EXPECT_FALSE(verdict.drifted) << "sample " << i;
    EXPECT_FALSE(verdict.degraded);
    EXPECT_EQ(verdict.strikes, 0u);
    // Windows tumble: only every 8th sample completes one, and the first
    // evaluated window needs min_model_samples beyond the window itself.
    if ((i + 1) % policy.window_samples != 0 || i + 1 < 40) {
      EXPECT_FALSE(verdict.evaluated) << "sample " << i;
    } else {
      EXPECT_TRUE(verdict.evaluated) << "sample " << i;
      // The synthetic stream is exactly linear, so the window mean should
      // sit on the prediction.
      EXPECT_NEAR(verdict.window_mean_cost_ns, verdict.predicted_cost_ns,
                  verdict.predicted_cost_ns * 0.05);
    }
  }
}

TEST_F(DriftTest, DetectorDegradesAfterStrikeWindowsAndLatchesBaseline) {
  DriftDetector detector;
  AbortCostModel model;
  LatencyHistogram hist;
  const DriftPolicy policy = TestPolicy();
  auto feed = [&](uint64_t n, Shape (*make)(uint64_t),
                  uint64_t start) -> DriftVerdict {
    DriftVerdict last;
    for (uint64_t i = start; i < start + n; ++i) {
      const Shape s = make(i);
      model.Record(s.locks, s.undo, s.cost);
      hist.Record(s.cost);
      last = detector.Record(policy, model, hist, s.locks, s.undo, s.cost);
    }
    return last;
  };

  ASSERT_FALSE(feed(40, ConformingSample, 0).drifted);  // Healthy baseline.

  const DriftVerdict first = feed(8, InflatedSample, 40);
  EXPECT_TRUE(first.evaluated);
  EXPECT_TRUE(first.drifted);
  EXPECT_FALSE(first.degraded);  // One strike.
  EXPECT_EQ(first.strikes, 1u);

  const DriftVerdict second = feed(8, InflatedSample, 48);
  EXPECT_TRUE(second.drifted);
  EXPECT_TRUE(second.degraded);  // Two strikes: tripped.
  EXPECT_EQ(second.strikes, 2u);
  // Baseline latch: the long-run model absorbed 16 inflated samples, but
  // the second window was judged against the pre-drift prediction.
  EXPECT_EQ(second.predicted_cost_ns, first.predicted_cost_ns);
  EXPECT_GT(second.window_mean_cost_ns,
            second.predicted_cost_ns * policy.cost_ratio);
}

TEST_F(DriftTest, CleanWindowResetsStrikes) {
  DriftDetector detector;
  AbortCostModel model;
  LatencyHistogram hist;
  const DriftPolicy policy = TestPolicy();
  auto feed = [&](uint64_t n, Shape (*make)(uint64_t),
                  uint64_t start) -> DriftVerdict {
    DriftVerdict last;
    for (uint64_t i = start; i < start + n; ++i) {
      const Shape s = make(i);
      model.Record(s.locks, s.undo, s.cost);
      hist.Record(s.cost);
      last = detector.Record(policy, model, hist, s.locks, s.undo, s.cost);
    }
    return last;
  };

  feed(40, ConformingSample, 0);
  EXPECT_EQ(feed(8, InflatedSample, 40).strikes, 1u);
  // One transient bad window followed by a healthy one is noise, not drift.
  const DriftVerdict healthy = feed(8, ConformingSample, 48);
  EXPECT_FALSE(healthy.drifted);
  EXPECT_EQ(healthy.strikes, 0u);
  EXPECT_EQ(feed(8, InflatedSample, 56).strikes, 1u);  // Counting restarts.
}

TEST_F(DriftTest, WellBehavedGraftNeverDegrades) {
  auto graft = NativeGraft("steady");
  Feed(*graft, 200, ConformingSample);
  EXPECT_FALSE(graft->degraded());
  EXPECT_EQ(CountDegradedEvents(graft->trace_id()), 0u);
}

TEST_F(DriftTest, DriftedGraftDegradesOnceAndPostsTrace) {
  auto graft = NativeGraft("drifter");
  Feed(*graft, 40, ConformingSample);
  EXPECT_FALSE(graft->degraded());
  Feed(*graft, 16, InflatedSample, 40);
  EXPECT_TRUE(graft->degraded());
  // Degradation is sticky and the event posts exactly once, even as abort
  // samples keep arriving.
  Feed(*graft, 32, InflatedSample, 56);
  EXPECT_TRUE(graft->degraded());
  EXPECT_EQ(CountDegradedEvents(graft->trace_id()), 1u);
  // The model kept accumulating after the verdict (graftstat still fits it).
  EXPECT_EQ(graft->abort_cost().samples(), 88u);
}

TEST_F(DriftTest, DetectDisabledPolicyNeverDegrades) {
  DriftPolicy policy = TestPolicy();
  policy.detect = false;
  SetGlobalDriftPolicy(policy);
  auto graft = NativeGraft("unwatched");
  Feed(*graft, 40, ConformingSample);
  Feed(*graft, 32, InflatedSample, 40);
  EXPECT_FALSE(graft->degraded());
}

TEST_F(DriftTest, FunctionPointEjectsDegradedGraftUnderOptInPolicy) {
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn, &host, &ns);

  auto graft = NativeGraft("degraded-fn");
  Feed(*graft, 40, ConformingSample);
  Feed(*graft, 16, InflatedSample, 40);
  ASSERT_TRUE(graft->degraded());

  // Default policy (eject off): the degraded graft keeps running — the
  // detector observes, the operator decides.
  ASSERT_EQ(point.Replace(graft), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 42u);
  EXPECT_TRUE(point.grafted());
  EXPECT_EQ(point.stats().forcible_removals, 0u);

  // Opt-in eject: the next invocation still commits (and its valid result
  // counts), but the graft is forcibly removed afterwards.
  SetGlobalDriftPolicy(TestPolicy(/*eject=*/true));
  EXPECT_EQ(point.Invoke({}), 42u);
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(point.stats().forcible_removals, 1u);

  // Back to the clean default path.
  EXPECT_EQ(point.Invoke({}), 7u);
}

TEST_F(DriftTest, FunctionPointNeverEjectsHealthyGraftUnderEjectPolicy) {
  SetGlobalDriftPolicy(TestPolicy(/*eject=*/true));
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn, &host, &ns);
  auto graft = NativeGraft("healthy-fn");
  Feed(*graft, 200, ConformingSample);
  ASSERT_EQ(point.Replace(graft), Status::kOk);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(point.Invoke({}), 42u);
  }
  EXPECT_TRUE(point.grafted());
  EXPECT_EQ(point.stats().forcible_removals, 0u);
}

TEST_F(DriftTest, EventPointRemovesDegradedHandlerUnderOptInPolicy) {
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
  EventGraftPoint point("ev", EventGraftPoint::Config{}, &txn, &host, &ns);

  auto bad = NativeGraft("degraded-handler");
  Feed(*bad, 40, ConformingSample);
  Feed(*bad, 16, InflatedSample, 40);
  ASSERT_TRUE(bad->degraded());
  auto good = NativeGraft("healthy-handler");

  ASSERT_EQ(point.AddHandler(bad, 1), Status::kOk);
  ASSERT_EQ(point.AddHandler(good, 2), Status::kOk);

  // Eject off: both handlers stay.
  point.Dispatch({});
  EXPECT_EQ(point.handler_count(), 2u);

  SetGlobalDriftPolicy(TestPolicy(/*eject=*/true));
  point.Dispatch({});
  EXPECT_EQ(point.handler_count(), 1u);  // Degraded handler removed...
  EXPECT_EQ(point.RemoveHandler("healthy-handler"), Status::kOk);  // ...not this.
}

TEST_F(DriftTest, EjectPolicyRemovesDriftingGraftWithTracingOff) {
  // Protection must not depend on the flight recorder: with tracing off,
  // every abort still feeds the detector, and the eject policy acts on it.
  trace::SetEnabled(false);
  SetGlobalDriftPolicy(TestPolicy(/*eject=*/true));
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn, &host, &ns);

  // Fails every call after logging one undo record. Replaying the record
  // is free for the first kWarmup calls and then takes 100 µs.
  constexpr uint64_t kWarmup = 40;
  uint64_t calls = 0;
  bool fail = true;
  auto graft = std::make_shared<Graft>(
      "drifting",
      [&calls, &fail](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        if (!fail) {
          return 42ull;
        }
        const bool slow = ++calls > kWarmup;
        TxnOnAbort([slow] {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(100);
          while (slow && std::chrono::steady_clock::now() < until) {
          }
        });
        return Status::kInvalidArgs;
      },
      kRoot);

  // Each call aborts, so the point forcibly removes the graft every time;
  // like a tenant retrying its broken graft, the test re-installs it.
  while (!graft->degraded() && calls < 200) {
    ASSERT_EQ(point.Replace(graft), Status::kOk);
    EXPECT_EQ(point.Invoke({}), 7u);  // Aborted: the default answers.
    EXPECT_FALSE(point.grafted());
  }
  EXPECT_EQ(graft->abort_cost().samples(), calls);  // One sample per abort.
  ASSERT_TRUE(graft->degraded());
  // Two 8-sample windows of slow replays after the warm-up.
  EXPECT_LE(calls, kWarmup + 2 * 8 + 8);
  EXPECT_EQ(point.stats().forcible_removals, calls);

  // Degraded is sticky: once the graft stops failing, its first committing
  // call still counts, and the eject policy removes it afterwards.
  fail = false;
  ASSERT_EQ(point.Replace(graft), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 42u);
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(point.stats().forcible_removals, calls + 1);
}

TEST_F(DriftTest, AbortCostWindowEvictsOldestSamples) {
  AbortCostWindow window(4);
  for (uint64_t i = 0; i < 4; ++i) {
    window.Record(1, 2, 100);
  }
  AbortCostWindow::Snapshot snap = window.Read();
  EXPECT_EQ(snap.samples, 4u);
  EXPECT_EQ(snap.total, 4u);
  EXPECT_DOUBLE_EQ(snap.mean_cost_ns, 100.0);

  for (uint64_t i = 0; i < 4; ++i) {
    window.Record(3, 6, 500);  // Displace the whole first generation.
  }
  snap = window.Read();
  EXPECT_EQ(snap.samples, 4u);
  EXPECT_EQ(snap.total, 8u);
  EXPECT_DOUBLE_EQ(snap.mean_locks, 3.0);
  EXPECT_DOUBLE_EQ(snap.mean_undo, 6.0);
  EXPECT_DOUBLE_EQ(snap.mean_cost_ns, 500.0);
}

}  // namespace
}  // namespace vino
