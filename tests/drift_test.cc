// Abort-cost drift detection (src/graft/drift.h): a graft whose recovery
// cost drifts away from its fitted a + b·L + c·G model is flagged
// kGraftDegraded after kDriftStrikeWindows consecutive bad windows, and —
// only when its kernel's TxnManager opted in with eject_degraded — removed
// by its graft point on the next invocation. Well-behaved grafts must never
// trip the detector.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <span>
#include <thread>
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

// The first window the detector judges ends here: kDriftMinModelSamples
// samples of history plus the window itself.
constexpr uint64_t kWarmup = kDriftMinModelSamples + kDriftWindowSamples;
constexpr uint64_t kWindow = kDriftWindowSamples;

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
  shape.cost = 40'000;  // Far above both the fit and the lifetime mean.
  return shape;
}

// An abort whose replay was preempted for 4 ms: a hundred inflated samples'
// worth of cost in one.
Shape StalledSample(uint64_t i) {
  Shape shape = ConformingSample(i);
  shape.cost = 4'000'000;
  return shape;
}

class DriftTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::ResetForTest();
    trace::SetEnabled(true);
  }
  void TearDown() override {
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

// A graft's model and detector, fed the way Graft::RecordAbortCost feeds
// them.
struct DetectorRig {
  AbortCostModel model;
  DriftDetector detector;

  // Feeds samples [start, start + n); returns the last verdict.
  DriftVerdict Feed(uint64_t n, Shape (*make)(uint64_t), uint64_t start) {
    DriftVerdict last;
    for (uint64_t i = start; i < start + n; ++i) {
      const Shape s = make(i);
      model.Record(s.locks, s.undo, s.cost);
      last = detector.Record(model);
    }
    return last;
  }
};

TEST_F(DriftTest, DetectorIgnoresConformingWindows) {
  DetectorRig rig;
  for (uint64_t i = 0; i < kWarmup + 2 * kWindow; ++i) {
    const DriftVerdict verdict = rig.Feed(1, ConformingSample, i);
    EXPECT_FALSE(verdict.drifted) << "sample " << i;
    EXPECT_FALSE(verdict.degraded);
    EXPECT_EQ(verdict.strikes, 0u);
    // Windows tumble: only every kWindow-th sample completes one, and the
    // first evaluated window needs kDriftMinModelSamples beyond itself.
    if ((i + 1) % kWindow != 0 || i + 1 < kWarmup) {
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
  DetectorRig rig;
  ASSERT_FALSE(rig.Feed(kWarmup, ConformingSample, 0).drifted);  // Healthy.

  const DriftVerdict first = rig.Feed(kWindow, InflatedSample, kWarmup);
  EXPECT_TRUE(first.evaluated);
  EXPECT_TRUE(first.drifted);
  EXPECT_FALSE(first.degraded);  // One strike.
  EXPECT_EQ(first.strikes, 1u);

  const DriftVerdict second =
      rig.Feed(kWindow, InflatedSample, kWarmup + kWindow);
  EXPECT_TRUE(second.drifted);
  EXPECT_TRUE(second.degraded);  // Two strikes: tripped.
  EXPECT_EQ(second.strikes, 2u);
  // Baseline latch: the long-run model absorbed two inflated windows, but
  // the second window was judged against the pre-drift prediction.
  EXPECT_EQ(second.predicted_cost_ns, first.predicted_cost_ns);
  EXPECT_GT(second.window_mean_cost_ns,
            second.predicted_cost_ns * kDriftCostRatio);
}

TEST_F(DriftTest, CleanWindowResetsStrikes) {
  DetectorRig rig;
  rig.Feed(kWarmup, ConformingSample, 0);
  EXPECT_EQ(rig.Feed(kWindow, InflatedSample, kWarmup).strikes, 1u);
  // One transient bad window followed by a healthy one is noise, not drift.
  const DriftVerdict healthy =
      rig.Feed(kWindow, ConformingSample, kWarmup + kWindow);
  EXPECT_FALSE(healthy.drifted);
  EXPECT_EQ(healthy.strikes, 0u);
  // Counting restarts.
  EXPECT_EQ(rig.Feed(kWindow, InflatedSample, kWarmup + 2 * kWindow).strikes,
            1u);
}

TEST_F(DriftTest, OneStalledAbortInTheFirstDriftedWindowStillDegrades) {
  // The stall lifts the first drifted window's mean fourfold. A baseline
  // that absorbed it would pass the next window, drifted just as far from
  // the pre-drift model, as normal: the strikes would reset and the graft
  // would never degrade.
  DetectorRig rig;
  rig.Feed(kWarmup, ConformingSample, 0);
  rig.Feed(kWindow - 1, InflatedSample, kWarmup);
  const DriftVerdict first =
      rig.Feed(1, StalledSample, kWarmup + kWindow - 1);
  EXPECT_TRUE(first.drifted);
  EXPECT_EQ(first.strikes, 1u);

  const DriftVerdict second =
      rig.Feed(kWindow, InflatedSample, kWarmup + kWindow);
  EXPECT_TRUE(second.evaluated);
  EXPECT_TRUE(second.drifted);
  EXPECT_TRUE(second.degraded);
  EXPECT_EQ(second.predicted_cost_ns, first.predicted_cost_ns);
}

TEST_F(DriftTest, WellBehavedGraftNeverDegrades) {
  auto graft = NativeGraft("steady");
  Feed(*graft, kWarmup + 7 * kWindow, ConformingSample);
  EXPECT_FALSE(graft->degraded());
  EXPECT_EQ(CountDegradedEvents(graft->trace_id()), 0u);
}

TEST_F(DriftTest, DriftedGraftDegradesOnceAndPostsTrace) {
  auto graft = NativeGraft("drifter");
  Feed(*graft, kWarmup, ConformingSample);
  EXPECT_FALSE(graft->degraded());
  Feed(*graft, 2 * kWindow, InflatedSample, kWarmup);
  EXPECT_TRUE(graft->degraded());
  // Degradation is sticky and the event posts exactly once, even as abort
  // samples keep arriving.
  Feed(*graft, 4 * kWindow, InflatedSample, kWarmup + 2 * kWindow);
  EXPECT_TRUE(graft->degraded());
  EXPECT_EQ(CountDegradedEvents(graft->trace_id()), 1u);
  // The model kept accumulating after the verdict (graftstat still fits it).
  EXPECT_EQ(graft->abort_cost().samples(), kWarmup + 6 * kWindow);
}

TEST_F(DriftTest, ConcurrentAbortsDegradeOnce) {
  // Window ends race: each thread's every kWindow-th sample may judge a
  // window holding other threads' samples, and two judgments may take the
  // detector's mutex out of order. The verdict still comes once.
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kPerThread = 8 * kWindow;
  auto graft = NativeGraft("contended");
  auto feed_all = [&graft](Shape (*make)(uint64_t)) {
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&graft, make, t] {
        Feed(*graft, kPerThread, make, t * kPerThread);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  };

  feed_all(ConformingSample);
  EXPECT_EQ(graft->abort_cost().samples(), kThreads * kPerThread);
  EXPECT_FALSE(graft->degraded());

  feed_all(InflatedSample);
  EXPECT_TRUE(graft->degraded());
  EXPECT_EQ(CountDegradedEvents(graft->trace_id()), 1u);
}

TEST_F(DriftTest, FunctionPointEjectsDegradedGraftUnderOptInPolicy) {
  HostCallTable host;
  auto default_fn = [](std::span<const uint64_t>) -> uint64_t { return 7; };
  TxnManager observe_txn;
  TxnManager eject_txn(/*eject_degraded=*/true);
  FunctionGraftPoint observe_point("obj.observe", default_fn, {}, &observe_txn,
                                   &host, nullptr);
  FunctionGraftPoint eject_point("obj.eject", default_fn, {}, &eject_txn, &host,
                                 nullptr);

  auto graft = NativeGraft("degraded-fn");
  Feed(*graft, kWarmup, ConformingSample);
  Feed(*graft, 2 * kWindow, InflatedSample, kWarmup);
  ASSERT_TRUE(graft->degraded());

  // Default manager (eject off): the degraded graft keeps running — the
  // detector observes, the operator decides.
  ASSERT_EQ(observe_point.Replace(graft), Status::kOk);
  EXPECT_EQ(observe_point.Invoke({}), 42u);
  EXPECT_TRUE(observe_point.grafted());
  EXPECT_EQ(observe_point.stats().forcible_removals, 0u);

  // Opt-in eject: the next invocation still commits (and its valid result
  // counts), but the graft is forcibly removed afterwards.
  ASSERT_EQ(eject_point.Replace(graft), Status::kOk);
  EXPECT_EQ(eject_point.Invoke({}), 42u);
  EXPECT_FALSE(eject_point.grafted());
  EXPECT_EQ(eject_point.stats().forcible_removals, 1u);

  // Back to the clean default path.
  EXPECT_EQ(eject_point.Invoke({}), 7u);
}

TEST_F(DriftTest, FunctionPointNeverEjectsHealthyGraftUnderEjectPolicy) {
  TxnManager txn(/*eject_degraded=*/true);
  HostCallTable host;
  GraftNamespace ns;
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn, &host, &ns);
  auto graft = NativeGraft("healthy-fn");
  Feed(*graft, kWarmup + 7 * kWindow, ConformingSample);
  ASSERT_EQ(point.Replace(graft), Status::kOk);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(point.Invoke({}), 42u);
  }
  EXPECT_TRUE(point.grafted());
  EXPECT_EQ(point.stats().forcible_removals, 0u);
}

TEST_F(DriftTest, EventPointRemovesDegradedHandlerUnderOptInPolicy) {
  HostCallTable host;
  TxnManager observe_txn;
  TxnManager eject_txn(/*eject_degraded=*/true);
  EventGraftPoint observe_point("ev.observe", {}, &observe_txn, &host, nullptr);
  EventGraftPoint eject_point("ev.eject", {}, &eject_txn, &host, nullptr);

  auto bad = NativeGraft("degraded-handler");
  Feed(*bad, kWarmup, ConformingSample);
  Feed(*bad, 2 * kWindow, InflatedSample, kWarmup);
  ASSERT_TRUE(bad->degraded());
  auto good = NativeGraft("healthy-handler");

  for (EventGraftPoint* point : {&observe_point, &eject_point}) {
    ASSERT_EQ(point->AddHandler(bad, 1), Status::kOk);
    ASSERT_EQ(point->AddHandler(good, 2), Status::kOk);
  }

  // Eject off: both handlers stay.
  observe_point.Dispatch({});
  EXPECT_EQ(observe_point.handler_count(), 2u);

  // Eject on: the degraded handler is removed, the healthy one stays.
  eject_point.Dispatch({});
  EXPECT_EQ(eject_point.handler_count(), 1u);
  EXPECT_EQ(eject_point.RemoveHandler("healthy-handler"), Status::kOk);
}

TEST_F(DriftTest, EjectPolicyRemovesDriftingGraftWithTracingOff) {
  // Protection must not depend on the flight recorder: with tracing off,
  // every abort still feeds the detector, and the eject switch acts on it.
  trace::SetEnabled(false);
  TxnManager txn(/*eject_degraded=*/true);
  HostCallTable host;
  GraftNamespace ns;
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn, &host, &ns);

  // Fails every call after logging one undo record. Replaying the record
  // is free for the first kWarmup calls and then takes 100 µs.
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
  while (!graft->degraded() && calls < kWarmup + 8 * kWindow) {
    ASSERT_EQ(point.Replace(graft), Status::kOk);
    EXPECT_EQ(point.Invoke({}), 7u);  // Aborted: the default answers.
    EXPECT_FALSE(point.grafted());
  }
  EXPECT_EQ(graft->abort_cost().samples(), calls);  // One sample per abort.
  ASSERT_TRUE(graft->degraded());
  // Two windows of slow replays after the warm-up, plus one of slack.
  EXPECT_LE(calls, kWarmup + 3 * kWindow);
  EXPECT_EQ(point.stats().forcible_removals, calls);

  // Degraded is sticky: once the graft stops failing, its first committing
  // call still counts, and the eject switch removes it afterwards.
  fail = false;
  ASSERT_EQ(point.Replace(graft), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 42u);
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(point.stats().forcible_removals, calls + 1);
}

}  // namespace
}  // namespace vino
