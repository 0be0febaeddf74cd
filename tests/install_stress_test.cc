// Concurrent install/invoke/remove stress (PR 9): installer threads churn
// grafts on long-lived points and register/tear down transient points while
// invoker threads drive everything through the namespace, the way a
// multi-tenant serving kernel does. TSan-clean by construction; afterwards
// the namespace and every point must satisfy their refcount and stats
// invariants.
//
// The races this pins down:
//   * namespace lookup vs Unregister + point destruction (WithFunction holds
//     the shared lock across the visit, so teardown cannot complete
//     mid-invoke),
//   * Replace/Remove CAS churn vs concurrent Invoke (a removed graft's
//     shared_ptr must survive until its last in-flight invocation returns),
//   * event AddHandler/RemoveHandler churn vs Dispatch.

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/rng.h"
#include "src/graft/event_point.h"
#include "src/graft/function_point.h"
#include "src/graft/namespace.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

class InstallStressTest : public ::testing::Test {
 protected:
  std::shared_ptr<Graft> ConstGraft(const std::string& name, uint64_t value) {
    Asm a(name);
    a.LoadImm(R0, static_cast<int64_t>(value)).Halt();
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        name, *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  // A graft that burns its whole fuel budget and aborts: exercises the
  // abort -> forcible-removal path concurrently with explicit Remove().
  std::shared_ptr<Graft> SpinGraft(const std::string& name) {
    Asm a(name);
    auto top = a.NewLabel();
    a.Bind(top);
    a.Jmp(top);
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        name, *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  FunctionGraftPoint::Config TightFuelConfig() {
    FunctionGraftPoint::Config config;
    config.fuel = 20'000;  // A spinner aborts fast; const grafts never notice.
    return config;
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
};

TEST_F(InstallStressTest, ChurnInstallInvokeRemove) {
  constexpr int kPoints = 8;
  constexpr int kInstallers = 4;
  constexpr int kInvokers = 4;
  constexpr int kChurnIterations = 400;
  constexpr int kInvokeIterations = 4000;
  constexpr uint64_t kDefaultResult = 7;
  constexpr uint64_t kGraftBase = 1000;

  std::vector<std::unique_ptr<FunctionGraftPoint>> points;
  points.reserve(kPoints);
  for (int i = 0; i < kPoints; ++i) {
    points.push_back(std::make_unique<FunctionGraftPoint>(
        "churn." + std::to_string(i),
        [](std::span<const uint64_t>) -> uint64_t { return kDefaultResult; },
        TightFuelConfig(), &txn_, &host_, &ns_));
  }

  // One graft per (installer, point) so use_counts are attributable.
  std::vector<std::shared_ptr<Graft>> grafts;
  grafts.reserve(kInstallers * kPoints);
  for (int t = 0; t < kInstallers; ++t) {
    for (int i = 0; i < kPoints; ++i) {
      grafts.push_back(ConstGraft(
          "g." + std::to_string(t) + "." + std::to_string(i),
          kGraftBase + static_cast<uint64_t>(t) * kPoints +
              static_cast<uint64_t>(i)));
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // The installers and invokers start once the transient-point thread has
  // finished one round, so it runs at least one whatever the scheduler does.
  std::latch first_transient_round(1);

  // Installer threads: install/remove their own grafts through the
  // namespace, plus the occasional spinner that gets itself forcibly
  // removed by aborting mid-run.
  for (int t = 0; t < kInstallers; ++t) {
    threads.emplace_back([&, t] {
      first_transient_round.wait();
      Rng rng(0xC0FFEEu + static_cast<uint64_t>(t));
      for (int i = 0; i < kChurnIterations; ++i) {
        const int idx = static_cast<int>(rng.Next() % kPoints);
        const std::string name = "churn." + std::to_string(idx);
        std::shared_ptr<Graft> mine = grafts[static_cast<size_t>(
            t * kPoints + idx)];
        const Status status = ns_.WithFunction(
            name, [&](FunctionGraftPoint& point) -> Status {
              if (rng.Next() % 8 == 0) {
                std::shared_ptr<Graft> spinner =
                    SpinGraft("spin." + std::to_string(t));
                if (point.Replace(std::move(spinner)) == Status::kOk) {
                  // One invocation aborts it and forcibly removes it.
                  (void)point.Invoke({});
                }
                return Status::kOk;
              }
              if (point.Replace(mine) == Status::kOk) {
                if (rng.Next() % 2 == 0) {
                  point.Remove();
                }
              }
              return Status::kOk;
            });
        ASSERT_EQ(status, Status::kOk);
      }
    });
  }

  // Invoker threads: namespace lookup + invoke, the serving hot path. Every
  // result must be the default or some installer's graft value.
  for (int t = 0; t < kInvokers; ++t) {
    threads.emplace_back([&, t] {
      first_transient_round.wait();
      Rng rng(0xBEEFu + static_cast<uint64_t>(t));
      for (int i = 0; i < kInvokeIterations; ++i) {
        const int idx = static_cast<int>(rng.Next() % kPoints);
        const std::string name = "churn." + std::to_string(idx);
        const Status status = ns_.WithFunction(
            name, [&](FunctionGraftPoint& point) -> Status {
              const uint64_t result = point.Invoke({});
              const bool is_default = result == kDefaultResult;
              const bool is_graft =
                  result >= kGraftBase &&
                  result < kGraftBase + kInstallers * kPoints;
              EXPECT_TRUE(is_default || is_graft) << result;
              return Status::kOk;
            });
        ASSERT_EQ(status, Status::kOk);
      }
    });
  }

  // Teardown churn: transient points come and go under the invokers'
  // lookups. Invokers must either miss (kNotFound) or complete their visit
  // before the unregister+destroy finishes — never touch a dead point.
  threads.emplace_back([&] {
    Rng rng(0xDEAD5EEDull);
    int rounds = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::string name =
          "transient." + std::to_string(rng.Next() % 4);
      auto point = std::make_unique<FunctionGraftPoint>(
          name, [](std::span<const uint64_t>) -> uint64_t { return 11; },
          TightFuelConfig(), &txn_, &host_, &ns_);
      ns_.Unregister(name);
      point.reset();
      if (++rounds == 1) {
        first_transient_round.count_down();
      }
    }
    EXPECT_GT(rounds, 0);
  });
  threads.emplace_back([&] {
    Rng rng(0x7A37ull);
    while (!stop.load(std::memory_order_acquire)) {
      const std::string name =
          "transient." + std::to_string(rng.Next() % 4);
      (void)ns_.WithFunction(name,
                             [](FunctionGraftPoint& point) -> Status {
                               (void)point.Invoke({});
                               return Status::kOk;
                             });
    }
  });

  for (size_t i = 0; i < static_cast<size_t>(kInstallers + kInvokers); ++i) {
    threads[i].join();
  }
  stop.store(true, std::memory_order_release);
  for (size_t i = static_cast<size_t>(kInstallers + kInvokers);
       i < threads.size(); ++i) {
    threads[i].join();
  }

  // Quiesced: strip any leftover installs, then check invariants.
  uint64_t total_invocations = 0;
  uint64_t total_graft_runs = 0;
  for (auto& point : points) {
    point->Remove();
    EXPECT_FALSE(point->grafted());
    const FunctionGraftPoint::Stats stats = point->stats();
    EXPECT_LE(stats.graft_runs, stats.invocations);
    EXPECT_LE(stats.graft_aborts, stats.graft_runs);
    total_invocations += stats.invocations;
    total_graft_runs += stats.graft_runs;
  }
  EXPECT_GE(total_invocations,
            static_cast<uint64_t>(kInvokers) * kInvokeIterations);
  (void)total_graft_runs;

  // Refcount invariant: with every point back to default, the test's vector
  // must hold the only reference to each graft — a leaked reference inside
  // a point or a lost in-flight invocation would show up here.
  for (const auto& graft : grafts) {
    EXPECT_EQ(graft.use_count(), 1) << graft->name();
  }

  // Namespace invariant: exactly the 8 churn points remain (all transients
  // unregistered), none marked occupied.
  const auto entries = ns_.List();
  ASSERT_EQ(entries.size(), static_cast<size_t>(kPoints));
  for (const auto& entry : entries) {
    EXPECT_FALSE(entry.is_event);
    EXPECT_FALSE(entry.occupied);
    EXPECT_EQ(entry.name.rfind("churn.", 0), 0u) << entry.name;
  }
}

TEST_F(InstallStressTest, EventHandlerChurnVsDispatch) {
  EventGraftPoint point("stress.event", EventGraftPoint::Config{}, &txn_,
                        &host_, &ns_);

  constexpr int kChurners = 2;
  constexpr int kDispatchers = 2;
  constexpr int kIterations = 500;

  std::vector<std::thread> threads;
  std::atomic<uint64_t> dispatches{0};
  for (int t = 0; t < kChurners; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "h." + std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        std::shared_ptr<Graft> handler =
            ConstGraft(name, 100 + static_cast<uint64_t>(t));
        if (point.AddHandler(std::move(handler), t) == Status::kOk) {
          (void)point.RemoveHandler(name);
        }
      }
    });
  }
  for (int t = 0; t < kDispatchers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        (void)point.Dispatch({});
        dispatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  point.Drain();

  const EventGraftPoint::Stats stats = point.stats();
  EXPECT_EQ(stats.events, dispatches.load());
  EXPECT_LE(stats.handler_aborts, stats.handler_runs);
}

}  // namespace
}  // namespace vino
