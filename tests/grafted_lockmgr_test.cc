// GraftedLockManager tests: downloaded grant/enqueue policies running
// sandboxed and transactional, with kernel-side safety re-checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/base/trace.h"
#include "src/graft/namespace.h"
#include "src/lockmgr/grafted_lock_manager.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

class GraftedLockMgrTest : public ::testing::Test {
 protected:
  GraftedLockMgrTest() : mgr_("lockmgr.test", &txn_, &host_, &ns_) {}

  std::shared_ptr<Graft> Load(Asm& a) {
    Result<Program> inst = Instrument(*a.Finish());
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        "policy", *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  // The fair-queueing grant policy as a graft: deny whenever any waiter
  // exists, else apply holder-conflict logic.
  // Args: r0=holder r1=mode r2=holders r3=hcount r4=waiters r5=wcount.
  std::shared_ptr<Graft> FairGrantGraft() {
    Asm a("fair-grant");
    auto deny = a.NewLabel();
    auto scan = a.NewLabel();
    auto next = a.NewLabel();
    auto grant = a.NewLabel();
    // Any waiters? deny.
    a.LoadImm(R6, 0);
    a.Bne(R5, R6, deny);
    // Scan holders for a conflict: conflict iff either mode is exclusive.
    a.LoadImm(R7, 0);  // index
    a.Bind(scan);
    a.BgeU(R7, R3, grant);
    a.ShlI(R8, R7, 4);
    a.Add(R8, R2, R8);
    a.Ld64(R9, R8, 8);  // holder's mode
    a.LoadImm(R10, 1);
    a.Beq(R9, R10, deny);   // holder exclusive -> conflict
    a.Beq(R1, R10, deny);   // we are exclusive and a holder exists -> conflict
    a.Bind(next);
    a.AddI(R7, R7, 1);
    a.Jmp(scan);
    a.Bind(grant);
    a.LoadImm(R0, 1);
    a.Halt();
    a.Bind(deny);
    a.LoadImm(R0, 0);
    a.Halt();
    return Load(a);
  }

  // LIFO enqueue policy: always insert at index 0.
  std::shared_ptr<Graft> LifoEnqueueGraft() {
    Asm a("lifo-enqueue");
    a.LoadImm(R0, 0).Halt();
    return Load(a);
  }

  // Invokes a policy point the way any kernel code can: by name.
  uint64_t InvokeByName(const std::string& name) {
    uint64_t answer = 42;
    const uint64_t args[6] = {7, 1, 0, 0, 0, 0};
    EXPECT_EQ(ns_.WithFunction(name,
                               [&answer, &args](FunctionGraftPoint& point) {
                                 answer = point.Invoke(args);
                                 return Status::kOk;
                               }),
              Status::kOk);
    return answer;
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  GraftedLockManager mgr_;
};

TEST_F(GraftedLockMgrTest, DefaultsMatchFigure4) {
  // Reader priority barging, FIFO queueing — same as SimpleLockManager.
  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  EXPECT_EQ(mgr_.GetLock(1, 101, LockMode::kShared), Status::kOk);  // Barges.
  EXPECT_EQ(mgr_.WaiterCount(1), 1u);
  ASSERT_EQ(mgr_.ReleaseLock(1, 100), Status::kOk);
  ASSERT_EQ(mgr_.ReleaseLock(1, 101), Status::kOk);
  EXPECT_TRUE(mgr_.Holds(1, 200));  // Promoted.
}

TEST_F(GraftedLockMgrTest, PointsAppearInNamespace) {
  const auto visit = [this](const std::string& name) {
    return ns_.WithFunction(name, [](FunctionGraftPoint&) { return Status::kOk; });
  };
  EXPECT_EQ(visit("lockmgr.test.grant"), Status::kOk);
  EXPECT_EQ(visit("lockmgr.test.enqueue"), Status::kOk);
}

// By-name invokes reach the policy points outside any GetLock, so their
// default closures have no decision to read. They answer constants: deny
// for grant, and for enqueue an index past any queue, which Apply clamps
// to append. The manager keeps granting afterwards.
TEST_F(GraftedLockMgrTest, ByNameInvokeOfUngraftedPointsAnswersConstants) {
  EXPECT_EQ(InvokeByName("lockmgr.test.grant"), 0u);
  EXPECT_EQ(InvokeByName("lockmgr.test.enqueue"),
            std::numeric_limits<uint64_t>::max());

  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(mgr_.ReleaseLock(1, 100), Status::kOk);
  EXPECT_TRUE(mgr_.Holds(1, 200));
}

// One thread invokes the points by name while another consults them
// through GetLock: neither reads the other's decision (TSan runs this).
TEST_F(GraftedLockMgrTest, ByNameInvokesRacingGetLockStayConsistent) {
  std::atomic<bool> done{false};
  std::thread by_name([this, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      ASSERT_EQ(InvokeByName("lockmgr.test.grant"), 0u);
      ASSERT_EQ(InvokeByName("lockmgr.test.enqueue"),
                std::numeric_limits<uint64_t>::max());
    }
  });
  for (int i = 0; i < 2'000; ++i) {
    const LockResourceId resource = static_cast<LockResourceId>(i % 4);
    ASSERT_EQ(mgr_.GetLock(resource, 100, LockMode::kExclusive), Status::kOk);
    ASSERT_EQ(mgr_.GetLock(resource, 200, LockMode::kShared), Status::kBusy);
    ASSERT_EQ(mgr_.WaiterCount(resource), 1u);
    ASSERT_EQ(mgr_.ReleaseLock(resource, 100), Status::kOk);
    ASSERT_TRUE(mgr_.Holds(resource, 200));
    ASSERT_EQ(mgr_.ReleaseLock(resource, 200), Status::kOk);
  }
  done.store(true, std::memory_order_relaxed);
  by_name.join();
}

TEST_F(GraftedLockMgrTest, FairGrantGraftPreventsBarging) {
  ASSERT_EQ(mgr_.grant_point().Replace(FairGrantGraft()), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  // Under the grafted fair policy, a new reader queues behind the writer.
  EXPECT_EQ(mgr_.GetLock(1, 101, LockMode::kShared), Status::kBusy);
  EXPECT_EQ(mgr_.WaiterCount(1), 2u);
  // Every decision ran in a transaction.
  EXPECT_GE(txn_.stats().commits, 3u);
}

TEST_F(GraftedLockMgrTest, GraftCannotGrantConflictingRequests) {
  // A malicious grant policy that always says yes: the kernel's safety
  // re-check refuses conflicting grants regardless.
  Asm a("always-yes");
  a.LoadImm(R0, 1).Halt();
  ASSERT_EQ(mgr_.grant_point().Replace(Load(a)), Status::kOk);

  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  EXPECT_EQ(mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  EXPECT_FALSE(mgr_.Holds(1, 200));
}

TEST_F(GraftedLockMgrTest, LifoEnqueueGraftReordersQueue) {
  ASSERT_EQ(mgr_.enqueue_point().Replace(LifoEnqueueGraft()), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(mgr_.GetLock(1, 201, LockMode::kExclusive), Status::kBusy);
  ASSERT_EQ(mgr_.ReleaseLock(1, 100), Status::kOk);
  EXPECT_TRUE(mgr_.Holds(1, 201));  // LIFO: newest waiter won.
}

TEST_F(GraftedLockMgrTest, OutOfRangeEnqueueIndexClamped) {
  Asm a("huge-index");
  a.LoadImm(R0, 1'000'000).Halt();
  ASSERT_EQ(mgr_.enqueue_point().Replace(Load(a)), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  EXPECT_EQ(mgr_.GetLock(1, 200, LockMode::kExclusive), Status::kBusy);
  EXPECT_EQ(mgr_.WaiterCount(1), 1u);  // Clamped to append.
}

TEST_F(GraftedLockMgrTest, MisbehavingPolicyGraftFallsBackToDefault) {
  Asm a("spin");
  auto top = a.NewLabel();
  a.Bind(top);
  a.Jmp(top);
  // Tight fuel comes from the point config; the default config's 10M fuel
  // still terminates, it just takes a moment — acceptable for one call.
  ASSERT_EQ(mgr_.grant_point().Replace(Load(a)), Status::kOk);

  // The decision still completes (default policy) and the graft is gone.
  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  EXPECT_FALSE(mgr_.grant_point().grafted());
  EXPECT_GE(txn_.stats().aborts, 1u);
}

TEST_F(GraftedLockMgrTest, DenyOnIdleLockCannotStrandTheQueue) {
  // An always-deny grant graft queues every request. On an idle lock there
  // is no future release to promote the queue, so GetLock itself must run
  // kernel promotion — otherwise the request waits forever.
  Asm a("always-no");
  a.LoadImm(R0, 0).Halt();
  ASSERT_EQ(mgr_.grant_point().Replace(Load(a)), Status::kOk);
  EXPECT_EQ(mgr_.GetLock(1, 100, LockMode::kExclusive), Status::kOk);
  EXPECT_TRUE(mgr_.Holds(1, 100));
  EXPECT_EQ(mgr_.WaiterCount(1), 0u);
}

TEST_F(GraftedLockMgrTest, PostsLockRecordsLikeTheOtherManagers) {
  // Fuzz triage blames a leaked lock on the lock manager only when the
  // spool holds a kLockAcquire or kLockContend record with its resource id.
  const bool was_tracing = trace::Enabled();
  trace::SetEnabled(true);
  struct Collector : trace::TraceSink {
    std::vector<trace::Record> got;
    void OnRecord(const trace::TaggedRecord& r) override {
      got.push_back(r.record);
    }
  } sink;
  trace::DrainCursor cursor;
  (void)cursor.DrainInto(sink);  // Skip what earlier tests posted.
  sink.got.clear();

  constexpr LockResourceId kResource = 0x10C4;
  ASSERT_EQ(mgr_.GetLock(kResource, 100, LockMode::kExclusive), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(kResource, 200, LockMode::kExclusive), Status::kBusy);
  (void)cursor.DrainInto(sink);
  trace::SetEnabled(was_tracing);

  const auto count = [&sink](trace::Event event) {
    return std::count_if(
        sink.got.begin(), sink.got.end(), [event](const trace::Record& r) {
          return r.event == static_cast<uint16_t>(event) && r.a == kResource;
        });
  };
  EXPECT_EQ(count(trace::Event::kLockAcquire), 1);  // 100's grant.
  EXPECT_EQ(count(trace::Event::kLockContend), 1);  // 200's queueing.
}

TEST_F(GraftedLockMgrTest, ConcurrentRequestsWithGrantGraftStayConsistent) {
  // The snapshot-consult path under real concurrency: every decision runs
  // the fair-grant graft (serialized on the consult mutex) while the shard
  // state keeps moving. Exclusive grants must never overlap, and the table
  // must drain completely.
  ASSERT_EQ(mgr_.grant_point().Replace(FairGrantGraft()), Status::kOk);
  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::array<std::atomic<int>, 4> exclusive_holders{};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &exclusive_holders] {
      const LockHolderId holder = 1000 + static_cast<LockHolderId>(t);
      for (int i = 0; i < kIterations; ++i) {
        const LockResourceId resource = static_cast<LockResourceId>(i % 4);
        const Status got = mgr_.GetLock(resource, holder, LockMode::kExclusive);
        bool granted = got == Status::kOk;
        if (got == Status::kBusy) {
          for (int spin = 0; spin < 50 && !granted; ++spin) {
            granted = mgr_.Holds(resource, holder);
          }
          if (!granted) {
            ASSERT_EQ(mgr_.CancelWait(resource, holder), Status::kOk);
            continue;
          }
        }
        // Exclusive grants on one resource must never overlap.
        ASSERT_EQ(exclusive_holders[resource].fetch_add(1), 0);
        exclusive_holders[resource].fetch_sub(1);
        ASSERT_EQ(mgr_.ReleaseLock(resource, holder), Status::kOk);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (LockResourceId r = 0; r < 4; ++r) {
    EXPECT_EQ(mgr_.WaiterCount(r), 0u) << r;
  }
}

TEST_F(GraftedLockMgrTest, GraftSeesMarshalledState) {
  // A grant policy that denies iff there are >= 2 holders (count-based),
  // proving the holders list really reaches the graft.
  Asm a("max-two");
  auto deny = a.NewLabel();
  a.LoadImm(R6, 2);
  a.BgeU(R3, R6, deny);
  a.LoadImm(R0, 1);
  a.Halt();
  a.Bind(deny);
  a.LoadImm(R0, 0);
  a.Halt();
  ASSERT_EQ(mgr_.grant_point().Replace(Load(a)), Status::kOk);

  ASSERT_EQ(mgr_.GetLock(1, 100, LockMode::kShared), Status::kOk);
  ASSERT_EQ(mgr_.GetLock(1, 101, LockMode::kShared), Status::kOk);
  EXPECT_EQ(mgr_.GetLock(1, 102, LockMode::kShared), Status::kBusy);  // 3rd denied.
}

}  // namespace
}  // namespace vino
