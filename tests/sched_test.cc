// Scheduler substrate tests: round-robin dispatch, schedule-delegate
// grafts, delegation verification (valid id, runnable, same group), and the
// process list.

#include <gtest/gtest.h>

#include "src/graft/namespace.h"
#include "src/sched/scheduler.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

class SchedTest : public ::testing::Test {
 protected:
  SchedTest() : sched_(Scheduler::Params{}, &clock_, &txn_, &host_, &ns_) {}

  // A delegate graft that always returns the constant thread id `target`.
  std::shared_ptr<Graft> DelegateTo(ThreadId target) {
    Asm a("delegate-to-" + std::to_string(target));
    a.LoadImm(R0, static_cast<int64_t>(target)).Halt();
    Result<Program> inst = Instrument(*a.Finish());
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        "delegate", *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  ManualClock clock_;
  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  Scheduler sched_;
};

TEST_F(SchedTest, RoundRobinWithoutGrafts) {
  KernelThread* a = sched_.CreateThread("a", 1);
  KernelThread* b = sched_.CreateThread("b", 1);
  KernelThread* c = sched_.CreateThread("c", 1);

  EXPECT_EQ(sched_.ScheduleOnce(), a);
  EXPECT_EQ(sched_.ScheduleOnce(), b);
  EXPECT_EQ(sched_.ScheduleOnce(), c);
  EXPECT_EQ(sched_.ScheduleOnce(), a);
  EXPECT_EQ(a->dispatches(), 2u);
}

TEST_F(SchedTest, VirtualTimeAdvances) {
  sched_.CreateThread("a", 1);
  const Micros before = clock_.NowMicros();
  sched_.ScheduleOnce();
  // One context switch + one timeslice.
  EXPECT_EQ(clock_.NowMicros() - before,
            Scheduler::Params{}.timeslice + Scheduler::Params{}.context_switch_cost);
}

TEST_F(SchedTest, NothingRunnable) {
  KernelThread* a = sched_.CreateThread("a", 1);
  ASSERT_EQ(sched_.Block(a->id()), Status::kOk);
  EXPECT_EQ(sched_.ScheduleOnce(), nullptr);
  ASSERT_EQ(sched_.Wake(a->id()), Status::kOk);
  EXPECT_EQ(sched_.ScheduleOnce(), a);
}

TEST_F(SchedTest, ValidThreadIdTracksLifecycle) {
  KernelThread* a = sched_.CreateThread("a", 1);
  EXPECT_TRUE(sched_.ValidThreadId(a->id()));
  EXPECT_FALSE(sched_.ValidThreadId(999));
  ASSERT_EQ(sched_.Exit(a->id()), Status::kOk);
  EXPECT_FALSE(sched_.ValidThreadId(a->id()));
}

TEST_F(SchedTest, DelegationToGroupMember) {
  // The paper's database scenario: a client donates its slice to the server.
  KernelThread* client = sched_.CreateThread("client", /*group=*/7);
  KernelThread* server = sched_.CreateThread("server", /*group=*/7);

  ASSERT_EQ(client->delegate_point().Replace(DelegateTo(server->id())), Status::kOk);

  // Client's turn: its delegate redirects the slice to the server.
  EXPECT_EQ(sched_.ScheduleOnce(), server);
  EXPECT_EQ(sched_.stats().delegations, 1u);
  EXPECT_EQ(server->dispatches(), 1u);
  EXPECT_EQ(client->dispatches(), 0u);
}

TEST_F(SchedTest, DelegationToInvalidThreadFallsBack) {
  KernelThread* a = sched_.CreateThread("a", 1);
  ASSERT_EQ(a->delegate_point().Replace(DelegateTo(4242)), Status::kOk);
  EXPECT_EQ(sched_.ScheduleOnce(), a);  // Fallback: run the candidate.
  EXPECT_EQ(sched_.stats().invalid_delegations, 1u);
}

TEST_F(SchedTest, DelegationAcrossGroupsRejected) {
  // Rule 8 / Cao's principle: a graft must not affect threads outside its
  // scheduling group — even cooperative-looking donation is refused.
  KernelThread* donor = sched_.CreateThread("donor", 1);
  KernelThread* outsider = sched_.CreateThread("outsider", 2);
  ASSERT_EQ(donor->delegate_point().Replace(DelegateTo(outsider->id())), Status::kOk);

  EXPECT_EQ(sched_.ScheduleOnce(), donor);
  EXPECT_EQ(sched_.stats().invalid_delegations, 1u);
  EXPECT_EQ(outsider->dispatches(), 0u);
}

TEST_F(SchedTest, DelegationToBlockedThreadRejected) {
  KernelThread* a = sched_.CreateThread("a", 1);
  KernelThread* b = sched_.CreateThread("b", 1);
  ASSERT_EQ(sched_.Block(b->id()), Status::kOk);
  ASSERT_EQ(a->delegate_point().Replace(DelegateTo(b->id())), Status::kOk);
  EXPECT_EQ(sched_.ScheduleOnce(), a);
  EXPECT_EQ(sched_.stats().invalid_delegations, 1u);
}

TEST_F(SchedTest, MisbehavingDelegateRemovedAndDefaultUsed) {
  KernelThread* a = sched_.CreateThread("a", 1);
  // Infinite-loop delegate.
  Asm spin("spin");
  auto top = spin.NewLabel();
  spin.Bind(top);
  spin.Jmp(top);
  Result<Program> inst = Instrument(*spin.Finish());
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>(
      "spin", *VerifyAndCompile(*inst, host_), kUser, 4096);
  // Tight fuel so the test is fast.
  // (Config is part of the point; rebuild via Replace on a point with the
  // default fuel is fine — the default 10M instructions still terminates,
  // but we keep the test snappy by using the graft point's fuel.)
  ASSERT_EQ(a->delegate_point().Replace(graft), Status::kOk);

  EXPECT_EQ(sched_.ScheduleOnce(), a);  // Fuel exhaustion -> default.
  EXPECT_FALSE(a->delegate_point().grafted());
  EXPECT_EQ(a->delegate_point().stats().graft_aborts, 1u);
}

TEST_F(SchedTest, ProcessListTracksLiveThreads) {
  KernelThread* a = sched_.CreateThread("a", 1);
  sched_.CreateThread("b", 1);
  {
    TxnLockGuard guard(sched_.process_list().lock());
    EXPECT_EQ(sched_.process_list().entries().size(), 2u);
  }
  ASSERT_EQ(sched_.Exit(a->id()), Status::kOk);
  {
    TxnLockGuard guard(sched_.process_list().lock());
    EXPECT_EQ(sched_.process_list().entries().size(), 1u);
  }
}

TEST_F(SchedTest, DelegatePointRegisteredInNamespace) {
  KernelThread* a = sched_.CreateThread("a", 1);
  const std::string name = "thread." + std::to_string(a->id()) + ".schedule-delegate";
  const auto visit = [this, &name] {
    return ns_.WithFunction(name, [](FunctionGraftPoint&) { return Status::kOk; });
  };
  EXPECT_EQ(visit(), Status::kOk);
  ASSERT_EQ(sched_.Exit(a->id()), Status::kOk);
  EXPECT_EQ(visit(), Status::kNotFound);
}

TEST_F(SchedTest, NativeDelegateGraftWorks) {
  // The unsafe-path variant: a native delegate donating to a group member.
  KernelThread* client = sched_.CreateThread("client", 3);
  KernelThread* server = sched_.CreateThread("server", 3);
  auto native = std::make_shared<Graft>(
      "native-delegate",
      [id = server->id()](std::span<const uint64_t>,
                          MemoryImage*) -> Result<uint64_t> { return id; },
      GraftIdentity{0, true});
  ASSERT_EQ(client->delegate_point().Replace(native), Status::kOk);
  EXPECT_EQ(sched_.ScheduleOnce(), server);
  EXPECT_EQ(sched_.stats().delegations, 1u);
}

TEST_F(SchedTest, ExitedThreadSkippedInQueue) {
  KernelThread* a = sched_.CreateThread("a", 1);
  KernelThread* b = sched_.CreateThread("b", 1);
  ASSERT_EQ(sched_.Exit(a->id()), Status::kOk);
  EXPECT_EQ(sched_.ScheduleOnce(), b);  // Stale queue entry for a skipped.
  EXPECT_EQ(sched_.Exit(a->id()), Status::kOk);  // Idempotent-ish: still found.
}

TEST_F(SchedTest, WakeOfRunnableThreadIsNoOp) {
  KernelThread* a = sched_.CreateThread("a", 1);
  ASSERT_EQ(sched_.Wake(a->id()), Status::kOk);  // Already runnable.
  EXPECT_EQ(sched_.ScheduleOnce(), a);
  // No duplicate queue entry was created: next decision is a again (single
  // thread), not a double-dispatch artifact.
  EXPECT_EQ(sched_.ScheduleOnce(), a);
  EXPECT_EQ(a->dispatches(), 2u);
}

TEST_F(SchedTest, CpuTimeAccounting) {
  KernelThread* a = sched_.CreateThread("a", 1);
  KernelThread* b = sched_.CreateThread("b", 1);
  sched_.Run(10);
  EXPECT_EQ(a->cpu_time() + b->cpu_time(), 10 * Scheduler::Params{}.timeslice);
  EXPECT_EQ(a->cpu_time(), b->cpu_time());  // Fair split.
}

}  // namespace
}  // namespace vino
