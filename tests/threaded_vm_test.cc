// The Tier-1 direct-threaded engine (src/sfi/threaded_vm.h):
//  * the artifact VerifyAndCompile builds under each tier ceiling, its
//    branch targets resolved into its own op array, and the fallback
//    ladder (no artifact -> Tier 0, never an error);
//  * observable-for-observable parity with the Tier-0 interpreter across
//    ALU, memory, control flow, host calls, Rule-7 aborts, fuel
//    exhaustion, and the abort-poll cadence (including the poll_interval
//    == 0 clamp), the last two over every spinner shape;
//  * concurrent invocations sharing one compiled artifact (the TSan stage
//    of tools/check.sh runs this binary).
// The randomized differential sweep lives in tests/property_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/sfi/assembler.h"
#include "src/sfi/isa.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

// Instrument + VerifyAndCompile up to `ceiling`: the same pipeline the
// loader runs, so the program under test is a faithful citizen of its tier.
VerifiedProgram MakeVerified(const Program& raw, const HostCallTable& host,
                             ExecTier ceiling = ExecTier::kTier1) {
  Result<Program> inst = Instrument(raw, MisfitOptions{16});
  EXPECT_TRUE(inst.ok());
  Result<VerifiedProgram> p = VerifyAndCompile(*inst, host, ceiling);
  EXPECT_TRUE(p.ok()) << StatusName(p.status());
  EXPECT_EQ(p->tier(), ceiling);
  return *p;
}

// Runs the same program+args on both tiers against identical fresh images
// and asserts every observable agrees. Returns the Tier-1 outcome.
RunOutcome AssertTierParity(const VerifiedProgram& tier1_program,
                            std::span<const uint64_t> args,
                            const RunOptions& base_options,
                            const HostCallTable* host) {
  const Result<VerifiedProgram> tier0_program =
      VerifyAndCompile(tier1_program.program(), *host, ExecTier::kTier0);
  EXPECT_TRUE(tier0_program.ok());

  MemoryImage image0(8192, 16);
  MemoryImage image1(8192, 16);
  uint64_t regs0[kNumRegisters] = {};
  uint64_t regs1[kNumRegisters] = {};

  RunOptions options0 = base_options;
  options0.final_regs = regs0;
  RunOptions options1 = base_options;
  options1.final_regs = regs1;

  const Vm vm(host);
  const ThreadedVm tvm(host);
  const RunOutcome out0 = vm.Run(*tier0_program, &image0, args, options0);
  const RunOutcome out1 = tvm.Run(tier1_program, &image1, args, options1);

  EXPECT_EQ(out1.status, out0.status);
  EXPECT_EQ(out1.ret, out0.ret);
  EXPECT_EQ(out1.instructions, out0.instructions);
  EXPECT_EQ(out0.tier, ExecTier::kTier0);
  EXPECT_EQ(out1.tier, ExecTier::kTier1);
  for (int i = 0; i < kNumRegisters; ++i) {
    EXPECT_EQ(regs1[i], regs0[i]) << "register r" << i << " diverged";
  }
  EXPECT_EQ(std::memcmp(image0.data(), image1.data(), image0.total_size()), 0)
      << "memory images diverged";
  return out1;
}

// The spinner shapes the fuel and poll parity tests run, as raw programs
// (none touches memory, so instrumenting leaves each one as it is):
//  * a two-op loop body and its jump back;
//  * the one-op self-loop `forever: jmp forever` that a hostile tenant's
//    spinner runs until its fuel is gone;
//  * a loop whose branches target both ends of the op array, op 0 and the
//    last op, counting r1 up and taking the even and odd exits in turn.
std::vector<Program> SpinnerPrograms() {
  std::vector<Program> programs;
  {
    Asm a("spinner");
    auto top = a.NewLabel();
    a.LoadImm(R1, 1);
    a.Bind(top);
    a.Add(R2, R2, R1);
    a.Jmp(top);
    programs.push_back(*a.Finish());
  }
  {
    Asm a("forever");
    auto forever = a.NewLabel();
    a.Bind(forever);
    a.Jmp(forever);
    programs.push_back(*a.Finish());
  }
  {
    Asm a("edges");
    auto first = a.NewLabel();
    auto last = a.NewLabel();
    a.Bind(first);
    a.AddI(R1, R1, 1);
    a.AndI(R2, R1, 1);
    a.Beq(R2, R0, last);
    a.Bne(R2, R0, first);
    a.Bind(last);
    a.Jmp(first);
    programs.push_back(*a.Finish());
  }
  return programs;
}

TEST(CompileThreadedTest, ArtifactFollowsTheTierCeiling) {
  HostCallTable host;
  const Program raw = SpinnerPrograms().back();

  // Uninstrumented: no VerifiedProgram at all, so no Tier-1 form.
  EXPECT_EQ(VerifyAndCompile(raw, host, ExecTier::kTier1).status(),
            Status::kNotInstrumented);

  // Verified under a Tier-0 ceiling: no artifact.
  Result<Program> inst = Instrument(raw, MisfitOptions{16});
  ASSERT_TRUE(inst.ok());
  const Result<VerifiedProgram> tier0 =
      VerifyAndCompile(*inst, host, ExecTier::kTier0);
  ASSERT_TRUE(tier0.ok());
  EXPECT_EQ(tier0->compiled(), nullptr);
  EXPECT_EQ(tier0->tier(), ExecTier::kTier0);

  // Verified under a Tier-1 ceiling: compiled, one op per instruction.
  const Result<VerifiedProgram> tier1 =
      VerifyAndCompile(*inst, host, ExecTier::kTier1);
  ASSERT_TRUE(tier1.ok());
  ASSERT_NE(tier1->compiled(), nullptr);
  const std::vector<ThreadedOp>& ops = tier1->compiled()->ops;
  ASSERT_EQ(ops.size(), inst->code.size());
  EXPECT_EQ(tier1->tier(), ExecTier::kTier1);

  // Every branch op holds the address of its source instruction's target,
  // inside this artifact's own array; the program reaches both ends.
  size_t branches = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const Instruction& ins = inst->code[i];
    if (!IsBranch(ins.op)) {
      continue;
    }
    ++branches;
    EXPECT_EQ(ops[i].target, &ops[static_cast<size_t>(ins.imm)]) << "op " << i;
    EXPECT_GE(ops[i].target, ops.data()) << "op " << i;
    EXPECT_LT(ops[i].target, ops.data() + ops.size()) << "op " << i;
  }
  EXPECT_EQ(branches, 3u);
  EXPECT_EQ(inst->code[2].imm, static_cast<int64_t>(ops.size() - 1));
  EXPECT_EQ(inst->code[3].imm, 0);
}

TEST(CompileThreadedTest, EmptyProgramGetsNoArtifactUnderEitherCeiling) {
  HostCallTable host;
  Program p;
  p.instrumented = true;
  p.sandbox_log2 = 16;
  for (const ExecTier ceiling : {ExecTier::kTier0, ExecTier::kTier1}) {
    EXPECT_EQ(VerifyAndCompile(p, host, ceiling).status(), Status::kBadGraft);
  }
}

TEST(ThreadedVmTest, FallsBackToTier0WithoutArtifact) {
  HostCallTable host;
  Asm a("fallback");
  a.LoadImm(R0, 41).AddI(R0, R0, 1).Halt();
  // A Tier-0 ceiling: no artifact. The engine must run it anyway, on the
  // interpreter, and say so in the outcome.
  const VerifiedProgram p = MakeVerified(*a.Finish(), host, ExecTier::kTier0);
  MemoryImage image(8192, 16);
  const ThreadedVm tvm(&host);
  const RunOutcome out = tvm.Run(p, &image, {}, RunOptions{});
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.ret, 42u);
  EXPECT_EQ(out.tier, ExecTier::kTier0);
}

TEST(ThreadedVmTest, AluAndMemoryParity) {
  HostCallTable host;
  Asm a("alu-mem");
  a.LoadImm(R1, 3);
  a.LoadImm(R2, 1000);
  for (int i = 0; i < 12; ++i) {
    a.Mul(R3, R1, R2);
    a.Sub(R3, R3, R1);
    a.ShrI(R4, R3, 2);
    a.St64(R2, R3, 64 + i * 8);
    a.Ld64(R5, R2, 64 + i * 8);
    a.Add(R0, R0, R5);
    a.St16(R2, R4, 512 + i * 2);
    a.Ld8(R6, R2, 512 + i * 2);
    a.Xor(R0, R0, R6);
  }
  a.Halt();
  const VerifiedProgram p = MakeVerified(*a.Finish(), host);
  const uint64_t args[2] = {11, 22};
  const RunOutcome out = AssertTierParity(p, args, RunOptions{}, &host);
  EXPECT_EQ(out.status, Status::kOk);
}

TEST(ThreadedVmTest, ControlFlowAndDivByZeroParity) {
  HostCallTable host;
  Asm a("loops");
  auto top = a.NewLabel();
  auto out_label = a.NewLabel();
  a.LoadImm(R1, 50);   // Counter.
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 7);
  a.Bind(top);
  a.AddI(R1, R1, -1);
  a.Add(R0, R0, R1);
  a.DivU(R4, R0, R2);  // Division by zero -> 0, both tiers.
  a.RemU(R5, R0, R2);
  a.BltS(R1, R3, out_label);
  a.Jmp(top);
  a.Bind(out_label);
  a.Halt();
  const RunOutcome out = AssertTierParity(MakeVerified(*a.Finish(), host), {},
                                          RunOptions{}, &host);
  EXPECT_EQ(out.status, Status::kOk);
}

TEST(ThreadedVmTest, HostCallSequenceAndRule7Parity) {
  // Two recording host tables (one per tier) observe the *sequence* of
  // calls and their first argument; the sequences must be identical.
  struct Recorder {
    HostCallTable host;
    std::vector<uint64_t> calls;
    uint32_t ok_id = 0;
    uint32_t hostile_id = 0;
    Recorder() {
      ok_id = host.Register(
          "t.record",
          [this](HostCallContext& ctx) -> Result<uint64_t> {
            calls.push_back(ctx.args[0]);
            return ctx.args[0] * 2;
          },
          true);
      hostile_id = host.Register(
          "t.hostile",
          [](HostCallContext&) -> Result<uint64_t> { return 99ull; },
          /*graft_callable=*/false);
    }
  };
  Recorder rec0;
  Recorder rec1;
  ASSERT_EQ(rec0.ok_id, rec1.ok_id);
  ASSERT_EQ(rec0.hostile_id, rec1.hostile_id);

  // Calls the recorder three times (indirect, so instrumentation rewrites
  // to kCheckedCallR), then hits the non-callable id: Rule 7 abort.
  Asm a("caller");
  a.LoadImm(R1, rec0.ok_id);
  a.LoadImm(R0, 5);
  a.CallR(R1);
  a.CallR(R1);
  a.CallR(R1);
  a.LoadImm(R1, rec0.hostile_id);
  a.CallR(R1);  // kSfiBadCall on both tiers.
  a.Halt();
  const Result<Program> raw = a.Finish();
  ASSERT_TRUE(raw.ok());
  const VerifiedProgram p = MakeVerified(*raw, rec0.host);
  const VerifiedProgram tier0 = MakeVerified(*raw, rec0.host, ExecTier::kTier0);
  MemoryImage image0(8192, 16);
  MemoryImage image1(8192, 16);
  const RunOutcome out0 = Vm(&rec0.host).Run(tier0, &image0, {}, RunOptions{});
  const RunOutcome out1 =
      ThreadedVm(&rec1.host).Run(p, &image1, {}, RunOptions{});
  EXPECT_EQ(out0.status, Status::kSfiBadCall);
  EXPECT_EQ(out1.status, Status::kSfiBadCall);
  EXPECT_EQ(out1.instructions, out0.instructions);
  EXPECT_EQ(rec1.calls, rec0.calls);
  EXPECT_EQ(rec1.calls.size(), 3u);
  // r0 threads through the calls: 5 -> 10 -> 20 -> 40.
  EXPECT_EQ(rec1.calls.back(), 20u);
}

TEST(ThreadedVmTest, HostCallErrorStatusParity) {
  auto make_host = [](HostCallTable& host) {
    return host.Register(
        "t.fail",
        [](HostCallContext&) -> Result<uint64_t> {
          return Status::kLimitExceeded;
        },
        true);
  };
  HostCallTable host0;
  HostCallTable host1;
  const uint32_t id = make_host(host0);
  ASSERT_EQ(id, make_host(host1));

  Asm a("failer");
  a.LoadImm(R1, id);
  a.CallR(R1);
  a.Halt();
  const Result<Program> raw = a.Finish();
  ASSERT_TRUE(raw.ok());
  const VerifiedProgram p = MakeVerified(*raw, host0);
  const VerifiedProgram tier0 = MakeVerified(*raw, host0, ExecTier::kTier0);
  MemoryImage image0(8192, 16);
  MemoryImage image1(8192, 16);
  const RunOutcome out0 = Vm(&host0).Run(tier0, &image0, {}, RunOptions{});
  const RunOutcome out1 = ThreadedVm(&host1).Run(p, &image1, {}, RunOptions{});
  EXPECT_EQ(out0.status, Status::kLimitExceeded);
  EXPECT_EQ(out1.status, out0.status);
  EXPECT_EQ(out1.instructions, out0.instructions);
}

TEST(ThreadedVmTest, FuelExhaustionParity) {
  HostCallTable host;
  for (const Program& raw : SpinnerPrograms()) {
    const VerifiedProgram p = MakeVerified(raw, host);
    for (const uint64_t fuel : {0ull, 1ull, 2ull, 97ull, 1000ull}) {
      RunOptions options;
      options.fuel = fuel;
      const RunOutcome out = AssertTierParity(p, {}, options, &host);
      EXPECT_EQ(out.status, Status::kSfiFuelExhausted)
          << raw.name << " fuel=" << fuel;
      EXPECT_EQ(out.instructions, fuel) << raw.name << " fuel=" << fuel;
    }
  }
}

// Counting abort predicate: returns true after N polls, so the program
// stops mid-flight and the poll cadence itself becomes observable.
struct PollCounter {
  uint64_t polls = 0;
  uint64_t trip_after = 0;  // 0 = never trip.
  static bool Predicate(void* ctx) {
    auto* self = static_cast<PollCounter*>(ctx);
    ++self->polls;
    return self->trip_after != 0 && self->polls >= self->trip_after;
  }
};

TEST(ThreadedVmTest, AbortPollCadenceParity) {
  HostCallTable host;
  for (const Program& raw : SpinnerPrograms()) {
    const VerifiedProgram p = MakeVerified(raw, host);
    const VerifiedProgram tier0 = MakeVerified(raw, host, ExecTier::kTier0);

    for (const uint32_t interval : {1u, 7u, 64u}) {
      PollCounter c0;
      PollCounter c1;
      c0.trip_after = c1.trip_after = 5;
      RunOptions options;
      options.poll_interval = interval;
      options.abort_requested = &PollCounter::Predicate;

      MemoryImage image0(8192, 16);
      options.abort_ctx = &c0;
      const RunOutcome out0 = Vm(&host).Run(tier0, &image0, {}, options);
      MemoryImage image1(8192, 16);
      options.abort_ctx = &c1;
      const RunOutcome out1 = ThreadedVm(&host).Run(p, &image1, {}, options);

      const std::string at = raw.name + " interval=" + std::to_string(interval);
      EXPECT_EQ(out0.status, Status::kTxnAborted) << at;
      EXPECT_EQ(out1.status, out0.status) << at;
      EXPECT_EQ(out1.instructions, out0.instructions) << at;
      EXPECT_EQ(c1.polls, c0.polls) << at;
      EXPECT_EQ(c1.polls, 5u) << at;
    }
  }
}

TEST(ThreadedVmTest, PollIntervalZeroClampsToEveryInstruction) {
  // The PR 6 regression: poll_interval == 0 means "poll constantly", not
  // "poll after ~4B instructions". Tier 1 must clamp exactly like Tier 0.
  HostCallTable host;
  const VerifiedProgram p = MakeVerified(SpinnerPrograms().front(), host);

  PollCounter counter;
  counter.trip_after = 3;
  RunOptions options;
  options.poll_interval = 0;
  options.abort_requested = &PollCounter::Predicate;
  options.abort_ctx = &counter;
  MemoryImage image(8192, 16);
  const RunOutcome out = ThreadedVm(&host).Run(p, &image, {}, options);
  EXPECT_EQ(out.status, Status::kTxnAborted);
  EXPECT_EQ(out.tier, ExecTier::kTier1);
  // Clamped to every instruction: tripped at the 3rd dispatch.
  EXPECT_EQ(out.instructions, 3u);
  EXPECT_EQ(counter.polls, 3u);
}

TEST(ThreadedVmTest, ConcurrentRunsShareOneCompiledArtifact) {
  // One compiled artifact, many threads, each with its own image — the
  // graft-point situation. An atomic stop flag doubles as the abort
  // predicate so the test also races abort delivery against dispatch
  // (the check.sh TSan stage runs this).
  HostCallTable host;
  Asm a("shared");
  auto top = a.NewLabel();
  a.LoadImm(R1, 1);
  a.Bind(top);
  a.Add(R2, R2, R1);
  a.St64(R3, R2, 128);
  a.Ld64(R4, R3, 128);
  a.Jmp(top);
  const VerifiedProgram p = MakeVerified(*a.Finish(), host);

  std::atomic<bool> stop{false};
  auto predicate = [](void* ctx) {
    return static_cast<std::atomic<bool>*>(ctx)->load(
        std::memory_order_relaxed);
  };
  const ThreadedVm tvm(&host);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> aborted{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      MemoryImage image(8192, 16);
      RunOptions options;
      options.poll_interval = 8;
      options.abort_requested = predicate;
      options.abort_ctx = &stop;
      const RunOutcome out = tvm.Run(p, &image, {}, options);
      if (out.status == Status::kTxnAborted) {
        aborted.fetch_add(1, std::memory_order_relaxed);
      }
      EXPECT_EQ(out.tier, ExecTier::kTier1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(aborted.load(), kThreads);
}

TEST(ExecEngineTest, TierNames) {
  EXPECT_EQ(ExecTierName(ExecTier::kTier0), "tier0");
  EXPECT_EQ(ExecTierName(ExecTier::kTier1), "tier1");
}

}  // namespace
}  // namespace vino
