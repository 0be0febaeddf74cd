// MiSFIT instrumentation + VM execution tests, including the central
// property of the paper's safety argument: an instrumented program can
// never read or write kernel memory, no matter what addresses it computes —
// while the same program uninstrumented can (the "disaster").

#include <gtest/gtest.h>

#include <vector>

#include "src/base/rng.h"
#include "src/sfi/assembler.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

constexpr uint32_t kArenaLog2 = 16;  // 64 KiB arena.

class MisfitVmTest : public ::testing::Test {
 protected:
  MisfitVmTest() : image_(4096, kArenaLog2), vm_(&host_) {}

  RunOutcome RunRaw(Program p, std::vector<uint64_t> args = {}) {
    return vm_.RunUnverified(p, &image_, args, RunOptions{});
  }

  RunOutcome RunInstrumented(const Program& p, std::vector<uint64_t> args = {}) {
    Result<Program> inst = Instrument(p, MisfitOptions{kArenaLog2});
    EXPECT_TRUE(inst.ok());
    return vm_.RunUnverified(*inst, &image_, args, RunOptions{});
  }

  HostCallTable host_;
  MemoryImage image_;
  Vm vm_;
};

TEST_F(MisfitVmTest, ArithmeticProgram) {
  Asm a("arith");
  a.LoadImm(R1, 21).AddI(R2, R1, 21).Mov(R0, R2).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  const RunOutcome out = RunRaw(*p);
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.ret, 42u);
}

TEST_F(MisfitVmTest, ArgumentsArriveInRegisters) {
  Asm a("args");
  a.Add(R0, R0, R1).Add(R0, R0, R2).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  const RunOutcome out = RunRaw(*p, {10, 20, 30});
  EXPECT_EQ(out.ret, 60u);
}

TEST_F(MisfitVmTest, LoopAndBranches) {
  // Sum 1..100 = 5050.
  Asm a("sum100");
  auto loop = a.NewLabel();
  a.LoadImm(R1, 100).LoadImm(R0, 0).LoadImm(R2, 0);
  a.Bind(loop);
  a.Add(R0, R0, R1).AddI(R1, R1, -1).Bne(R1, R2, loop).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunRaw(*p).ret, 5050u);
  // Instrumentation must not change semantics of a memory-free program.
  EXPECT_EQ(RunInstrumented(*p).ret, 5050u);
}

TEST_F(MisfitVmTest, MemoryReadWriteInsideArena) {
  const uint64_t addr = image_.arena_base() + 128;
  Asm a("mem");
  a.LoadImm(R1, static_cast<int64_t>(addr));
  a.LoadImm(R2, 0xdeadbeef);
  a.St64(R1, R2);
  a.Ld64(R0, R1);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunRaw(*p).ret, 0xdeadbeefu);
  image_.ZeroArena();
  EXPECT_EQ(RunInstrumented(*p).ret, 0xdeadbeefu);
}

TEST_F(MisfitVmTest, NarrowAccessWidths) {
  const uint64_t addr = image_.arena_base();
  Asm a("widths");
  a.LoadImm(R1, static_cast<int64_t>(addr));
  a.LoadImm(R2, 0x1122334455667788);
  a.St64(R1, R2);
  a.Ld8(R3, R1);        // 0x88
  a.Ld16(R4, R1);       // 0x7788
  a.Ld32(R5, R1);       // 0x55667788
  a.Add(R0, R3, R4);
  a.Add(R0, R0, R5);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunRaw(*p).ret, 0x88u + 0x7788u + 0x55667788u);
}

TEST_F(MisfitVmTest, UnsafeProgramCorruptsKernelMemory) {
  // The disaster: an unprotected graft scribbles on kernel data.
  ASSERT_EQ(image_.Write(100, "\x01", 1), Status::kOk);
  Asm a("corruptor");
  a.LoadImm(R1, 100).LoadImm(R2, 0xff).St8(R1, R2).Ld8(R0, R1).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  const RunOutcome out = RunRaw(*p);
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.ret, 0xffu);  // Kernel byte overwritten.
}

TEST_F(MisfitVmTest, InstrumentedProgramCannotTouchKernelMemory) {
  // Same program, MiSFIT-protected: the store is redirected into the arena.
  ASSERT_EQ(image_.Write(100, "\x01", 1), Status::kOk);
  Asm a("corruptor");
  a.LoadImm(R1, 100).LoadImm(R2, 0xff).St8(R1, R2).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  const RunOutcome out = RunInstrumented(*p);
  EXPECT_EQ(out.status, Status::kOk);
  uint8_t kernel_byte = 0;
  ASSERT_EQ(image_.Read(100, &kernel_byte, 1), Status::kOk);
  EXPECT_EQ(kernel_byte, 0x01);  // Kernel memory intact.
  // The write landed inside the arena instead (masked address).
  uint8_t arena_byte = 0;
  ASSERT_EQ(image_.Read(image_.arena_base() + 100, &arena_byte, 1), Status::kOk);
  EXPECT_EQ(arena_byte, 0xff);
}

TEST_F(MisfitVmTest, WildAddressTrapsUnsafeButIsMaskedSafe) {
  Asm a("wild");
  a.LoadImm(R1, static_cast<int64_t>(0x7fffffffffff)).Ld64(R0, R1).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunRaw(*p).status, Status::kSfiTrap);
  EXPECT_EQ(RunInstrumented(*p).status, Status::kOk);
}

TEST_F(MisfitVmTest, SandboxEscapeFuzz) {
  // Property: for 200 random (address, offset, width) combinations, an
  // instrumented store never modifies any byte outside the arena.
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    const auto addr = static_cast<int64_t>(rng.Next());
    const auto off = static_cast<int64_t>(rng.Range(0, 1 << 20)) -
                     static_cast<int64_t>(1 << 19);
    Asm a("fuzz");
    a.LoadImm(R1, addr);
    a.LoadImm(R2, 0x5a5a5a5a5a5a5a5a);
    switch (trial % 4) {
      case 0:
        a.St8(R1, R2, off);
        break;
      case 1:
        a.St16(R1, R2, off);
        break;
      case 2:
        a.St32(R1, R2, off);
        break;
      default:
        a.St64(R1, R2, off);
        break;
    }
    a.Halt();
    Result<Program> p = a.Finish();
    ASSERT_TRUE(p.ok());

    MemoryImage img(4096, kArenaLog2);
    // Poison-free kernel region: all zero. After the run it must still be.
    Vm vm(&host_);
    Result<Program> inst = Instrument(*p, MisfitOptions{kArenaLog2});
    ASSERT_TRUE(inst.ok());
    const RunOutcome out = vm.RunUnverified(*inst, &img, {}, RunOptions{});
    EXPECT_EQ(out.status, Status::kOk) << "trial " << trial;
    for (uint64_t i = 0; i < img.kernel_size(); ++i) {
      ASSERT_EQ(img.data()[i], 0) << "kernel byte " << i << " dirtied, trial "
                                  << trial;
    }
  }
}

TEST_F(MisfitVmTest, FuelExhaustionStopsInfiniteLoop) {
  Asm a("spin");
  auto top = a.NewLabel();
  a.Bind(top);
  a.Jmp(top);
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  RunOptions options;
  options.fuel = 10'000;
  const RunOutcome out = vm_.RunUnverified(*p, &image_, {}, options);
  EXPECT_EQ(out.status, Status::kSfiFuelExhausted);
  EXPECT_EQ(out.instructions, 10'000u);
}

TEST_F(MisfitVmTest, ZeroPollIntervalPollsEveryInstruction) {
  // Regression: poll_interval == 0 used to wrap `--until_poll` to
  // UINT32_MAX, silently disabling abort polling for ~4B instructions.
  // It must mean "poll as often as possible" — the abort lands promptly.
  Asm a("spin");
  auto top = a.NewLabel();
  a.Bind(top);
  a.Jmp(top);
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  RunOptions options;
  int polls = 0;
  options.poll_interval = 0;
  options.abort_ctx = &polls;
  options.abort_requested = [](void* ctx) {
    return ++*static_cast<int*>(ctx) >= 3;
  };
  const RunOutcome out = vm_.RunUnverified(*p, &image_, {}, options);
  EXPECT_EQ(out.status, Status::kTxnAborted);
  EXPECT_EQ(out.instructions, 3u);  // Clamped to every instruction.
}

TEST_F(MisfitVmTest, AbortPollStopsExecution) {
  Asm a("spin");
  auto top = a.NewLabel();
  a.Bind(top);
  a.Jmp(top);
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  RunOptions options;
  int polls = 0;
  options.poll_interval = 64;
  options.abort_ctx = &polls;
  options.abort_requested = [](void* ctx) {
    return ++*static_cast<int*>(ctx) >= 3;
  };
  const RunOutcome out = vm_.RunUnverified(*p, &image_, {}, options);
  EXPECT_EQ(out.status, Status::kTxnAborted);
  EXPECT_EQ(out.instructions, 3u * 64u);
}

TEST_F(MisfitVmTest, HostCallsExchangeValues) {
  const uint32_t add_id = host_.Register(
      "test.add",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        return ctx.args[0] + ctx.args[1];
      },
      true);
  Asm a("hostcall");
  a.LoadImm(R0, 30).LoadImm(R1, 12).Call(add_id).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunRaw(*p).ret, 42u);
  EXPECT_EQ(RunInstrumented(*p).ret, 42u);
}

TEST_F(MisfitVmTest, HostErrorAbortsRun) {
  const uint32_t fail_id = host_.Register(
      "test.fail",
      [](HostCallContext&) -> Result<uint64_t> { return Status::kPermissionDenied; },
      true);
  Asm a("hostfail");
  a.Call(fail_id).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunRaw(*p).status, Status::kPermissionDenied);
}

TEST_F(MisfitVmTest, IndirectCallCheckedAgainstCallableList) {
  const uint32_t callable_id = host_.Register(
      "test.ok", [](HostCallContext&) -> Result<uint64_t> { return 7ull; }, true);
  const uint32_t internal_id = host_.Register(
      "test.internal", [](HostCallContext&) -> Result<uint64_t> { return 13ull; },
      false);

  // callr through a register; instrumented becomes ccallr.
  Asm a("indirect");
  a.LoadImm(R1, callable_id).CallR(R1).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunInstrumented(*p).ret, 7u);

  Asm b("indirect-bad");
  b.LoadImm(R1, internal_id).CallR(R1).Halt();
  Result<Program> q = b.Finish();
  ASSERT_TRUE(q.ok());
  // Unsafe: the wild indirect call *succeeds* — the danger.
  EXPECT_EQ(RunRaw(*q).ret, 13u);
  // Safe: the checked call aborts the graft.
  EXPECT_EQ(RunInstrumented(*q).status, Status::kSfiBadCall);
}

TEST_F(MisfitVmTest, InstrumenterRejectsReservedRegisters) {
  Program p;
  p.name = "reserved";
  p.code.push_back(Instruction{Op::kLoadImm, kSandboxMaskReg, 0, 0, 0});
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  EXPECT_EQ(Instrument(p).status(), Status::kSfiBadOpcode);
}

TEST_F(MisfitVmTest, InstrumenterRejectsForgedSandboxOps) {
  Program p;
  p.name = "forged";
  p.code.push_back(Instruction{Op::kSandboxAddr, kSandboxAddrReg, 1, 0, 0});
  p.code.push_back(Instruction{Op::kHalt, 0, 0, 0, 0});
  EXPECT_FALSE(Instrument(p).ok());
}

TEST_F(MisfitVmTest, InstrumenterRejectsDoubleInstrumentation) {
  Asm a("x");
  a.LoadImm(R0, 1).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> once = Instrument(*p);
  ASSERT_TRUE(once.ok());
  EXPECT_EQ(Instrument(*once).status(), Status::kSfiBadOpcode);
}

TEST_F(MisfitVmTest, BranchTargetsRemappedAcrossInsertions) {
  // A loop whose body contains stores: instrumentation inserts sandbox ops,
  // shifting indices; the loop must still execute exactly 10 iterations.
  Asm a("loopstores");
  auto loop = a.NewLabel();
  const auto base = static_cast<int64_t>(image_.arena_base());
  a.LoadImm(R1, 10);             // counter
  a.LoadImm(R2, base);           // write pointer
  a.LoadImm(R3, 0);              // zero
  a.LoadImm(R0, 0);              // sum
  a.Bind(loop);
  a.St32(R2, R1);                // store counter
  a.Ld32(R4, R2);                // read it back
  a.Add(R0, R0, R4);             // accumulate
  a.AddI(R2, R2, 4);
  a.AddI(R1, R1, -1);
  a.Bne(R1, R3, loop);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(RunRaw(*p).ret, 55u);
  image_.ZeroArena();
  EXPECT_EQ(RunInstrumented(*p).ret, 55u);
}

TEST_F(MisfitVmTest, InstrumentationOverheadProportionalToMemoryOps) {
  // Without elision, the paper's cost model: one sandbox op per access.
  Asm a("dense");
  const auto base = static_cast<int64_t>(image_.arena_base());
  a.LoadImm(R1, base);
  for (int i = 0; i < 50; ++i) {
    a.St64(R1, R1, i * 8);
  }
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  MisfitOptions options{kArenaLog2};
  options.elide_redundant_masks = false;
  Result<Program> inst = Instrument(*p, options);
  ASSERT_TRUE(inst.ok());
  // One sandbox op per store.
  EXPECT_EQ(inst->code.size(), p->code.size() + 50);
  const RunOutcome raw = RunRaw(*p);
  const RunOutcome safe = vm_.RunUnverified(*inst, &image_, {}, RunOptions{});
  EXPECT_EQ(safe.instructions, raw.instructions + 50);
}

TEST_F(MisfitVmTest, ElisionCollapsesDenseAccessRuns) {
  // With elision (the default), a dense same-base run needs one sandbox op
  // total: later stores reuse the sandboxed address register with their
  // small constant delta, staying inside the image's guard zone.
  Asm a("dense");
  const auto base = static_cast<int64_t>(image_.arena_base());
  a.LoadImm(R1, base);
  for (int i = 0; i < 50; ++i) {
    a.St64(R1, R1, i * 8);
  }
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p, MisfitOptions{kArenaLog2});
  ASSERT_TRUE(inst.ok());
  EXPECT_EQ(inst->code.size(), p->code.size() + 1);
  const RunOutcome raw = RunRaw(*p);
  const RunOutcome safe = vm_.RunUnverified(*inst, &image_, {}, RunOptions{});
  EXPECT_EQ(safe.status, Status::kOk);
  EXPECT_EQ(safe.instructions, raw.instructions + 1);
  // The stores landed where the raw program put them.
  for (int i = 0; i < 50; ++i) {
    const uint64_t addr = image_.arena_base() + static_cast<uint64_t>(i) * 8;
    Result<uint64_t> v = image_.ReadU64(addr);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, static_cast<uint64_t>(base)) << "slot " << i;
  }
}

TEST_F(MisfitVmTest, ElisionStopsAtBranchTargetsAndRedefinitions) {
  // A branch target or a base-register redefinition kills the reuse fact;
  // the next access must re-sandbox.
  Asm a("edges");
  const auto base = static_cast<int64_t>(image_.arena_base());
  auto skip = a.NewLabel();
  a.LoadImm(R1, base);
  a.St64(R1, R1);          // sandbox + store
  a.St64(R1, R1, 8);       // elided (delta 8)
  a.AddI(R1, R1, 16);      // base redefined: fact dead
  a.St64(R1, R1);          // sandbox + store
  a.Beq(R2, R3, skip);
  a.Bind(skip);            // branch target: fact dead
  a.St64(R1, R1);          // sandbox + store
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p, MisfitOptions{kArenaLog2});
  ASSERT_TRUE(inst.ok());
  // 4 stores, 3 sandbox ops (only the delta-8 store elides).
  EXPECT_EQ(inst->code.size(), p->code.size() + 3);
  // Offsets beyond the guard zone never elide.
  Asm b("far");
  b.LoadImm(R1, base);
  b.St64(R1, R1);
  b.St64(R1, R1, 1 << 20);  // Way past the guard: re-sandbox.
  b.Halt();
  Result<Program> q = b.Finish();
  ASSERT_TRUE(q.ok());
  Result<Program> qinst = Instrument(*q, MisfitOptions{kArenaLog2});
  ASSERT_TRUE(qinst.ok());
  EXPECT_EQ(qinst->code.size(), q->code.size() + 2);
}

}  // namespace
}  // namespace vino
