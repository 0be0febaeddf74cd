// Load-time sandbox verifier tests (src/sfi/verifier.h).
//
// The threat model: the MiSFIT instrumenter and the signing pipeline are
// compromised, so "instrumented" programs arrive with any instruction
// stream and any manifest. The verifier must re-prove the sandbox
// invariants from the code alone — accepting everything the real
// instrumenter emits while rejecting forgeries that the old
// trust-the-manifest loader waved through.

#include <gtest/gtest.h>

#include <vector>

#include "src/sfi/assembler.h"
#include "src/sfi/host.h"
#include "src/sfi/isa.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

constexpr uint32_t kArenaLog2 = 16;

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() {
    callable_id_ = host_.Register(
        "k.ok", [](HostCallContext&) -> Result<uint64_t> { return 7ull; },
        true);
    internal_id_ = host_.Register(
        "k.secret", [](HostCallContext&) -> Result<uint64_t> { return 13ull; },
        false);
  }

  // A hand-built "instrumented" program: what a forged toolchain produces.
  static Program Forged(std::vector<Instruction> code,
                        std::vector<uint32_t> declared = {}) {
    Program p;
    p.name = "forged";
    p.instrumented = true;
    p.sandbox_log2 = kArenaLog2;
    p.code = std::move(code);
    p.direct_call_ids = std::move(declared);
    return p;
  }

  VerifierReport Verify(const Program& p) {
    VerifierOptions options;
    options.host = &host_;
    return VerifySandbox(p, options);
  }

  HostCallTable host_;
  uint32_t callable_id_ = 0;
  uint32_t internal_id_ = 0;
};

constexpr Instruction SandboxToR14(uint8_t base_reg, int64_t imm = 0) {
  return Instruction{Op::kSandboxAddr, kSandboxAddrReg, base_reg, 0, imm};
}

constexpr Instruction HaltIns() { return Instruction{Op::kHalt, 0, 0, 0, 0}; }

// ---------------------------------------------------------------------------
// Legitimate instrumenter output is accepted.

TEST_F(VerifierTest, AcceptsInstrumenterOutput) {
  // Loop with loads, stores, a direct call, and an elidable dense run —
  // everything the real pipeline emits.
  Asm a("legit");
  auto loop = a.NewLabel();
  a.LoadImm(R1, 10).LoadImm(R2, 4096).LoadImm(R3, 0);
  a.Bind(loop);
  a.St64(R2, R1);
  a.Ld64(R4, R2);
  a.St64(R2, R4, 8);  // Same base, small delta: elided after instrumentation.
  a.AddI(R2, R2, 16);
  a.AddI(R1, R1, -1);
  a.Bne(R1, R3, loop);
  a.Call(callable_id_);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p, MisfitOptions{kArenaLog2});
  ASSERT_TRUE(inst.ok());

  const VerifierReport report = Verify(*inst);
  EXPECT_TRUE(report.ok()) << report.reason << " at pc " << report.fail_pc;
  EXPECT_EQ(report.direct_call_ids, std::vector<uint32_t>{callable_id_});
  EXPECT_EQ(report.loads_proven, 1u);
  EXPECT_EQ(report.stores_proven, 2u);
  EXPECT_EQ(report.instructions_reached, inst->code.size());
}

TEST_F(VerifierTest, AcceptsElisionEvenWithoutIt) {
  // The non-elided stream (one sandbox per access) verifies too: the
  // verifier constrains the stream's *meaning*, not its shape.
  Asm a("dense");
  a.LoadImm(R1, 0);
  for (int i = 0; i < 8; ++i) {
    a.St64(R1, R1, i * 8);
  }
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  MisfitOptions options{kArenaLog2};
  options.elide_redundant_masks = false;
  Result<Program> plain = Instrument(*p, options);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(Verify(*plain).ok());

  options.elide_redundant_masks = true;
  Result<Program> elided = Instrument(*p, options);
  ASSERT_TRUE(elided.ok());
  EXPECT_TRUE(Verify(*elided).ok());
  // Elision actually happened (first store sandboxes, the rest reuse).
  EXPECT_EQ(elided->code.size(), plain->code.size() - 7);
}

// ---------------------------------------------------------------------------
// The forged-manifest hole: code whose calls escape the declared set.

TEST_F(VerifierTest, RejectsUndeclaredDirectCall) {
  // Declares {callable} but also calls the internal id — the pre-verifier
  // loader accepted this, because it only link-checked the declared list.
  const Program p = Forged(
      {
          Instruction{Op::kCall, 0, 0, 0, callable_id_},
          Instruction{Op::kCall, 0, 0, 0, internal_id_},
          HaltIns(),
      },
      {callable_id_});
  const VerifierReport report = Verify(p);
  EXPECT_EQ(report.status, Status::kIllegalCall);
  EXPECT_EQ(report.fail_pc, 1u);
}

TEST_F(VerifierTest, RejectsDeclaredButNonCallableDirectCall) {
  // Honestly declared, but the target is not graft-callable. The loader's
  // own link check also catches this; the verifier must not depend on it.
  const Program p = Forged(
      {
          Instruction{Op::kCall, 0, 0, 0, internal_id_},
          HaltIns(),
      },
      {internal_id_});
  EXPECT_EQ(Verify(p).status, Status::kIllegalCall);
}

TEST_F(VerifierTest, ExtractsTrueDirectCallSet) {
  const Program p = Forged(
      {
          Instruction{Op::kCall, 0, 0, 0, callable_id_},
          Instruction{Op::kCall, 0, 0, 0, internal_id_},
          HaltIns(),
      },
      {callable_id_, internal_id_});
  VerifierOptions options;  // No host: pure extraction, no callable check.
  const VerifierReport report = VerifySandbox(p, options);
  EXPECT_EQ(report.direct_call_ids,
            (std::vector<uint32_t>{callable_id_, internal_id_}));
}

TEST_F(VerifierTest, UnreachableCallsDoNotCount) {
  // The undeclared call sits after an unconditional jump over it; the CFG
  // never reaches it, so neither can the Vm.
  const Program p = Forged({
      Instruction{Op::kJmp, 0, 0, 0, 2},
      Instruction{Op::kCall, 0, 0, 0, internal_id_},
      HaltIns(),
  });
  const VerifierReport report = Verify(p);
  EXPECT_TRUE(report.ok()) << report.reason;
  EXPECT_TRUE(report.direct_call_ids.empty());
  EXPECT_EQ(report.instructions_reached, 2u);
}

TEST_F(VerifierTest, RejectsUncheckedIndirectCall) {
  // The instrumenter rewrites every kCallR; one surviving is forged.
  const Program p = Forged({
      Instruction{Op::kCallR, 0, 1, 0, 0},
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, ConstantNonCallableIndirectTargetIsRuntimeCheckedByDefault) {
  // `loadi r1, internal; ccallr r1` provably aborts at run time — which is
  // the paper's Rule 7 contract, so the default verifier accepts it (the
  // probe enforces) but still extracts the constant target for audits.
  const Program p = Forged({
      Instruction{Op::kLoadImm, 1, 0, 0, internal_id_},
      Instruction{Op::kCheckedCallR, 0, 1, 0, 0},
      HaltIns(),
  });
  const VerifierReport lax = Verify(p);
  EXPECT_TRUE(lax.ok()) << lax.reason;
  EXPECT_EQ(lax.const_indirect_ids, std::vector<uint32_t>{internal_id_});

  // Strict pipelines refuse grafts that provably abort.
  VerifierOptions strict;
  strict.host = &host_;
  strict.reject_constant_indirect_targets = true;
  EXPECT_EQ(VerifySandbox(p, strict).status, Status::kIllegalCall);

  // A callable constant target passes even under strictness.
  const Program q = Forged({
      Instruction{Op::kLoadImm, 1, 0, 0, callable_id_},
      Instruction{Op::kCheckedCallR, 0, 1, 0, 0},
      HaltIns(),
  });
  EXPECT_TRUE(VerifySandbox(q, strict).ok());
}

TEST_F(VerifierTest, DynamicIndirectTargetKeepsRuntimeCheck) {
  // Target loaded from memory: statically unknown, so the verifier leaves
  // it to kCheckedCallR's runtime hash-table probe.
  const Program p = Forged({
      SandboxToR14(1),
      Instruction{Op::kLd64, 1, kSandboxAddrReg, 0, 0},
      Instruction{Op::kCheckedCallR, 0, 1, 0, 0},
      HaltIns(),
  });
  const VerifierReport report = Verify(p);
  EXPECT_TRUE(report.ok()) << report.reason;
  EXPECT_EQ(report.dynamic_indirect_calls, 1u);
}

// ---------------------------------------------------------------------------
// Memory confinement.

TEST_F(VerifierTest, RejectsUnsandboxedStore) {
  const Program p = Forged({
      Instruction{Op::kLoadImm, 1, 0, 0, 100},
      Instruction{Op::kSt64, 0, 1, 2, 0},  // Raw address: kernel memory.
      HaltIns(),
  });
  const VerifierReport report = Verify(p);
  EXPECT_EQ(report.status, Status::kVerifyFailed);
  EXPECT_EQ(report.fail_pc, 1u);
}

TEST_F(VerifierTest, RejectsUnsandboxedLoad) {
  const Program p = Forged({
      Instruction{Op::kLd64, 0, 1, 0, 0},  // r1 is caller-controlled: top.
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, AcceptsSandboxedAccessWithSmallOffset) {
  const Program p = Forged({
      SandboxToR14(1, 64),
      Instruction{Op::kLd64, 2, kSandboxAddrReg, 0,
                  static_cast<int64_t>(kSandboxGuardBytes - 8)},
      HaltIns(),
  });
  EXPECT_TRUE(Verify(p).ok());
}

TEST_F(VerifierTest, RejectsOffsetBeyondGuardZone) {
  const Program p = Forged({
      SandboxToR14(1),
      Instruction{Op::kLd64, 2, kSandboxAddrReg, 0,
                  static_cast<int64_t>(kSandboxGuardBytes)},
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, RejectsNegativeOffsetFromSandboxedBase) {
  // Below the arena base lies kernel memory; subtraction never verifies.
  const Program p = Forged({
      SandboxToR14(1),
      Instruction{Op::kLd64, 2, kSandboxAddrReg, 0, -8},
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, TracksSandboxedValueThroughArithmetic) {
  // addi on a sandboxed base keeps the fact (small offset), and a
  // const-folded register offset works through kAdd too.
  const Program p = Forged({
      SandboxToR14(1),
      Instruction{Op::kAddI, 2, kSandboxAddrReg, 0, 16},  // r2 = sand + 16
      Instruction{Op::kLoadImm, 3, 0, 0, 8},
      Instruction{Op::kAdd, 2, 2, 3, 0},                  // r2 = sand + 24
      Instruction{Op::kLd64, 4, 2, 0, 32},                // off 56 total: ok
      HaltIns(),
  });
  EXPECT_TRUE(Verify(p).ok());
}

TEST_F(VerifierTest, ArithmeticThatEscapesTheGuardGoesToTop) {
  const Program p = Forged({
      SandboxToR14(1),
      Instruction{Op::kAddI, 2, kSandboxAddrReg, 0,
                  static_cast<int64_t>(kSandboxGuardBytes)},
      Instruction{Op::kAddI, 2, 2, 0, 8},  // Past the guard: fact lost.
      Instruction{Op::kLd64, 4, 2, 0, 0},
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, MaskedBaseLaunderingIsRejected) {
  // `mov r1, r13; sandbox; add r14, r14, r1` would compute base + sandboxed
  // — the classic laundering attack. r13 must read as top, not const 0.
  const Program p = Forged({
      Instruction{Op::kMov, 1, kSandboxBaseReg, 0, 0},
      SandboxToR14(2),
      Instruction{Op::kAdd, 3, kSandboxAddrReg, 1, 0},
      Instruction{Op::kLd64, 4, 3, 0, 0},
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, RejectsSandboxRegisterClobber) {
  // VerifyProgram lets instrumented programs write reserved registers (the
  // instrumenter needs r14); a forged program redefining the *mask* would
  // disable the sandbox entirely. The verifier draws the line at r12/r13.
  const Program clobber_mask = Forged({
      Instruction{Op::kLoadImm, kSandboxMaskReg, 0, 0, ~0},
      SandboxToR14(1),
      Instruction{Op::kSt64, 0, kSandboxAddrReg, 2, 0},
      HaltIns(),
  });
  EXPECT_EQ(Verify(clobber_mask).status, Status::kVerifyFailed);

  const Program clobber_base = Forged({
      Instruction{Op::kLoadImm, kSandboxBaseReg, 0, 0, 0},
      HaltIns(),
  });
  EXPECT_EQ(Verify(clobber_base).status, Status::kVerifyFailed);
}

// ---------------------------------------------------------------------------
// Join, widening, and analysis bounds.

TEST_F(VerifierTest, JoinRequiresSandboxOnEveryPath) {
  // Diamond: only one arm sandboxes r2; at the merge the fact dies and the
  // access is rejected.
  const Program p = Forged({
      /*0*/ Instruction{Op::kBeq, 0, 0, 1, 3},   // r0 == r1 ? goto 3
      /*1*/ Instruction{Op::kSandboxAddr, 2, 1, 0, 0},
      /*2*/ Instruction{Op::kJmp, 0, 0, 0, 4},
      /*3*/ Instruction{Op::kLoadImm, 2, 0, 0, 4096},
      /*4*/ Instruction{Op::kLd64, 3, 2, 0, 0},
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, JoinAcceptsSandboxOnBothPaths) {
  const Program p = Forged({
      /*0*/ Instruction{Op::kBeq, 0, 0, 1, 3},
      /*1*/ Instruction{Op::kSandboxAddr, 2, 1, 0, 0},
      /*2*/ Instruction{Op::kJmp, 0, 0, 0, 4},
      /*3*/ Instruction{Op::kSandboxAddr, 2, 0, 0, 8},
      /*4*/ Instruction{Op::kLd64, 3, 2, 0, 0},
      HaltIns(),
  });
  EXPECT_TRUE(Verify(p).ok());
}

TEST_F(VerifierTest, JoinTakesMaxSandboxedOffset) {
  // Arms contribute sandboxed(0) and sandboxed(guard - 8); the merged fact
  // must keep the larger offset, so an 8-byte access at +8 would escape.
  const Program p = Forged({
      /*0*/ Instruction{Op::kBeq, 0, 0, 1, 3},
      /*1*/ Instruction{Op::kSandboxAddr, 2, 1, 0, 0},
      /*2*/ Instruction{Op::kJmp, 0, 0, 0, 5},
      /*3*/ Instruction{Op::kSandboxAddr, 2, 1, 0, 0},
      /*4*/ Instruction{Op::kAddI, 2, 2, 0,
                        static_cast<int64_t>(kSandboxGuardBytes - 8)},
      /*5*/ Instruction{Op::kLd64, 3, 2, 0, 8},
      HaltIns(),
  });
  EXPECT_EQ(Verify(p).status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, WideningTerminatesLoopedPointerWalk) {
  // A loop that bumps a sandboxed pointer by 8 each iteration: the offset
  // chain would refine forever; widening must push it to top (rejecting
  // the access) in bounded time rather than hanging the loader.
  const Program p = Forged({
      /*0*/ SandboxToR14(1),
      /*1*/ Instruction{Op::kLd64, 2, kSandboxAddrReg, 0, 0},
      /*2*/ Instruction{Op::kAddI, kSandboxAddrReg, kSandboxAddrReg, 0, 8},
      /*3*/ Instruction{Op::kJmp, 0, 0, 0, 1},
  });
  const VerifierReport report = VerifySandbox(p, VerifierOptions{});
  EXPECT_EQ(report.status, Status::kVerifyFailed);
}

TEST_F(VerifierTest, LoopWithResandboxedPointerVerifies) {
  // The shape the real instrumenter emits for a pointer walk: re-sandbox
  // every iteration. The loop join is sandbox(0) ⊔ sandbox(0): stable.
  Asm a("walk");
  auto loop = a.NewLabel();
  a.LoadImm(R1, 0).LoadImm(R2, 32).LoadImm(R3, 0);
  a.Bind(loop);
  a.St64(R1, R2);
  a.AddI(R1, R1, 8);
  a.AddI(R2, R2, -1);
  a.Bne(R2, R3, loop);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p, MisfitOptions{kArenaLog2});
  ASSERT_TRUE(inst.ok());
  EXPECT_TRUE(Verify(*inst).ok());
}

TEST_F(VerifierTest, RejectsUninstrumentedPrograms) {
  Asm a("raw");
  a.LoadImm(R0, 1).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(VerifySandbox(*p).status, Status::kNotInstrumented);
}

TEST_F(VerifierTest, RejectsProgramsOverTheInstructionLimit) {
  const Program p = Forged({
      SandboxToR14(1),
      Instruction{Op::kLd64, 2, kSandboxAddrReg, 0, 0},
      HaltIns(),
  });
  VerifierOptions options;
  options.max_instructions = 2;
  EXPECT_EQ(VerifySandbox(p, options).status, Status::kVerifyFailed);
}

// ---------------------------------------------------------------------------
// The payoff: the Vm's verified fast path is exactly as confined.

TEST_F(VerifierTest, VerifiedFastPathMatchesCheckedSemantics) {
  // Same program, bounds-checked vs verified: identical results, and the
  // kernel region stays clean either way.
  Asm a("payload");
  auto loop = a.NewLabel();
  a.LoadImm(R1, 100).LoadImm(R2, 0).LoadImm(R3, 0).LoadImm(R0, 0);
  a.Bind(loop);
  a.St64(R2, R1);
  a.Ld64(R4, R2);
  a.Add(R0, R0, R4);
  a.AddI(R2, R2, 8);
  a.AddI(R1, R1, -1);
  a.Bne(R1, R3, loop);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p, MisfitOptions{kArenaLog2});
  ASSERT_TRUE(inst.ok());
  const Result<VerifiedProgram> verified =
      VerifyAndCompile(*inst, host_, ExecTier::kTier0);
  ASSERT_TRUE(verified.ok());

  MemoryImage checked_img(4096, kArenaLog2);
  MemoryImage verified_img(4096, kArenaLog2);
  Vm vm(&host_);
  const RunOutcome checked =
      vm.RunUnverified(*inst, &checked_img, {}, RunOptions{});
  const RunOutcome fast = vm.Run(*verified, &verified_img, {}, RunOptions{});

  EXPECT_EQ(checked.status, Status::kOk);
  EXPECT_EQ(fast.status, Status::kOk);
  EXPECT_EQ(fast.ret, checked.ret);
  EXPECT_EQ(fast.instructions, checked.instructions);
  for (uint64_t i = 0; i < verified_img.kernel_size(); ++i) {
    ASSERT_EQ(verified_img.data()[i], checked_img.data()[i]) << "byte " << i;
  }
}

}  // namespace
}  // namespace vino
