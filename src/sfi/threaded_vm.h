// Tier 1 of the graft execution engine: direct-threaded dispatch.
//
// The Tier-0 interpreter pays, per instruction: a pc bounds test, a fuel
// test, an instruction-counter increment, a poll-countdown decrement, an
// operand fetch through the 16-byte encoded Instruction, and a switch whose
// range check and jump-table load the branch predictor shares across all 41
// opcodes. For a program the load-time verifier has proven safe, most of
// that is deletable:
//
//  * pc can never leave the program (VerifyProgram: every branch target is
//    in range and the last instruction is kHalt/kJmp), so the bounds test
//    goes;
//  * the instruction counter is derivable from fuel spent, so the separate
//    increment goes;
//  * pre-decoding at load time resolves each opcode to the *address* of its
//    handler (GCC/Clang computed goto), so dispatch is one indirect jump
//    whose target the BTB predicts per-site instead of through one shared
//    switch;
//  * pre-decoding also resolves each branch target to the address of its
//    op, so a taken branch is one load (`ip = op->target`) where an index
//    would add a multiply and an add to the loop-carried path of every
//    spinning graft.
//
// "Per-site" holds only if each handler keeps its own jump. GCC's
// cross-jumping and GCSE passes otherwise merge the 41 handlers' identical
// dispatch tails into a handful of shared indirect jumps (5 at -O2 and
// -O3), which both blurs the prediction and makes every handler's speed
// depend on unrelated code layout. src/sfi/CMakeLists.txt therefore
// compiles this engine with -fno-gcse -fno-crossjumping under GCC, and
// stage 2 of tools/check.sh fails a build whose ThreadedExec has fewer
// indirect jumps than the op table has rows.
//
// What stays, byte-for-byte: MiSFIT masking semantics (kSandboxAddr, the
// reserved mask/base registers loaded from the image), the Rule-7
// kCheckedCallR runtime probe-and-abort contract, fuel accounting, and the
// abort-poll cadence including the poll_interval==0 clamp. Every handler is
// stamped out of the op table in src/sfi/isa.h, as Tier 0's cases are, so
// the tiers agree on pure ops by construction; the differential fuzz test
// in tests/property_test.cc holds them to identical registers, memory,
// host-call sequences, and abort reasons.
//
// Compilation happens once, in VerifyAndCompile (src/sfi/verifier.h),
// and only after the sandbox proof succeeded — the dropped checks are
// exactly the ones the proof covers, so an unverified program has no Tier-1
// form. A failed or unavailable compile (non-GNU compiler) is never a load
// failure: the artifact is simply absent and the graft runs Tier 0.

#ifndef VINOLITE_SRC_SFI_THREADED_VM_H_
#define VINOLITE_SRC_SFI_THREADED_VM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/program.h"
#include "src/sfi/verifier.h"

namespace vino {

// One pre-decoded instruction: the opcode resolved to its handler address,
// operands widened out of the packed encoding. A kJmp or conditional
// branch holds its resolved target op in place of the instruction's
// absolute index; for kCall, imm is the host-function id.
struct ThreadedOp {
  const void* handler = nullptr;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  union {
    int64_t imm = 0;
    const ThreadedOp* target;  // IsBranch ops only.
  };
};
static_assert(sizeof(ThreadedOp) == 24, "a branch target must not grow ops");

// The Tier-1 artifact: a dense handler-resolved op array. Built once by
// VerifyAndCompile, shared by the VerifiedProgram's copies, immutable
// thereafter; concurrent invocations share it freely. Not copyable: its
// branch ops point into its own array.
struct CompiledProgram {
  CompiledProgram() = default;
  CompiledProgram(const CompiledProgram&) = delete;
  CompiledProgram& operator=(const CompiledProgram&) = delete;

  std::vector<ThreadedOp> ops;
};

// Pre-decodes `program` for direct-threaded dispatch. Only VerifyAndCompile
// calls it, after the sandbox proof. Returns nullptr — never an error — when
// an instruction is out of range (unknown opcode, register, or branch
// target), when the program is empty or does not end in kHalt/kJmp, or when
// the build lacks computed goto. Callers treat nullptr as "run Tier 0".
[[nodiscard]] std::shared_ptr<const CompiledProgram> CompileThreaded(
    const Program& program);

// The Tier-1 engine. Stateless like the Vm: Run is const and all execution
// state lives on its stack, so one instance per graft point serves any
// number of concurrent invocations. A program without a compiled artifact
// runs on the Tier-0 interpreter (and the outcome reports kTier0).
class ThreadedVm final : public ExecutionEngine {
 public:
  explicit ThreadedVm(const HostCallTable* host) : host_(host) {}

  RunOutcome Run(const VerifiedProgram& program, MemoryImage* image,
                 std::span<const uint64_t> args, const RunOptions& options,
                 CallerIdentity identity = {}) const override;

 private:
  const HostCallTable* host_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_THREADED_VM_H_
