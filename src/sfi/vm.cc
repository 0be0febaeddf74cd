#include "src/sfi/vm.h"

#include <cstring>

#include "src/sfi/engine_internal.h"

namespace vino {
namespace {

// The operand-shape bodies of the dispatch switch. The op table stamps out
// one case per op (see RunLoop), pasting in the row's access width and
// expression.
#define VM_SHAPE_None(width, expr)
#define VM_SHAPE_Halt(width, expr) \
  outcome.ret = regs[0];           \
  outcome.status = Status::kOk;    \
  return outcome;
#define VM_SHAPE_LoadImm(width, expr) \
  regs[ins.rd] = static_cast<uint64_t>(ins.imm);
#define VM_SHAPE_Mov(width, expr) regs[ins.rd] = regs[ins.rs1];
#define VM_SHAPE_AluR(width, expr)    \
  {                                   \
    const uint64_t a = regs[ins.rs1]; \
    const uint64_t b = regs[ins.rs2]; \
    regs[ins.rd] = (expr);            \
  }
#define VM_SHAPE_AluI(width, expr)                     \
  {                                                    \
    const uint64_t a = regs[ins.rs1];                  \
    const uint64_t b = static_cast<uint64_t>(ins.imm); \
    regs[ins.rd] = (expr);                             \
  }
// In a real kernel an out-of-bounds access is a wild read or write that may
// fault or hit kernel state; we surface it as a trap.
#define VM_SHAPE_Load(width, expr)                                        \
  {                                                                       \
    const uint64_t addr = regs[ins.rs1] + static_cast<uint64_t>(ins.imm); \
    if (kCheckBounds && !image->InBounds(addr, width)) {                  \
      outcome.status = Status::kSfiTrap;                                  \
      return outcome;                                                     \
    }                                                                     \
    uint64_t v = 0;                                                       \
    std::memcpy(&v, mem + addr, width);                                   \
    regs[ins.rd] = v;                                                     \
  }
#define VM_SHAPE_Store(width, expr)                                       \
  {                                                                       \
    const uint64_t addr = regs[ins.rs1] + static_cast<uint64_t>(ins.imm); \
    if (kCheckBounds && !image->InBounds(addr, width)) {                  \
      outcome.status = Status::kSfiTrap;                                  \
      return outcome;                                                     \
    }                                                                     \
    std::memcpy(mem + addr, &regs[ins.rs2], width);                       \
  }
#define VM_SHAPE_Jump(width, expr) pc = static_cast<uint64_t>(ins.imm);
#define VM_SHAPE_Branch(width, expr)       \
  {                                        \
    const uint64_t a = regs[ins.rs1];      \
    const uint64_t b = regs[ins.rs2];      \
    if (expr) {                            \
      pc = static_cast<uint64_t>(ins.imm); \
    }                                      \
  }
#define VM_HOST_CALL(id, checked)                                 \
  if (const Status s =                                            \
          CallHost(host, (id), (checked), regs, image, identity); \
      !IsOk(s)) {                                                 \
    outcome.status = s;                                           \
    return outcome;                                               \
  }
#define VM_SHAPE_Call(width, expr) \
  VM_HOST_CALL(static_cast<uint32_t>(ins.imm), false)
#define VM_SHAPE_CallR(width, expr) \
  VM_HOST_CALL(static_cast<uint32_t>(regs[ins.rs1]), false)
#define VM_SHAPE_CheckedCallR(width, expr) \
  VM_HOST_CALL(static_cast<uint32_t>(regs[ins.rs1]), true)
// The MiSFIT sandbox: force the address into the graft arena.
#define VM_SHAPE_Sandbox(width, expr)                                \
  regs[ins.rd] = ((regs[ins.rs1] + static_cast<uint64_t>(ins.imm)) & \
                  regs[kSandboxMaskReg]) |                           \
                 regs[kSandboxBaseReg];

// The dispatch loop, stamped out twice: kCheckBounds=false runs a verified
// program, whose load-time proof (src/sfi/verifier.h) already covers every
// access, with the per-access InBounds branch compiled out rather than
// tested per iteration; kCheckBounds=true is RunUnverified's classic
// interpreter.
template <bool kCheckBounds>
RunOutcome RunLoop(const Program& program, MemoryImage* image,
                   std::span<const uint64_t> args, const RunOptions& options,
                   const HostCallTable* host, CallerIdentity identity) {
  // The register file must stay a non-escaping local of the dispatch loop:
  // as a caller-provided buffer the compiler would have to assume graft
  // stores through `mem` may alias it and spill/reload around every access.
  uint64_t regs[kNumRegisters] = {};
  const size_t argc = args.size() < kMaxArgs ? args.size() : kMaxArgs;
  for (size_t i = 0; i < argc; ++i) {
    regs[i] = args[i];
  }
  if (program.instrumented) {
    regs[kSandboxMaskReg] = image->arena_mask();
    regs[kSandboxBaseReg] = image->arena_base();
  }
  FinalRegDump reg_dump{options.final_regs, regs};

  RunOutcome outcome;
  uint8_t* const mem = image->data();
  // Hoisted: a graft store through `mem` may alias the vector's internals,
  // so `program.code[pc]` would reload its data pointer every instruction.
  const Instruction* const code = program.code.data();
  const size_t code_size = program.code.size();
  const uint32_t poll_interval = options.EffectivePollInterval();
  uint64_t fuel = options.fuel;
  uint32_t until_poll = poll_interval;
  uint64_t pc = 0;
  while (true) {
    if (pc >= code_size) {
      outcome.status = Status::kBadGraft;  // Fell off the end.
      return outcome;
    }
    if (fuel == 0) {
      outcome.status = Status::kSfiFuelExhausted;
      return outcome;
    }
    --fuel;
    ++outcome.instructions;
    if (--until_poll == 0) {
      until_poll = poll_interval;
      if (options.abort_requested != nullptr &&
          options.abort_requested(options.abort_ctx)) {
        outcome.status = Status::kTxnAborted;
        return outcome;
      }
    }

    const Instruction& ins = code[pc];
    ++pc;

    switch (ins.op) {
#define VM_CASE(name, mnemonic, shape, width, expr) \
  case Op::k##name:                                 \
    VM_SHAPE_##shape(width, expr) break;
      VINO_ISA_OPS(VM_CASE)
#undef VM_CASE
      default:
        outcome.status = Status::kSfiBadOpcode;
        return outcome;
    }
  }
}

}  // namespace

RunOutcome Vm::Run(const VerifiedProgram& program, MemoryImage* image,
                   std::span<const uint64_t> args, const RunOptions& options,
                   CallerIdentity identity) const {
  return RunLoop<false>(program.program(), image, args, options, host_,
                        identity);
}

RunOutcome Vm::RunUnverified(const Program& program, MemoryImage* image,
                             std::span<const uint64_t> args,
                             const RunOptions& options,
                             CallerIdentity identity) const {
  return RunLoop<true>(program, image, args, options, host_, identity);
}

}  // namespace vino
