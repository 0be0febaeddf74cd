// The graft virtual ISA.
//
// The paper's grafts are C++ compiled to i386 and rewritten by MiSFIT.
// We reproduce the *mechanism* on a small register-based virtual ISA:
// grafts are authored against this ISA (via the builder or text assembler),
// instrumented by our MiSFIT pass (src/sfi/misfit.h), and executed by the
// interpreter (src/sfi/vm.h). The unsafe/safe measurement paths of the paper
// map to executing a program before/after instrumentation.
//
// Register file: 16 general registers r0..r15.
//   r0        return value; also first argument slot.
//   r1..r5    argument slots 2..6.
//   r12..r15  RESERVED for the MiSFIT pass (sandbox mask, base, and scratch
//             address registers). Source programs that touch them are
//             rejected by the instrumenter — this is the classic Wahbe-style
//             dedicated-register argument that makes the sandbox jump-proof.
//
// Memory operands are 64-bit virtual addresses into a MemoryImage.
// Control flow targets are absolute instruction indices.

#ifndef VINOLITE_SRC_SFI_ISA_H_
#define VINOLITE_SRC_SFI_ISA_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace vino {

inline constexpr int kNumRegisters = 16;

// Registers reserved for instrumentation.
inline constexpr uint8_t kSandboxMaskReg = 12;
inline constexpr uint8_t kSandboxBaseReg = 13;
inline constexpr uint8_t kSandboxAddrReg = 14;
inline constexpr uint8_t kScratchReg = 15;
inline constexpr uint8_t kFirstReservedReg = 12;

// Maximum number of argument registers (r0..r5).
inline constexpr int kMaxArgs = 6;

// Guard zone after the graft arena (classic Wahbe-style SFI). Every
// MemoryImage allocates this many zeroed bytes beyond the arena's end, so a
// sandboxed base plus a small positive constant offset is still confined to
// image-owned memory without re-masking. This is what lets the instrumenter
// elide the kSandboxAddr op on `already-sandboxed base + small offset`
// accesses and lets the verifier prove them safe: for any access it admits,
//   max address = arena_base + (arena_size - 1) + offset + width
//               <= arena_base + arena_size + kSandboxGuardBytes
// which is inside the image by construction. Kernel memory sits *below* the
// arena, so guard spill can never touch kernel state.
inline constexpr uint64_t kSandboxGuardBytes = 8192;

// The op table: every vISA op once, in wire order. An op's row index is
// its encoded value, so rows are only ever appended. Columns:
//   name      the Op enumerator without its `k`;
//   mnemonic  its text-assembler and disassembler spelling;
//   shape     its operand shape (OpShape below) — what every engine, the
//             verifier, the disassembler and the assembler switch on;
//   width     the access width in bytes of a load or store, else 0;
//   expr      for the ops that only compute (kAluR, kAluI, kBranch shapes),
//             their meaning as one expression over the uint64_t operands `a`
//             (rs1) and `b` (rs2, or the immediate); a branch's is its
//             condition. 0 for every other op.
// Both execution tiers paste `expr` into their handlers and the verifier
// folds constants through Eval, so the three cannot disagree on it.
#define VINO_ISA_OPS(X)                                                    \
  X(Nop, "nop", None, 0, 0)                                                \
  X(Halt, "halt", Halt, 0, 0)                                              \
  X(LoadImm, "loadi", LoadImm, 0, 0)                                       \
  X(Mov, "mov", Mov, 0, 0)                                                 \
  X(Add, "add", AluR, 0, a + b)                                            \
  X(Sub, "sub", AluR, 0, a - b)                                            \
  X(Mul, "mul", AluR, 0, a * b)                                            \
  X(DivU, "divu", AluR, 0, b == 0 ? 0 : a / b)                             \
  X(RemU, "remu", AluR, 0, b == 0 ? 0 : a % b)                             \
  X(And, "and", AluR, 0, a & b)                                            \
  X(Or, "or", AluR, 0, a | b)                                              \
  X(Xor, "xor", AluR, 0, a ^ b)                                            \
  X(Shl, "shl", AluR, 0, a << (b & 63))                                    \
  X(Shr, "shr", AluR, 0, a >> (b & 63))                                    \
  X(Sar, "sar", AluR, 0,                                                   \
    static_cast<uint64_t>(static_cast<int64_t>(a) >> (b & 63)))            \
  X(AddI, "addi", AluI, 0, a + b)                                          \
  X(MulI, "muli", AluI, 0, a * b)                                          \
  X(AndI, "andi", AluI, 0, a & b)                                          \
  X(OrI, "ori", AluI, 0, a | b)                                            \
  X(XorI, "xori", AluI, 0, a ^ b)                                          \
  X(ShlI, "shli", AluI, 0, a << (b & 63))                                  \
  X(ShrI, "shri", AluI, 0, a >> (b & 63))                                  \
  X(Ld8, "ld8", Load, 1, 0)                                                \
  X(Ld16, "ld16", Load, 2, 0)                                              \
  X(Ld32, "ld32", Load, 4, 0)                                              \
  X(Ld64, "ld64", Load, 8, 0)                                              \
  X(St8, "st8", Store, 1, 0)                                               \
  X(St16, "st16", Store, 2, 0)                                             \
  X(St32, "st32", Store, 4, 0)                                             \
  X(St64, "st64", Store, 8, 0)                                             \
  X(Jmp, "jmp", Jump, 0, 0)                                                \
  X(Beq, "beq", Branch, 0, a == b)                                         \
  X(Bne, "bne", Branch, 0, a != b)                                         \
  X(BltU, "bltu", Branch, 0, a < b)                                        \
  X(BgeU, "bgeu", Branch, 0, a >= b)                                       \
  X(BltS, "blts", Branch, 0,                                               \
    static_cast<int64_t>(a) < static_cast<int64_t>(b))                     \
  X(BgeS, "bges", Branch, 0,                                               \
    static_cast<int64_t>(a) >= static_cast<int64_t>(b))                    \
  X(Call, "call", Call, 0, 0)                                              \
  X(CallR, "callr", CallR, 0, 0)                                           \
  X(SandboxAddr, "sandbox", Sandbox, 0, 0)                                 \
  X(CheckedCallR, "ccallr", CheckedCallR, 0, 0)

enum class Op : uint8_t {
#define VINO_OP_ENUM(name, ...) k##name,
  VINO_ISA_OPS(VINO_OP_ENUM)
#undef VINO_OP_ENUM
  kOpCount,
};

// How an op reads and writes its operands, and what it does when it does
// more than compute `expr`.
enum class OpShape : uint8_t {
  kNone,          // nothing
  kHalt,          // stop; r0 is the program's return value
  kLoadImm,       // rd <- imm
  kMov,           // rd <- rs1
  kAluR,          // rd <- expr(rs1, rs2)
  kAluI,          // rd <- expr(rs1, imm)
  kLoad,          // rd <- zx(mem[rs1 + imm]), `width` bytes
  kStore,         // mem[rs1 + imm] <- rs2, `width` bytes
  kJump,          // pc <- imm, an absolute instruction index
  kBranch,        // if expr(rs1, rs2): pc <- imm
  // Host interface. A direct call names a host function id in imm; the id
  // set is checked against the graft-callable list at link time (paper
  // §3.3). An indirect call takes the id from rs1; MiSFIT rewrites it to a
  // checked call that probes the callable hash table at run time.
  kCall,          // r0 <- host[imm](r0..r5)
  kCallR,         // r0 <- host[rs1](r0..r5)
  // Instrumentation-only shapes: MiSFIT emits them; a source program that
  // uses one is a forgery attempt.
  kCheckedCallR,  // like kCallR, but probes the callable table first
  kSandbox,       // rd <- ((rs1 + imm) & rMask) | rBase
  kInvalid,       // not an op
};

// One decoded instruction. Fixed 16-byte layout keeps encode/decode trivial.
struct Instruction {
  Op op = Op::kNop;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  int64_t imm = 0;

  bool operator==(const Instruction&) const = default;
};

namespace internal {

struct OpRow {
  std::string_view mnemonic;
  OpShape shape;
  uint8_t width;
};

inline constexpr OpRow kOpRows[] = {
#define VINO_OP_ROW(name, mnemonic, shape, width, expr) \
  {mnemonic, OpShape::k##shape, width},
    VINO_ISA_OPS(VINO_OP_ROW)
#undef VINO_OP_ROW
};

}  // namespace internal

// kInvalid for a value outside the table.
[[nodiscard]] constexpr OpShape ShapeOf(Op op) {
  const auto i = static_cast<size_t>(op);
  return i < std::size(internal::kOpRows) ? internal::kOpRows[i].shape
                                          : OpShape::kInvalid;
}

// Mnemonic for diagnostics and the text assembler. Returns "?" if invalid.
[[nodiscard]] constexpr std::string_view OpName(Op op) {
  const auto i = static_cast<size_t>(op);
  return i < std::size(internal::kOpRows) ? internal::kOpRows[i].mnemonic
                                          : "?";
}

// Reverse lookup for the text assembler. Returns kOpCount if unknown.
[[nodiscard]] constexpr Op OpFromName(std::string_view name) {
  for (size_t i = 0; i < std::size(internal::kOpRows); ++i) {
    if (internal::kOpRows[i].mnemonic == name) {
      return static_cast<Op>(i);
    }
  }
  return Op::kOpCount;
}

// What an op that only computes (kAluR, kAluI, kBranch) yields for operands
// `a` and `b`; 0 for every other op. The verifier's constant folding.
[[nodiscard]] constexpr uint64_t Eval(Op op, uint64_t a, uint64_t b) {
  switch (op) {
#define VINO_OP_EVAL(name, mnemonic, shape, width, expr) \
  case Op::k##name:                                      \
    return (expr);
    VINO_ISA_OPS(VINO_OP_EVAL)
#undef VINO_OP_EVAL
    default:
      return 0;
  }
}

// Instruction classification helpers used by the verifier and instrumenter.
[[nodiscard]] constexpr bool IsLoad(Op op) {
  return ShapeOf(op) == OpShape::kLoad;
}
[[nodiscard]] constexpr bool IsStore(Op op) {
  return ShapeOf(op) == OpShape::kStore;
}
// Conditional branches and kJmp.
[[nodiscard]] constexpr bool IsBranch(Op op) {
  const OpShape s = ShapeOf(op);
  return s == OpShape::kJump || s == OpShape::kBranch;
}
// kCall, kCallR, kCheckedCallR.
[[nodiscard]] constexpr bool IsCall(Op op) {
  const OpShape s = ShapeOf(op);
  return s == OpShape::kCall || s == OpShape::kCallR ||
         s == OpShape::kCheckedCallR;
}
// kSandboxAddr and kCheckedCallR: the source-program checks, the MiSFIT
// pass and the text assembler all refuse them.
[[nodiscard]] constexpr bool IsInstrumentationOnly(Op op) {
  const OpShape s = ShapeOf(op);
  return s == OpShape::kCheckedCallR || s == OpShape::kSandbox;
}
[[nodiscard]] constexpr bool ReadsRs2(Op op) {
  const OpShape s = ShapeOf(op);
  return s == OpShape::kAluR || s == OpShape::kStore || s == OpShape::kBranch;
}
// Every op that reads rs2 also reads rs1.
[[nodiscard]] constexpr bool ReadsRs1(Op op) {
  const OpShape s = ShapeOf(op);
  return ReadsRs2(op) || s == OpShape::kMov || s == OpShape::kAluI ||
         s == OpShape::kLoad || s == OpShape::kCallR ||
         s == OpShape::kCheckedCallR || s == OpShape::kSandbox;
}
// True for calls too, although they write r0 and ignore rd; the verifier
// and MiSFIT special-case them.
[[nodiscard]] constexpr bool WritesRd(Op op) {
  const OpShape s = ShapeOf(op);
  return s == OpShape::kLoadImm || s == OpShape::kMov || s == OpShape::kAluR ||
         s == OpShape::kAluI || s == OpShape::kLoad || s == OpShape::kSandbox ||
         IsCall(op);
}

// Width in bytes of a load/store opcode; 0 for non-memory opcodes.
[[nodiscard]] constexpr uint64_t AccessWidth(Op op) {
  const auto i = static_cast<size_t>(op);
  return i < std::size(internal::kOpRows) ? internal::kOpRows[i].width : 0;
}

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_ISA_H_
