#include "src/sfi/misfit.h"

#include <vector>

#include "src/base/log.h"
#include "src/sfi/isa.h"

namespace vino {
namespace {

bool TouchesReservedRegister(const Instruction& ins) {
  if (WritesRd(ins.op) && ins.rd >= kFirstReservedReg) {
    return true;
  }
  if (ReadsRs1(ins.op) && ins.rs1 >= kFirstReservedReg) {
    return true;
  }
  if (ReadsRs2(ins.op) && ins.rs2 >= kFirstReservedReg) {
    return true;
  }
  return false;
}

}  // namespace

Result<Program> Instrument(const Program& source, const MisfitOptions& options) {
  if (source.instrumented) {
    // Idempotence would hide double-sandboxing bugs; reject instead.
    return Status::kSfiBadOpcode;
  }
  const Status verify = VerifyProgram(source);
  if (!IsOk(verify)) {
    return verify;
  }

  for (const Instruction& ins : source.code) {
    if (IsInstrumentationOnly(ins.op)) {
      return Status::kSfiBadOpcode;  // Hand-forged instrumentation.
    }
    if (TouchesReservedRegister(ins)) {
      VINO_LOG_WARN << "misfit: program '" << source.name
                    << "' uses reserved registers; rejected";
      return Status::kSfiBadOpcode;
    }
  }

  Program out;
  out.name = source.name;
  out.instrumented = true;
  out.sandbox_log2 = options.arena_log2;
  out.direct_call_ids = source.direct_call_ids;
  out.code.reserve(source.code.size() * 2);

  // Mark branch targets: a redundant-mask fact only holds along
  // straight-line code, so it dies at every instruction control can enter
  // sideways. Targets are source indices (branches are remapped later).
  std::vector<uint8_t> is_target(source.code.size(), 0);
  for (const Instruction& ins : source.code) {
    if (IsBranch(ins.op)) {
      is_target[static_cast<size_t>(ins.imm)] = 1;
    }
  }

  // The one dataflow fact the elision pass tracks: the sandbox address
  // register currently holds sandbox(base_reg + imm), i.e. the result of
  // the last emitted kSandboxAddr, and base_reg has not been redefined
  // since. A following access to base_reg + imm' with a small delta
  // d = imm' - imm (0 <= d, d + 8 <= guard zone) can then reuse it:
  // the address is still confined to arena + guard, which the image owns.
  struct AddrFact {
    bool valid = false;
    uint8_t base_reg = 0;
    int64_t imm = 0;
  };
  AddrFact fact;

  // First pass: emit, recording where each source instruction landed.
  std::vector<int64_t> new_index(source.code.size());
  for (size_t i = 0; i < source.code.size(); ++i) {
    const Instruction& ins = source.code[i];
    new_index[i] = static_cast<int64_t>(out.code.size());
    if (is_target[i]) {
      fact.valid = false;
    }

    if (IsLoad(ins.op) || IsStore(ins.op)) {
      const int64_t delta = ins.imm - fact.imm;
      const bool reuse =
          options.elide_redundant_masks && fact.valid &&
          fact.base_reg == ins.rs1 && delta >= 0 &&
          delta + 8 <= static_cast<int64_t>(kSandboxGuardBytes);
      if (!reuse) {
        // sandbox rA <- rs1 + imm ; access [rA + 0]
        out.code.push_back(
            Instruction{Op::kSandboxAddr, kSandboxAddrReg, ins.rs1, 0, ins.imm});
        fact = AddrFact{true, ins.rs1, ins.imm};
      }
      const int64_t off = reuse ? delta : 0;
      if (IsLoad(ins.op)) {
        out.code.push_back(Instruction{ins.op, ins.rd, kSandboxAddrReg, 0, off});
      } else {
        out.code.push_back(
            Instruction{ins.op, 0, kSandboxAddrReg, ins.rs2, off});
      }
    } else if (ins.op == Op::kCallR) {
      out.code.push_back(Instruction{Op::kCheckedCallR, ins.rd, ins.rs1, 0, 0});
    } else {
      out.code.push_back(ins);
    }

    // Kill the fact when its base register is redefined. Calls always
    // write r0 (the Vm ignores rd on call opcodes); loads write rd.
    if ((WritesRd(ins.op) && !IsCall(ins.op) && ins.rd == fact.base_reg) ||
        (IsCall(ins.op) && fact.base_reg == 0)) {
      fact.valid = false;
    }
  }

  // Second pass: retarget branches through the index map.
  for (Instruction& ins : out.code) {
    if (IsBranch(ins.op)) {
      ins.imm = new_index[static_cast<size_t>(ins.imm)];
    }
  }

  const Status post = VerifyProgram(out);
  if (!IsOk(post)) {
    return post;  // Should be unreachable; defensive.
  }
  return out;
}

}  // namespace vino
