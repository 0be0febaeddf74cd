#include "src/sfi/disasm.h"

#include <set>
#include <sstream>

namespace vino {
namespace {

std::string RegName(uint8_t r) { return "r" + std::to_string(r); }

}  // namespace

std::string DisassembleInstruction(const Instruction& ins,
                                   const DisasmOptions& options) {
  std::ostringstream out;
  out << OpName(ins.op);
  const OpShape shape = ShapeOf(ins.op);
  switch (shape) {
    case OpShape::kNone:
    case OpShape::kHalt:
      break;
    case OpShape::kLoadImm:
      out << " " << RegName(ins.rd) << ", " << ins.imm;
      break;
    case OpShape::kMov:
      out << " " << RegName(ins.rd) << ", " << RegName(ins.rs1);
      break;
    case OpShape::kAluR:
      out << " " << RegName(ins.rd) << ", " << RegName(ins.rs1) << ", "
          << RegName(ins.rs2);
      break;
    case OpShape::kAluI:
      out << " " << RegName(ins.rd) << ", " << RegName(ins.rs1) << ", " << ins.imm;
      break;
    case OpShape::kLoad:
    case OpShape::kSandbox:
      out << " " << RegName(ins.rd) << ", " << RegName(ins.rs1);
      if (ins.imm != 0) {
        out << ", " << ins.imm;
      }
      if (shape == OpShape::kSandbox) {
        out << "   ; misfit";
      }
      break;
    case OpShape::kStore:
      out << " " << RegName(ins.rs1) << ", " << RegName(ins.rs2);
      if (ins.imm != 0) {
        out << ", " << ins.imm;
      }
      break;
    case OpShape::kJump:
      out << " L" << ins.imm;
      break;
    case OpShape::kBranch:
      out << " " << RegName(ins.rs1) << ", " << RegName(ins.rs2) << ", L" << ins.imm;
      break;
    case OpShape::kCall: {
      out << " ";
      const HostCallTable::Entry* entry =
          options.host != nullptr
              ? options.host->Lookup(static_cast<uint32_t>(ins.imm))
              : nullptr;
      if (entry != nullptr) {
        out << entry->name;
      } else {
        out << ins.imm;
      }
      break;
    }
    case OpShape::kCallR:
    case OpShape::kCheckedCallR:
      out << " " << RegName(ins.rs1);
      break;
    case OpShape::kInvalid:
      out << " ?";
      break;
  }
  return out.str();
}

std::string Disassemble(const Program& program, const DisasmOptions& options) {
  // Collect branch targets for label synthesis.
  std::set<int64_t> targets;
  for (const Instruction& ins : program.code) {
    if (IsBranch(ins.op)) {
      targets.insert(ins.imm);
    }
  }

  std::ostringstream out;
  out << "; program: " << program.name;
  if (program.instrumented) {
    out << "  (MiSFIT-instrumented, sandbox 2^" << program.sandbox_log2 << ")";
  }
  out << "\n";
  for (size_t i = 0; i < program.code.size(); ++i) {
    if (targets.count(static_cast<int64_t>(i)) != 0) {
      out << "L" << i << ":\n";
    }
    out << "  ";
    if (options.line_numbers) {
      out << "; " << i << ":\n  ";
    }
    out << DisassembleInstruction(program.code[i], options) << "\n";
  }
  return out.str();
}

}  // namespace vino
