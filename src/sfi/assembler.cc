#include "src/sfi/assembler.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <optional>

#include "src/base/log.h"

namespace vino {

// --- Builder -----------------------------------------------------------

Asm::Label Asm::NewLabel() {
  label_pos_.push_back(-1);
  return Label{label_pos_.size() - 1};
}

void Asm::Bind(Label label) {
  label_pos_[label.id] = static_cast<int64_t>(program_.code.size());
}

Asm& Asm::Emit(Op op, uint8_t rd, uint8_t rs1, uint8_t rs2, int64_t imm) {
  program_.code.push_back(Instruction{op, rd, rs1, rs2, imm});
  return *this;
}

Asm& Asm::EmitBranch(Op op, uint8_t rs1, uint8_t rs2, Label target) {
  fixups_.emplace_back(program_.code.size(), target.id);
  return Emit(op, 0, rs1, rs2, 0);
}

Asm& Asm::Nop() { return Emit(Op::kNop, 0, 0, 0, 0); }
Asm& Asm::Halt() { return Emit(Op::kHalt, 0, 0, 0, 0); }
Asm& Asm::LoadImm(Reg rd, int64_t imm) { return Emit(Op::kLoadImm, rd.index, 0, 0, imm); }
Asm& Asm::Mov(Reg rd, Reg rs) { return Emit(Op::kMov, rd.index, rs.index, 0, 0); }

Asm& Asm::Add(Reg rd, Reg a, Reg b) { return Emit(Op::kAdd, rd.index, a.index, b.index, 0); }
Asm& Asm::Sub(Reg rd, Reg a, Reg b) { return Emit(Op::kSub, rd.index, a.index, b.index, 0); }
Asm& Asm::Mul(Reg rd, Reg a, Reg b) { return Emit(Op::kMul, rd.index, a.index, b.index, 0); }
Asm& Asm::DivU(Reg rd, Reg a, Reg b) { return Emit(Op::kDivU, rd.index, a.index, b.index, 0); }
Asm& Asm::RemU(Reg rd, Reg a, Reg b) { return Emit(Op::kRemU, rd.index, a.index, b.index, 0); }
Asm& Asm::And(Reg rd, Reg a, Reg b) { return Emit(Op::kAnd, rd.index, a.index, b.index, 0); }
Asm& Asm::Or(Reg rd, Reg a, Reg b) { return Emit(Op::kOr, rd.index, a.index, b.index, 0); }
Asm& Asm::Xor(Reg rd, Reg a, Reg b) { return Emit(Op::kXor, rd.index, a.index, b.index, 0); }
Asm& Asm::Shl(Reg rd, Reg a, Reg b) { return Emit(Op::kShl, rd.index, a.index, b.index, 0); }
Asm& Asm::Shr(Reg rd, Reg a, Reg b) { return Emit(Op::kShr, rd.index, a.index, b.index, 0); }
Asm& Asm::Sar(Reg rd, Reg a, Reg b) { return Emit(Op::kSar, rd.index, a.index, b.index, 0); }

Asm& Asm::AddI(Reg rd, Reg a, int64_t imm) { return Emit(Op::kAddI, rd.index, a.index, 0, imm); }
Asm& Asm::MulI(Reg rd, Reg a, int64_t imm) { return Emit(Op::kMulI, rd.index, a.index, 0, imm); }
Asm& Asm::AndI(Reg rd, Reg a, int64_t imm) { return Emit(Op::kAndI, rd.index, a.index, 0, imm); }
Asm& Asm::OrI(Reg rd, Reg a, int64_t imm) { return Emit(Op::kOrI, rd.index, a.index, 0, imm); }
Asm& Asm::XorI(Reg rd, Reg a, int64_t imm) { return Emit(Op::kXorI, rd.index, a.index, 0, imm); }
Asm& Asm::ShlI(Reg rd, Reg a, int64_t imm) { return Emit(Op::kShlI, rd.index, a.index, 0, imm); }
Asm& Asm::ShrI(Reg rd, Reg a, int64_t imm) { return Emit(Op::kShrI, rd.index, a.index, 0, imm); }

Asm& Asm::Ld8(Reg rd, Reg addr, int64_t off) { return Emit(Op::kLd8, rd.index, addr.index, 0, off); }
Asm& Asm::Ld16(Reg rd, Reg addr, int64_t off) { return Emit(Op::kLd16, rd.index, addr.index, 0, off); }
Asm& Asm::Ld32(Reg rd, Reg addr, int64_t off) { return Emit(Op::kLd32, rd.index, addr.index, 0, off); }
Asm& Asm::Ld64(Reg rd, Reg addr, int64_t off) { return Emit(Op::kLd64, rd.index, addr.index, 0, off); }
Asm& Asm::St8(Reg addr, Reg val, int64_t off) { return Emit(Op::kSt8, 0, addr.index, val.index, off); }
Asm& Asm::St16(Reg addr, Reg val, int64_t off) { return Emit(Op::kSt16, 0, addr.index, val.index, off); }
Asm& Asm::St32(Reg addr, Reg val, int64_t off) { return Emit(Op::kSt32, 0, addr.index, val.index, off); }
Asm& Asm::St64(Reg addr, Reg val, int64_t off) { return Emit(Op::kSt64, 0, addr.index, val.index, off); }

Asm& Asm::Jmp(Label target) { return EmitBranch(Op::kJmp, 0, 0, target); }
Asm& Asm::Beq(Reg a, Reg b, Label t) { return EmitBranch(Op::kBeq, a.index, b.index, t); }
Asm& Asm::Bne(Reg a, Reg b, Label t) { return EmitBranch(Op::kBne, a.index, b.index, t); }
Asm& Asm::BltU(Reg a, Reg b, Label t) { return EmitBranch(Op::kBltU, a.index, b.index, t); }
Asm& Asm::BgeU(Reg a, Reg b, Label t) { return EmitBranch(Op::kBgeU, a.index, b.index, t); }
Asm& Asm::BltS(Reg a, Reg b, Label t) { return EmitBranch(Op::kBltS, a.index, b.index, t); }
Asm& Asm::BgeS(Reg a, Reg b, Label t) { return EmitBranch(Op::kBgeS, a.index, b.index, t); }

Asm& Asm::Call(uint32_t host_fn_id) {
  program_.direct_call_ids.push_back(host_fn_id);
  return Emit(Op::kCall, 0, 0, 0, static_cast<int64_t>(host_fn_id));
}

Asm& Asm::CallR(Reg target_id) { return Emit(Op::kCallR, 0, target_id.index, 0, 0); }

Asm& Asm::Raw(Instruction ins) {
  program_.code.push_back(ins);
  return *this;
}

Result<Program> Asm::Finish() {
  for (const auto& [index, label_id] : fixups_) {
    if (label_pos_[label_id] < 0) {
      VINO_LOG_ERROR << "asm '" << program_.name << "': unbound label " << label_id;
      return Status::kBadGraft;
    }
    program_.code[index].imm = label_pos_[label_id];
  }
  const Status s = VerifyProgram(program_);
  if (!IsOk(s)) {
    return s;
  }
  return std::move(program_);
}

// --- Text assembler ----------------------------------------------------

namespace {

struct Token {
  std::string_view text;
};

std::string_view TrimComment(std::string_view line) {
  const size_t pos = line.find_first_of(";#");
  return pos == std::string_view::npos ? line : line.substr(0, pos);
}

std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           (std::isspace(static_cast<unsigned char>(line[i])) != 0 || line[i] == ',')) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i])) == 0 && line[i] != ',') {
      ++i;
    }
    if (i > start) {
      out.push_back(line.substr(start, i - start));
    }
  }
  return out;
}

std::optional<uint8_t> ParseReg(std::string_view tok) {
  if (tok.size() < 2 || (tok[0] != 'r' && tok[0] != 'R')) {
    return std::nullopt;
  }
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(tok.data() + 1, tok.data() + tok.size(), value);
  if (ec != std::errc() || ptr != tok.data() + tok.size() || value < 0 ||
      value >= kNumRegisters) {
    return std::nullopt;
  }
  return static_cast<uint8_t>(value);
}

// A 64-bit signed immediate, decimal or 0x hex, with an optional leading
// '-'. The magnitude is parsed unsigned so INT64_MIN, which Disassemble
// prints, reads back.
std::optional<int64_t> ParseImm(std::string_view tok) {
  int base = 10;
  std::string_view body = tok;
  const bool negative = !body.empty() && body[0] == '-';
  if (negative) {
    body.remove_prefix(1);
  }
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    base = 16;
    body.remove_prefix(2);
  }
  uint64_t magnitude = 0;
  const auto [ptr, ec] =
      std::from_chars(body.data(), body.data() + body.size(), magnitude, base);
  const uint64_t limit = uint64_t{INT64_MAX} + (negative ? 1 : 0);
  if (ec != std::errc() || ptr != body.data() + body.size() ||
      magnitude > limit) {
    return std::nullopt;
  }
  return static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
}

}  // namespace

Result<Program> Assemble(std::string_view source, std::string name,
                         const HostCallTable* host) {
  Program program;
  program.name = std::move(name);

  struct PendingBranch {
    size_t instr;
    std::string label;
    int line_no;
  };
  std::unordered_map<std::string, int64_t> labels;
  std::vector<PendingBranch> pending;

  int line_no = 0;
  size_t pos = 0;
  while (pos <= source.size()) {
    const size_t eol = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos : eol - pos);
    pos = (eol == std::string_view::npos) ? source.size() + 1 : eol + 1;
    ++line_no;

    line = TrimComment(line);
    auto tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }

    // Label definition: "name:".
    if (tokens.size() == 1 && tokens[0].back() == ':') {
      std::string label(tokens[0].substr(0, tokens[0].size() - 1));
      if (labels.count(label) != 0) {
        VINO_LOG_ERROR << "asm line " << line_no << ": duplicate label " << label;
        return Status::kBadGraft;
      }
      labels[label] = static_cast<int64_t>(program.code.size());
      continue;
    }

    const Op op = OpFromName(tokens[0]);
    if (op == Op::kOpCount || IsInstrumentationOnly(op)) {
      VINO_LOG_ERROR << "asm line " << line_no << ": unknown op '" << tokens[0] << "'";
      return Status::kBadGraft;
    }

    Instruction ins;
    ins.op = op;
    auto fail = [&](const char* why) -> Result<Program> {
      VINO_LOG_ERROR << "asm line " << line_no << ": " << why;
      return Status::kBadGraft;
    };

    auto reg_at = [&](size_t i, uint8_t* out) {
      if (i >= tokens.size()) {
        return false;
      }
      const auto r = ParseReg(tokens[i]);
      if (!r) {
        return false;
      }
      *out = *r;
      return true;
    };
    auto imm_at = [&](size_t i, int64_t* out) {
      if (i >= tokens.size()) {
        return false;
      }
      const auto v = ParseImm(tokens[i]);
      if (!v) {
        return false;
      }
      *out = *v;
      return true;
    };

    switch (ShapeOf(op)) {
      case OpShape::kNone:
      case OpShape::kHalt:
        break;
      case OpShape::kLoadImm:
        if (!reg_at(1, &ins.rd) || !imm_at(2, &ins.imm)) {
          return fail("expected: loadi rd, imm");
        }
        break;
      case OpShape::kMov:
        if (!reg_at(1, &ins.rd) || !reg_at(2, &ins.rs1)) {
          return fail("expected: mov rd, rs");
        }
        break;
      case OpShape::kAluR:
        if (!reg_at(1, &ins.rd) || !reg_at(2, &ins.rs1) || !reg_at(3, &ins.rs2)) {
          return fail("expected: op rd, ra, rb");
        }
        break;
      case OpShape::kAluI:
        if (!reg_at(1, &ins.rd) || !reg_at(2, &ins.rs1) || !imm_at(3, &ins.imm)) {
          return fail("expected: op rd, ra, imm");
        }
        break;
      case OpShape::kLoad:
        if (!reg_at(1, &ins.rd) || !reg_at(2, &ins.rs1)) {
          return fail("expected: ldN rd, raddr [, off]");
        }
        if (tokens.size() > 3 && !imm_at(3, &ins.imm)) {
          return fail("bad offset");
        }
        break;
      case OpShape::kStore:
        if (!reg_at(1, &ins.rs1) || !reg_at(2, &ins.rs2)) {
          return fail("expected: stN raddr, rval [, off]");
        }
        if (tokens.size() > 3 && !imm_at(3, &ins.imm)) {
          return fail("bad offset");
        }
        break;
      case OpShape::kJump:
        if (tokens.size() < 2) {
          return fail("expected: jmp label");
        }
        pending.push_back({program.code.size(), std::string(tokens[1]), line_no});
        break;
      case OpShape::kBranch:
        if (!reg_at(1, &ins.rs1) || !reg_at(2, &ins.rs2) || tokens.size() < 4) {
          return fail("expected: bcc ra, rb, label");
        }
        pending.push_back({program.code.size(), std::string(tokens[3]), line_no});
        break;
      case OpShape::kCall: {
        if (tokens.size() < 2) {
          return fail("expected: call fn");
        }
        uint32_t id = 0;
        if (const auto numeric = ParseImm(tokens[1]); numeric && *numeric > 0) {
          if (*numeric > int64_t{UINT32_MAX}) {
            return fail("host function id does not fit in 32 bits");
          }
          id = static_cast<uint32_t>(*numeric);
        } else if (host != nullptr) {
          const auto resolved = host->IdOf(tokens[1]);
          if (!resolved.ok()) {
            return fail("unknown host function");
          }
          id = resolved.value();
        } else {
          return fail("call needs a numeric id without a host table");
        }
        ins.imm = static_cast<int64_t>(id);
        program.direct_call_ids.push_back(id);
        break;
      }
      case OpShape::kCallR:
        if (!reg_at(1, &ins.rs1)) {
          return fail("expected: callr rid");
        }
        break;
      default:
        return fail("unsupported op");
    }
    program.code.push_back(ins);
  }

  for (const PendingBranch& b : pending) {
    const auto it = labels.find(b.label);
    if (it == labels.end()) {
      VINO_LOG_ERROR << "asm line " << b.line_no << ": undefined label " << b.label;
      return Status::kBadGraft;
    }
    program.code[b.instr].imm = it->second;
  }

  const Status s = VerifyProgram(program);
  if (!IsOk(s)) {
    return s;
  }
  return program;
}

}  // namespace vino
