#include "src/sfi/program.h"

#include <cstring>

namespace vino {
namespace {

constexpr uint32_t kMagic = 0x56494e4f;  // "VINO"
constexpr uint32_t kVersion = 1;

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (i * 8)));
  }
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (i * 8)));
  }
}

class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) {
      return false;
    }
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) {
      r |= static_cast<uint32_t>(bytes_[pos_ + static_cast<size_t>(i)]) << (i * 8);
    }
    pos_ += 4;
    *v = r;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) {
      return false;
    }
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) {
      r |= static_cast<uint64_t>(bytes_[pos_ + static_cast<size_t>(i)]) << (i * 8);
    }
    pos_ += 8;
    *v = r;
    return true;
  }

  bool GetBytes(void* dst, size_t n) {
    if (pos_ + n > bytes_.size()) {
      return false;
    }
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] bool AtEnd() const { return pos_ == bytes_.size(); }

  [[nodiscard]] size_t Remaining() const { return bytes_.size() - pos_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t pos_ = 0;
};

}  // namespace

Status VerifyProgram(const Program& program) {
  if (program.code.empty()) {
    return Status::kBadGraft;
  }
  const auto n = static_cast<int64_t>(program.code.size());
  for (const Instruction& ins : program.code) {
    const auto opi = static_cast<size_t>(ins.op);
    if (opi >= static_cast<size_t>(Op::kOpCount)) {
      return Status::kSfiBadOpcode;
    }
    if (IsInstrumentationOnly(ins.op) && !program.instrumented) {
      // Instrumentation opcodes in a raw program are a forgery attempt.
      return Status::kSfiBadOpcode;
    }
    if (ins.rd >= kNumRegisters || ins.rs1 >= kNumRegisters ||
        ins.rs2 >= kNumRegisters) {
      return Status::kBadGraft;
    }
    if (IsBranch(ins.op) && (ins.imm < 0 || ins.imm >= n)) {
      return Status::kBadGraft;
    }
  }
  // Structural termination: the final instruction must not fall off the end.
  const Op last = program.code.back().op;
  if (last != Op::kHalt && last != Op::kJmp) {
    return Status::kBadGraft;
  }
  return Status::kOk;
}

std::vector<uint8_t> EncodeProgram(const Program& program) {
  std::vector<uint8_t> out;
  out.reserve(32 + program.name.size() + program.code.size() * 16);

  PutU32(out, kMagic);
  PutU32(out, kVersion);
  PutU32(out, program.instrumented ? 1u : 0u);
  PutU32(out, program.sandbox_log2);

  PutU32(out, static_cast<uint32_t>(program.name.size()));
  out.insert(out.end(), program.name.begin(), program.name.end());

  PutU32(out, static_cast<uint32_t>(program.direct_call_ids.size()));
  for (const uint32_t id : program.direct_call_ids) {
    PutU32(out, id);
  }

  PutU32(out, static_cast<uint32_t>(program.code.size()));
  for (const Instruction& ins : program.code) {
    out.push_back(static_cast<uint8_t>(ins.op));
    out.push_back(ins.rd);
    out.push_back(ins.rs1);
    out.push_back(ins.rs2);
    PutU64(out, static_cast<uint64_t>(ins.imm));
  }
  return out;
}

Result<Program> DecodeProgram(const std::vector<uint8_t>& bytes) {
  Reader r(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t instrumented = 0;
  uint32_t sandbox_log2 = 0;
  if (!r.GetU32(&magic) || magic != kMagic || !r.GetU32(&version) ||
      version != kVersion || !r.GetU32(&instrumented) ||
      !r.GetU32(&sandbox_log2)) {
    return Status::kBadGraft;
  }
  // Canonical encoding: booleans are exactly 0 or 1. Anything else would
  // make the container malleable (bytes that differ but re-encode equal),
  // letting a tampered file slip past signature verification.
  if (instrumented > 1) {
    return Status::kBadGraft;
  }

  Program program;
  program.instrumented = instrumented != 0;
  program.sandbox_log2 = sandbox_log2;

  uint32_t name_len = 0;
  if (!r.GetU32(&name_len) || name_len > 4096) {
    return Status::kBadGraft;
  }
  program.name.resize(name_len);
  if (name_len > 0 && !r.GetBytes(program.name.data(), name_len)) {
    return Status::kBadGraft;
  }

  // Decode-bomb defense: the counts are attacker-controlled, so bound them
  // by the bytes actually present before any resize — a 30-byte file
  // claiming 2^24 instructions must not allocate 256 MiB.
  uint32_t call_count = 0;
  if (!r.GetU32(&call_count) || call_count > (1u << 20) ||
      call_count > r.Remaining() / 4) {
    return Status::kBadGraft;
  }
  program.direct_call_ids.resize(call_count);
  for (uint32_t& id : program.direct_call_ids) {
    if (!r.GetU32(&id)) {
      return Status::kBadGraft;
    }
  }

  // Each encoded instruction is 12 bytes: op/rd/rs1/rs2 plus a u64 imm.
  uint32_t code_count = 0;
  if (!r.GetU32(&code_count) || code_count > (1u << 24) ||
      code_count > r.Remaining() / 12) {
    return Status::kBadGraft;
  }
  program.code.resize(code_count);
  for (Instruction& ins : program.code) {
    uint8_t op = 0;
    uint64_t imm = 0;
    if (!r.GetBytes(&op, 1) || !r.GetBytes(&ins.rd, 1) ||
        !r.GetBytes(&ins.rs1, 1) || !r.GetBytes(&ins.rs2, 1) || !r.GetU64(&imm)) {
      return Status::kBadGraft;
    }
    if (op >= static_cast<uint8_t>(Op::kOpCount)) {
      return Status::kBadGraft;
    }
    ins.op = static_cast<Op>(op);
    ins.imm = static_cast<int64_t>(imm);
  }

  if (!r.AtEnd()) {
    return Status::kBadGraft;
  }
  return program;
}

ProgramProfile ProfileProgram(const Program& program) {
  ProgramProfile p;
  p.total = program.code.size();
  for (const Instruction& ins : program.code) {
    if (IsLoad(ins.op)) {
      ++p.loads;
    } else if (IsStore(ins.op)) {
      ++p.stores;
    } else if (ins.op == Op::kCall) {
      ++p.direct_calls;
    } else if (ins.op == Op::kCallR || ins.op == Op::kCheckedCallR) {
      ++p.indirect_calls;
    } else if (ins.op == Op::kSandboxAddr) {
      ++p.sandbox_ops;
    }
  }
  return p;
}

}  // namespace vino
