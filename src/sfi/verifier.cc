#include "src/sfi/verifier.h"

#include <algorithm>
#include <array>

#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/sfi/isa.h"
#include "src/sfi/threaded_vm.h"

namespace vino {
namespace {

// One abstract register value. The lattice is
//   bottom < const(c), sandboxed(off) < top
// with sandboxed(a) <= sandboxed(b) when a <= b.
enum class Kind : uint8_t { kBottom = 0, kConst, kSandboxed, kTop };

struct AbsVal {
  Kind kind = Kind::kBottom;
  uint64_t v = 0;  // const: the value; sandboxed: max offset past the base.

  bool operator==(const AbsVal&) const = default;
};

constexpr AbsVal Top() { return {Kind::kTop, 0}; }
constexpr AbsVal Const(uint64_t c) { return {Kind::kConst, c}; }
constexpr AbsVal Sandboxed(uint64_t off) { return {Kind::kSandboxed, off}; }

AbsVal Join(const AbsVal& a, const AbsVal& b) {
  if (a.kind == Kind::kBottom) {
    return b;
  }
  if (b.kind == Kind::kBottom) {
    return a;
  }
  if (a == b) {
    return a;
  }
  if (a.kind == Kind::kSandboxed && b.kind == Kind::kSandboxed) {
    return Sandboxed(std::max(a.v, b.v));
  }
  return Top();
}

// sandboxed(off) + delta. Only small non-negative deltas keep the
// sandboxed fact; anything that could leave the guard zone goes to top.
// `delta` is the raw two's-complement immediate, so a negative imm shows
// up as a huge uint64 and falls to top — subtraction below the arena base
// is never admitted.
AbsVal AddToSandboxed(const AbsVal& s, uint64_t delta) {
  if (delta > kSandboxGuardBytes || s.v + delta > kSandboxGuardBytes) {
    return Top();
  }
  return Sandboxed(s.v + delta);
}

struct State {
  std::array<AbsVal, kNumRegisters> regs{};

  bool operator==(const State&) const = default;
};

// Entry state. Argument registers hold caller data; r6..r11 are zeroed by
// the Vm and unreachable to callers. The reserved registers are top, NOT
// const: r12/r13 hold the image's mask/base at run time, and modeling
// them as a known constant would let `mov r1, r13` launder the arena base
// into the const domain and poison sandboxed-offset arithmetic.
State EntryState() {
  State s;
  for (int r = 0; r < kNumRegisters; ++r) {
    if (r < kMaxArgs || r >= kFirstReservedReg) {
      s.regs[static_cast<size_t>(r)] = Top();
    } else {
      s.regs[static_cast<size_t>(r)] = Const(0);
    }
  }
  return s;
}

void InsertSorted(std::vector<uint32_t>& ids, uint32_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) {
    ids.insert(it, id);
  }
}

class Analyzer {
 public:
  Analyzer(const Program& program, const VerifierOptions& options)
      : program_(program), options_(options) {}

  VerifierReport Run() {
    const size_t n = program_.code.size();
    in_.assign(n, State{});  // All-bottom: unreached.
    visits_.assign(n, 0);
    in_work_.assign(n, 0);
    reached_.assign(n, 0);
    declared_.assign(program_.direct_call_ids.begin(),
                     program_.direct_call_ids.end());
    std::sort(declared_.begin(), declared_.end());

    in_[0] = EntryState();
    Push(0);

    uint64_t total_visits = 0;
    while (!work_.empty() && report_.ok()) {
      const uint32_t pc = work_.back();
      work_.pop_back();
      in_work_[pc] = 0;
      if (++total_visits > options_.max_total_visits) {
        Fail(pc, Status::kVerifyFailed, "analysis did not converge");
        break;
      }
      Step(pc);
    }

    if (report_.ok()) {
      Summarize();
    }
    return std::move(report_);
  }

 private:
  void Push(uint32_t pc) {
    if (in_work_[pc] == 0) {
      in_work_[pc] = 1;
      work_.push_back(pc);
    }
  }

  void Fail(uint64_t pc, Status status, std::string reason) {
    report_.status = status;
    report_.fail_pc = pc;
    report_.reason = std::move(reason);
  }

  // Joins `out` into pc's in-state; re-enqueues pc if anything weakened.
  // Past the widening threshold, any register still changing jumps to top.
  void Flow(uint32_t pc, const State& out) {
    const bool widen = visits_[pc] >= options_.max_visits_per_pc;
    bool changed = false;
    for (size_t r = 0; r < kNumRegisters; ++r) {
      AbsVal j = Join(in_[pc].regs[r], out.regs[r]);
      if (!(j == in_[pc].regs[r])) {
        if (widen) {
          j = Top();
        }
        if (!(j == in_[pc].regs[r])) {
          in_[pc].regs[r] = j;
          changed = true;
        }
      }
    }
    if (changed) {
      ++visits_[pc];
      Push(pc);
    }
  }

  void CheckMemory(uint32_t pc, const Instruction& ins) {
    const AbsVal& addr = in_[pc].regs[ins.rs1];
    if (addr.kind != Kind::kSandboxed) {
      Fail(pc, Status::kVerifyFailed,
           "memory address not derived from a sandbox op");
      return;
    }
    const auto delta = static_cast<uint64_t>(ins.imm);
    const uint64_t width = AccessWidth(ins.op);
    if (delta > kSandboxGuardBytes ||
        addr.v + delta + width > kSandboxGuardBytes) {
      Fail(pc, Status::kVerifyFailed,
           "memory offset may escape the sandbox guard zone");
    }
  }

  void CheckCall(uint32_t pc, const Instruction& ins) {
    const OpShape shape = ShapeOf(ins.op);
    if (shape == OpShape::kCallR) {
      // The instrumenter rewrites every kCallR to kCheckedCallR; one
      // surviving in "instrumented" code is forged toolchain output.
      Fail(pc, Status::kVerifyFailed,
           "unchecked indirect call in instrumented program");
      return;
    }
    if (shape == OpShape::kCall) {
      const auto id = static_cast<uint32_t>(ins.imm);
      InsertSorted(report_.direct_call_ids, id);
      if (options_.require_declared_calls &&
          !std::binary_search(declared_.begin(), declared_.end(), id)) {
        Fail(pc, Status::kIllegalCall,
             "direct call id not declared in the manifest");
        return;
      }
      if (options_.host != nullptr && !options_.host->IsCallable(id)) {
        Fail(pc, Status::kIllegalCall,
             "direct call to a non-graft-callable id");
      }
      return;
    }
    // kCheckedCallR: the runtime hash-table probe enforces safety either
    // way (§3.3, Rule 7). A provably constant target is extracted for the
    // report, and optionally refused outright when strictness is on.
    const AbsVal& target = in_[pc].regs[ins.rs1];
    if (target.kind == Kind::kConst) {
      const auto id = static_cast<uint32_t>(target.v);
      InsertSorted(report_.const_indirect_ids, id);
      if (options_.reject_constant_indirect_targets &&
          options_.host != nullptr && !options_.host->IsCallable(id)) {
        Fail(pc, Status::kIllegalCall,
             "indirect call with constant non-callable target");
      }
    }
  }

  void Step(uint32_t pc) {
    reached_[pc] = 1;
    const Instruction& ins = program_.code[pc];
    const OpShape shape = ShapeOf(ins.op);
    State out = in_[pc];

    // The sandbox registers are sacred: the mask/base the Vm loads from
    // the image at entry must survive every path, or kSandboxAddr (and
    // everything this verifier proves from it) means nothing. The Vm
    // ignores rd on call opcodes and writes r0 instead, so calls are
    // exempt from the rd rule and handled below.
    if (WritesRd(ins.op) && !IsCall(ins.op) &&
        (ins.rd == kSandboxMaskReg || ins.rd == kSandboxBaseReg)) {
      Fail(pc, Status::kVerifyFailed, "program writes a sandbox register");
      return;
    }

    switch (shape) {
      case OpShape::kNone:
      case OpShape::kHalt:
      case OpShape::kJump:
      case OpShape::kBranch:
        break;

      case OpShape::kLoadImm:
        out.regs[ins.rd] = Const(static_cast<uint64_t>(ins.imm));
        break;
      case OpShape::kMov:
        out.regs[ins.rd] = out.regs[ins.rs1];
        break;

      case OpShape::kAluR:
      case OpShape::kAluI: {
        // Constants fold through the op table's own expression, so a
        // const feeding a sandboxed-offset addition is exactly the value
        // either tier will compute. The sandboxed fact survives only
        // adding a constant.
        const AbsVal a = out.regs[ins.rs1];
        const AbsVal b = shape == OpShape::kAluR
                             ? out.regs[ins.rs2]
                             : Const(static_cast<uint64_t>(ins.imm));
        const bool add = ins.op == Op::kAdd || ins.op == Op::kAddI;
        if (a.kind == Kind::kConst && b.kind == Kind::kConst) {
          out.regs[ins.rd] = Const(Eval(ins.op, a.v, b.v));
        } else if (add && a.kind == Kind::kSandboxed &&
                   b.kind == Kind::kConst) {
          out.regs[ins.rd] = AddToSandboxed(a, b.v);
        } else if (add && a.kind == Kind::kConst &&
                   b.kind == Kind::kSandboxed) {
          out.regs[ins.rd] = AddToSandboxed(b, a.v);
        } else {
          out.regs[ins.rd] = Top();
        }
        break;
      }

      case OpShape::kSandbox:
        // ((rs1 + imm) & mask) | base is in [base, base + arena_size - 1]
        // for any operand value — that is the entire point of the op.
        out.regs[ins.rd] = Sandboxed(0);
        break;

      case OpShape::kLoad:
      case OpShape::kStore:
        CheckMemory(pc, ins);
        if (!report_.ok()) {
          return;
        }
        if (shape == OpShape::kLoad) {
          out.regs[ins.rd] = Top();
        }
        break;

      case OpShape::kCall:
      case OpShape::kCallR:
      case OpShape::kCheckedCallR:
        CheckCall(pc, ins);
        if (!report_.ok()) {
          return;
        }
        out.regs[0] = Top();  // Host functions write r0 only.
        break;

      case OpShape::kInvalid:
        Fail(pc, Status::kSfiBadOpcode, "undefined opcode");
        return;
    }

    // Successors. VerifyProgram already proved branch targets in range and
    // that the final instruction is kHalt or kJmp, so fallthrough from any
    // non-terminal pc is in range.
    if (shape == OpShape::kHalt) {
      return;
    }
    if (IsBranch(ins.op)) {
      Flow(static_cast<uint32_t>(ins.imm), out);
    }
    if (shape != OpShape::kJump) {
      Flow(pc + 1, out);
    }
  }

  void Summarize() {
    for (size_t pc = 0; pc < program_.code.size(); ++pc) {
      if (reached_[pc] == 0) {
        continue;
      }
      ++report_.instructions_reached;
      const Op op = program_.code[pc].op;
      if (IsLoad(op)) {
        ++report_.loads_proven;
      } else if (IsStore(op)) {
        ++report_.stores_proven;
      } else if (ShapeOf(op) == OpShape::kCheckedCallR &&
                 in_[pc].regs[program_.code[pc].rs1].kind != Kind::kConst) {
        ++report_.dynamic_indirect_calls;
      }
    }
  }

  const Program& program_;
  const VerifierOptions& options_;
  VerifierReport report_;

  std::vector<State> in_;
  std::vector<uint32_t> visits_;
  std::vector<uint8_t> in_work_;
  std::vector<uint8_t> reached_;
  std::vector<uint32_t> work_;
  std::vector<uint32_t> declared_;
};

}  // namespace

VerifierReport VerifySandbox(const Program& program,
                             const VerifierOptions& options) {
  VerifierReport report;

  if (program.code.size() > options.max_instructions) {
    report.status = Status::kVerifyFailed;
    report.reason = "program exceeds the verifier's instruction limit";
    return report;
  }
  const Status structural = VerifyProgram(program);
  if (!IsOk(structural)) {
    report.status = structural;
    report.reason = "structural verification failed";
    return report;
  }
  if (!program.instrumented) {
    // The proof rests on the Vm initializing the mask/base registers,
    // which it only does for instrumented programs.
    report.status = Status::kNotInstrumented;
    report.reason = "program is not instrumented";
    return report;
  }

  return Analyzer(program, options).Run();
}

Result<VerifiedProgram> VerifyAndCompile(const Program& program,
                                         const HostCallTable& host,
                                         ExecTier ceiling) {
  if (!program.instrumented) {
    return Status::kNotInstrumented;
  }
  const Status structural = VerifyProgram(program);
  if (!IsOk(structural)) {
    return structural;
  }
  for (const uint32_t id : program.direct_call_ids) {
    if (!host.IsCallable(id)) {
      const HostCallTable::Entry* entry = host.Lookup(id);
      VINO_LOG_WARN << "loader: graft '" << program.name
                    << "' calls non-graft-callable function "
                    << (entry != nullptr ? entry->name : "<unknown>");
      return Status::kIllegalCall;
    }
  }
  if (program.sandbox_log2 < 4 || program.sandbox_log2 > 30) {
    return Status::kBadGraft;
  }
  VerifierOptions voptions;
  voptions.host = &host;
  const VerifierReport report = VerifySandbox(program, voptions);
  if (!report.ok()) {
    VINO_LOG_WARN << "loader: verifier rejected graft '" << program.name
                  << "' at pc " << report.fail_pc << ": " << report.reason
                  << " (" << StatusName(report.status) << ")";
    VINO_TRACE(trace::Event::kGraftRejected, report.status, report.fail_pc, 0,
               program.code.size());
    return report.status;
  }
  std::shared_ptr<const CompiledProgram> compiled;
  if (ceiling >= ExecTier::kTier1) {
    compiled = CompileThreaded(program);
  }
  return VerifiedProgram(program, std::move(compiled));
}

VerifiedProgram AssumeVerified(Program program) {
  return VerifiedProgram(std::move(program), nullptr);
}

}  // namespace vino
