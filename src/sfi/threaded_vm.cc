#include "src/sfi/threaded_vm.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <unordered_map>

#include "src/base/hash.h"
#include "src/sfi/engine_internal.h"
#include "src/sfi/vm.h"

// Direct threading needs GCC/Clang's labels-as-values extension. Elsewhere
// CompileThreaded returns nullptr and every program runs the Tier-0
// interpreter — a performance fallback, never a functional one.
#if defined(__GNUC__) || defined(__clang__)
#define VINO_HAVE_COMPUTED_GOTO 1
#else
#define VINO_HAVE_COMPUTED_GOTO 0
#endif

namespace vino {
namespace {

#if VINO_HAVE_COMPUTED_GOTO

// The operand-shape bodies of the handlers. The op table stamps out one
// handler per op (see ThreadedExec), pasting in the row's access width and
// expression. Each body reads only the operands its shape uses, so no
// handler pays for a load it does not need.
#define T1_SHAPE_None(width, expr)
#define T1_SHAPE_Halt(width, expr) \
  outcome.ret = regs[0];           \
  outcome.status = Status::kOk;    \
  goto exit_done;
#define T1_SHAPE_LoadImm(width, expr) \
  regs[op->rd] = static_cast<uint64_t>(op->imm);
#define T1_SHAPE_Mov(width, expr) regs[op->rd] = regs[op->rs1];
#define T1_SHAPE_AluR(width, expr)    \
  {                                   \
    const uint64_t a = regs[op->rs1]; \
    const uint64_t b = regs[op->rs2]; \
    regs[op->rd] = (expr);            \
  }
#define T1_SHAPE_AluI(width, expr)                     \
  {                                                    \
    const uint64_t a = regs[op->rs1];                  \
    const uint64_t b = static_cast<uint64_t>(op->imm); \
    regs[op->rd] = (expr);                             \
  }
// Memory. No InBounds test: every reachable access carries the verifier's
// in-sandbox proof — for Tier 1 that proof *is* the bounds check. The width
// is a constant per handler, and loads zero-extend exactly as Tier 0's do.
#define T1_SHAPE_Load(width, expr)                                        \
  {                                                                       \
    const uint64_t addr = regs[op->rs1] + static_cast<uint64_t>(op->imm); \
    uint64_t v = 0;                                                       \
    std::memcpy(&v, mem + addr, width);                                   \
    regs[op->rd] = v;                                                     \
  }
#define T1_SHAPE_Store(width, expr)                                       \
  {                                                                       \
    const uint64_t addr = regs[op->rs1] + static_cast<uint64_t>(op->imm); \
    std::memcpy(mem + addr, &regs[op->rs2], width);                       \
  }
// Control flow. CompileThreaded resolved the target to its op, so a taken
// branch costs one load ahead of the next dispatch.
#define T1_SHAPE_Jump(width, expr) ip = op->target;
#define T1_SHAPE_Branch(width, expr)  \
  {                                   \
    const uint64_t a = regs[op->rs1]; \
    const uint64_t b = regs[op->rs2]; \
    if (expr) {                       \
      ip = op->target;                \
    }                                 \
  }
#define T1_HOST_CALL(id, checked)                                 \
  if (const Status s =                                            \
          CallHost(host, (id), (checked), regs, image, identity); \
      !IsOk(s)) {                                                 \
    outcome.status = s;                                           \
    goto exit_done;                                               \
  }
#define T1_SHAPE_Call(width, expr) \
  T1_HOST_CALL(static_cast<uint32_t>(op->imm), false)
// A verified program has no *reachable* raw kCallR (the verifier rejects
// them), but unreachable ones may survive in the stream; keep Tier-0
// semantics in case a future caller compiles by other rules.
#define T1_SHAPE_CallR(width, expr) \
  T1_HOST_CALL(static_cast<uint32_t>(regs[op->rs1]), false)
#define T1_SHAPE_CheckedCallR(width, expr) \
  T1_HOST_CALL(static_cast<uint32_t>(regs[op->rs1]), true)
// The MiSFIT sandbox: force the address into the graft arena.
#define T1_SHAPE_Sandbox(width, expr)                                \
  regs[op->rd] = ((regs[op->rs1] + static_cast<uint64_t>(op->imm)) & \
                  regs[kSandboxMaskReg]) |                           \
                 regs[kSandboxBaseReg];

// The direct-threaded dispatch loop. Doubles as the handler-table oracle:
// called with `labels_out` non-null it only publishes the label array (the
// classic computed-goto bootstrap — label addresses exist only inside the
// function that declares them) and never touches the execution arguments.
//
// Per-dispatch work, kept deliberately minimal — this ordering replicates
// the Tier-0 loop observable-for-observable:
//   1. fuel test (kSfiFuelExhausted), charge one unit;
//   2. poll countdown; at zero, reset and test the abort predicate
//      (kTxnAborted) — note the charged-but-unexecuted instruction is
//      counted, exactly as Tier 0 counts it;
//   3. fetch the pre-decoded op, advance, jump to its handler.
// There is no pc bounds test: the verifier's structural proof (branch
// targets in range, terminal kHalt/kJmp) makes falling off the end
// impossible. `instructions` is reconstructed from fuel spent at exit
// instead of being counted per iteration.
RunOutcome ThreadedExec(const CompiledProgram* cp, MemoryImage* image,
                        std::span<const uint64_t> args,
                        const RunOptions& options, const HostCallTable* host,
                        CallerIdentity identity,
                        const void* const** labels_out) {
  // Handler table, indexed by Op: CompileThreaded resolves each op through
  // it by static_cast<size_t>(op).
  static const void* const kLabels[] = {
#define T1_LABEL(name, ...) &&h_##name,
      VINO_ISA_OPS(T1_LABEL)
#undef T1_LABEL
  };
  if (labels_out != nullptr) {
    *labels_out = kLabels;
    return RunOutcome{};
  }

  uint64_t regs[kNumRegisters] = {};
  const size_t argc = args.size() < kMaxArgs ? args.size() : kMaxArgs;
  for (size_t i = 0; i < argc; ++i) {
    regs[i] = args[i];
  }
  // Compiled programs are instrumented by construction (VerifyAndCompile
  // refuses anything else), so the sandbox registers are always live.
  regs[kSandboxMaskReg] = image->arena_mask();
  regs[kSandboxBaseReg] = image->arena_base();
  FinalRegDump reg_dump{options.final_regs, regs};

  RunOutcome outcome;
  outcome.tier = ExecTier::kTier1;
  uint8_t* const mem = image->data();
  const ThreadedOp* ip = cp->ops.data();
  const ThreadedOp* op = nullptr;
  const uint32_t poll_interval = options.EffectivePollInterval();
  uint64_t fuel = options.fuel;
  uint32_t until_poll = poll_interval;

#define VINO_DISPATCH()                                  \
  do {                                                   \
    if (fuel == 0) goto exit_fuel;                       \
    --fuel;                                              \
    if (--until_poll == 0) {                             \
      until_poll = poll_interval;                        \
      if (options.abort_requested != nullptr &&          \
          options.abort_requested(options.abort_ctx)) {  \
        goto exit_abort;                                 \
      }                                                  \
    }                                                    \
    op = ip;                                             \
    ++ip;                                                \
    goto *op->handler;                                   \
  } while (0)

  VINO_DISPATCH();

#define T1_HANDLER(name, mnemonic, shape, width, expr) \
  h_##name:                                            \
  T1_SHAPE_##shape(width, expr) VINO_DISPATCH();
  VINO_ISA_OPS(T1_HANDLER)
#undef T1_HANDLER

exit_fuel:
  outcome.status = Status::kSfiFuelExhausted;
  goto exit_done;
exit_abort:
  outcome.status = Status::kTxnAborted;
  goto exit_done;
exit_done:
  // One unit of fuel == one dispatched instruction, so the count Tier 0
  // maintains per iteration falls out of the arithmetic (the charged-but-
  // not-executed instruction at an abort poll is included, as in Tier 0).
  outcome.instructions = options.fuel - fuel;
  return outcome;

#undef VINO_DISPATCH
}

// Pre-decodes `code` into a fresh artifact; the checks are CompileThreaded's.
std::shared_ptr<const CompiledProgram> Compile(
    std::span<const Instruction> code) {
  if (code.empty()) {
    return nullptr;
  }
  const void* const* labels = nullptr;
  (void)ThreadedExec(nullptr, nullptr, {}, RunOptions{}, nullptr, {}, &labels);

  const size_t size = code.size();
  auto compiled = std::make_shared<CompiledProgram>();
  compiled->ops.resize(size);
  ThreadedOp* const ops = compiled->ops.data();
  for (size_t i = 0; i < size; ++i) {
    const Instruction& ins = code[i];
    // VerifyProgram already guarantees all of this for the programs
    // VerifyAndCompile passes here; re-checking keeps "compiled implies
    // can't leave the op array" a local property of this function rather
    // than a cross-module trust chain. Any violation downgrades to Tier 0,
    // never UB.
    const size_t opcode = static_cast<size_t>(ins.op);
    if (opcode >= static_cast<size_t>(Op::kOpCount) ||
        ins.rd >= kNumRegisters || ins.rs1 >= kNumRegisters ||
        ins.rs2 >= kNumRegisters) {
      return nullptr;
    }
    ThreadedOp& top = ops[i];
    top.handler = labels[opcode];
    top.rd = ins.rd;
    top.rs1 = ins.rs1;
    top.rs2 = ins.rs2;
    if (IsBranch(ins.op)) {
      if (ins.imm < 0 || static_cast<size_t>(ins.imm) >= size) {
        return nullptr;
      }
      top.target = ops + ins.imm;
    } else {
      top.imm = ins.imm;
    }
  }
  const Op last = code.back().op;
  if (last != Op::kHalt && last != Op::kJmp) {
    return nullptr;  // No terminal instruction → pc could fall off the end.
  }
  return compiled;
}

// A hash over the instructions' fields, never their padding.
uint64_t HashCode(std::span<const Instruction> code) {
  uint64_t h = code.size();
  for (const Instruction& ins : code) {
    h = HashStep(h, static_cast<uint64_t>(ins.op) | uint64_t{ins.rd} << 8 |
                        uint64_t{ins.rs1} << 16 | uint64_t{ins.rs2} << 24);
    h = HashStep(h, static_cast<uint64_t>(ins.imm));
  }
  return MixU64(h);
}

// The process's live artifacts, keyed by everything Compile reads: the
// instruction sequence. Entries are weak, so an artifact dies with its last
// graft; expired entries are pruned whenever the table has doubled since
// the last prune, which keeps a stream of distinct loads amortized O(1).
struct ArtifactTable {
  struct Entry {
    std::vector<Instruction> code;
    std::weak_ptr<const CompiledProgram> artifact;
  };

  void Prune() {
    std::erase_if(entries,
                  [](const auto& kv) { return kv.second.artifact.expired(); });
    prune_at = std::max<size_t>(16, 2 * entries.size());
  }

  std::mutex mutex;
  std::unordered_multimap<uint64_t, Entry> entries;
  size_t prune_at = 16;
};

ArtifactTable& Artifacts() {
  static ArtifactTable table;
  return table;
}

#endif  // VINO_HAVE_COMPUTED_GOTO

}  // namespace

std::shared_ptr<const CompiledProgram> CompileThreaded(const Program& program) {
#if !VINO_HAVE_COMPUTED_GOTO
  (void)program;
  return nullptr;
#else
  const uint64_t hash = HashCode(program.code);
  ArtifactTable& table = Artifacts();
  std::lock_guard<std::mutex> guard(table.mutex);
  const auto [first, last] = table.entries.equal_range(hash);
  for (auto it = first; it != last; ++it) {
    if (it->second.code == program.code) {
      if (std::shared_ptr<const CompiledProgram> live =
              it->second.artifact.lock()) {
        return live;
      }
    }
  }
  std::shared_ptr<const CompiledProgram> compiled = Compile(program.code);
  if (compiled == nullptr) {
    return nullptr;
  }
  if (table.entries.size() >= table.prune_at) {
    table.Prune();
  }
  table.entries.emplace(hash, ArtifactTable::Entry{program.code, compiled});
  return compiled;
#endif
}

size_t LiveThreadedArtifacts() {
#if !VINO_HAVE_COMPUTED_GOTO
  return 0;
#else
  ArtifactTable& table = Artifacts();
  std::lock_guard<std::mutex> guard(table.mutex);
  table.Prune();
  return table.entries.size();
#endif
}

RunOutcome ThreadedVm::Run(const VerifiedProgram& program, MemoryImage* image,
                           std::span<const uint64_t> args,
                           const RunOptions& options,
                           CallerIdentity identity) const {
#if VINO_HAVE_COMPUTED_GOTO
  if (const CompiledProgram* compiled = program.compiled();
      compiled != nullptr) {
    return ThreadedExec(compiled, image, args, options, host_, identity,
                        nullptr);
  }
#endif
  // No artifact (ceiling, compile refusal, or a toolchain without computed
  // goto): Tier 0, never an error.
  return Vm(host_).Run(program, image, args, options, identity);
}

}  // namespace vino
