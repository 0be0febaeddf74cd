// Load-time sandbox verifier: an abstract interpreter over the vISA.
//
// The MiSFIT instrumenter and the manifest it produces are *untrusted*.
// A graft arrives claiming "I am instrumented and I only call the ids in
// direct_call_ids" — historically the loader believed both claims: it
// link-checked the declared id list but never looked at the code's actual
// kCall targets, and the Vm executes kCall with no callable probe. A forged
// toolchain could therefore declare {read_block} and call anything.
//
// VerifySandbox re-derives the safety argument from the instruction stream
// alone, in the spirit of the eBPF verifier and the published proofs that
// SFI rewriters can be checked independently of the rewriter (MOAT;
// Sotoudeh & Yedidia). It propagates one abstract fact per register:
//
//   top                  -- any 64-bit value
//   const(c)             -- exactly c (from kLoadImm / folded arithmetic)
//   sandboxed(off)       -- a kSandboxAddr result plus at most `off` bytes:
//                           value is in [arena_base, arena_base +
//                           arena_size - 1 + off] for whatever image the
//                           program runs against
//
// across a CFG derived from the branch structure, joining at merge points
// (equal consts survive, sandboxed offsets take the max, anything else goes
// to top) and widening to top after a bounded number of visits so loops
// terminate. The facts are image-independent: "sandboxed" is defined by the
// mask/base registers, which the Vm loads from the *actual* image at entry
// and which verified code provably never writes.
//
// A program passes only if:
//  * it is instrumented and structurally valid (VerifyProgram);
//  * no reachable instruction writes the sandbox mask/base registers;
//  * every reachable load/store address is sandboxed(off) with
//    off + imm + width <= kSandboxGuardBytes — which the image's guard
//    zone makes safe without any runtime bounds check;
//  * every reachable kCall id is graft-callable AND declared in the
//    manifest (the manifest may no longer understate the call set);
//  * no reachable kCallR (the instrumenter rewrites them all). kCheckedCallR
//    keeps its runtime hash-table probe — the paper's Rule 7 semantics —
//    though provable constant targets are extracted for the report and can
//    optionally be refused outright.
//
// What passing buys: VerifyAndCompile (below) runs this analysis, and a
// pass is the only way to a VerifiedProgram — the only kind a Graft holds
// and an engine runs (paper Rule 6: "the kernel must not execute grafts
// that are not known to be safe"). Both tiers run one with no per-access
// InBounds branch, and the instrumenter may elide kSandboxAddr on
// already-sandboxed-base + small-offset accesses, because this verifier —
// not the instrumentation pattern — is the enforcement boundary.

#ifndef VINOLITE_SRC_SFI_VERIFIER_H_
#define VINOLITE_SRC_SFI_VERIFIER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/host.h"
#include "src/sfi/program.h"

namespace vino {

struct VerifierOptions {
  // If non-null, every reachable kCall id and every constant-target
  // kCheckedCallR id must be graft-callable here. Null skips callable
  // checks (offline audit of a program without its host table).
  const HostCallTable* host = nullptr;

  // Require every reachable kCall id to appear in the program's
  // direct_call_ids manifest. This is what closes the forged-manifest
  // hole: the declared list the link-time check consumes must cover the
  // code's true call set.
  bool require_declared_calls = true;

  // Also reject a kCheckedCallR whose target is a provable constant that
  // is not graft-callable. Off by default: the paper's contract (§3.3,
  // Rule 7) is that indirect calls are checked *at run time* — the probe
  // aborts the transaction — and tests/zoo programs exercise exactly that
  // abort path. Strict pipelines with a host table can opt in to refuse
  // grafts that provably abort.
  bool reject_constant_indirect_targets = false;

  // Widening threshold: once a pc's in-state has been refined this many
  // times, further joins go straight to top so loop analysis terminates.
  uint32_t max_visits_per_pc = 64;

  // Hard cap on total worklist pops — a defense-in-depth bound; widening
  // already forces convergence far below it.
  uint64_t max_total_visits = uint64_t{1} << 22;

  // Largest program the verifier will analyze. Abstract state costs
  // ~256 bytes per instruction; DecodeProgram admits up to 2^24
  // instructions, which we refuse to spend 4 GiB analyzing.
  size_t max_instructions = size_t{1} << 16;
};

struct VerifierReport {
  // The failure taxonomy is part of the loader's public contract: call-set
  // violations (undeclared manifest calls, non-callable targets) fail with
  // kIllegalCall; sandbox/memory violations (sandbox-register writes,
  // underived addresses, guard-zone escapes, non-convergence) fail with
  // kVerifyFailed. The checked-in rejection corpus
  // (tests/corpus/loader_reject) asserts the exact status per attack
  // class, so moving a rejection between the two codes breaks fixtures.
  Status status = Status::kOk;

  // On failure: the pc of the offending instruction and a human-readable
  // reason for logs / vverify output.
  uint64_t fail_pc = 0;
  std::string reason;

  // The program's *true* direct-call-id set (reachable kCall targets),
  // sorted and de-duplicated — what the manifest should have said.
  std::vector<uint32_t> direct_call_ids;

  // Constant-target kCheckedCallR ids the analysis resolved statically.
  std::vector<uint32_t> const_indirect_ids;

  // Reachable kCheckedCallR sites whose target stays dynamic; these keep
  // their runtime callable probe.
  size_t dynamic_indirect_calls = 0;

  // Reachable memory accesses proven in-sandbox — exactly the InBounds
  // branches the Vm may delete for this program.
  size_t loads_proven = 0;
  size_t stores_proven = 0;

  size_t instructions_reached = 0;

  [[nodiscard]] bool ok() const { return IsOk(status); }
};

// Analyzes `program`. Deterministic: same program + options always yields
// the same verdict, so the loader and the offline vverify audit agree.
[[nodiscard]] VerifierReport VerifySandbox(const Program& program,
                                           const VerifierOptions& options = {});

struct CompiledProgram;  // src/sfi/threaded_vm.h
class VerifiedProgram;

// The loader's checks after the signature, in order: instrumented
// (kNotInstrumented); VerifyProgram; every declared kCall id graft-callable
// in `host` (the link-time check, kIllegalCall, §3.3); a real arena size
// (kBadGraft); then VerifySandbox against `host`. A pass is the only way to
// a VerifiedProgram. It carries a Tier-1 artifact when `ceiling` allows one
// and the build supports it; a missing artifact is never a failure. The
// loader passes MaxExecTier(); tier-pinning tests and benches pass their
// own ceiling.
[[nodiscard]] Result<VerifiedProgram> VerifyAndCompile(
    const Program& program, const HostCallTable& host,
    ExecTier ceiling = MaxExecTier());

// The escape hatch: wraps `program` WITHOUT any check, to run on Tier 0
// with no bounds check at all. tools/check.sh holds it to its two callers:
// the fuzzer's forged-proof injection and the Tables' unprotected row
// (bench/bench_kernel.h).
[[nodiscard]] VerifiedProgram AssumeVerified(Program program);

// A Program that passed VerifyAndCompile, with its Tier-1 artifact if one
// was built. It has no public constructor and its program is immutable, so
// the proof cannot go stale; every VerifiedProgram with the same code
// shares one artifact (src/sfi/threaded_vm.h).
class VerifiedProgram {
 public:
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] const CompiledProgram* compiled() const {
    return compiled_.get();
  }
  // Graft points pick their engine by it, and traces tag invocations with it.
  [[nodiscard]] ExecTier tier() const {
    return compiled_ != nullptr ? ExecTier::kTier1 : ExecTier::kTier0;
  }

 private:
  friend Result<VerifiedProgram> VerifyAndCompile(const Program&,
                                                  const HostCallTable&,
                                                  ExecTier);
  friend VerifiedProgram AssumeVerified(Program);

  VerifiedProgram(Program program,
                  std::shared_ptr<const CompiledProgram> compiled)
      : program_(std::move(program)), compiled_(std::move(compiled)) {}

  Program program_;
  std::shared_ptr<const CompiledProgram> compiled_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_VERIFIER_H_
