#include "src/graft/loader.h"

#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"

namespace vino {
namespace {

// Size of the simulated kernel region in each graft's memory image.
constexpr uint64_t kImageKernelSize = 4096;

}  // namespace

Result<std::shared_ptr<Graft>> GraftLoader::Load(const SignedGraft& signed_graft,
                                                 const LoadSpec& spec) {
  // 1. Signature: recompute and compare (§3.3). A graft whose bits changed
  //    since MiSFIT signed it is not loaded.
  if (!authority_.Verify(signed_graft)) {
    VINO_LOG_WARN << "loader: signature mismatch for graft '"
                  << signed_graft.program.name << "'";
    return Status::kBadSignature;
  }

  const Program& program = signed_graft.program;

  // 2. Only instrumented code runs in the kernel.
  if (!program.instrumented) {
    return Status::kNotInstrumented;
  }

  // 3. Structural verification.
  const Status verify = VerifyProgram(program);
  if (!IsOk(verify)) {
    return verify;
  }

  // 4. Link-time direct-call check: every direct call target must be on the
  //    graft-callable list; otherwise "the graft is not loaded into the
  //    system" (§3.3).
  for (const uint32_t id : program.direct_call_ids) {
    if (!host_->IsCallable(id)) {
      const HostCallTable::Entry* entry = host_->Lookup(id);
      VINO_LOG_WARN << "loader: graft '" << program.name
                    << "' calls non-graft-callable function "
                    << (entry != nullptr ? entry->name : std::string("<unknown>"));
      return Status::kIllegalCall;
    }
  }

  // 5. Sandbox sanity: the instrumented mask must correspond to a real
  //    arena size.
  if (program.sandbox_log2 < 4 || program.sandbox_log2 > 30) {
    return Status::kBadGraft;
  }

  // 6. Load-time sandbox verification. Steps 1-5 trust what the toolchain
  //    *claims* (signature, manifest, instrumented bit); this step trusts
  //    only the instruction stream: the abstract interpreter re-proves that
  //    every reachable call is declared + callable and every reachable
  //    access is confined to the arena + guard zone. A program that passes
  //    is marked verified, which lets the Vm delete its per-access bounds
  //    branch.
  VerifierOptions voptions;
  voptions.host = host_;
  const VerifierReport report = VerifySandbox(program, voptions);
  if (!report.ok()) {
    VINO_LOG_WARN << "loader: verifier rejected graft '" << program.name
                  << "' at pc " << report.fail_pc << ": " << report.reason
                  << " (" << StatusName(report.status) << ")";
    VINO_TRACE(trace::Event::kGraftRejected, report.status, report.fail_pc, 0,
               program.code.size());
    return report.status;
  }

  Program verified_program = program;
  verified_program.verified = true;

  // 7. Tier selection — once, here, never re-decided at run time. A
  //    verified program is Tier-1 eligible: pre-decode it for the
  //    direct-threaded engine unless policy (VINO_EXEC_TIER=0) pins the
  //    process to the interpreter. A refused/unavailable compile leaves
  //    the artifact null and the graft on Tier 0 — by design never a load
  //    failure (the fallback ladder degrades performance, not service).
  if (MaxExecTier() >= ExecTier::kTier1) {
    verified_program.compiled = CompileThreaded(verified_program);
  }

  auto graft =
      std::make_shared<Graft>(program.name, std::move(verified_program),
                              spec.identity, kImageKernelSize);
  if (spec.sponsor != nullptr) {
    const Status bill = graft->account().BillTo(spec.sponsor);
    if (!IsOk(bill)) {
      return bill;
    }
  }
  return graft;
}

Status GraftLoader::InstallFunction(const std::string& point_name,
                                    std::shared_ptr<Graft> graft) {
  // WithFunction holds the namespace's shared lock across the install, so a
  // concurrent owner teardown (Unregister, exclusive) cannot destroy the
  // point mid-Replace.
  return ns_->WithFunction(point_name,
                           [&graft](FunctionGraftPoint& point) -> Status {
                             return point.Replace(std::move(graft));
                           });
}

Status GraftLoader::InstallEvent(const std::string& point_name,
                                 std::shared_ptr<Graft> graft, int order) {
  return ns_->WithEvent(point_name,
                        [&graft, order](EventGraftPoint& point) -> Status {
                          return point.AddHandler(std::move(graft), order);
                        });
}

Result<std::shared_ptr<Graft>> GraftLoader::LoadNativeUnsafe(
    std::string name, Graft::NativeFn fn, const LoadSpec& spec) {
  if (!spec.identity.privileged) {
    // Unprotected code in the kernel is exactly what this system exists to
    // prevent; only the measurement harness (privileged) may do it.
    return Status::kPermissionDenied;
  }
  auto graft =
      std::make_shared<Graft>(std::move(name), std::move(fn), spec.identity);
  if (spec.sponsor != nullptr) {
    const Status bill = graft->account().BillTo(spec.sponsor);
    if (!IsOk(bill)) {
      return bill;
    }
  }
  return graft;
}

}  // namespace vino
