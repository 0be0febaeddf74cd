#include "src/graft/loader.h"

#include "src/base/log.h"
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

  // 2-7. The checks after the signature, and tier selection: once, here,
  //      never re-decided at run time.
  Result<VerifiedProgram> verified =
      VerifyAndCompile(signed_graft.program, *host_, MaxExecTier());
  if (!verified.ok()) {
    return verified.status();
  }

  auto graft =
      std::make_shared<Graft>(signed_graft.program.name,
                              std::move(verified).value(), spec.identity,
                              kImageKernelSize);
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
