// The graft loader / dynamic linker (paper §3.3, §3.6).
//
// Loading a graft enforces, in order:
//  1. signature verification — the program must carry a valid signature
//     from the MiSFIT signing authority (Rule 6: "the kernel must not
//     execute grafts that are not known to be safe");
//  2-7. VerifyAndCompile (src/sfi/verifier.h) with this loader's host
//     table and MaxExecTier() as the ceiling: instrumentation, structure,
//     link-time calls (Rules 4 and 7), arena size, then (step 6) sandbox
//     verification, which trusts neither the instrumenter nor the
//     manifest, and tier selection. Passing makes the program a
//     VerifiedProgram, the only kind a Graft holds and an engine runs.
//
// Installation additionally enforces the restricted-point privilege check
// (Rule 5) — that check lives in the graft points themselves and is
// re-exposed here for the lookup-by-name flow of Figure 1.

#ifndef VINOLITE_SRC_GRAFT_LOADER_H_
#define VINOLITE_SRC_GRAFT_LOADER_H_

#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/graft/event_point.h"
#include "src/graft/function_point.h"
#include "src/graft/graft.h"
#include "src/graft/namespace.h"
#include "src/sfi/host.h"
#include "src/sfi/signing.h"

namespace vino {

class GraftLoader {
 public:
  GraftLoader(GraftNamespace* ns, const HostCallTable* host,
              SigningAuthority authority)
      : ns_(ns), host_(host), authority_(std::move(authority)) {}

  GraftLoader(const GraftLoader&) = delete;
  GraftLoader& operator=(const GraftLoader&) = delete;

  struct LoadSpec {
    GraftIdentity identity;
    // If non-null, the graft's account bills all charges to this sponsor
    // (§3.2 "billed against the installing thread's own limits").
    ResourceAccount* sponsor = nullptr;
  };

  // Verifies and materializes a graft. On success the graft has a zeroed
  // arena and a zero-limit resource account; the installer transfers limits
  // or sponsors it before (or after) installing.
  [[nodiscard]] Result<std::shared_ptr<Graft>> Load(const SignedGraft& signed_graft,
                                                    const LoadSpec& spec);

  // Figure 1 flow: look up the graft point by name and replace its
  // implementation.
  Status InstallFunction(const std::string& point_name,
                         std::shared_ptr<Graft> graft);

  // Figure 2 flow: add an event handler at the named point.
  Status InstallEvent(const std::string& point_name, std::shared_ptr<Graft> graft,
                      int order);

  // Privileged escape hatch used by benchmarks and tests to install
  // *unprotected* native code — the measurement's "unsafe path". Refused
  // for unprivileged identities.
  [[nodiscard]] Result<std::shared_ptr<Graft>> LoadNativeUnsafe(
      std::string name, Graft::NativeFn fn, const LoadSpec& spec);

 private:
  GraftNamespace* ns_;
  const HostCallTable* host_;
  SigningAuthority authority_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_LOADER_H_
