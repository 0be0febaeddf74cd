// Graft descriptor: one loaded kernel extension instance.
//
// A graft bundles the code (a MiSFIT-instrumented program, or — for the
// measurement's "unsafe path" and for tests — a native C++ callback), the
// memory arena the code is confined to, the identity of the installing
// user, and the resource account its allocations are charged against
// (initially zero; the installer transfers limits or sponsors it, §3.2).

#ifndef VINOLITE_SRC_GRAFT_GRAFT_H_
#define VINOLITE_SRC_GRAFT_GRAFT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "src/base/histogram.h"
#include "src/base/status.h"
#include "src/graft/drift.h"
#include "src/resource/account.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/verifier.h"

namespace vino {

// Who installed the graft. Grafts run with the installing user's identity
// (§3.3: "A graft is run with the user identity of the process that
// installs it"); only privileged identities may touch restricted (global
// policy) graft points (§2.3).
struct GraftIdentity {
  uint64_t uid = 0;
  bool privileged = false;
};

class Graft {
 public:
  // Native graft: runs host C++ directly, with no SFI protection. This is
  // the paper's "unsafe path"; the loader makes one only through the
  // privileged GraftLoader::LoadNativeUnsafe.
  using NativeFn =
      std::function<Result<uint64_t>(std::span<const uint64_t>, MemoryImage*)>;

  // Program-backed graft (the normal, safe case), from a VerifiedProgram
  // only (src/sfi/verifier.h). `kernel_region_size` sizes the image's
  // simulated kernel region; the arena comes from the program's
  // sandbox_log2.
  Graft(std::string name, VerifiedProgram program, GraftIdentity owner,
        uint64_t kernel_region_size);

  // Native graft; gets a default 64 KiB arena for shared-buffer exchange.
  Graft(std::string name, NativeFn fn, GraftIdentity owner);

  Graft(const Graft&) = delete;
  Graft& operator=(const Graft&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool is_native() const { return native_fn_ != nullptr; }
  // The graft's program. Native grafts have none: call only when
  // !is_native().
  [[nodiscard]] const VerifiedProgram& program() const { return *program_; }
  [[nodiscard]] const NativeFn& native_fn() const { return native_fn_; }
  [[nodiscard]] GraftIdentity owner() const { return owner_; }

  [[nodiscard]] MemoryImage& image() { return image_; }
  [[nodiscard]] ResourceAccount& account() { return account_; }

  // --- Statistics -----------------------------------------------------
  void CountInvocation() { invocations_.fetch_add(1, std::memory_order_relaxed); }
  void CountAbort() { aborts_.fetch_add(1, std::memory_order_relaxed); }
  [[nodiscard]] uint64_t invocations() const {
    return invocations_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t aborts() const {
    return aborts_.load(std::memory_order_relaxed);
  }

  // Which execution tier actually ran each program invocation (from
  // RunOutcome::tier, so a Tier-1-eligible graft that fell back to the
  // interpreter is counted where it really ran). Native grafts never
  // count here — they have no tier.
  void CountTierRun(ExecTier tier) {
    tier_runs_[static_cast<size_t>(tier)].fetch_add(1,
                                                    std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t tier_runs(ExecTier tier) const {
    return tier_runs_[static_cast<size_t>(tier)].load(
        std::memory_order_relaxed);
  }

  // --- Flight-recorder attribution ------------------------------------
  // Process-unique id carried in trace records, so a merged timeline can
  // name the graft without chasing pointers into freed objects.
  [[nodiscard]] uint64_t trace_id() const { return trace_id_; }

  // One abort sample (§4.5 cost model): L locks held, G undo records
  // replayed, measured abort cost. Fed by the invocation wrapper on every
  // abort, traced or not; Fit() gives this graft's own a + b·L + c·G line.
  // The model is the graft's only abort-cost accumulator: the drift
  // detector reads its windows from it, and sustained drift above the fit
  // marks the graft degraded and posts a kGraftDegraded trace event
  // (src/graft/drift.h).
  void RecordAbortCost(uint64_t locks, uint64_t undo_len, uint64_t cost_ns);
  [[nodiscard]] const AbortCostModel& abort_cost() const { return abort_cost_; }

  // Sticky: set by the drift detector; graft points eject degraded grafts
  // on their next invocation when their TxnManager's eject_degraded is on.
  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

 private:
  static uint64_t NextTraceId();

  std::string name_;
  std::optional<VerifiedProgram> program_;
  NativeFn native_fn_;
  GraftIdentity owner_;
  MemoryImage image_;
  ResourceAccount account_;
  const uint64_t trace_id_ = NextTraceId();

  std::atomic<uint64_t> invocations_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> tier_runs_[kExecTierCount] = {};
  AbortCostModel abort_cost_;
  DriftDetector drift_;
  std::atomic<bool> degraded_{false};
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_GRAFT_H_
