// Function graft points (paper §3.4).
//
// A function graft point is a replaceable member function on a kernel
// object — e.g. an open-file's compute-ra policy or a thread's
// schedule-delegate. Installing a graft interposes the wrapper measured as
// the paper's graft path (Figure 3):
//
//     begin transaction -> run graft -> validate result -> commit
//
// On any failure (SFI trap, illegal indirect call, fuel exhaustion,
// asynchronous abort, resource-limit abort) the transaction aborts — the
// undo stack replays, locks release — the graft is *forcibly removed* so
// later invocations never see it (§3.6), and the default kernel function
// runs instead, so the kernel always makes forward progress (Rule 9).
//
// Results that fail the point's validator are ignored in favour of the
// default function's answer (§4.2: "the system ignores the request and
// evicts the original victim") and counted as strikes; a point may be
// configured to remove the graft after too many strikes.

#ifndef VINOLITE_SRC_GRAFT_FUNCTION_POINT_H_
#define VINOLITE_SRC_GRAFT_FUNCTION_POINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "src/base/sharded_counter.h"
#include "src/base/status.h"
#include "src/graft/graft.h"
#include "src/graft/invocation.h"
#include "src/sfi/host.h"
#include "src/txn/txn_manager.h"
#include "src/txn/watchdog.h"

namespace vino {

class GraftNamespace;

class FunctionGraftPoint {
 public:
  // The in-kernel default implementation the graft replaces.
  using DefaultFn = std::function<uint64_t(std::span<const uint64_t>)>;
  // Optional return-value verification (paper: "the extra checking required
  // to validate the values returned by the graft function").
  using Validator = std::function<bool(uint64_t result, std::span<const uint64_t>)>;

  struct Config {
    // Restricted points hold global policy; only privileged identities may
    // graft them (§2.3) and the loader enforces it (Rule 5).
    bool restricted = false;

    Validator validator;  // Null = any result accepted.

    // Strikes before a misvalidating graft is removed; 0 = never removed
    // for bad results (the paper's page-eviction point just keeps ignoring).
    uint32_t max_bad_results = 0;

    // Execution budget for program grafts.
    uint64_t fuel = 10'000'000;
    uint32_t poll_interval = 64;

    // Optional wall-clock budget, enforced by a Watchdog (§4.5's
    // clock-boundary time-outs). Bounds real time — including time spent
    // blocked in host calls — where fuel only bounds instructions.
    // Both may be set; whichever trips first aborts the invocation.
    Watchdog* watchdog = nullptr;
    Micros wall_budget = 0;  // 0 = no wall-clock bound.
  };

  // `txn_manager` and `host` must outlive the point. Registers itself in
  // `ns` (if non-null) under `name`.
  FunctionGraftPoint(std::string name, DefaultFn default_fn, Config config,
                     TxnManager* txn_manager, const HostCallTable* host,
                     GraftNamespace* ns);

  FunctionGraftPoint(const FunctionGraftPoint&) = delete;
  FunctionGraftPoint& operator=(const FunctionGraftPoint&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool restricted() const { return config_.restricted; }
  // Acquire pairs with Replace()'s release publication (see Invoke()).
  [[nodiscard]] bool grafted() const {
    return graft_.load(std::memory_order_acquire) != nullptr;
  }
  [[nodiscard]] std::shared_ptr<Graft> current_graft() const {
    return graft_.load(std::memory_order_acquire);
  }

  // Replaces the point's implementation. Fails with kRestrictedPoint if the
  // point is restricted and the graft's owner is unprivileged, kBusy if a
  // different graft is already installed.
  Status Replace(std::shared_ptr<Graft> graft);

  // Reverts to the default implementation.
  void Remove();

  // The full graft path. With no graft installed this is the paper's "VINO
  // path": one indirection plus result verification, no transaction.
  uint64_t Invoke(std::span<const uint64_t> args);

  // The paper's "base path": the default function without any of the
  // grafting indirection (benchmark baseline).
  uint64_t InvokeDefault(std::span<const uint64_t> args) { return default_fn_(args); }

  // --- Statistics ------------------------------------------------------
  struct Stats {
    uint64_t invocations = 0;
    uint64_t graft_runs = 0;
    uint64_t graft_aborts = 0;
    uint64_t bad_results = 0;
    uint64_t forcible_removals = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  uint64_t RunGraft(const std::shared_ptr<Graft>& graft,
                    std::span<const uint64_t> args);
  void ForciblyRemove(const std::shared_ptr<Graft>& graft, Status reason);

  const std::string name_;
  DefaultFn default_fn_;
  Config config_;
  TxnManager* txn_manager_;

  // The point's pinned execution context (both engine tiers, prebuilt
  // RunOptions): built once from Config, borrowed by every invocation,
  // shared safely by concurrent invokers (the engines are stateless). See
  // invocation.h.
  GraftExecContext exec_;

  std::atomic<std::shared_ptr<Graft>> graft_;

  // Hot-path statistics: cache-line-padded shards so concurrent invokers on
  // different threads never contend on a stats line (see sharded_counter.h).
  enum Counter : size_t {
    kInvocations,
    kGraftRuns,
    kGraftAborts,
    kBadResults,
    kForcibleRemovals,
  };
  ShardedCounters<5> counters_;

  // Strike counting stays a single atomic: it is only touched on the cold
  // bad-result path and its value gates removal, so one authoritative
  // fetch_add is simpler than summing shards.
  std::atomic<uint64_t> bad_result_strikes_{0};
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_FUNCTION_POINT_H_
