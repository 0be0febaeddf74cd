// The paper's lock-manager case study (§6, Figures 4 and 5).
//
// Figure 4 is a conventional get_lock: the grant decision ("grant if no
// conflict with current holders" — reader priority) and the queue decision
// ("append to the waiters list" — FIFO) are hard-coded.
//
// Figure 5 encapsulates each policy decision behind an indirection so that
// either can be replaced per lock manager instance — "at the cost of a
// level of indirection at each decision point. On our system, function
// calls typically cost approximately 35 cycles; these add up remarkably
// quickly." bench_lockmgr prices exactly that difference.
//
// Both managers are thread-safe and keep only their two decisions; the
// sharded table, release, withdrawal and the conflict check are the
// LockTable's (lock_table.h).

#ifndef VINOLITE_SRC_LOCKMGR_LOCK_MANAGER_H_
#define VINOLITE_SRC_LOCKMGR_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>

#include "src/base/status.h"
#include "src/lockmgr/lock_table.h"

namespace vino {

// --- Figure 4: hard-coded policies --------------------------------------

class SimpleLockManager : private LockTable {
 public:
  // Grants immediately (kOk) or queues the request (kBusy). Re-requesting a
  // held lock is kAlreadyExists.
  Status GetLock(LockResourceId resource, LockHolderId holder, LockMode mode);

  using LockTable::CancelWait;
  using LockTable::Holds;
  using LockTable::ReleaseLock;
  using LockTable::WaiterCount;
};

// --- Figure 5: policy-indirected -----------------------------------------

class PolicyLockManager : private LockTable {
 public:
  // Decision 1: may `request` be granted given the lock's state? The table
  // never grants a request that conflicts with a holder, so a policy can
  // only deny more. The default reproduces Figure 4 (grant whatever the
  // holders allow — reader priority, waiters ignored).
  using GrantPolicy = std::function<bool(const LockState&, const LockRequest&)>;

  // Decision 2: where in the wait queue does a blocked request go?
  // Returns an insertion index in [0, waiters.size()]. Default: append.
  using QueuePolicy =
      std::function<size_t(const LockState&, const LockRequest&)>;

  // Policy replacement — the "graft" of this subsystem. Null restores the
  // default. Policies run under the resource's shard mutex, so they must be
  // quick and must not call back into the manager. Replacing a policy while
  // requests are in flight is not supported (set policies at setup time).
  void SetGrantPolicy(GrantPolicy policy);
  void SetQueuePolicy(QueuePolicy policy);

  Status GetLock(LockResourceId resource, LockHolderId holder, LockMode mode);

  using LockTable::CancelWait;
  using LockTable::Holds;
  using LockTable::ReleaseLock;
  using LockTable::WaiterCount;

  // A fair-queueing grant policy (no reader priority: a request conflicts
  // with waiters too), provided both as a useful alternative and as the
  // benchmark's non-default policy.
  [[nodiscard]] static bool FairGrantPolicy(const LockState& state,
                                            const LockRequest& request);

 private:
  GrantPolicy grant_policy_ = GrantIfHoldersAllow{};
  QueuePolicy queue_policy_ = AppendToQueue{};
};

}  // namespace vino

#endif  // VINOLITE_SRC_LOCKMGR_LOCK_MANAGER_H_
