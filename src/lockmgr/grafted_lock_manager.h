// The fully graftable lock manager: Figure 5 taken to its conclusion.
//
// Where PolicyLockManager encapsulates the two policy decisions behind C++
// indirections, this manager exposes them as real graft points, so an
// application can download its own grant and queue-insertion policies —
// sandboxed, transactional, abortable — exactly like any other graft. The
// paper (§6) uses get_lock as its worked example of "every decision that
// might conceivably be extended had to be encapsulated in an interface";
// this is that interface with the full protection machinery attached.
//
// Graft-arena protocol (both points):
//   arena[kLockHoldersOffset]  u64 count, then `count` (holder, mode) u64
//                              pairs
//   arena[kLockWaitersOffset]  u64 count, then `count` (holder, mode) pairs
// Arguments: r0 = requesting holder id, r1 = requested mode (0 = shared,
// 1 = exclusive), r2 = holders address, r3 = holder count,
// r4 = waiters address, r5 = waiter count.
//
// grant point   -> returns nonzero to grant, zero to queue.
// enqueue point -> returns the insertion index into the wait queue;
//                  the kernel clamps out-of-range answers to append.
// Invoked by name outside a GetLock, the ungrafted defaults have no request
// to decide and answer deny (0) and append (UINT64_MAX).
//
// Concurrency (PR 9): lock state is sharded by resource id, and a policy
// graft is never consulted while a shard mutex is held — a graft can burn
// fuel, take transaction locks, or abort, and none of that may stall every
// other resource in the shard. Instead the requester snapshots the lock
// state, consults the graft against the snapshot (consultations are
// serialized by one mutex: both points marshal into the graft's single
// arena), then applies the answer through the LockTable's one step, which
// refuses a conflicting grant and promotes an idle lock. So a stale
// decision can cost a request its turn but can neither grant a conflicting
// lock nor strand the wait queue.

#ifndef VINOLITE_SRC_LOCKMGR_GRAFTED_LOCK_MANAGER_H_
#define VINOLITE_SRC_LOCKMGR_GRAFTED_LOCK_MANAGER_H_

#include <mutex>
#include <string>

#include "src/graft/function_point.h"
#include "src/graft/namespace.h"
#include "src/lockmgr/lock_table.h"
#include "src/sfi/host.h"
#include "src/txn/txn_manager.h"

namespace vino {

inline constexpr uint64_t kLockHoldersOffset = 0;
inline constexpr uint64_t kLockWaitersOffset = 8 * 1024;

class GraftedLockManager : private LockTable {
 public:
  // Registers "<name>.grant" and "<name>.enqueue" in the namespace.
  GraftedLockManager(const std::string& name, TxnManager* txn_manager,
                     const HostCallTable* host, GraftNamespace* ns);

  GraftedLockManager(const GraftedLockManager&) = delete;
  GraftedLockManager& operator=(const GraftedLockManager&) = delete;

  [[nodiscard]] FunctionGraftPoint& grant_point() { return grant_point_; }
  [[nodiscard]] FunctionGraftPoint& enqueue_point() { return enqueue_point_; }

  Status GetLock(LockResourceId resource, LockHolderId holder, LockMode mode);

  using LockTable::CancelWait;
  using LockTable::Holds;
  using LockTable::ReleaseLock;
  using LockTable::WaiterCount;

 private:
  // Marshals the lock state into `graft`'s arena and fills the six args.
  static void Marshal(const LockState& state, const LockRequest& request,
                      const std::shared_ptr<Graft>& graft, uint64_t args[6]);

  // Invokes one policy point on `state`, which the point's default closure
  // reads for the length of the invoke. Callers hold consult_mutex_, never
  // the shard mutex.
  uint64_t Consult(FunctionGraftPoint& point, const LockState& state,
                   const LockRequest& request);

  // Serializes policy consultations: both points share the installed
  // graft's single arena. The state under decision reaches the points'
  // default closures through the consulting thread's own slot (the .cc's
  // t_deciding), so a by-name invoke from any thread reads nothing shared.
  std::mutex consult_mutex_;

  FunctionGraftPoint grant_point_;
  FunctionGraftPoint enqueue_point_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_LOCKMGR_GRAFTED_LOCK_MANAGER_H_
