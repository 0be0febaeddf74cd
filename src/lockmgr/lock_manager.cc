#include "src/lockmgr/lock_manager.h"

#include <algorithm>
#include <utility>

namespace vino {

// --- Figure 4 -------------------------------------------------------------

Status SimpleLockManager::GetLock(LockResourceId resource, LockHolderId holder,
                                  LockMode mode) {
  // Both decisions hard-coded: no indirection at either decision point.
  return Apply(resource, LockRequest{holder, mode}, GrantIfHoldersAllow{},
               AppendToQueue{});
}

// --- Figure 5 -------------------------------------------------------------

void PolicyLockManager::SetGrantPolicy(GrantPolicy policy) {
  grant_policy_ = policy ? std::move(policy) : GrantIfHoldersAllow{};
}

void PolicyLockManager::SetQueuePolicy(QueuePolicy policy) {
  queue_policy_ = policy ? std::move(policy) : AppendToQueue{};
}

Status PolicyLockManager::GetLock(LockResourceId resource, LockHolderId holder,
                                  LockMode mode) {
  // Both decision points behind an indirection.
  return Apply(resource, LockRequest{holder, mode}, grant_policy_,
               queue_policy_);
}

bool PolicyLockManager::FairGrantPolicy(const LockState& state,
                                        const LockRequest& request) {
  // No barging: any incompatible waiter blocks the request, as a holder
  // does (the table checks those).
  return std::none_of(state.waiters.begin(), state.waiters.end(),
                      [&request](const LockRequest& w) {
                        return !Compatible(w.mode, request.mode);
                      });
}

}  // namespace vino
