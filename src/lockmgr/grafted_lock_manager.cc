#include "src/lockmgr/grafted_lock_manager.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace vino {
namespace {

// The decision the calling thread is consulting a policy point about. It is
// set only around that thread's own Consult and restored after, the way
// EventGraftPoint keeps t_handling, so no other thread can read it. A
// default closure reached any other way (a by-name invoke through the
// namespace, or one nested in another manager's consult) finds no decision
// of its own manager's, and answers a constant instead.
struct Decision {
  const GraftedLockManager* manager;
  const LockState* state;
  const LockRequest* request;
};
thread_local const Decision* t_deciding = nullptr;

const Decision* DecisionOf(const GraftedLockManager* manager) {
  return t_deciding != nullptr && t_deciding->manager == manager ? t_deciding
                                                                 : nullptr;
}

}  // namespace

GraftedLockManager::GraftedLockManager(const std::string& name,
                                       TxnManager* txn_manager,
                                       const HostCallTable* host,
                                       GraftNamespace* ns)
    : grant_point_(
          name + ".grant",
          [this](std::span<const uint64_t>) -> uint64_t {
            // Figure 4: grant iff no conflict with holders. Used directly
            // when ungrafted and as the fallback after an abort. With no
            // decision to read: deny.
            const Decision* decision = DecisionOf(this);
            return decision != nullptr &&
                           !ConflictsWithHolders(*decision->state,
                                                 *decision->request)
                       ? 1
                       : 0;
          },
          [] {
            FunctionGraftPoint::Config config;
            // Any answer is boolean-interpretable; no validator needed.
            return config;
          }(),
          txn_manager, host, ns),
      enqueue_point_(
          name + ".enqueue",
          [this](std::span<const uint64_t>) -> uint64_t {
            // Figure 4: append. With no decision to read, an index past
            // any queue, which Apply clamps to append.
            const Decision* decision = DecisionOf(this);
            return decision != nullptr
                       ? decision->state->waiters.size()
                       : std::numeric_limits<uint64_t>::max();
          },
          [] {
            FunctionGraftPoint::Config config;
            return config;
          }(),
          txn_manager, host, ns) {}

void GraftedLockManager::Marshal(const LockState& state,
                                 const LockRequest& request,
                                 const std::shared_ptr<Graft>& graft,
                                 uint64_t args[6]) {
  MemoryImage& arena = graft->image();
  const uint64_t holders_base = arena.arena_base() + kLockHoldersOffset;
  const uint64_t waiters_base = arena.arena_base() + kLockWaitersOffset;
  const uint64_t max_entries = (kLockWaitersOffset - 8) / 16;

  const uint64_t holder_count =
      std::min<uint64_t>(state.holders.size(), max_entries);
  (void)arena.WriteU64(holders_base, holder_count);
  for (uint64_t i = 0; i < holder_count; ++i) {
    (void)arena.WriteU64(holders_base + 8 + i * 16, state.holders[i].holder);
    (void)arena.WriteU64(holders_base + 16 + i * 16,
                         static_cast<uint64_t>(state.holders[i].mode));
  }
  const uint64_t waiter_count =
      std::min<uint64_t>(state.waiters.size(), max_entries);
  (void)arena.WriteU64(waiters_base, waiter_count);
  for (uint64_t i = 0; i < waiter_count; ++i) {
    (void)arena.WriteU64(waiters_base + 8 + i * 16, state.waiters[i].holder);
    (void)arena.WriteU64(waiters_base + 16 + i * 16,
                         static_cast<uint64_t>(state.waiters[i].mode));
  }

  args[0] = request.holder;
  args[1] = static_cast<uint64_t>(request.mode);
  args[2] = holders_base + 8;
  args[3] = holder_count;
  args[4] = waiters_base + 8;
  args[5] = waiter_count;
}

uint64_t GraftedLockManager::Consult(FunctionGraftPoint& point,
                                     const LockState& state,
                                     const LockRequest& request) {
  const Decision decision{this, &state, &request};
  const Decision* const outer = std::exchange(t_deciding, &decision);
  uint64_t args[6] = {request.holder, static_cast<uint64_t>(request.mode),
                      0, 0, 0, 0};
  std::shared_ptr<Graft> graft = point.current_graft();
  if (graft != nullptr && !graft->is_native()) {
    Marshal(state, request, graft, args);
  }
  const uint64_t answer = point.Invoke(args);
  t_deciding = outer;
  return answer;
}

Status GraftedLockManager::GetLock(LockResourceId resource, LockHolderId holder,
                                   LockMode mode) {
  const LockRequest request{holder, mode};

  // Snapshot the state under the shard mutex, then consult the policy
  // grafts against the snapshot with the mutex dropped.
  LockState snapshot;
  if (Snapshot(resource, holder, &snapshot) == Status::kAlreadyExists) {
    return Status::kAlreadyExists;
  }

  bool graft_says_grant;
  uint64_t queue_index = 0;
  {
    std::lock_guard<std::mutex> consult(consult_mutex_);
    // A grant graft can *deny* requests the default would grant (fair
    // queueing), but it cannot grant conflicting requests: Apply re-checks
    // against the live state — the graft chooses policy, not safety.
    graft_says_grant = Consult(grant_point_, snapshot, request) != 0;
    if (!graft_says_grant) {
      queue_index = Consult(enqueue_point_, snapshot, request);
    }
  }

  // A stale-positive grant (a conflicting holder arrived while we
  // consulted) has no graft-chosen index; it appends.
  return Apply(
      resource, request,
      [graft_says_grant](const LockState&, const LockRequest&) {
        return graft_says_grant;
      },
      [graft_says_grant, queue_index](const LockState& state,
                                      const LockRequest&) {
        return graft_says_grant ? state.waiters.size() : queue_index;
      });
}

}  // namespace vino
