// The lock table under all three lock managers (Figure 4, Figure 5,
// grafted): the lock vocabulary, the sharded resource->state table, and
// every step the managers share. A manager keeps only its two policy
// decisions — grant now, or queue where — and hands them to Apply().
//
// PR 9's serving bench showed the single map-plus-mutex design collapsing
// under multi-installer load: every GetLock on every resource serialized on
// one cache line. The table is now sharded by resource id — two requests
// touch the same mutex only if their resources hash to the same shard, and
// a shard's mutex is held only for the map operation itself (the grafted
// manager consults its policy grafts *outside* the shard lock).
//
// There is no blocking wait inside the table — a queued requester polls
// Holds() and, on timeout, withdraws atomically with CancelWait() so its
// abandoned queue slot cannot strand later grants.
//
// An uncontended GetLock+ReleaseLock on a resource used before allocates
// nothing. The wait queue is a vector, which allocates only when a first
// waiter arrives. A drained (idle) entry stays in its shard, holder capacity
// kept, for the next request on that resource. It is erased only while its
// shard holds more than kIdleEntriesPerShard entries, so a shard holds at
// most max(live entries, kIdleEntriesPerShard) + 1. An idle entry answers
// every query exactly as an absent one does.

#ifndef VINOLITE_SRC_LOCKMGR_LOCK_TABLE_H_
#define VINOLITE_SRC_LOCKMGR_LOCK_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/base/hash.h"
#include "src/base/status.h"
#include "src/base/trace.h"

namespace vino {

enum class LockMode : uint8_t { kShared, kExclusive };

using LockHolderId = uint64_t;
using LockResourceId = uint64_t;

struct LockRequest {
  LockHolderId holder = 0;
  LockMode mode = LockMode::kShared;
};

struct LockState {
  std::vector<LockRequest> holders;
  std::vector<LockRequest> waiters;  // A few entries; the front is next.
};

// True iff `a` and `b` can hold the lock simultaneously.
[[nodiscard]] constexpr bool Compatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

// True iff `request` conflicts with a holder other than its own.
[[nodiscard]] bool ConflictsWithHolders(const LockState& state,
                                        const LockRequest& request);

class LockTable {
 public:
  static constexpr size_t kShardCount = 16;  // Power of two.
  // Idle entries a shard keeps for reuse (see the header comment).
  static constexpr size_t kIdleEntriesPerShard = 64;

  // Figure 4's hard-coded decisions. Grant: whatever the holders allow —
  // Apply() already refuses a conflict, and waiters are ignored (reader
  // priority). Queue: append (FIFO).
  struct GrantIfHoldersAllow {
    bool operator()(const LockState&, const LockRequest&) const { return true; }
  };
  struct AppendToQueue {
    size_t operator()(const LockState& state, const LockRequest&) const {
      return state.waiters.size();
    }
  };

  // The one grant-or-queue step, under the resource's shard mutex.
  // kAlreadyExists if the holder already holds, and kBusy, with nothing
  // granted or queued, if it already waits. Otherwise `grant(state,
  // request)` may grant (kOk) a request that conflicts with no current
  // holder — the kernel, not the policy, owns that check. A request not
  // granted goes in the wait queue at `queue(state, request)`, clamped to
  // append, and is kBusy, unless the lock is idle: then FIFO promotion runs
  // at once, since nobody will release an idle lock, and a promoted request
  // is kOk. Posts kLockAcquire on a grant and kLockContend on a queue.
  template <typename Grant, typename Queue>
  Status Apply(LockResourceId resource, const LockRequest& request,
               Grant&& grant, Queue&& queue);

  // Releases; promotes compatible waiters in FIFO order. kNotFound if the
  // holder does not hold the resource (a queued request is not a held
  // lock — withdraw it with CancelWait).
  Status ReleaseLock(LockResourceId resource, LockHolderId holder);

  // Withdraws a request that did not get the lock in time. Atomically, in
  // one shard critical section: if the holder is still queued the entry is
  // removed; if the grant raced the timeout and the holder already owns the
  // lock, the grant is released. Either way the queue is re-promoted — a
  // timed-out waiter at the front must not keep stranding compatible
  // requests behind it. kNotFound if the holder neither waits nor holds.
  Status CancelWait(LockResourceId resource, LockHolderId holder);

  [[nodiscard]] bool Holds(LockResourceId resource, LockHolderId holder) const;
  [[nodiscard]] size_t WaiterCount(LockResourceId resource) const;

  // Copies the resource's state into `out`, for a decision made with no
  // shard mutex held. kAlreadyExists if `holder` already holds.
  Status Snapshot(LockResourceId resource, LockHolderId holder,
                  LockState* out) const;

 private:
  // Cache-line aligned, as NetStack::Ring is: two threads on neighbouring
  // shards never write one line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<LockResourceId, LockState> locks;
  };

  // Resource ids are commonly small and sequential, so they go through the
  // splitmix64 finalizer before the shard mask (as ShardedCounters does).
  [[nodiscard]] Shard& ShardFor(LockResourceId resource) {
    return shards_[MixU64(resource) & (kShardCount - 1)];
  }
  [[nodiscard]] const Shard& ShardFor(LockResourceId resource) const {
    return shards_[MixU64(resource) & (kShardCount - 1)];
  }

  [[nodiscard]] static bool HeldBy(const LockState& state, LockHolderId holder);
  [[nodiscard]] static bool Queued(const LockState& state, LockHolderId holder);

  // Grants waiters in queue order while they remain compatible with the
  // holder set. Promotion is kernel policy, not graft policy: it is what
  // guarantees a drained lock never strands its queue.
  static void Promote(LockState& state);

  // Apply()'s queue tail: insert at `index`, post, promote an idle lock.
  static Status Enqueue(LockState& state, const LockRequest& request,
                        LockResourceId resource, size_t index);

  // ReleaseLock and CancelWait (which also looks in the wait queue).
  Status Withdraw(LockResourceId resource, LockHolderId holder,
                  bool waiting_too);

  std::array<Shard, kShardCount> shards_;
};

template <typename Grant, typename Queue>
Status LockTable::Apply(LockResourceId resource, const LockRequest& request,
                        Grant&& grant, Queue&& queue) {
  Shard& shard = ShardFor(resource);
  std::lock_guard<std::mutex> lock(shard.mu);
  LockState& state = shard.locks[resource];
  // One pass over the holders finds both a duplicate and a conflict.
  bool conflicts = false;
  for (const LockRequest& h : state.holders) {
    if (h.holder == request.holder) {
      return Status::kAlreadyExists;
    }
    conflicts = conflicts || !Compatible(h.mode, request.mode);
  }
  // A queued holder asking again keeps its one queue entry: a second copy
  // would outlive its CancelWait and be promoted after it withdrew. An
  // uncontended lock has no waiters, so it pays no scan.
  if (!state.waiters.empty() && Queued(state, request.holder)) {
    return Status::kBusy;
  }
  const LockState& view = state;
  if (!conflicts && grant(view, request)) {
    state.holders.push_back(request);
    VINO_TRACE(trace::Event::kLockAcquire, static_cast<uint16_t>(request.mode),
               0, resource, request.holder);
    return Status::kOk;
  }
  return Enqueue(state, request, resource,
                 static_cast<size_t>(queue(view, request)));
}

inline Status LockTable::Enqueue(LockState& state, const LockRequest& request,
                                 LockResourceId resource, size_t index) {
  if (index >= state.waiters.size()) {
    state.waiters.push_back(request);  // Append, or a clamped answer.
  } else {
    state.waiters.insert(state.waiters.begin() + static_cast<ptrdiff_t>(index),
                         request);
  }
  VINO_TRACE(trace::Event::kLockContend, static_cast<uint16_t>(request.mode),
             static_cast<uint32_t>(state.waiters.size()), resource,
             request.holder);
  if (!state.holders.empty()) {
    return Status::kBusy;  // A holder's release will promote.
  }
  // A policy may deny a request on an idle lock, or the lock drained while
  // a graft deliberated. Promotion only runs on release and nobody releases
  // an idle lock, so promote now: kernel liveness outranks policy.
  Promote(state);
  return HeldBy(state, request.holder) ? Status::kOk : Status::kBusy;
}

}  // namespace vino

#endif  // VINOLITE_SRC_LOCKMGR_LOCK_TABLE_H_
