#include "src/lockmgr/lock_table.h"

#include <algorithm>

namespace vino {

namespace {

// Erases `holder`'s entry from `entries`; false if it has none.
template <typename Entries>
bool EraseHolder(Entries& entries, LockHolderId holder) {
  const auto it = std::find_if(
      entries.begin(), entries.end(),
      [holder](const LockRequest& r) { return r.holder == holder; });
  if (it == entries.end()) {
    return false;
  }
  entries.erase(it);
  return true;
}

}  // namespace

bool ConflictsWithHolders(const LockState& state, const LockRequest& request) {
  return std::any_of(state.holders.begin(), state.holders.end(),
                     [&request](const LockRequest& h) {
                       return h.holder != request.holder &&
                              !Compatible(h.mode, request.mode);
                     });
}

bool LockTable::HeldBy(const LockState& state, LockHolderId holder) {
  return std::any_of(
      state.holders.begin(), state.holders.end(),
      [holder](const LockRequest& h) { return h.holder == holder; });
}

bool LockTable::Queued(const LockState& state, LockHolderId holder) {
  return std::any_of(
      state.waiters.begin(), state.waiters.end(),
      [holder](const LockRequest& w) { return w.holder == holder; });
}

void LockTable::Promote(LockState& state) {
  size_t granted = 0;
  while (granted < state.waiters.size() &&
         !ConflictsWithHolders(state, state.waiters[granted])) {
    state.holders.push_back(state.waiters[granted]);
    ++granted;
  }
  state.waiters.erase(state.waiters.begin(),
                      state.waiters.begin() + static_cast<ptrdiff_t>(granted));
}

Status LockTable::ReleaseLock(LockResourceId resource, LockHolderId holder) {
  return Withdraw(resource, holder, /*waiting_too=*/false);
}

Status LockTable::CancelWait(LockResourceId resource, LockHolderId holder) {
  return Withdraw(resource, holder, /*waiting_too=*/true);
}

Status LockTable::Withdraw(LockResourceId resource, LockHolderId holder,
                           bool waiting_too) {
  Shard& shard = ShardFor(resource);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.locks.find(resource);
  if (it == shard.locks.end()) {
    return Status::kNotFound;
  }
  LockState& state = it->second;
  if (!(waiting_too && EraseHolder(state.waiters, holder)) &&
      !EraseHolder(state.holders, holder)) {
    return Status::kNotFound;
  }
  Promote(state);
  // An idle entry is kept for reuse while its shard is small.
  if (state.holders.empty() && state.waiters.empty() &&
      shard.locks.size() > kIdleEntriesPerShard) {
    shard.locks.erase(it);
  }
  return Status::kOk;
}

bool LockTable::Holds(LockResourceId resource, LockHolderId holder) const {
  const Shard& shard = ShardFor(resource);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.locks.find(resource);
  return it != shard.locks.end() && HeldBy(it->second, holder);
}

size_t LockTable::WaiterCount(LockResourceId resource) const {
  const Shard& shard = ShardFor(resource);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.locks.find(resource);
  return it == shard.locks.end() ? 0 : it->second.waiters.size();
}

Status LockTable::Snapshot(LockResourceId resource, LockHolderId holder,
                           LockState* out) const {
  const Shard& shard = ShardFor(resource);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.locks.find(resource);
  if (it == shard.locks.end()) {
    return Status::kOk;
  }
  if (HeldBy(it->second, holder)) {
    return Status::kAlreadyExists;
  }
  *out = it->second;
  return Status::kOk;
}

}  // namespace vino
