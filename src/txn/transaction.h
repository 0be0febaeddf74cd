// Graft transactions (paper §3.1).
//
// Each graft invocation runs inside a transaction owned by the invoking
// thread. Transactions provide atomicity (undo on abort), consistency, and
// isolation (two-phase locking via TxnLock) — but no durability: the log is
// transient and there is no redo.
//
// Nesting: "because graft functions may indirectly invoke other grafts, we
// found it necessary to include support for nested transactions. In this
// manner, any graft can abort without aborting its calling graft." A nested
// commit merges its undo stack and its locks into the parent.
//
// Thread model: a transaction is touched by exactly one thread, the one
// that began it. Another thread asks for an abort (a lock time-out) by
// posting to the owning thread's KernelContext::pending_abort; a wall-clock
// budget (Watchdog::Scope) is the owning thread's own, in its
// KernelContext::wall_budget. The owning thread checks both at a
// preemption point (the sfi Vm polls every N instructions; TxnLock waits
// poll too) through TxnManager::AbortPending, which raises this
// transaction's abort flag (RequestAbort) when either applies, and then
// performs the actual abort.

#ifndef VINOLITE_SRC_TXN_TRANSACTION_H_
#define VINOLITE_SRC_TXN_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/txn/undo_log.h"

namespace vino {

class TxnLock;
class TxnManager;

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

class Transaction {
 public:
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  [[nodiscard]] uint64_t id() const { return id_; }
  [[nodiscard]] Transaction* parent() const { return parent_; }
  [[nodiscard]] TxnState state() const { return state_; }
  [[nodiscard]] int depth() const { return depth_; }

  // The undo call stack. Accessor functions push onto this.
  [[nodiscard]] UndoLog& undo() { return undo_; }

  // Defers an action until the transaction's outcome is COMMIT. The paper's
  // motivating case (§6): deletes of kernel objects must be delayed until
  // the transaction's fate is known, since an aborted graft's deletes have
  // to be as if they never happened. A nested commit hands its deferred
  // actions to the parent; an abort discards them unrun. Actions are
  // UndoClosures, so a warm transaction defers a small capture without
  // allocating.
  template <typename F>
  void DeferUntilCommit(F&& action) {
    commit_actions_.emplace_back().Emplace(std::forward<F>(action));
  }
  [[nodiscard]] size_t deferred_count() const { return commit_actions_.size(); }

  // --- Abort requests -------------------------------------------------
  // Sets the abort flag; the owning thread aborts at its next poll. Only
  // the owning thread calls it (other threads post to its KernelContext).
  void RequestAbort(Status reason);

  [[nodiscard]] bool abort_requested() const {
    return abort_requested_.load(std::memory_order_acquire);
  }
  // The reason carried by the first RequestAbort (or passed to Abort).
  [[nodiscard]] Status abort_reason() const {
    return static_cast<Status>(abort_reason_.load(std::memory_order_acquire));
  }

  // --- Lock bookkeeping (called by TxnLock) ---------------------------
  void AddLock(TxnLock* lock) { locks_.push_back(lock); }
  [[nodiscard]] size_t lock_count() const { return locks_.size(); }

 private:
  friend class TxnManager;

  Transaction(uint64_t id, Transaction* parent)
      : id_(id), parent_(parent), depth_(parent == nullptr ? 0 : parent->depth_ + 1) {}

  // Returns the object to pristine just-constructed state (under the new id
  // and parent) while keeping the undo/locks/deferred vectors' capacity —
  // the point of recycling. Called by TxnManager when handing a slab object
  // back out from Begin(), and with (0, nullptr) when parking it, so a
  // parked transaction never pins closures, locks, or deferred actions.
  void Reset(uint64_t id, Transaction* parent) {
    id_ = id;
    parent_ = parent;
    depth_ = parent == nullptr ? 0 : parent->depth_ + 1;
    state_ = TxnState::kActive;
    undo_.Clear();
    locks_.clear();
    commit_actions_.clear();
    // Relaxed is enough: a transaction is reset by its owning thread before
    // it is observable to anyone; cross-thread abort delivery goes through
    // KernelContext::pending_abort, never through stale Transaction*.
    abort_requested_.store(false, std::memory_order_relaxed);
    abort_reason_.store(static_cast<int32_t>(Status::kTxnAborted),
                        std::memory_order_relaxed);
  }

  // Commit/abort bodies live in TxnManager, which owns lifetime and the
  // thread-context bookkeeping.
  uint64_t id_;
  Transaction* parent_;
  int depth_;
  TxnState state_ = TxnState::kActive;
  UndoLog undo_;
  std::vector<TxnLock*> locks_;  // Held until commit/abort (2PL).
  std::vector<UndoClosure> commit_actions_;  // Deferred deletes, in order.

  std::atomic<bool> abort_requested_{false};
  std::atomic<int32_t> abort_reason_{static_cast<int32_t>(Status::kTxnAborted)};

  // Intrusive link for KernelContext::txn_slab (the per-thread free list of
  // recycled transactions). Only TxnManager touches it, only while the
  // object is parked.
  Transaction* slab_next_ = nullptr;
};

}  // namespace vino

#endif  // VINOLITE_SRC_TXN_TRANSACTION_H_
