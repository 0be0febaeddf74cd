#include "src/txn/txn_manager.h"

#include <cassert>

#include "src/base/log.h"
#include "src/txn/txn_lock.h"
#include "src/txn/watchdog.h"

namespace vino {

// The thread's abort request, if one applies to the transaction chain rooted
// at `innermost`. An expired wall budget is checked first, so its fire is
// counted even when a posted abort dooms the transaction anyway. Then the
// posted request: a live one — wildcard (target 0) or aimed at a
// transaction still in the chain — is returned as its reason. A stale one,
// whose target already committed or aborted, is CAS-cleared and ignored so
// it cannot poison an innocent successor; the CAS (rather than a plain
// store) keeps a newer post that raced in from being destroyed, and the
// loop re-evaluates that newer post instead. Inline: AbortPending is every
// preemption point's poll.
inline Status TxnManager::LiveAbortRequest(KernelContext& ctx,
                                           const Transaction* innermost) {
  if (Watchdog::Expired(ctx)) {
    return Status::kTxnTimedOut;
  }
  uint64_t word = ctx.pending_abort.load(std::memory_order_acquire);
  while (word != 0) {
    const KernelContext::AbortRequest req = KernelContext::UnpackAbort(word);
    if (req.target_txn == 0) {
      return static_cast<Status>(req.reason);
    }
    for (const Transaction* t = innermost; t != nullptr; t = t->parent()) {
      if (t->id() == req.target_txn) {
        return static_cast<Status>(req.reason);
      }
    }
    if (ctx.pending_abort.compare_exchange_weak(word, 0,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
      return Status::kOk;
    }
  }
  return Status::kOk;
}

Transaction* TxnManager::SlabPop(KernelContext& ctx) {
  Transaction* txn = ctx.txn_slab;
  if (txn != nullptr) {
    ctx.txn_slab = txn->slab_next_;
    txn->slab_next_ = nullptr;
    --ctx.txn_slab_size;
  }
  return txn;
}

void TxnManager::SlabPush(KernelContext& ctx, Transaction* txn) {
  if (ctx.txn_slab_size >= kMaxSlabSize) {
    counters_.Add(kSlabOverflows);
    delete txn;
    return;
  }
  // Scrub before parking, not just before reuse: a parked transaction must
  // not keep closures (deferred deletes, undo captures) or lock pointers
  // alive across an unbounded idle period.
  txn->Reset(0, nullptr);
  txn->slab_next_ = ctx.txn_slab;
  ctx.txn_slab = txn;
  ++ctx.txn_slab_size;
  ctx.txn_slab_drop = &TxnManager::SlabDrop;
}

void TxnManager::SlabDrop(Transaction* head) {
  while (head != nullptr) {
    Transaction* next = head->slab_next_;
    delete head;
    head = next;
  }
}

Transaction* TxnManager::Begin(KernelContext& ctx) {
  if (ctx.txn == nullptr) {
    // A fresh top-level transaction must not inherit an abort request aimed
    // at a previous one: whatever lock that request concerned was released
    // when the previous transaction ended.
    ctx.pending_abort.store(0, std::memory_order_release);
  } else {
    counters_.Add(kNestedBegins);
  }
  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  Transaction* txn = SlabPop(ctx);
  if (txn != nullptr) {
    txn->Reset(id, ctx.txn);
  } else {
    // Heap fallback: nesting deeper than the slab cap (or a cold thread)
    // degrades to new/delete, never to a refused begin.
    counters_.Add(kSlabMisses);
    txn = new Transaction(id, ctx.txn);
  }
  ctx.txn = txn;
  counters_.Add(kBegins);
  return txn;
}

Status TxnManager::Commit(KernelContext& ctx, Transaction* txn) {
  assert(ctx.txn == txn && "Commit must target the innermost transaction");

  // An asynchronously requested abort (a waiter timed out on one of our
  // locks, or the thread's wall budget expired) turns the commit into an
  // abort: the transaction has been judged a resource hoarder and the
  // paper's contract is that it does not get to keep its effects. A post
  // whose target is no longer in the chain is stale — honouring it here
  // would abort an innocent transaction.
  const Status posted = LiveAbortRequest(ctx, txn);
  if (txn->abort_requested() || posted != Status::kOk) {
    const Status reason = txn->abort_requested() ? txn->abort_reason() : posted;
    Abort(ctx, txn, reason);
    return reason;
  }

  Transaction* parent = txn->parent_;
  if (parent != nullptr) {
    // Nested commit: "its undo call stack and locks are merged with those of
    // its parent" (§3.1). Deferred deletes ride along: they only run once
    // the outermost transaction's fate is sealed.
    txn->undo_.MergeInto(parent->undo_);
    for (TxnLock* lock : txn->locks_) {
      lock->TransferTo(parent);
      parent->AddLock(lock);
    }
    for (auto& action : txn->commit_actions_) {
      parent->commit_actions_.push_back(std::move(action));
    }
  } else {
    // Top-level commit: run the deferred deletes (§6's "delaying deletes
    // until transaction abort" workaround — the delete happens only now
    // that no abort can need the object), then drop locks (end of the
    // two-phase window) and the now-unneeded undo stack.
    for (auto& action : txn->commit_actions_) {
      action();
    }
    ReleaseLocks(txn);
    txn->undo_.Clear();
  }

  txn->state_ = TxnState::kCommitted;
  ctx.txn = parent;
  counters_.Add(kCommits);
  SlabPush(ctx, txn);
  return Status::kOk;
}

void TxnManager::Abort(KernelContext& ctx, Transaction* txn, Status reason) {
  assert(ctx.txn == txn && "Abort must target the innermost transaction");

  VINO_LOG_DEBUG << "txn " << txn->id() << " abort: " << StatusName(reason);

  // Undo first, then release locks: the undo operations may touch the very
  // state those locks protect.
  txn->undo_.ReplayAndClear();
  ReleaseLocks(txn);

  txn->state_ = TxnState::kAborted;
  ctx.txn = txn->parent_;

  // The posted request (if any) is satisfied by this abort. If the
  // contended lock is actually owned by an *outer* transaction, the waiter
  // will time out again and re-post — the chain unwinds one level at a time.
  ctx.pending_abort.store(0, std::memory_order_release);

  counters_.Add(kAborts);
  if (reason == Status::kTxnTimedOut) {
    counters_.Add(kTimeoutAborts);
  }
  SlabPush(ctx, txn);
}

void TxnManager::ReleaseLocks(Transaction* txn) {
  for (auto it = txn->locks_.rbegin(); it != txn->locks_.rend(); ++it) {
    (*it)->ReleaseOwnedBy(txn);
  }
  txn->locks_.clear();
}

bool TxnManager::AbortPending(KernelContext& ctx) {
  Transaction* txn = ctx.txn;
  if (txn == nullptr) {
    // Nothing to abort; drop any stale request so it cannot poison a later
    // transaction (the paper's model: only transactions are abortable).
    ctx.pending_abort.store(0, std::memory_order_release);
    return false;
  }
  if (txn->abort_requested()) {
    return true;
  }
  const Status posted = LiveAbortRequest(ctx, txn);
  if (posted != Status::kOk) {
    // A post aimed at an *ancestor* still dooms the innermost transaction:
    // the chain unwinds one level at a time (each abort clears the request;
    // the still-blocked waiter re-posts against the next level). An expired
    // budget stays expired until its scope closes, so it dooms each level
    // in turn.
    txn->RequestAbort(posted);
    return true;
  }
  return false;
}

TxnStats TxnManager::stats() const {
  TxnStats s;
  s.begins = counters_.Read(kBegins);
  s.commits = counters_.Read(kCommits);
  s.aborts = counters_.Read(kAborts);
  s.timeout_aborts = counters_.Read(kTimeoutAborts);
  s.nested_begins = counters_.Read(kNestedBegins);
  s.slab_misses = counters_.Read(kSlabMisses);
  s.slab_overflows = counters_.Read(kSlabOverflows);
  return s;
}

}  // namespace vino
