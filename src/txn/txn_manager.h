// The default VINO transaction manager (paper §3.1).
//
// "All graft transactions are managed by the default VINO transaction
//  manager. When a transaction is initiated the manager allocates a
//  transaction object that is associated with the thread that invoked the
//  graft. The VINO transaction manager uses two-phase locking and an
//  in-memory undo call stack."

#ifndef VINOLITE_SRC_TXN_TXN_MANAGER_H_
#define VINOLITE_SRC_TXN_TXN_MANAGER_H_

#include <atomic>
#include <cstdint>

#include "src/base/context.h"
#include "src/base/histogram.h"
#include "src/base/sharded_counter.h"
#include "src/base/status.h"
#include "src/txn/transaction.h"

namespace vino {

struct TxnStats {
  uint64_t begins = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t timeout_aborts = 0;
  uint64_t nested_begins = 0;
  // Begins the per-thread slab could not serve (heap fallback). The first
  // kMaxSlabSize begins on every thread are unavoidable cold misses; a
  // steady-state miss rate above that means nesting deeper than the cap.
  uint64_t slab_misses = 0;
  // Finished transactions deleted instead of parked because the slab was
  // already at its depth cap (the tail end of a >cap nesting burst).
  uint64_t slab_overflows = 0;
};

class TxnManager {
 public:
  // Slab depth bound: deeper nesting than this falls back to new/delete (and
  // counts as a slab miss / overflow in TxnStats). The cap exists only so a
  // burst of deep nesting cannot park an unbounded pile of warmed vectors on
  // every thread forever.
  static constexpr uint32_t kMaxSlabSize = 32;

  // `eject_degraded`: this kernel's graft points forcibly remove a graft
  // the drift detector marked degraded (src/graft/drift.h). Off by
  // default; VinoKernelConfig::eject_degraded sets it per kernel.
  explicit TxnManager(bool eject_degraded = false)
      : eject_degraded_(eject_degraded) {}
  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  // Begins a transaction on the calling thread. If the thread already has an
  // active transaction this one nests inside it. The new transaction becomes
  // ctx.txn. The KernelContext&-taking forms of Begin/Commit/Abort/
  // AbortPending exist for the graft wrapper, which resolves the thread's
  // context once per invocation and shares it; `ctx` must be the calling
  // thread's own context.
  Transaction* Begin() { return Begin(KernelContext::Current()); }
  Transaction* Begin(KernelContext& ctx);

  // Commits `txn`, which must be the calling thread's innermost transaction.
  //  * nested:    undo stack and locks merge into the parent,
  //  * top-level: locks are released, the undo stack is discarded.
  // If an abort was requested concurrently (e.g. a waiter timed out on a
  // lock this transaction holds — or any transaction below it in the chain),
  // the commit is refused and the transaction aborts instead: returns the
  // abort reason. Posted requests aimed at a transaction no longer in the
  // chain are stale and discarded, not honoured.
  Status Commit(Transaction* txn) { return Commit(KernelContext::Current(), txn); }
  Status Commit(KernelContext& ctx, Transaction* txn);

  // Aborts `txn`: replays its undo stack LIFO, releases its locks, restores
  // the thread's context to the parent.
  void Abort(Transaction* txn, Status reason) {
    Abort(KernelContext::Current(), txn, reason);
  }
  void Abort(KernelContext& ctx, Transaction* txn, Status reason);

  // The calling thread's innermost active transaction, or null.
  [[nodiscard]] static Transaction* Current() {
    return KernelContext::Current().txn;
  }

  // The preemption-point poll. Checks both the current transaction's abort
  // flag and the thread's asynchronously posted abort request (lock
  // time-outs are delivered to the *thread*; this converts them into an
  // abort of the innermost transaction). A posted request is honoured only
  // if it targets the innermost transaction, one of its ancestors, or any
  // transaction (wildcard 0); a request whose target already ended is stale
  // and discarded so it cannot poison an innocent successor. Returns true if
  // the current transaction must abort. Used by accessor functions, TxnLock
  // waits, and the sfi Vm's poll callback.
  [[nodiscard]] static bool AbortPending() {
    return AbortPending(KernelContext::Current());
  }
  [[nodiscard]] static bool AbortPending(KernelContext& ctx);

  [[nodiscard]] TxnStats stats() const;

  [[nodiscard]] bool eject_degraded() const { return eject_degraded_; }

  // --- Flight-recorder exports (populated while tracing is enabled) -----
  // Durations of the commit and abort paths, log-bucketed for p50/p95/p99.
  [[nodiscard]] const LatencyHistogram& commit_latency() const {
    return commit_latency_;
  }
  [[nodiscard]] const LatencyHistogram& abort_latency() const {
    return abort_latency_;
  }

 private:
  void ReleaseLocks(Transaction* txn);

  // --- Transaction recycling (KernelContext::txn_slab) -----------------
  // Finished transactions park on a per-thread free list instead of being
  // deleted; Begin() pops from it. A recycled object keeps its vectors'
  // capacity, so steady-state begin/commit performs zero heap allocations.
  static Transaction* SlabPop(KernelContext& ctx);
  void SlabPush(KernelContext& ctx, Transaction* txn);
  static void SlabDrop(Transaction* head);  // KernelContext's exit deleter.

  const bool eject_degraded_;
  std::atomic<uint64_t> next_id_{1};

  enum Counter : size_t {
    kBegins,
    kCommits,
    kAborts,
    kTimeoutAborts,
    kNestedBegins,
    kSlabMisses,
    kSlabOverflows,
  };
  ShardedCounters<7> counters_;

  // Flight-recorder data; written only when trace::Enabled() (the disabled
  // hot path never reads the clock or touches these lines).
  LatencyHistogram commit_latency_;
  LatencyHistogram abort_latency_;
};

// RAII wrapper for kernel code paths that bracket work in a transaction.
// If neither Commit() nor Abort() was called, destruction aborts (a graft
// stub that threw / returned early must not leave state behind).
class TxnScope {
 public:
  explicit TxnScope(TxnManager& manager)
      : TxnScope(manager, KernelContext::Current()) {}

  // Context-threading form: `ctx` must be the calling thread's context. The
  // graft wrapper resolves it once and shares it with the scope, the account
  // swap, and the abort polls.
  TxnScope(TxnManager& manager, KernelContext& ctx)
      : manager_(manager), ctx_(ctx), txn_(manager.Begin(ctx)) {}

  ~TxnScope() {
    if (!done_) {
      manager_.Abort(ctx_, txn_, Status::kTxnAborted);
    }
  }

  TxnScope(const TxnScope&) = delete;
  TxnScope& operator=(const TxnScope&) = delete;

  [[nodiscard]] Transaction* txn() { return txn_; }

  Status Commit() {
    done_ = true;
    return manager_.Commit(ctx_, txn_);
  }

  void Abort(Status reason) {
    done_ = true;
    manager_.Abort(ctx_, txn_, reason);
  }

 private:
  TxnManager& manager_;
  KernelContext& ctx_;
  Transaction* txn_;
  bool done_ = false;
};

}  // namespace vino

#endif  // VINOLITE_SRC_TXN_TXN_MANAGER_H_
