// Per-OS-thread kernel context.
//
// The paper's model (§6): "grafts are effectively user-level processes that
// happen to run in the kernel's address space". Each OS thread executing
// kernel code carries a context naming the kernel thread it represents, the
// transaction it is running (if any), and the resource account its
// allocations are charged to. Graft wrappers swap these around invocations
// (§3.2: "When a thread invokes a grafted function in the kernel, the
// thread's resource limits are replaced by those associated with the graft").
//
// Asynchronous abort requests (lock time-outs fired by *other* threads,
// §3.2) are delivered through the context, not through Transaction pointers:
// a waiter posts a status flag here under the context registry lock; the
// owning thread notices it at its next preemption point and aborts its own
// innermost transaction. This keeps Transaction lifetime single-threaded.
//
// Posts carry the id of the transaction the poster meant to kill (or 0 for
// "whatever is innermost"). Without the tag, a lock-timeout fire that lands
// after its victim already ended — but before the victim's sibling begins —
// would abort the innocent successor: the post itself cannot expire, so the
// consumer must be able to tell stale from live. The consumer (TxnManager)
// discards a post whose target is no longer in the thread's active
// transaction chain.
//
// A wall-clock budget (Watchdog::Scope, §4.5) is not posted: it is the
// thread's own, kept in wall_budget, and the same consumer compares it with
// its watchdog's tick count at the same points.

#ifndef VINOLITE_SRC_BASE_CONTEXT_H_
#define VINOLITE_SRC_BASE_CONTEXT_H_

#include <atomic>
#include <cstdint>

namespace vino {

class Transaction;      // src/txn/transaction.h
class ResourceAccount;  // src/resource/account.h
class Watchdog;         // src/txn/watchdog.h

struct KernelContext {
  KernelContext();
  ~KernelContext();

  KernelContext(const KernelContext&) = delete;
  KernelContext& operator=(const KernelContext&) = delete;

  // Unique id for the underlying OS thread, assigned at first use and
  // registered for cross-thread abort delivery.
  uint64_t os_id = 0;

  // Kernel thread identity; 0 until a KernelThread adopts this OS thread.
  uint64_t thread_id = 0;

  // Innermost active transaction, or null. Only the owning thread reads or
  // writes this field.
  Transaction* txn = nullptr;

  // Account charged for resource allocations, or null (unaccounted kernel
  // work, e.g. boot-time setup).
  ResourceAccount* account = nullptr;

  // Pending asynchronous abort, packed into one word so a (reason, target)
  // pair posts and reads atomically — two racing posters can never be
  // blended into a request neither of them made. 0 = none; see PackAbort.
  // Posted by other threads via PostAbortRequest, consumed by this thread.
  std::atomic<uint64_t> pending_abort{0};

  // The wall-clock budget this thread runs under, set by Watchdog::Scope:
  // the innermost scope's, or an enclosing scope's on the same watchdog
  // that expires first. Only the owning thread reads or writes it.
  struct WallBudget {
    Watchdog* watchdog = nullptr;  // None when null.
    uint64_t expiry = 0;           // On the watchdog's tick count (µs).
    bool fired = false;            // Expiry noticed and counted.
  };
  WallBudget wall_budget;

  // --- Per-thread Transaction slab (hot-path recycling) ----------------
  // TxnManager::Begin/Commit/Abort recycle Transaction objects through this
  // free list instead of new/delete, so a steady-state graft invocation
  // allocates nothing. Only the owning thread touches these fields.
  // base/ must not depend on txn/, so the list is an opaque head pointer
  // plus a deleter the transaction layer installs on first push; the
  // destructor uses it to free the chain at thread exit.
  Transaction* txn_slab = nullptr;
  uint32_t txn_slab_size = 0;
  void (*txn_slab_drop)(Transaction* head) = nullptr;

  // The calling OS thread's context. Never null.
  static KernelContext& Current();

  // --- Abort-request packing -------------------------------------------
  // [63:16] target transaction id (48 bits — ids are a monotonic counter,
  //         so wrap is ~10^14 transactions away), [15:0] the Status reason
  //         as a sign-truncated int16. A packed word of 0 means "no request"
  //         (reasons are never kOk). Target 0 = any transaction (legacy
  //         wildcard; used by callers that police a thread, not a txn).
  struct AbortRequest {
    int32_t reason = 0;       // Status as int; never 0 in a live request.
    uint64_t target_txn = 0;  // 0 = innermost, whatever it is.
  };
  static constexpr uint64_t PackAbort(int32_t reason, uint64_t target_txn) {
    return (target_txn << 16) |
           static_cast<uint16_t>(static_cast<int16_t>(reason));
  }
  static constexpr AbortRequest UnpackAbort(uint64_t word) {
    return AbortRequest{static_cast<int16_t>(word & 0xffff), word >> 16};
  }

  // Posts an abort request to the thread with the given os_id, aimed at that
  // thread's transaction `target_txn_id` (0 = whatever is innermost when the
  // post is consumed). Returns false if that thread's context no longer
  // exists. `reason_status_value` is the int value of a vino::Status.
  // A newer post overwrites an unconsumed older one.
  static bool PostAbortRequest(uint64_t os_id, int32_t reason_status_value,
                               uint64_t target_txn_id = 0);
};

// RAII: swaps the current thread's resource account, restoring on exit.
// The two-argument form takes the already-resolved context so a hot path
// that has done its one KernelContext::Current() lookup shares it between
// constructor and destructor (the graft wrapper's account swap is a single
// pointer exchange each way).
class ScopedAccount {
 public:
  ScopedAccount(KernelContext& ctx, ResourceAccount* account)
      : ctx_(ctx), saved_(ctx.account) {
    ctx.account = account;
  }
  explicit ScopedAccount(ResourceAccount* account)
      : ScopedAccount(KernelContext::Current(), account) {}
  ~ScopedAccount() { ctx_.account = saved_; }

  ScopedAccount(const ScopedAccount&) = delete;
  ScopedAccount& operator=(const ScopedAccount&) = delete;

 private:
  KernelContext& ctx_;
  ResourceAccount* saved_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_CONTEXT_H_
