// Event graft points (paper §3.5).
//
// Where a function graft replaces one member function, an event graft point
// lets applications *add* handlers for a kernel event — a TCP connection on
// a port, a UDP packet, a timer — to build in-kernel services (HTTP, NFS).
// "When an event occurs in the kernel, VINO spawns a worker thread and
// begins a transaction. It then invokes the grafted function... When the
// grafted function returns, the worker thread commits the transaction."
// Applications specify the order in which added handlers run.
//
// Worker-pool architecture. The paper's "spawns a worker thread" is a
// *model*, not an implementation mandate: each async handler invocation
// gets a thread of execution, a fresh transaction, and the handler's own
// resource account. We realise the model on a shared bounded WorkerPool
// (src/base/worker_pool.h) instead of one raw OS thread per handler per
// event, which neither scales nor bounds kernel threads. DispatchAsync
// submits one pool task per handler; the handler's kThreads account is
// charged per in-flight task as admission control. When the charge fails
// (the handler has hit its concurrency limit) or the pool itself is
// saturated, delivery degrades to synchronous: the handler runs inline on
// the dispatching thread. An event, once dispatched, is NEVER silently
// dropped — the only way a handler misses an event is removal (its own
// abort, Rule 8 forcible removal, or an explicit RemoveHandler).
//
// Lifecycle. Each point tracks its own in-flight async task count; Drain()
// blocks until it reaches zero, and the destructor drains. A DispatchAsync
// racing Drain() is safe: a task registered before Drain observes zero is
// always waited for, and tasks never outlive the point because the
// destructor drains again. (Callers must still not destroy a point while a
// DispatchAsync call is executing — standard object lifetime rules.)
//
// Stats invariants (under no AddHandler/RemoveHandler churn and no handler
// aborts, after Drain()):
//   handler_runs == events × handlers
//   async_pool_runs + async_inline_runs == async handler invocations
//   handler_aborts ≤ handler_runs
// `events` counts Dispatch/DispatchAsync calls at dispatch time (even if
// there are currently no handlers); `handler_runs`/`handler_aborts` count
// at handler completion, wherever the handler ran (sync, pool, or inline).

#ifndef VINOLITE_SRC_GRAFT_EVENT_POINT_H_
#define VINOLITE_SRC_GRAFT_EVENT_POINT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/base/sharded_counter.h"
#include "src/base/status.h"
#include "src/base/worker_pool.h"
#include "src/graft/graft.h"
#include "src/graft/invocation.h"
#include "src/sfi/host.h"
#include "src/txn/txn_manager.h"

namespace vino {

class GraftNamespace;

class EventGraftPoint {
 public:
  struct Config {
    bool restricted = false;
    uint64_t fuel = 10'000'000;
    uint32_t poll_interval = 64;
    // Pool carrying async dispatches; borrowed, must outlive the point.
    // Null → the process-wide WorkerPool::Default().
    WorkerPool* pool = nullptr;
  };

  EventGraftPoint(std::string name, Config config, TxnManager* txn_manager,
                  const HostCallTable* host, GraftNamespace* ns);

  EventGraftPoint(const EventGraftPoint&) = delete;
  EventGraftPoint& operator=(const EventGraftPoint&) = delete;

  ~EventGraftPoint();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool restricted() const { return config_.restricted; }

  // Adds a handler; lower `order` runs earlier. Fails with kRestrictedPoint
  // for unprivileged owners on restricted points, kAlreadyExists if a
  // handler with the same graft name is present.
  Status AddHandler(std::shared_ptr<Graft> graft, int order);

  // Removes the named handler; kNotFound if absent.
  Status RemoveHandler(const std::string& graft_name);

  [[nodiscard]] size_t handler_count() const;

  // handlers_run counts every handler reached, including ones whose run
  // aborted, and matches Stats::handler_runs 1:1 — the fuzz harness's
  // zero-lost-events invariant reconciles the two, so an aborted handler
  // must never be dropped from either count.
  struct DispatchOutcome {
    size_t handlers_run = 0;
    size_t handler_aborts = 0;
  };

  // Runs every handler (in order) on the calling thread — each handler in
  // its own transaction, with its own resource account, so one handler's
  // abort never disturbs another (Rule 8).
  DispatchOutcome Dispatch(std::span<const uint64_t> args);

  // Delivers the event asynchronously: one worker-pool task per handler,
  // each charged one kThreads unit against the handler's account while in
  // flight (admission control). A handler whose account cannot afford a
  // worker — or whose pool is saturated — runs inline on the calling
  // thread instead; the event is delivered either way. Outstanding tasks
  // are awaited by Drain() or the destructor.
  void DispatchAsync(std::vector<uint64_t> args);

  // Waits for all asynchronous handler invocations dispatched by this
  // point to finish. Safe to call concurrently with DispatchAsync.
  void Drain();

  struct Stats {
    uint64_t events = 0;             // Dispatch + DispatchAsync calls.
    uint64_t handler_runs = 0;       // Handler invocations completed.
    uint64_t handler_aborts = 0;     // ...of which aborted (subset of runs).
    uint64_t async_pool_runs = 0;    // Async invocations run on pool workers.
    uint64_t async_inline_runs = 0;  // Async invocations degraded inline
                                     // (kThreads exhausted or pool saturated).
  };
  [[nodiscard]] Stats stats() const;

  // Peak simultaneously in-flight async tasks from this point.
  [[nodiscard]] uint64_t peak_in_flight() const;

 private:
  struct Handler {
    std::shared_ptr<Graft> graft;
    int order;
  };

  // Runs one handler inside a transaction; returns false if it aborted (and
  // was forcibly removed).
  bool RunHandler(const std::shared_ptr<Graft>& graft,
                  std::span<const uint64_t> args);

  // RunHandler plus handler_runs/handler_aborts accounting — the single
  // counting point for every delivery flavour. Returns RunHandler's result.
  bool RunAndCount(const std::shared_ptr<Graft>& graft,
                   std::span<const uint64_t> args);

  [[nodiscard]] std::vector<std::shared_ptr<Graft>> SnapshotHandlers() const;

  [[nodiscard]] WorkerPool& pool() const {
    return config_.pool != nullptr ? *config_.pool : WorkerPool::Default();
  }

  const std::string name_;
  const Config config_;
  TxnManager* txn_manager_;

  // The point's pinned execution context (both engine tiers, prebuilt
  // RunOptions): built once from Config, shared by every handler invocation
  // on every delivery flavour (the engines are stateless). See invocation.h.
  GraftExecContext exec_;

  mutable std::mutex mutex_;
  std::vector<Handler> handlers_;  // Sorted by order.

  // Drain-safe async lifecycle: in-flight pool tasks from this point.
  mutable std::mutex drain_mutex_;
  std::condition_variable drained_;
  uint64_t in_flight_ = 0;
  uint64_t peak_in_flight_ = 0;

  // Statistics, sharded to keep concurrent dispatchers/pool workers off a
  // shared mutex or cache line (the PR-1 invariants documented above are
  // quiescent-point invariants and survive the sharding). The drain
  // lifecycle state above intentionally stays mutex+condvar: it is
  // synchronization, not statistics.
  enum Counter : size_t {
    kEvents,
    kHandlerRuns,
    kHandlerAborts,
    kAsyncPoolRuns,
    kAsyncInlineRuns,
  };
  ShardedCounters<5> counters_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_EVENT_POINT_H_
