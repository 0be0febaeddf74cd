// Bounded worker pool for asynchronous kernel work.
//
// The paper's event grafts (§3.5) "spawn a worker thread" per kernel event.
// Spawning a raw OS thread per event neither scales (thread creation is
// microseconds, events are nanoseconds apart under load) nor bounds kernel
// resource usage. This pool keeps the paper's *model* — each event handler
// runs on a worker thread inside its own transaction — while capping the
// number of real threads and the depth of queued work.
//
// Saturation: a full queue never drops work. The submitter runs the task
// inline on its own thread (degrade to synchronous delivery). Shutdown runs
// every queued task before workers exit, and tasks submitted after shutdown
// run inline; in no configuration does a submitted task vanish.

#ifndef VINOLITE_SRC_BASE_WORKER_POOL_H_
#define VINOLITE_SRC_BASE_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vino {

class WorkerPool {
 public:
  using Task = std::function<void()>;

  struct Config {
    size_t workers = 0;          // 0 → hardware_concurrency (at least 2).
    size_t queue_capacity = 256; // Max queued (not yet executing) tasks.
  };

  explicit WorkerPool(const Config& config);

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool();  // Shutdown(): runs all queued tasks, joins workers.

  // Submits a task for execution. Never drops: a task always runs exactly
  // once — on a pool worker, or inline on the calling thread (saturation,
  // or after Shutdown).
  void Submit(Task task);

  // Waits until the queue is empty and no worker is executing. Tasks that
  // ran inline on submitters are, by construction, already complete. Note
  // this is a pool-wide quiescence point; callers that need "my tasks are
  // done" (not "everyone's tasks are done") should track their own pending
  // count, as EventGraftPoint does.
  void Drain();

  // Stops accepting queued work: remaining queued tasks execute, workers
  // join, and subsequent Submits run inline. Idempotent.
  void Shutdown();

  struct Stats {
    uint64_t submitted = 0;        // Total Submit calls.
    uint64_t executed = 0;         // Tasks completed on pool workers.
    uint64_t inline_runs = 0;      // Tasks run on the submitter's thread.
    uint64_t peak_queue_depth = 0;
    uint64_t peak_active_workers = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] size_t worker_count() const { return threads_.size(); }
  [[nodiscard]] size_t queue_capacity() const { return config_.queue_capacity; }

  // Process-wide shared pool for callers with no injected pool (tests,
  // standalone graft points). Created on first use and deliberately leaked:
  // worker threads must outlive all static destructors that might still
  // submit work.
  [[nodiscard]] static WorkerPool& Default();

 private:
  void WorkerLoop();
  void RunInline(Task& task);

  const Config config_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;   // Queue non-empty or stopping.
  std::condition_variable idle_;         // Queue empty and no active worker.
  std::deque<Task> queue_;
  size_t active_ = 0;                    // Workers currently running a task.
  bool stopping_ = false;
  Stats stats_;

  std::vector<std::thread> threads_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_WORKER_POOL_H_
