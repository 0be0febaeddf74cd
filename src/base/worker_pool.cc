#include "src/base/worker_pool.h"

#include <algorithm>
#include <utility>

#include "src/base/trace.h"

namespace vino {

WorkerPool::WorkerPool(const Config& config) : config_([&config] {
  Config c = config;
  if (c.workers == 0) {
    c.workers = std::max(2u, std::thread::hardware_concurrency());
  }
  if (c.queue_capacity == 0) {
    c.queue_capacity = 1;
  }
  return c;
}()) {
  threads_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::RunInline(Task& task) {
  task();
  std::lock_guard<std::mutex> guard(mutex_);
  ++stats_.inline_runs;
}

void WorkerPool::Submit(Task task) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ++stats_.submitted;
    if (!stopping_) {
      if (queue_.size() < config_.queue_capacity) {
        queue_.push_back(std::move(task));
        stats_.peak_queue_depth =
            std::max<uint64_t>(stats_.peak_queue_depth, queue_.size());
        work_ready_.notify_one();
        return;
      }
      // Flight recorder: one record per saturated submit, `a` = queue
      // depth at the decision.
      VINO_TRACE(trace::Event::kPoolSaturated, 0, 0, queue_.size(), 0);
    }
  }
  // Saturated or shut down: degrade to synchronous execution on the
  // submitting thread. The task still runs exactly once.
  RunInline(task);
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) {
        return;  // stopping_ and nothing left to run.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      stats_.peak_active_workers =
          std::max<uint64_t>(stats_.peak_active_workers, active_);
    }
    task();
    {
      std::lock_guard<std::mutex> guard(mutex_);
      --active_;
      ++stats_.executed;
      if (queue_.empty() && active_ == 0) {
        idle_.notify_all();
      }
    }
  }
}

void WorkerPool::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stopping_) {
      return;
    }
    stopping_ = true;
    work_ready_.notify_all();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return stats_;
}

WorkerPool& WorkerPool::Default() {
  static WorkerPool* pool = new WorkerPool(Config{});  // Leaked by design.
  return *pool;
}

}  // namespace vino
