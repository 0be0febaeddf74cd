#include "src/txn/watchdog.h"

#include <chrono>

#include "src/base/log.h"
#include "src/base/status.h"
#include "src/base/trace.h"

namespace vino {

Watchdog::Watchdog(Micros tick)
    : tick_(tick),
      ticker_([this] { TickLoop(); }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> guard(stop_mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  ticker_.join();
}

uint64_t Watchdog::fires() const {
  return fires_.load(std::memory_order_relaxed);
}

void Watchdog::CountFire(KernelContext& ctx) {
  KernelContext::WallBudget& budget = ctx.wall_budget;
  budget.fired = true;
  fires_.fetch_add(1, std::memory_order_relaxed);
  VINO_LOG_INFO << "watchdog: budget expired for thread " << ctx.os_id;
  // `b` is how far the count had run past the expiry when this thread
  // noticed (µs, by the tick count).
  VINO_TRACE(trace::Event::kWatchdogFire,
             static_cast<uint16_t>(Status::kTxnTimedOut), 0, ctx.os_id,
             now_.load() - budget.expiry);
}

void Watchdog::TickLoop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!wake_.wait_for(lock, std::chrono::microseconds(tick_),
                         [this] { return stopping_; })) {
    now_.fetch_add(tick_);
  }
}

}  // namespace vino
