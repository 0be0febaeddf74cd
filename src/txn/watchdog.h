// Wall-clock transaction watchdog (paper §4.5).
//
// "The most significant variable in aborting a transaction occurs when the
//  graft hoards resources and must be timed out. We currently schedule
//  time-outs on system-clock boundaries, which occur every 10 ms."
//
// The watchdog is that system clock: a background ticker that advances a
// tick count and does nothing else. It complements the fuel limit (which
// bounds *instructions*) by bounding *time*, catching grafts that block —
// e.g. in a host call — or native grafts that poll preemption points but
// never finish.
//
// A budget is the calling thread's own: Scope writes its expiry into the
// thread's KernelContext, and the thread compares it with the count where
// it already looks for posted aborts (TxnManager::AbortPending, at every
// preemption point, and Commit). An expired budget dooms the innermost
// transaction with kTxnTimedOut and stays expired until its Scope closes,
// so every transaction under it unwinds. An arm reads no clock and takes
// no lock, and nothing crosses threads but the count.

#ifndef VINOLITE_SRC_TXN_WATCHDOG_H_
#define VINOLITE_SRC_TXN_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/base/clock.h"
#include "src/base/context.h"

namespace vino {

class Watchdog {
 public:
  // `tick` is the clock boundary; as in the paper, an expiry is noticed
  // between one and two ticks after it occurs.
  explicit Watchdog(Micros tick = 10'000);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Budgets that expired, each counted once, by its own thread, when that
  // thread first noticed.
  [[nodiscard]] uint64_t fires() const;

  // A wall-clock budget for the calling thread, from construction to
  // destruction. Nested scopes on one watchdog keep the earliest expiry; a
  // scope on another watchdog displaces the thread's budget until it
  // closes. Closing restores what the scope displaced.
  class Scope {
   public:
    Scope(Watchdog& dog, Micros budget)
        : Scope(dog, budget, KernelContext::Current()) {}
    // `ctx` must be the calling thread's context.
    Scope(Watchdog& dog, Micros budget, KernelContext& ctx)
        : ctx_(ctx), saved_(ctx.wall_budget) {
      // The tick count at arm time + ceil(budget / tick) + 1, multiplied
      // through by the tick (now_ counts in µs): a budget never expires
      // early, and its expiry is noticed within two ticks.
      const uint64_t expiry = dog.now_.load() + dog.tick_ + budget;
      if (saved_.watchdog != &dog || expiry < saved_.expiry) {
        ctx.wall_budget = KernelContext::WallBudget{&dog, expiry, false};
        displaced_ = true;
      }
    }
    ~Scope() {
      if (displaced_) {
        ctx_.wall_budget = saved_;
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    KernelContext& ctx_;
    KernelContext::WallBudget saved_;
    bool displaced_ = false;
  };

 private:
  // Reads the calling thread's budget at its abort checks.
  friend class TxnManager;

  // Whether the budget in ctx.wall_budget has expired. The first check to
  // see it expired counts the fire.
  static bool Expired(KernelContext& ctx) {
    KernelContext::WallBudget& budget = ctx.wall_budget;
    if (budget.watchdog == nullptr ||
        budget.watchdog->now_.load() < budget.expiry) {
      return false;
    }
    if (!budget.fired) {
      budget.watchdog->CountFire(ctx);
    }
    return true;
  }
  [[gnu::cold]] void CountFire(KernelContext& ctx);
  void TickLoop();

  const Micros tick_;
  // The tick count, in µs: ticks since construction × tick_. Only the
  // ticker writes it.
  std::atomic<uint64_t> now_{0};
  std::atomic<uint64_t> fires_{0};

  std::mutex stop_mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  // Guarded by stop_mutex_.
  std::thread ticker_;     // Last: TickLoop reads every member above.
};

}  // namespace vino

#endif  // VINOLITE_SRC_TXN_WATCHDOG_H_
