// Wall-clock transaction watchdog (paper §4.5).
//
// "The most significant variable in aborting a transaction occurs when the
//  graft hoards resources and must be timed out. We currently schedule
//  time-outs on system-clock boundaries, which occur every 10 ms."
//
// The watchdog is that system clock: a background ticker that fires on a
// fixed boundary and posts abort requests to threads whose armed budget has
// expired. It complements the fuel limit (which bounds *instructions*) by
// bounding *time*, catching grafts that block — e.g. in a host call — or
// native grafts that poll preemption points but never finish.
//
// Every budgeted graft invocation arms and disarms, so an arm must cost
// what setting a deadline costs, not a kernel-wide lock: each thread that
// arms gets its own timer list inside the watchdog. Arm, ArmFor and the
// Disarm of their token lock only that list and allocate nothing once it
// is warm; the ticker walks every list once per tick.

#ifndef VINOLITE_SRC_TXN_WATCHDOG_H_
#define VINOLITE_SRC_TXN_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/base/thread_registry.h"

namespace vino {

class Watchdog {
 public:
  // `tick` is the clock boundary; as in the paper, an expiry is noticed
  // between one and two ticks after it occurs.
  explicit Watchdog(Micros tick = 10'000);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Arms a timer for the calling thread's current kernel context: if not
  // disarmed within `budget`, an abort request (with `reason`) is posted to
  // that thread, tagged with the thread's innermost transaction at arm time
  // so a late fire cannot abort a successor transaction. Returns a token
  // for Disarm.
  uint64_t Arm(Micros budget, Status reason = Status::kTxnTimedOut);

  // Arms on behalf of another thread (by context os id). `target_txn` tags
  // the eventual post (0 = whatever transaction is innermost at fire time).
  // The timer is kept in the calling thread's list: the target may never
  // have armed this watchdog.
  uint64_t ArmFor(uint64_t os_id, Micros budget, Status reason,
                  uint64_t target_txn = 0);

  // Cancels a timer, from any thread. Safe to call after expiry (no-op).
  // Once it returns, the timer's abort post has either landed or never will.
  void Disarm(uint64_t token);

  // Timers that expired and fired an abort request.
  [[nodiscard]] uint64_t fires() const;

  // RAII guard: arms on construction, disarms on destruction.
  class Scope {
   public:
    Scope(Watchdog& dog, Micros budget, Status reason = Status::kTxnTimedOut)
        : dog_(dog), token_(dog.Arm(budget, reason)) {}
    ~Scope() { dog_.Disarm(token_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Watchdog& dog_;
    uint64_t token_;
  };

 private:
  struct TimerList;  // One arming thread's timers (watchdog.cc).

  // Lists one watchdog registers. A thread that arms once all are taken
  // shares one: every list access is locked, so that costs contention,
  // never correctness.
  static constexpr uint32_t kMaxLists = 256;

  // The calling thread's list, registered on the thread's first arm.
  TimerList& CallerList();
  // Every list taken: the one the calling thread shares. Out of line, so
  // that CallerList's hit path needs no frame.
  [[gnu::noinline]] TimerList& SharedList();
  void FireExpired(TimerList& list, Micros now);
  void TickLoop();

  const Micros tick_;
  std::atomic<uint64_t> fires_{0};

  ThreadRegistry<TimerList, kMaxLists> lists_;

  std::mutex stop_mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;  // Guarded by stop_mutex_.
  std::thread ticker_;     // Last: TickLoop reads every member above.
};

}  // namespace vino

#endif  // VINOLITE_SRC_TXN_WATCHDOG_H_
