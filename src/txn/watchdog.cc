#include "src/txn/watchdog.h"

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/context.h"
#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/txn/transaction.h"

namespace vino {

namespace {

// Nested budgets (an invocation inside an invocation) one thread can hold
// before its list first grows.
constexpr size_t kReservedTimers = 8;

// A token is its list's index above kSeqBits and the list's arm count
// below, so Disarm finds the list from the token alone.
constexpr unsigned kSeqBits = 48;
constexpr uint64_t kSeqMask = (uint64_t{1} << kSeqBits) - 1;

}  // namespace

// One arming thread's timers, in no order. `mutex` is taken by the owner's
// arms and disarms, by the ticker once per tick, and by a Disarm from
// another thread holding one of its tokens. Cache-line aligned so two
// threads' lists never share a written line.
struct alignas(64) Watchdog::TimerList {
  struct Timer {
    uint64_t token;
    uint64_t os_id;
    Micros deadline;
    uint64_t target_txn;  // 0 = untargeted.
    Status reason;
  };

  explicit TimerList(uint32_t slot) : index(slot) {
    timers.reserve(kReservedTimers);
  }

  const uint32_t index;         // Slot in lists_: its tokens' high bits.
  std::mutex mutex;
  uint64_t next_seq = 1;        // Guarded by mutex.
  std::vector<Timer> timers;    // Guarded by mutex.
};

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

uint64_t Watchdog::Arm(Micros budget, Status reason) {
  const KernelContext& ctx = KernelContext::Current();
  // Bind the timer to the transaction it polices. An untagged post from a
  // late fire (raced with Disarm) would linger on the thread and abort
  // whatever transaction begins next; the tag lets the consumer discard it.
  const uint64_t target = ctx.txn != nullptr ? ctx.txn->id() : 0;
  return ArmFor(ctx.os_id, budget, reason, target);
}

uint64_t Watchdog::ArmFor(uint64_t os_id, Micros budget, Status reason,
                          uint64_t target_txn) {
  const Micros deadline = SteadyClock::Instance().NowMicros() + budget;
  TimerList& list = CallerList();
  std::lock_guard<std::mutex> guard(list.mutex);
  const uint64_t token =
      (uint64_t{list.index} << kSeqBits) | (list.next_seq++ & kSeqMask);
  list.timers.push_back(
      TimerList::Timer{token, os_id, deadline, target_txn, reason});
  return token;
}

void Watchdog::Disarm(uint64_t token) {
  const uint64_t index = token >> kSeqBits;
  if (index >= lists_.size()) {
    return;  // Not a token this watchdog issued.
  }
  TimerList& list = lists_[static_cast<uint32_t>(index)];
  std::lock_guard<std::mutex> guard(list.mutex);
  std::vector<TimerList::Timer>& timers = list.timers;
  for (size_t i = 0; i < timers.size(); ++i) {
    if (timers[i].token == token) {
      timers[i] = timers.back();
      timers.pop_back();
      return;
    }
  }
  // Absent: it already fired, and the ticker removed it then.
}

uint64_t Watchdog::fires() const {
  return fires_.load(std::memory_order_relaxed);
}

Watchdog::TimerList& Watchdog::CallerList() {
  TimerList* list = lists_.Local(
      [](uint32_t index) { return std::make_unique<TimerList>(index); });
  return list != nullptr ? *list : SharedList();
}

Watchdog::TimerList& Watchdog::SharedList() {
  return lists_[static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kMaxLists)];
}

void Watchdog::TickLoop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!wake_.wait_for(lock, std::chrono::microseconds(tick_),
                         [this] { return stopping_; })) {
    const Micros now = SteadyClock::Instance().NowMicros();
    const uint32_t count = lists_.size();
    for (uint32_t i = 0; i < count; ++i) {
      FireExpired(lists_[i], now);
    }
  }
}

// Removal and post both happen under the list's lock, so a timer fires
// exactly once and a Disarm that returns first stops it for good.
void Watchdog::FireExpired(TimerList& list, Micros now) {
  std::lock_guard<std::mutex> guard(list.mutex);
  std::vector<TimerList::Timer>& timers = list.timers;
  for (size_t i = 0; i < timers.size();) {
    const TimerList::Timer timer = timers[i];
    if (timer.deadline > now) {
      ++i;
      continue;
    }
    timers[i] = timers.back();
    timers.pop_back();
    fires_.fetch_add(1, std::memory_order_relaxed);
    VINO_LOG_INFO << "watchdog: budget expired for thread " << timer.os_id;
    // `b` is how far past its deadline the victim was when the tick
    // noticed (µs): a proxy for watchdog latency vs. tick granularity.
    VINO_TRACE(trace::Event::kWatchdogFire,
               static_cast<uint16_t>(timer.reason), 0, timer.os_id,
               now - timer.deadline);
    KernelContext::PostAbortRequest(timer.os_id,
                                    static_cast<int32_t>(timer.reason),
                                    timer.target_txn);
  }
}

}  // namespace vino
