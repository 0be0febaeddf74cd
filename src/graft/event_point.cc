#include "src/graft/event_point.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <utility>

#include "src/base/context.h"
#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/graft/invocation.h"
#include "src/graft/namespace.h"

namespace vino {

namespace {

thread_local const EventGraftPoint::HandledEvent* t_handling = nullptr;

// One async event's arguments, shared by its handlers' tasks; the last
// handler to finish runs `done`.
struct AsyncEvent {
  AsyncEvent(std::vector<uint64_t> event_args, size_t handlers,
             std::function<void()> on_done)
      : args(std::move(event_args)), left(handlers), done(std::move(on_done)) {}

  void HandlerFinished() {
    if (left.fetch_sub(1, std::memory_order_acq_rel) == 1 && done) {
      done();
    }
  }

  const std::vector<uint64_t> args;
  std::atomic<size_t> left;
  const std::function<void()> done;
};

}  // namespace

EventGraftPoint::EventGraftPoint(std::string name, Config config,
                                 TxnManager* txn_manager,
                                 const HostCallTable* host, GraftNamespace* ns)
    : name_(std::move(name)),
      config_(config),
      txn_manager_(txn_manager),
      exec_(host, config_.fuel, config_.poll_interval) {
  if (ns != nullptr) {
    ns->RegisterEvent(this);
  }
}

EventGraftPoint::~EventGraftPoint() { Drain(); }

Status EventGraftPoint::AddHandler(std::shared_ptr<Graft> graft, int order) {
  if (graft == nullptr) {
    return Status::kInvalidArgs;
  }
  if (config_.restricted && !graft->owner().privileged) {
    return Status::kRestrictedPoint;
  }
  std::lock_guard<std::mutex> guard(mutex_);
  for (const Handler& h : handlers_) {
    if (h.graft->name() == graft->name()) {
      return Status::kAlreadyExists;
    }
  }
  handlers_.push_back(Handler{std::move(graft), order});
  std::stable_sort(handlers_.begin(), handlers_.end(),
                   [](const Handler& a, const Handler& b) { return a.order < b.order; });
  return Status::kOk;
}

Status EventGraftPoint::RemoveHandler(const std::string& graft_name) {
  std::lock_guard<std::mutex> guard(mutex_);
  for (auto it = handlers_.begin(); it != handlers_.end(); ++it) {
    if (it->graft->name() == graft_name) {
      handlers_.erase(it);
      return Status::kOk;
    }
  }
  return Status::kNotFound;
}

size_t EventGraftPoint::handler_count() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return handlers_.size();
}

std::span<const std::shared_ptr<Graft>> EventGraftPoint::CopyHandlers(
    std::span<std::shared_ptr<Graft>> few,
    std::vector<std::shared_ptr<Graft>>& many) const {
  std::lock_guard<std::mutex> guard(mutex_);
  if (handlers_.size() <= few.size()) {
    for (size_t i = 0; i < handlers_.size(); ++i) {
      few[i] = handlers_[i].graft;
    }
    return few.first(handlers_.size());
  }
  many.reserve(handlers_.size());
  for (const Handler& h : handlers_) {
    many.push_back(h.graft);
  }
  return many;
}

bool EventGraftPoint::RunHandler(const std::shared_ptr<Graft>& graft,
                                 std::span<const uint64_t> args) {
  // The shared safe-path wrapper (graft/invocation.h): txn + account swap +
  // run + commit/abort. Event handlers take no validator and no per-point
  // watchdog; their time bound is the fuel budget.
  const HandledEvent event{this, args, &graft->account()};
  const HandledEvent* const outer = std::exchange(t_handling, &event);
  const InvocationOutcome outcome =
      RunGraftInvocation(*txn_manager_, graft, args, exec_);
  t_handling = outer;
  if (IsOk(outcome.status)) {
    // Drift → action: a handler the detector marked degraded is removed
    // when this kernel opted in (eject_degraded), even though this run
    // committed fine.
    if (graft->degraded() && txn_manager_->eject_degraded() &&
        IsOk(RemoveHandler(graft->name()))) {
      VINO_LOG_INFO << "event point '" << name_ << "': handler '"
                    << graft->name() << "' degraded (abort-cost drift); removed";
      VINO_TRACE(trace::Event::kGraftEjected,
                 static_cast<uint16_t>(Status::kGraftDegraded), 0,
                 graft->trace_id(), graft->aborts());
    }
    return true;
  }

  VINO_LOG_INFO << "event point '" << name_ << "': handler '" << graft->name()
                << "' aborted: " << StatusName(outcome.status) << "; removed";
  // Covert denial of service (§2.5): a handler that cannot complete is
  // removed so the event stream keeps flowing.
  RemoveHandler(graft->name());
  VINO_TRACE(trace::Event::kGraftEjected,
             static_cast<uint16_t>(outcome.status), 0, graft->trace_id(),
             graft->aborts());
  return false;
}

bool EventGraftPoint::RunAndCount(const std::shared_ptr<Graft>& graft,
                                  std::span<const uint64_t> args) {
  const bool ok = RunHandler(graft, args);
  counters_.Add(kHandlerRuns);
  if (!ok) {
    counters_.Add(kHandlerAborts);
  }
  return ok;
}

EventGraftPoint::DispatchOutcome EventGraftPoint::Dispatch(
    std::span<const uint64_t> args) {
  DispatchOutcome outcome;
  counters_.Add(kEvents);
  std::array<std::shared_ptr<Graft>, kInlineHandlers> few;
  std::vector<std::shared_ptr<Graft>> many;
  for (const auto& graft : CopyHandlers(few, many)) {
    ++outcome.handlers_run;
    if (!RunAndCount(graft, args)) {
      ++outcome.handler_aborts;
    }
  }
  return outcome;
}

void EventGraftPoint::DispatchAsync(std::vector<uint64_t> args,
                                    std::function<void()> done) {
  std::vector<std::shared_ptr<Graft>> many;
  const auto handlers = CopyHandlers({}, many);
  counters_.Add(kEvents);
  if (handlers.empty()) {
    if (done) {
      done();
    }
    return;
  }
  const auto event = std::make_shared<AsyncEvent>(
      std::move(args), handlers.size(), std::move(done));
  for (const auto& graft : handlers) {
    // kThreads is admission control on per-handler concurrency: one unit
    // per in-flight pool task. A handler at its limit still receives the
    // event — synchronously, on the dispatching thread. Never drop.
    if (!IsOk(graft->account().Charge(ResourceType::kThreads, 1))) {
      RunAndCount(graft, event->args);
      counters_.Add(kAsyncInlineRuns);
      event->HandlerFinished();
      continue;
    }
    {
      std::lock_guard<std::mutex> guard(drain_mutex_);
      ++in_flight_;
    }
    // Registered in in_flight_ BEFORE submission: a Drain() that starts
    // now already waits for this task. The pool may run the task inline on
    // this very thread if saturated; the thread-id comparison below keeps
    // the pool/inline stats honest either way.
    const std::thread::id submitter = std::this_thread::get_id();
    pool().Submit([this, graft, event, submitter] {
      RunAndCount(graft, event->args);
      graft->account().Uncharge(ResourceType::kThreads, 1);
      counters_.Add(std::this_thread::get_id() == submitter ? kAsyncInlineRuns
                                                            : kAsyncPoolRuns);
      event->HandlerFinished();
      std::lock_guard<std::mutex> guard(drain_mutex_);
      if (--in_flight_ == 0) {
        drained_.notify_all();
      }
    });
  }
}

void EventGraftPoint::Drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

EventGraftPoint::Stats EventGraftPoint::stats() const {
  Stats s;
  s.events = counters_.Read(kEvents);
  s.handler_runs = counters_.Read(kHandlerRuns);
  s.handler_aborts = counters_.Read(kHandlerAborts);
  s.async_pool_runs = counters_.Read(kAsyncPoolRuns);
  s.async_inline_runs = counters_.Read(kAsyncInlineRuns);
  return s;
}

const EventGraftPoint::HandledEvent* EventGraftPoint::Handling() {
  return t_handling;
}

}  // namespace vino
