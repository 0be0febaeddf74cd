#include "src/graft/function_point.h"

#include "src/base/context.h"
#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/graft/invocation.h"
#include "src/graft/namespace.h"

namespace vino {

FunctionGraftPoint::FunctionGraftPoint(std::string name, DefaultFn default_fn,
                                       Config config, TxnManager* txn_manager,
                                       const HostCallTable* host,
                                       GraftNamespace* ns)
    : name_(std::move(name)),
      default_fn_(std::move(default_fn)),
      config_(std::move(config)),
      txn_manager_(txn_manager),
      exec_(host, config_.fuel, config_.poll_interval) {
  exec_.watchdog = config_.watchdog;
  exec_.wall_budget = config_.wall_budget;
  exec_.validator = config_.validator ? &config_.validator : nullptr;
  if (ns != nullptr) {
    ns->RegisterFunction(this);
  }
}

Status FunctionGraftPoint::Replace(std::shared_ptr<Graft> graft) {
  if (graft == nullptr) {
    return Status::kInvalidArgs;
  }
  if (config_.restricted && !graft->owner().privileged) {
    return Status::kRestrictedPoint;
  }
  // Install is cold; the default (seq_cst) CAS is fine and its release side
  // is what Invoke()'s acquire load pairs with.
  std::shared_ptr<Graft> expected;
  if (!graft_.compare_exchange_strong(expected, std::move(graft))) {
    return Status::kBusy;
  }
  bad_result_strikes_.store(0, std::memory_order_relaxed);
  return Status::kOk;
}

void FunctionGraftPoint::Remove() { graft_.store(nullptr); }

void FunctionGraftPoint::ForciblyRemove(const std::shared_ptr<Graft>& graft,
                                        Status reason) {
  // Only remove the graft that misbehaved; a racing replacement survives.
  std::shared_ptr<Graft> expected = graft;
  if (graft_.compare_exchange_strong(expected, nullptr)) {
    counters_.Add(kForcibleRemovals);
    VINO_LOG_WARN << "graft point '" << name_ << "': forcibly removed graft '"
                  << graft->name() << "'";
    VINO_TRACE(trace::Event::kGraftEjected, static_cast<uint16_t>(reason), 0,
               graft->trace_id(), graft->aborts());
  }
}

uint64_t FunctionGraftPoint::Invoke(std::span<const uint64_t> args) {
  counters_.Add(kInvocations);

  // Acquire, not seq_cst: we need the graft's initialization (program,
  // image, account — published by Replace()'s release CAS) to be visible
  // before we run it; no ordering against unrelated atomics is required.
  std::shared_ptr<Graft> graft = graft_.load(std::memory_order_acquire);
  if (graft == nullptr) {
    // The VINO path: indirection plus (cheap) verification, no transaction.
    // Flight recorder: one end record tagged kNull, stamped at the start
    // read, so the timeline shows ungrafted traffic too (trace id 0 = "no
    // graft"); two clock reads.
    const bool traced = trace::Enabled();
    const uint64_t start_ns = traced ? trace::NowNs() : 0;
    const uint64_t result = default_fn_(args);
    if (config_.validator && !config_.validator(result, args)) {
      // A default implementation failing its own validator is a kernel bug;
      // surface loudly in debug logs but return it (nothing safer exists).
      VINO_LOG_ERROR << "graft point '" << name_ << "': default failed validation";
    }
    if (traced) {
      trace::Post(start_ns, trace::Event::kInvokeEnd,
                  static_cast<uint16_t>(trace::PathTag::kNull), 0, 0,
                  trace::NowNs() - start_ns);
    }
    return result;
  }
  return RunGraft(graft, args);
}

uint64_t FunctionGraftPoint::RunGraft(const std::shared_ptr<Graft>& graft,
                                      std::span<const uint64_t> args) {
  counters_.Add(kGraftRuns);

  const InvocationOutcome outcome =
      RunGraftInvocation(*txn_manager_, graft, args, exec_);

  if (!IsOk(outcome.status)) {
    // Aborted (undo replayed, locks released): forcibly remove the graft and
    // fall back to the default implementation (Rule 9: forward progress).
    counters_.Add(kGraftAborts);
    ForciblyRemove(graft, outcome.status);
    VINO_LOG_INFO << "graft point '" << name_ << "': graft '" << graft->name()
                  << "' aborted: " << StatusName(outcome.status);
    return default_fn_(args);
  }

  if (!outcome.result_valid) {
    counters_.Add(kBadResults);
    const uint64_t strikes =
        bad_result_strikes_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config_.max_bad_results != 0 && strikes >= config_.max_bad_results) {
      ForciblyRemove(graft, Status::kBadResult);
    }
    return default_fn_(args);
  }

  // Drift → action: a graft the detector marked degraded (abort costs
  // drifting above its fitted model) is ejected when this kernel opted in
  // (eject_degraded), even though this invocation committed fine. Its
  // valid result still counts — the graft misbehaved economically, not
  // semantically.
  if (graft->degraded() && txn_manager_->eject_degraded()) {
    ForciblyRemove(graft, Status::kGraftDegraded);
  }
  return outcome.value;
}

FunctionGraftPoint::Stats FunctionGraftPoint::stats() const {
  Stats s;
  s.invocations = counters_.Read(kInvocations);
  s.graft_runs = counters_.Read(kGraftRuns);
  s.graft_aborts = counters_.Read(kGraftAborts);
  s.bad_results = counters_.Read(kBadResults);
  s.forcible_removals = counters_.Read(kForcibleRemovals);
  return s;
}

}  // namespace vino
