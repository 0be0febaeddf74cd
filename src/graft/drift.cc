#include "src/graft/drift.h"

#include <cstdlib>

namespace vino {

bool DriftEjectFromEnv() {
  const char* eject = std::getenv("VINO_DRIFT_EJECT");
  return eject != nullptr && eject[0] == '1';
}

DriftVerdict DriftDetector::Record(const AbortCostModel& model) {
  DriftVerdict verdict;
  const uint64_t seen = seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (seen % kDriftWindowSamples != 0) {
    return verdict;
  }

  std::lock_guard<std::mutex> guard(mutex_);
  const AbortCostModel::Fitted fit = model.Fit();
  // Two threads that reach consecutive window ends may take the mutex out
  // of order; the later one then finds the earlier one's window consumed.
  if (fit.samples <= judged_samples_) {
    return verdict;
  }
  const double total = static_cast<double>(fit.samples);
  const double total_locks = fit.mean_locks * total;
  const double total_undo = fit.mean_undo * total;
  const double total_cost_ns = fit.mean_cost_ns * total;
  const double n = static_cast<double>(fit.samples - judged_samples_);
  const double mean_locks = (total_locks - judged_locks_) / n;
  const double mean_undo = (total_undo - judged_undo_) / n;
  const double mean_cost = (total_cost_ns - judged_cost_ns_) / n;
  judged_samples_ = fit.samples;
  judged_locks_ = total_locks;
  judged_undo_ = total_undo;
  judged_cost_ns_ = total_cost_ns;

  // The window's samples are already inside the long-run model; requiring
  // kDriftMinModelSamples beyond the window keeps a cold graft from being
  // judged against a fit made mostly of the window itself.
  if (fit.samples < kDriftMinModelSamples + kDriftWindowSamples ||
      !fit.valid) {
    return verdict;
  }

  double predicted =
      fit.a_ns + fit.b_ns * mean_locks + fit.c_ns * mean_undo;
  if (predicted < 0.0) {
    predicted = 0.0;
  }
  // Latch the baseline at the first strike: the model keeps absorbing the
  // drifted windows, so later comparisons reuse the pre-drift prediction.
  if (strikes_ > 0 && baseline_pred_ns_ > 0.0) {
    predicted = baseline_pred_ns_;
  }

  const bool drifted =
      mean_cost > predicted * kDriftCostRatio &&
      mean_cost > predicted + static_cast<double>(kDriftMinExcessNs) &&
      mean_cost > fit.mean_cost_ns;

  verdict.evaluated = true;
  verdict.drifted = drifted;
  verdict.window_mean_cost_ns = mean_cost;
  verdict.predicted_cost_ns = predicted;
  if (drifted) {
    if (strikes_ == 0) {
      baseline_pred_ns_ = predicted;
    }
    ++strikes_;
    verdict.degraded = strikes_ >= kDriftStrikeWindows;
  } else {
    strikes_ = 0;
    baseline_pred_ns_ = 0.0;
  }
  verdict.strikes = strikes_;
  return verdict;
}

}  // namespace vino
