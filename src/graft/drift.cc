#include "src/graft/drift.h"

namespace vino {

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
  if (fit.samples <= judged_.samples) {
    return verdict;
  }
  const AbortCostModel::Fitted before = judged_;
  judged_ = fit;
  const double total = static_cast<double>(fit.samples);
  const double total_before = static_cast<double>(before.samples);
  const double n = total - total_before;
  const double mean_locks =
      (fit.mean_locks * total - before.mean_locks * total_before) / n;
  const double mean_undo =
      (fit.mean_undo * total - before.mean_undo * total_before) / n;
  const double mean_cost =
      (fit.mean_cost_ns * total - before.mean_cost_ns * total_before) / n;

  // A cold graft is not judged: the fit must rest on kDriftMinModelSamples
  // aborts before the window.
  if (before.samples < kDriftMinModelSamples || !before.valid) {
    return verdict;
  }

  double predicted =
      before.a_ns + before.b_ns * mean_locks + before.c_ns * mean_undo;
  if (predicted < 0.0) {
    predicted = 0.0;
  }
  double lifetime_mean = before.mean_cost_ns;
  // Latch the baseline at the first strike: the model keeps absorbing the
  // drifted windows, so later comparisons reuse the pre-drift values.
  if (strikes_ > 0) {
    predicted = baseline_pred_ns_;
    lifetime_mean = baseline_mean_ns_;
  }

  const bool drifted =
      mean_cost > predicted * kDriftCostRatio &&
      mean_cost > predicted + static_cast<double>(kDriftMinExcessNs) &&
      mean_cost > lifetime_mean;

  verdict.evaluated = true;
  verdict.drifted = drifted;
  verdict.window_mean_cost_ns = mean_cost;
  verdict.predicted_cost_ns = predicted;
  if (drifted) {
    if (strikes_ == 0) {
      baseline_pred_ns_ = predicted;
      baseline_mean_ns_ = lifetime_mean;
    }
    ++strikes_;
    verdict.degraded = strikes_ >= kDriftStrikeWindows;
  } else {
    strikes_ = 0;
  }
  verdict.strikes = strikes_;
  return verdict;
}

}  // namespace vino
