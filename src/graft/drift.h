// Abort-cost drift detection: the measurement loop closed into action.
//
// The paper's disaster story is continuous — a kernel doesn't just survive
// one bad invocation, it notices a graft whose *recovery cost* is drifting
// away from the fitted a + b·L + c·G model and gets rid of it. This layer
// judges each graft's recent abort-cost samples (a tumbling window) against
// the graft's one accumulator, its AbortCostModel:
//
//   1. the model's fit, evaluated at the window's mean (L, G) — "what
//      should an abort with this shape have cost", and
//   2. the model's lifetime mean cost — "what have its aborts actually
//      cost historically".
//
// A window is *drifted* when its mean cost exceeds the model prediction by
// both a multiplicative ratio and an absolute floor, and also exceeds the
// lifetime mean (so a model fitted on microscopically cheap aborts cannot
// flag noise). kDriftStrikeWindows consecutive drifted windows degrade the
// graft: a kGraftDegraded trace event is posted and — only when the
// kernel's TxnManager was built with eject_degraded — the graft points
// eject it on its next invocation through the existing ForciblyRemove path.
//
// The baseline prediction is latched at the first strike: the long-run
// model keeps absorbing the drifted samples, so comparing later windows
// against a *fresh* fit would let a sustained regression talk its way back
// under the threshold before the strikes run out.

#ifndef VINOLITE_SRC_GRAFT_DRIFT_H_
#define VINOLITE_SRC_GRAFT_DRIFT_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "src/base/histogram.h"

namespace vino {

// Detection thresholds. A window is kDriftWindowSamples aborts; it is judged
// only once the fit rests on kDriftMinModelSamples aborts before it; its mean
// must exceed kDriftCostRatio × the prediction and the prediction plus
// kDriftMinExcessNs; kDriftStrikeWindows such windows in a row degrade.
inline constexpr uint32_t kDriftWindowSamples = 32;
inline constexpr uint64_t kDriftMinModelSamples = 64;
inline constexpr double kDriftCostRatio = 2.0;
inline constexpr uint64_t kDriftMinExcessNs = 2'000;
inline constexpr uint32_t kDriftStrikeWindows = 2;

// VINO_DRIFT_EJECT=1 in the environment: the default of
// VinoKernelConfig::eject_degraded for new kernels.
[[nodiscard]] bool DriftEjectFromEnv();

// What one Record() decided (mostly: nothing yet — windows are tumbling).
// Fields other than `evaluated` are meaningful only on an evaluated window.
struct DriftVerdict {
  bool evaluated = false;  // This sample completed a window.
  bool drifted = false;    // The completed window exceeded the thresholds.
  bool degraded = false;   // Strikes reached kDriftStrikeWindows.
  uint32_t strikes = 0;
  double window_mean_cost_ns = 0.0;
  double predicted_cost_ns = 0.0;  // Baseline the window was judged against.
};

// Per-graft detector state. Keeps no sums of its own: the window is read
// from the graft's AbortCostModel as the difference between two fits. Every
// sample bumps one relaxed counter; only every kDriftWindowSamples-th takes
// the mutex and judges.
class DriftDetector {
 public:
  DriftDetector() = default;
  DriftDetector(const DriftDetector&) = delete;
  DriftDetector& operator=(const DriftDetector&) = delete;

  // Feeds one abort sample, already recorded into `model` (the graft's
  // lifetime model).
  DriftVerdict Record(const AbortCostModel& model);

 private:
  std::atomic<uint64_t> seen_{0};  // Samples fed; window ends are multiples.

  std::mutex mutex_;  // Guards the judgment state below.
  // The previous judgment's fit totals: where the current window starts.
  uint64_t judged_samples_ = 0;
  double judged_locks_ = 0.0;
  double judged_undo_ = 0.0;
  double judged_cost_ns_ = 0.0;
  uint32_t strikes_ = 0;
  double baseline_pred_ns_ = 0.0;  // Latched at the first strike.
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_DRIFT_H_
