#include "src/graft/graft.h"

#include <algorithm>
#include <atomic>

#include "src/base/trace.h"

namespace vino {
namespace {

constexpr uint32_t kNativeArenaLog2 = 16;  // 64 KiB.

}  // namespace

uint64_t Graft::NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Graft::Graft(std::string name, VerifiedProgram program, GraftIdentity owner,
             uint64_t kernel_region_size)
    : name_(std::move(name)),
      program_(std::move(program)),
      owner_(owner),
      image_(kernel_region_size, program_->program().sandbox_log2),
      account_(name_ + ".account") {}

Graft::Graft(std::string name, NativeFn fn, GraftIdentity owner)
    : name_(std::move(name)),
      native_fn_(std::move(fn)),
      owner_(owner),
      image_(4096, kNativeArenaLog2),
      account_(name_ + ".account") {}

void Graft::RecordAbortCost(uint64_t locks, uint64_t undo_len,
                            uint64_t cost_ns) {
  abort_cost_.Record(locks, undo_len, cost_ns);
  if (degraded()) {
    return;  // Already degraded: the model keeps accumulating above.
  }
  const DriftVerdict verdict = drift_.Record(abort_cost_);
  // Concurrent window ends can each find the strikes run out; only the
  // thread that flips the flag posts.
  if (verdict.degraded &&
      !degraded_.exchange(true, std::memory_order_relaxed)) {
    const double ratio_permille =
        verdict.predicted_cost_ns > 0.0
            ? verdict.window_mean_cost_ns / verdict.predicted_cost_ns * 1000.0
            : 0.0;
    VINO_TRACE(trace::Event::kGraftDegraded,
               static_cast<uint16_t>(std::min<uint32_t>(verdict.strikes,
                                                        UINT16_MAX)),
               static_cast<uint32_t>(std::min(ratio_permille, 4.0e9)),
               trace_id_,
               static_cast<uint64_t>(verdict.window_mean_cost_ns));
  }
}

}  // namespace vino
