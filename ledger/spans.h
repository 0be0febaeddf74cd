// Benchmark-side spans for the traced run, and the reducer that turns them
// into per-layer self times.
//
// Each call the benchmark makes into a layer's public API is wrapped in a
// span: layer, start, end, parent and request (root) id. Spans go into a
// per-thread log whose memory is reserved before timing; adjacent calls
// share one boundary timestamp, so a request costs a handful of clock reads.
// After the run the reducer computes every span's self time (its duration
// minus the part its children cover) and checks, per root, that the self
// times add back up to the root's duration.

#ifndef VINOLITE_LEDGER_SPANS_H_
#define VINOLITE_LEDGER_SPANS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ledger {

enum class Layer : uint8_t {
  // Roots.
  kRequest,   // One serving request; its self time is client.other.
  kOnboard,   // Register points, load and install grafts, first HTTP 200.
  kRetire,    // Unregister points and remove the HTTP handler.
  kBoot,      // VinoKernel construction.
  // Layer calls.
  kLookup,         // GraftNamespace::WithFunction, minus its visitor.
  kInvokeSafe,     // FunctionGraftPoint::Invoke: graft ran and committed.
  kInvokeDefault,  // Invoke on an ungrafted point.
  kInvokeAbort,    // Invoke that ended with the graft ejected.
  kRetry,          // Hostile Replace + Invoke.
  kChurn,          // Benign Remove + Replace.
  kLockGet,        // SimpleLockManager::GetLock.
  kLockWait,       // kBusy until grant or CancelWait.
  kLockRelease,    // SimpleLockManager::ReleaseLock.
  kDeliver,        // NetStack::DeliverConnection.
  kFind,           // NetStack::FindConnection.
  kInstrument,     // MiSFIT Instrument().
  kSign,           // SigningAuthority::Sign().
  kLoad,           // GraftLoader::Load().
  kInstall,        // InstallFunction / InstallEvent.
  kRegister,       // FunctionGraftPoint construction.
  kUnregister,     // GraftNamespace::Unregister.
  kRemoveHandler,  // EventGraftPoint::RemoveHandler.
  kCount,
};

inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

[[nodiscard]] const char* LayerName(Layer layer);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t request = 0;  // Index of the root span this span belongs to.
  Layer layer = Layer::kRequest;
  uint16_t parent = 0;   // Distance back to the parent span; 0 for a root.
};

// A single thread's span log. Open/Close nest; Next closes the innermost
// span and opens its sibling at the same timestamp. The log never grows
// while recording: spans past its capacity are counted in dropped() and the
// traced run fails.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

  void Open(Layer layer, uint64_t t) {
    uint32_t index = kNone;
    if (spans_.size() < spans_.capacity()) {
      index = static_cast<uint32_t>(spans_.size());
      Span span;
      span.start_ns = t;
      span.layer = layer;
      if (depth_ == 0) {
        span.request = roots_++;
      } else {
        // The log fills front to back, so a kept span's parent was kept.
        const uint32_t parent = stack_[static_cast<size_t>(depth_ - 1)];
        span.request = spans_[parent].request;
        span.parent = static_cast<uint16_t>(index - parent);
      }
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
    stack_[static_cast<size_t>(depth_++)] = index;
  }

  void Close(uint64_t t) {
    const uint32_t index = stack_[static_cast<size_t>(--depth_)];
    if (index != kNone) spans_[index].end_ns = t;
  }

  void Next(Layer layer, uint64_t t) {
    Close(t);
    Open(layer, t);
  }

  // Re-labels the innermost open span once its outcome is known (an
  // invoke that turned out to eject its graft).
  void Relabel(Layer layer) {
    const uint32_t index = stack_[static_cast<size_t>(depth_ - 1)];
    if (index != kNone) spans_[index].layer = layer;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] uint64_t dropped() const { return dropped_; }

 private:
  // Deepest nesting the benchmark records is request > lookup > retry >
  // invoke.
  static constexpr int kMaxDepth = 8;
  static constexpr uint32_t kNone = ~0u;

  std::vector<Span> spans_;
  std::array<uint32_t, kMaxDepth> stack_{};
  int depth_ = 0;
  uint32_t roots_ = 0;
  uint64_t dropped_ = 0;
};

// Per-root sum check tolerance: self times may miss the root's duration by
// at most this share of it. Spans share boundary timestamps and nest, so a
// correct log adds up exactly; a miss means a child outlived its parent or
// overlapped a sibling.
inline constexpr double kSumTolerance = 0.001;

struct Reduction {
  // Per layer: self times and whole durations, in ns (saturating at
  // UINT32_MAX, ~4.3 s, far beyond any single call).
  std::array<std::vector<uint32_t>, kLayerCount> self_ns;
  std::array<std::vector<uint32_t>, kLayerCount> total_ns;
  uint64_t roots = 0;
  uint64_t sum_misses = 0;      // Roots outside kSumTolerance.
  uint64_t max_sum_error_ns = 0;
};

// Adds one log's spans to `out`. Spans must be in the order SpanLog
// records them (every parent before its children).
void Reduce(const std::vector<Span>& spans, Reduction& out);

}  // namespace ledger

#endif  // VINOLITE_LEDGER_SPANS_H_
