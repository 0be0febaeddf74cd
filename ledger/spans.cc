#include "spans.h"

#include <algorithm>
#include <cstdlib>

namespace ledger {
namespace {

uint32_t Saturate(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

// The part of `child` that lies inside `parent`.
uint64_t Clipped(const Span& child, const Span& parent) {
  const uint64_t start = std::max(child.start_ns, parent.start_ns);
  const uint64_t end = std::min(child.end_ns, parent.end_ns);
  return end > start ? end - start : 0;
}

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "request",           "onboard",          "retire",
      "kernel.boot",       "graft.lookup",     "graft.invoke_safe",
      "graft.invoke_default", "graft.invoke_abort", "graft.retry",
      "graft.churn",       "lockmgr.get",      "lockmgr.wait",
      "lockmgr.release",   "net.deliver",      "net.find",
      "sfi.instrument",    "sfi.sign",         "graft.load",
      "graft.install",     "graft.register",   "graft.unregister",
      "net.remove_handler",
  };
  return kNames[static_cast<size_t>(layer)];
}

void Reduce(const std::vector<Span>& spans, Reduction& out) {
  // covered[i]: how much of span i its direct children occupy. Every child
  // follows its parent, so one forward pass folds children into parents.
  std::vector<uint64_t> covered(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) {
      const size_t p = i - spans[i].parent;
      covered[p] += Clipped(spans[i], spans[p]);
    }
  }

  // A root's tree is contiguous: it runs until the next root.
  size_t root = 0;
  uint64_t self_sum = 0;
  auto finish_root = [&](size_t end_index) {
    if (end_index == 0) return;
    const Span& r = spans[root];
    const uint64_t duration = r.end_ns - r.start_ns;
    const uint64_t error = self_sum > duration ? self_sum - duration
                                               : duration - self_sum;
    ++out.roots;
    out.max_sum_error_ns = std::max(out.max_sum_error_ns, error);
    if (static_cast<double>(error) >
        kSumTolerance * static_cast<double>(duration)) {
      ++out.sum_misses;
    }
  };
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent == 0) {
      finish_root(i);
      root = i;
      self_sum = 0;
    }
    const uint64_t duration = s.end_ns - s.start_ns;
    const uint64_t self = duration > covered[i] ? duration - covered[i] : 0;
    self_sum += self;
    const size_t layer = static_cast<size_t>(s.layer);
    out.self_ns[layer].push_back(Saturate(self));
    out.total_ns[layer].push_back(Saturate(duration));
  }
  finish_root(spans.size());
}

}  // namespace ledger
