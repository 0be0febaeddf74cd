#include "src/base/trace.h"

#include <cstdlib>
#include <memory>
#include <mutex>

#include "src/base/context.h"

namespace vino {
namespace trace {
namespace {

// Registry of every ring ever created. Rings outlive their threads (a pool
// worker's history must still be readable after the pool shuts down), so
// the registry owns them; like the worker pool's Default() it is leaked so
// late posts from static destructors stay safe. The mutex guards only the
// vector — posts never take it.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Ring>> rings;
};

Registry& TheRegistry() {
  static Registry* registry = new Registry();  // Leaked by design.
  return *registry;
}

// Bumped by ResetForTest so threads holding a cached ring pointer notice
// their ring was discarded and re-register.
std::atomic<uint64_t> g_generation{1};

// Honour VINO_TRACE=1 before main() so ctest runs can be traced without
// touching every test binary.
[[maybe_unused]] const bool g_env_enabled = [] {
  const char* env = std::getenv("VINO_TRACE");
  if (env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
    internal::g_enabled.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}();

}  // namespace

std::string_view EventName(Event e) {
  switch (e) {
    case Event::kNone:           return "none";
    case Event::kInvokeBegin:    return "invoke-begin";
    case Event::kInvokeEnd:      return "invoke-end";
    case Event::kTxnBegin:       return "txn-begin";
    case Event::kTxnCommit:      return "txn-commit";
    case Event::kTxnAbort:       return "txn-abort";
    case Event::kLockAcquire:    return "lock-acquire";
    case Event::kLockContend:    return "lock-contend";
    case Event::kLockTimeout:    return "lock-timeout";
    case Event::kWatchdogFire:   return "watchdog-fire";
    case Event::kResourceCharge: return "resource-charge";
    case Event::kResourceDenied: return "resource-denied";
    case Event::kGraftEjected:   return "graft-ejected";
    case Event::kPoolSaturated:  return "pool-saturated";
    case Event::kAbortCost:      return "abort-cost";
    case Event::kGraftRejected:  return "graft-rejected";
    case Event::kGraftDegraded:  return "graft-degraded";
  }
  return "?";
}

std::string_view PathTagName(PathTag tag) {
  switch (tag) {
    case PathTag::kNull:   return "null";
    case PathTag::kUnsafe: return "unsafe";
    case PathTag::kSafe:   return "safe";
    case PathTag::kAbort:  return "abort";
  }
  return "?";
}

void SetEnabled(bool enabled) {
  internal::g_enabled.store(enabled, std::memory_order_relaxed);
}

Ring::RangeResult Ring::SnapshotFrom(uint64_t from_seq,
                                     std::vector<TaggedRecord>& out) const {
  const uint64_t end = head_.load(std::memory_order_acquire);
  // Slot `seq` is unreliable once head has reached seq + capacity (the
  // writer may be mid-overwrite and a reader cannot prove otherwise), so a
  // wrapped ring yields at most capacity - 1 records.
  const uint64_t oldest = end >= kRingRecords ? end - kRingRecords + 1 : 0;
  const uint64_t begin = from_seq > oldest ? from_seq : oldest;
  // Overwritten (or unprovable) before we arrived. A cursor ahead of head
  // cannot happen (seq only grows), so begin >= from_seq always.
  uint64_t dropped = begin - from_seq;
  out.reserve(out.size() + static_cast<size_t>(end - begin));
  for (uint64_t seq = begin; seq < end; ++seq) {
    const size_t base = (seq & (kRingRecords - 1)) * kWordsPerRecord;
    uint64_t w[kWordsPerRecord];
    for (size_t i = 0; i < kWordsPerRecord; ++i) {
      w[i] = words_[base + i].load(std::memory_order_relaxed);
    }
    // Validate after the copy: slot `seq` is recycled while the writer is
    // producing record seq + kRingRecords, which it only does once head has
    // reached that value. head < seq + capacity ⇒ no overwrite started.
    if (head_.load(std::memory_order_acquire) >= seq + kRingRecords) {
      ++dropped;  // Writer lapped us mid-copy; drop, never deliver torn.
      continue;
    }
    TaggedRecord tagged;
    std::memcpy(&tagged.record, w, sizeof(tagged.record));
    tagged.os_id = os_id_;
    tagged.seq = seq;
    out.push_back(tagged);
  }
  return {end, dropped};
}

Ring& RingForCurrentThread() {
  thread_local Ring* ring = nullptr;
  thread_local uint64_t ring_generation = 0;
  const uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (ring == nullptr || ring_generation != generation) {
    auto owned = std::make_unique<Ring>(KernelContext::Current().os_id);
    ring = owned.get();
    ring_generation = generation;
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> guard(registry.mutex);
    registry.rings.push_back(std::move(owned));
  }
  return *ring;
}

void Post(uint64_t time_ns, Event event, uint16_t tag, uint32_t a32,
          uint64_t a, uint64_t b) {
  Record record;
  record.time_ns = time_ns;
  record.event = static_cast<uint16_t>(event);
  record.tag = tag;
  record.a32 = a32;
  record.a = a;
  record.b = b;
  RingForCurrentThread().Post(record);
}

DrainCursor::DrainCursor() {
  // Reserve once so steady-state drains never grow a buffer: a single
  // drain appends at most kRingRecords - 1 records per ring, delivered
  // ring by ring through the same scratch vector.
  scratch_.reserve(kRingRecords);
  ring_scratch_.reserve(16);
}

DrainCursor::Stats DrainCursor::DrainInto(TraceSink& sink) {
  Stats stats;

  // ResetForTest discarded the rings our positions refer to (and a new ring
  // may even reuse a freed ring's address): forget them.
  const uint64_t generation = g_generation.load(std::memory_order_acquire);
  if (generation != generation_) {
    next_seq_.clear();
    generation_ = generation;
  }

  // Pin the ring set under the lock, then read each ring lock-free.
  ring_scratch_.clear();
  {
    Registry& registry = TheRegistry();
    std::lock_guard<std::mutex> guard(registry.mutex);
    ring_scratch_.reserve(registry.rings.size());
    for (const auto& ring : registry.rings) {
      ring_scratch_.push_back(ring.get());
    }
  }

  for (Ring* ring : ring_scratch_) {
    const uint64_t from = next_seq_[ring];  // 0 for a ring first seen.
    const uint64_t pending = ring->head() - from;
    const uint64_t occupancy =
        (pending >= kRingRecords ? kRingRecords : pending) * 1000 /
        kRingRecords;
    if (occupancy > stats.max_occupancy_permille) {
      stats.max_occupancy_permille = static_cast<uint32_t>(occupancy);
    }
    scratch_.clear();
    const Ring::RangeResult range = ring->SnapshotFrom(from, scratch_);
    next_seq_[ring] = range.next_seq;
    stats.lost += range.lost;
    stats.records += scratch_.size();
    for (const TaggedRecord& record : scratch_) {
      sink.OnRecord(record);
    }
  }
  stats.rings = ring_scratch_.size();
  lost_total_ += stats.lost;
  stats.lost_total = lost_total_;
  return stats;
}

void ResetForTest() {
  Registry& registry = TheRegistry();
  std::lock_guard<std::mutex> guard(registry.mutex);
  registry.rings.clear();
  g_generation.fetch_add(1, std::memory_order_acq_rel);
}

}  // namespace trace
}  // namespace vino
