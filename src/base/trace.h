// The kernel flight recorder.
//
// Flat counters (ShardedCounters, per-graft invocation/abort totals) say
// *how often* the safe path aborted; they cannot say *why* or *what it
// cost*. The flight recorder keeps the last few thousand lifecycle events
// per thread — graft invocations with their path tag, duration and the
// locks their transaction held, abort-cost samples, lock contention and
// time-outs, watchdog fires, resource denials, graft ejections, worker-pool
// saturation — so an abort or ejection can be reconstructed after the fact
// (the paper's Table 2 path decomposition and §4.5 abort-cost model both
// need exactly this data).
//
// Design constraints, in order:
//  1. Near-zero cost when disabled: TRACE sites compile to one relaxed
//     atomic bool load and a predictable branch. The PR-2 null-graft safe
//     path budget (<5% regression) is the gate.
//  2. No allocation on the hot path when enabled: each thread owns a
//     fixed-size ring of POD records, allocated once on the thread's first
//     post (tests/alloc_test.cc warms it, then asserts zero).
//  3. No writer-side synchronization: a ring has exactly one writer (its
//     thread). The reader (DrainCursor) is lock-free against writers: the
//     writer publishes each record with a release store of the ring head;
//     the reader validates after copying that the slot was not recycled
//     (records are dropped, never torn). Record words are relaxed atomics
//     so a drain racing a write is data-race-free (TSan-clean) yet
//     compiles to plain stores on x86.
//
// Wrap-around loses the *oldest* records, by design — a flight recorder
// keeps the most recent history; the drain counts what it lost so a
// consumer knows what it is missing.

#ifndef VINOLITE_SRC_BASE_TRACE_H_
#define VINOLITE_SRC_BASE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/base/clock.h"

namespace vino {
namespace trace {

// Every subsystem's lifecycle events, one flat namespace so a merged view
// reads as a single timeline.
enum class Event : uint16_t {
  kNone = 0,

  // Graft invocation wrapper (src/graft/invocation.h) and the ungrafted
  // path (src/graft/function_point.cc). kInvokeEnd is an invocation's one
  // record. Nothing posts kInvokeBegin or the three kTxn* events (only
  // spool format 1 holds them); they keep their values so that no later
  // event is renumbered.
  kInvokeBegin,
  kInvokeEnd,      // time_ns = invocation *start*, b = duration ns,
                   // tag = packed final PathTag + exec tier (see
                   // PackInvokeTag; kNull for ungrafted), a32 = locks held
                   // when the transaction ended (L), a = graft trace id
                   // (0 when ungrafted). A grafted end record stands for
                   // one transaction: its path says committed or aborted.
  kTxnBegin,
  kTxnCommit,
  kTxnAbort,

  // Locks (src/txn/txn_lock.cc, src/lockmgr/lock_manager.cc).
  // The `a` field of kLockAcquire/kLockContend and kGraftEjected below is
  // how fuzz anomaly triage (src/fuzz/fuzz_harness.h) attributes a leaked
  // resource or a missed ejection from a replayed spool — repacking these
  // fields silently breaks that attribution.
  kLockAcquire,    // a = lock/resource id, a32 = mode or recursion.
  kLockContend,    // a = lock/resource id, b = waiters or wait-start.
  kLockTimeout,    // a = lock/resource id, b = waited µs (holder abort posted).

  // Watchdog (src/txn/watchdog.cc).
  kWatchdogFire,   // a = the expired thread's os id, b = µs past expiry.

  // Resource accounting (src/resource/account.cc).
  kResourceCharge, // tag = ResourceType, a = amount, b = usage after.
  kResourceDenied, // tag = ResourceType, a = amount, b = limit.

  // Policy (graft points, worker pool).
  kGraftEjected,   // tag = Status reason, a = graft trace id.
  kPoolSaturated,  // a = queue depth, a32 = 0 (older spools: 1 if the
                   // submitter blocked for a slot).

  // Per-graft abort-cost attribution (src/graft/invocation.h). Mirrors the
  // (L, G, cost) sample fed to the graft's AbortCostModel, so a spool
  // replay can re-fit a + b·L + c·G without the live process.
  kAbortCost,      // tag = min(G, 65535), a32 = L, a = graft trace id,
                   // b = abort cost ns.

  // Loader (src/graft/loader.cc): the load-time verifier refused a graft.
  // Appended after kAbortCost so existing spool files replay unchanged.
  kGraftRejected,  // tag = Status reason, a32 = failing pc, b = code size.

  // Drift detector (src/graft/drift.h): a graft's recent abort costs
  // drifted sustainably above its fitted model. Appended last for spool
  // compatibility.
  kGraftDegraded,  // tag = strike count, a = graft trace id,
                   // a32 = min(window/predicted ‰, u32 max),
                   // b = window mean abort cost ns.
};

[[nodiscard]] std::string_view EventName(Event e);

// Which of the paper's measured paths an invocation took (Table 2 rows).
enum class PathTag : uint16_t {
  kNull = 0,   // Ungrafted point: indirection + verification only.
  kUnsafe,     // Native graft (host C++ inside the transaction window).
  kSafe,       // Program graft, committed.
  kAbort,      // Any graft, aborted.
};

[[nodiscard]] std::string_view PathTagName(PathTag tag);

// kInvokeEnd tag layout: PathTag in the low byte, execution tier in
// the high byte, biased by one so that 0 still means "no tier information"
// — native grafts, null-path invocations, and every pre-tier spool file
// decode identically to before the tiers existed. Program grafts carry
// ExecTier + 1 (1 = switch interpreter, 2 = direct-threaded).
[[nodiscard]] constexpr uint16_t PackInvokeTag(PathTag path,
                                               uint16_t tier_plus1) {
  return static_cast<uint16_t>(static_cast<uint16_t>(path) |
                               (tier_plus1 << 8));
}
[[nodiscard]] constexpr PathTag InvokePathTag(uint16_t tag) {
  return static_cast<PathTag>(tag & 0xFF);
}
// 0 = no tier information (native / null path / legacy spool); otherwise
// ExecTier value + 1.
[[nodiscard]] constexpr uint16_t InvokeTierPlus1(uint16_t tag) {
  return static_cast<uint16_t>(tag >> 8);
}

// Fixed-size POD record: 32 bytes, four words, no pointers chased at
// replay time. `time_ns` is the host steady clock so per-thread streams
// merge into one timeline.
struct Record {
  uint64_t time_ns = 0;
  uint16_t event = 0;  // Event
  uint16_t tag = 0;    // PathTag / Status / ResourceType, event-dependent.
  uint32_t a32 = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};
static_assert(sizeof(Record) == 32, "trace record is four words");
static_assert(std::is_trivially_copyable_v<Record>,
              "trace record must be POD: it is memcpy'd through atomics");

// A Record plus its provenance, as a DrainCursor delivers it.
struct TaggedRecord {
  Record record;
  uint64_t os_id = 0;  // Writer thread (KernelContext os id).
  uint64_t seq = 0;    // Position in that thread's stream (monotonic).
};

// ---------------------------------------------------------------------------
// Enable flag. Relaxed: a site that narrowly misses a toggle posts (or
// skips) one event — tracing is observability, not synchronization.

namespace internal {
inline std::atomic<bool> g_enabled{false};
}  // namespace internal

[[nodiscard]] inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Turns tracing on/off process-wide. Also on at process start when the
// VINO_TRACE environment variable is set non-empty and not "0" (how
// tools/check.sh runs the whole suite with the recorder live).
void SetEnabled(bool enabled);

// ---------------------------------------------------------------------------
// The per-thread ring.

// 4096 records × 32 B = 128 KiB per traced thread, allocated on the
// thread's first post and owned by the registry until process exit (a
// thread's history must survive the thread: pool workers and watchdog
// tickers exit before anyone reads the recorder).
inline constexpr size_t kRingRecords = 4096;

class Ring {
 public:
  explicit Ring(uint64_t os_id) : os_id_(os_id) {}

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] uint64_t os_id() const { return os_id_; }

  // Total records ever posted; head - min(head, kRingRecords) of them have
  // been overwritten.
  [[nodiscard]] uint64_t head() const {
    return head_.load(std::memory_order_acquire);
  }

  // Owning thread only. Writes the slot's words (relaxed), then publishes
  // with a release store of the head.
  void Post(const Record& record) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    const size_t base = (h & (kRingRecords - 1)) * kWordsPerRecord;
    uint64_t w[kWordsPerRecord];
    std::memcpy(w, &record, sizeof(record));
    for (size_t i = 0; i < kWordsPerRecord; ++i) {
      words_[base + i].store(w[i], std::memory_order_relaxed);
    }
    head_.store(h + 1, std::memory_order_release);
  }

  // Any thread. Appends the valid records in [from_seq, head), oldest
  // first, as TaggedRecords. `lost` counts records in that range that
  // wrapped before we arrived (or were invalidated mid-copy by the writer
  // lapping us); `next_seq` is where the next read should resume. Appends
  // at most kRingRecords - 1 records per call.
  struct RangeResult {
    uint64_t next_seq = 0;
    uint64_t lost = 0;
  };
  RangeResult SnapshotFrom(uint64_t from_seq,
                           std::vector<TaggedRecord>& out) const;

 private:
  static constexpr size_t kWordsPerRecord = sizeof(Record) / sizeof(uint64_t);

  const uint64_t os_id_;
  std::atomic<uint64_t> head_{0};
  // Flat word array: slot i occupies words [i*4, i*4+4). Relaxed atomics so
  // a read racing the writer is DRF; plain stores on mainstream ISAs.
  std::atomic<uint64_t> words_[kRingRecords * kWordsPerRecord] = {};
};

// The calling thread's ring, creating and registering it on first use.
// The one allocation a traced thread ever performs for tracing.
[[nodiscard]] Ring& RingForCurrentThread();

// The recorder's clock: coarse calibrated-TSC nanoseconds (steady-clock
// fallback off x86 — see base/clock.h). For call sites that also measure
// durations fed to a LatencyHistogram; only read when tracing is enabled.
// A traced committed graft invocation reads it three times (start, commit
// start, end) and an ungrafted one twice, which is why it is the cheap
// clock and inline.
[[nodiscard]] inline uint64_t NowNs() { return CoarseNowNs(); }

// Posts one record stamped `time_ns` to the calling thread's ring: for a
// call site that has already read the clock at this boundary. A thread's
// stream is in post order, which is not time order when stamps are
// earlier reads (kInvokeEnd carries its invocation's start).
void Post(uint64_t time_ns, Event event, uint16_t tag, uint32_t a32,
          uint64_t a, uint64_t b);

// Posts one record stamped now. Call sites guard with Enabled() so the
// disabled cost stays one load+branch and no clock read.
inline void Post(Event event, uint16_t tag, uint32_t a32, uint64_t a,
                 uint64_t b) {
  Post(NowNs(), event, tag, a32, a, b);
}

// ---------------------------------------------------------------------------
// Reading: the incremental drain.

// Consumer of drained records.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnRecord(const TaggedRecord& record) = 0;
};

// The recorder's one reader. Remembers, per ring, how far it has read, so a
// periodic consumer (the spool drainer, src/base/trace_spool.h) delivers
// every record exactly once; a fresh cursor reads every ring from its
// oldest surviving record. Records are delivered ring by ring in
// per-thread seq order — no global time merge; TaggedRecord carries
// (os_id, seq) so an offline consumer can sort once at replay time.
//
// Steady-state allocation-free: the scratch buffers are reserved up front
// and reused, and the cursor map only grows when a *new* thread posts its
// first record. Not thread-safe; one cursor has one owner.
class DrainCursor {
 public:
  struct Stats {
    uint64_t records = 0;   // Delivered to the sink by this drain.
    uint64_t lost = 0;      // Wrapped past this cursor during this drain.
    uint64_t lost_total = 0;  // Monotonic loss across the cursor's life.
    uint64_t rings = 0;     // Rings visited.
    // Fullest pending backlog seen this drain, in permille of ring
    // capacity — the signal the spool drainer's adaptive cadence consumes.
    uint32_t max_occupancy_permille = 0;
  };

  DrainCursor();

  DrainCursor(const DrainCursor&) = delete;
  DrainCursor& operator=(const DrainCursor&) = delete;

  // Delivers every record posted since the previous DrainInto and advances
  // the cursor. Safe against concurrent writers (Ring::SnapshotFrom's
  // copy-then-revalidate protocol) and against ResetForTest (a generation
  // bump forgets the stale per-ring positions).
  Stats DrainInto(TraceSink& sink);

 private:
  uint64_t generation_ = 0;
  uint64_t lost_total_ = 0;
  std::unordered_map<const Ring*, uint64_t> next_seq_;
  std::vector<TaggedRecord> scratch_;  // Reused; reserved to kRingRecords.
  std::vector<Ring*> ring_scratch_;    // Pinned registry copy, reused.
};

// Test hook: forgets all rings and their histories. Callers must guarantee
// no thread is concurrently posting (quiescent point); threads that already
// cached their ring pointer get a fresh ring on their next post.
void ResetForTest();

}  // namespace trace

// The hot-path instrumentation macro: one relaxed load + branch when
// disabled; clock read + ring append when enabled.
#define VINO_TRACE(event, tag, a32, a, b)                                   \
  do {                                                                      \
    if (::vino::trace::Enabled()) {                                         \
      ::vino::trace::Post((event), static_cast<uint16_t>(tag),              \
                          static_cast<uint32_t>(a32),                       \
                          static_cast<uint64_t>(a),                         \
                          static_cast<uint64_t>(b));                        \
    }                                                                       \
  } while (0)

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_TRACE_H_
