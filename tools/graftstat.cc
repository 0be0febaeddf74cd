// graftstat: the abort-cost diagnosis tool. It fits the paper's §4.5 model,
// cost = a + b·L + c·G, from the flight recorder. Every mode folds trace
// records into one reducer (ReplayReport) and prints it with one JSON
// writer and one text writer, so the live, replay, follow and fleet views
// agree by construction. Four modes:
//
//   graftstat [--json] [--invocations N] [--spool-out FILE]
//     Self-test: the §4.5 experiment in-process. Abort-heavy grafts hold L
//     locks and push G undo records, which gives the fit its variance. The
//     run drains its own rings into the reducer every 128 invocations (a
//     batch fits a ring several times over, so nothing wraps). Before it
//     prints, it checks the reduced report against the kernel's own
//     counters: per-graft invocations, aborts, degraded flag, tier runs and
//     abort-cost fit; the invocation and per-tier latency histograms; the
//     transaction manager's begins, commits and aborts; and zero drain
//     loss. Any mismatch exits 1 and names the first one. --spool-out also
//     spools the run to FILE on the same cadence. Without it, VINO_SPOOL
//     (a directory) derives a per-process spool exactly as a kernel would.
//     VINO_SPOOL_SEGMENT_BYTES and VINO_SPOOL_SEGMENTS make either spool a
//     size-capped segment ring.
//
//   graftstat --spool PATH [--json]
//     Replays a recorded spool to its current end. PATH is a plain spool,
//     one segment of a ring, or the ring's base path.
//
//   graftstat --follow PATH [--json] [--interval-ms N]
//     The same stream, tailed as a kernel writes it — across rotations, and
//     across a file replaced underneath — until its close trailer arrives.
//     Waits for PATH to appear.
//
//   graftstat --fleet DIR [--json] [--once] [--interval-ms N]
//     Tails every kernel spooling under DIR, each `vspool.<pid>.<k>
//     [.s<n>].bin` family one kernel's stream, until all have closed; new
//     kernels are discovered as they start (inotify on Linux). --once reads
//     what exists now. Each kernel gets its own report; the fleet union
//     merges them, per graft by trace id (meaningful for symmetric fleets
//     that load the same grafts in the same order).
//
// Exit status: 0 when every stream read is OK or ends in a truncated tail
// (a live or torn spool); 1 when a stream is corrupt or cannot be opened,
// when --fleet finds no kernel, or when the self-test's check fails; 2 for
// bad usage.
//
// JSON schema. A report has these members:
//   txn {begins, commits, aborts}
//   trace {records, events {<event>: count}}
//   latency {invoke, tiers {native, tier0, tier1}}, each {count, p50_ns,
//     p95_ns, p99_ns, mean_ns}
//   runs {native, tier0, tier1}
//   abort_cost_global: the fit over every graft's abort samples
//   grafts [{trace_id, [name,] kernels, invocations, aborts, degraded,
//     runs, abort_cost}]
// where a fit is {valid, a_ns, b_ns, c_ns, samples, mean_locks, mean_undo,
// mean_cost_ns}. Each mode prints one object: "mode", then
//   self-test       invocations, [spool_out {path, records, batches,
//                   lost_total, segments, segments_reclaimed}],
//                   txn_manager {slab_misses, slab_overflows, commit,
//                   abort}, report
//   spool, follow   spool {path, status, batches, corrupt_batches, records,
//                   lost_total, truncated, closed, rotated, segments,
//                   first_batch_seq, seq_gaps}, report
//   fleet           dir, kernels [{kernel, spool, report}],
//                   fleet {kernels, report of the union}

#include <dirent.h>
#include <poll.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/inotify.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/trace.h"
#include "src/base/trace_spool.h"
#include "src/graft/graft.h"
#include "src/graft/invocation.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace {

using vino::AbortCostModel;
using vino::Graft;
using vino::GraftIdentity;
using vino::LatencyHistogram;
using vino::MemoryImage;
using vino::Status;
using vino::TxnLock;
using vino::TxnManager;
using vino::kExecTierCount;

// ---------------------------------------------------------------------------
// The one reducer: every mode folds trace records into a ReplayReport.

// Latency attribution slot names: index 0 is native (or a pre-tier spool),
// 1..kExecTierCount are the sandbox execution tiers.
std::string_view TierLabel(size_t tier_plus1) {
  return tier_plus1 == 0 ? std::string_view("native")
                         : vino::ExecTierName(
                               static_cast<vino::ExecTier>(tier_plus1 - 1));
}

class ReplayReport : public vino::trace::TraceSink {
 public:
  struct GraftAgg {
    std::string name;      // Known only to the self-test, which loaded it.
    uint64_t kernels = 1;  // Kernel streams folded into this row.
    uint64_t invocations = 0;
    uint64_t aborts = 0;
    // Runs by execution tier, indexed like the kInvokeBegin tag's high
    // byte: tier + 1, with 0 for a native graft (or a spool that predates
    // tier tagging).
    uint64_t runs[kExecTierCount + 1] = {};
    bool degraded = false;  // A kGraftDegraded event named this graft.
    AbortCostModel model;
  };

  void OnRecord(const vino::trace::TaggedRecord& tagged) override {
    using vino::trace::Event;
    const vino::trace::Record& r = tagged.record;
    const Event event = static_cast<Event>(r.event);
    ++records;
    ++event_counts[vino::trace::EventName(event)];
    switch (event) {
      case Event::kInvokeBegin: {
        GraftAgg& agg = grafts[r.a];
        ++agg.invocations;
        ++agg.runs[Slot(r.tag)];
        break;
      }
      case Event::kInvokeEnd:
        invoke_latency.Record(r.b);
        tier_latency[Slot(r.tag)].Record(r.b);
        // Only the low byte is the path; the high byte carries the tier.
        if (vino::trace::InvokePathTag(r.tag) ==
            vino::trace::PathTag::kAbort) {
          ++grafts[r.a].aborts;
        }
        break;
      case Event::kAbortCost:
        // The mirrored per-graft sample: a32 = L, tag = G, b = cost ns.
        grafts[r.a].model.Record(r.a32, r.tag, r.b);
        break;
      case Event::kGraftDegraded:
        grafts[r.a].degraded = true;
        break;
      case Event::kTxnBegin:
        ++txn_begins;
        break;
      case Event::kTxnCommit:
        ++txn_commits;
        break;
      case Event::kTxnAbort:
        ++txn_aborts;
        break;
      default:
        break;
    }
  }

  // Folds another kernel's report into this one: the fleet union.
  void Merge(const ReplayReport& other) {
    for (const auto& [trace_id, theirs] : other.grafts) {
      const auto [it, fresh] = grafts.try_emplace(trace_id);
      GraftAgg& agg = it->second;
      agg.kernels = fresh ? theirs.kernels : agg.kernels + theirs.kernels;
      agg.invocations += theirs.invocations;
      agg.aborts += theirs.aborts;
      for (size_t t = 0; t <= kExecTierCount; ++t) {
        agg.runs[t] += theirs.runs[t];
      }
      agg.degraded = agg.degraded || theirs.degraded;
      agg.model.Merge(theirs.model);
    }
    for (const auto& [name, count] : other.event_counts) {
      event_counts[name] += count;
    }
    records += other.records;
    txn_begins += other.txn_begins;
    txn_commits += other.txn_commits;
    txn_aborts += other.txn_aborts;
    invoke_latency.Merge(other.invoke_latency);
    for (size_t t = 0; t <= kExecTierCount; ++t) {
      tier_latency[t].Merge(other.tier_latency[t]);
    }
  }

  // "abort_cost_global" in every mode: one fit over every graft's samples.
  [[nodiscard]] AbortCostModel::Fitted GlobalFit() const {
    AbortCostModel all;
    for (const auto& [trace_id, agg] : grafts) {
      all.Merge(agg.model);
    }
    return all.Fit();
  }

  std::map<uint64_t, GraftAgg> grafts;  // Keyed by graft trace id.
  std::map<std::string_view, uint64_t> event_counts;
  uint64_t records = 0;
  uint64_t txn_begins = 0;
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
  LatencyHistogram invoke_latency;
  // Split by execution tier, indexed like GraftAgg::runs; the counts sum to
  // invoke_latency's.
  LatencyHistogram tier_latency[kExecTierCount + 1];

 private:
  static size_t Slot(uint16_t tag) {
    const uint16_t tier_plus1 = vino::trace::InvokeTierPlus1(tag);
    return tier_plus1 <= kExecTierCount ? tier_plus1 : 0;
  }
};

// ---------------------------------------------------------------------------
// The one JSON writer and the one text writer, with their shared pieces.

struct Quantiles {
  uint64_t count;
  uint64_t p50, p95, p99;
  double mean;
};

Quantiles Read(const LatencyHistogram& h) {
  return {h.Count(), h.QuantileNs(0.50), h.QuantileNs(0.95), h.QuantileNs(0.99),
          h.MeanNs()};
}

// Every string goes out quoted and escaped, so a path holding `"` or `\`
// still makes valid JSON.
void PrintJsonString(std::string_view s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<unsigned>(c));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void PrintFitJson(const AbortCostModel::Fitted& fit) {
  std::printf(
      "{\"valid\": %s, \"a_ns\": %.1f, \"b_ns\": %.1f, \"c_ns\": %.1f, "
      "\"samples\": %" PRIu64 ", \"mean_locks\": %.2f, \"mean_undo\": %.2f, "
      "\"mean_cost_ns\": %.1f}",
      fit.valid ? "true" : "false", fit.a_ns, fit.b_ns, fit.c_ns, fit.samples,
      fit.mean_locks, fit.mean_undo, fit.mean_cost_ns);
}

void PrintQuantilesJson(const Quantiles& q) {
  std::printf("{\"count\": %" PRIu64 ", \"p50_ns\": %" PRIu64
              ", \"p95_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
              ", \"mean_ns\": %.1f}",
              q.count, q.p50, q.p95, q.p99, q.mean);
}

void PrintRunsJson(const uint64_t (&runs)[kExecTierCount + 1]) {
  for (size_t t = 0; t <= kExecTierCount; ++t) {
    std::printf("%s", t == 0 ? "{" : ", ");
    PrintJsonString(TierLabel(t));
    std::printf(": %" PRIu64, runs[t]);
  }
  std::printf("}");
}

void PrintFitText(const char* label, const AbortCostModel::Fitted& fit) {
  if (!fit.valid) {
    std::printf("  %-14s (no abort samples)\n", label);
    return;
  }
  std::printf(
      "  %-14s cost ≈ %.1f + %.1f·L + %.1f·G µs   "
      "(n=%" PRIu64 ", mean L=%.1f G=%.1f cost=%.1f µs)\n",
      label, fit.a_ns / 1e3, fit.b_ns / 1e3, fit.c_ns / 1e3, fit.samples,
      fit.mean_locks, fit.mean_undo, fit.mean_cost_ns / 1e3);
}

void PrintQuantilesText(std::string_view label, const Quantiles& q) {
  std::printf("  %-8.*s n=%-8" PRIu64 " p50=%-10" PRIu64 " p95=%-10" PRIu64
              " p99=%-10" PRIu64 " mean=%.0f\n",
              static_cast<int>(label.size()), label.data(), q.count, q.p50,
              q.p95, q.p99, q.mean);
}

// The report's members, one per line at `indent`, without the enclosing
// braces: every mode wraps them in its own object.
void PrintReportJson(const ReplayReport& report, const char* indent) {
  std::printf("%s\"txn\": {\"begins\": %" PRIu64 ", \"commits\": %" PRIu64
              ", \"aborts\": %" PRIu64 "},\n",
              indent, report.txn_begins, report.txn_commits, report.txn_aborts);
  std::printf("%s\"trace\": {\"records\": %" PRIu64 ", \"events\": {", indent,
              report.records);
  bool first = true;
  for (const auto& [name, count] : report.event_counts) {
    std::printf("%s", first ? "" : ", ");
    PrintJsonString(name);
    std::printf(": %" PRIu64, count);
    first = false;
  }
  std::printf("}},\n%s\"latency\": {\"invoke\": ", indent);
  PrintQuantilesJson(Read(report.invoke_latency));
  std::printf(", \"tiers\": {");
  for (size_t t = 0; t <= kExecTierCount; ++t) {
    std::printf("%s", t == 0 ? "" : ", ");
    PrintJsonString(TierLabel(t));
    std::printf(": ");
    PrintQuantilesJson(Read(report.tier_latency[t]));
  }
  uint64_t runs[kExecTierCount + 1] = {};
  for (const auto& [trace_id, agg] : report.grafts) {
    for (size_t t = 0; t <= kExecTierCount; ++t) {
      runs[t] += agg.runs[t];
    }
  }
  std::printf("}},\n%s\"runs\": ", indent);
  PrintRunsJson(runs);
  std::printf(",\n%s\"abort_cost_global\": ", indent);
  PrintFitJson(report.GlobalFit());
  std::printf(",\n%s\"grafts\": [", indent);
  first = true;
  for (const auto& [trace_id, agg] : report.grafts) {
    std::printf("%s\n%s  {\"trace_id\": %" PRIu64, first ? "" : ",", indent,
                trace_id);
    if (!agg.name.empty()) {
      std::printf(", \"name\": ");
      PrintJsonString(agg.name);
    }
    std::printf(", \"kernels\": %" PRIu64 ", \"invocations\": %" PRIu64
                ", \"aborts\": %" PRIu64 ", \"degraded\": %s, \"runs\": ",
                agg.kernels, agg.invocations, agg.aborts,
                agg.degraded ? "true" : "false");
    PrintRunsJson(agg.runs);
    std::printf(", \"abort_cost\": ");
    PrintFitJson(agg.model.Fit());
    std::printf("}");
    first = false;
  }
  if (!first) {
    std::printf("\n%s", indent);
  }
  std::printf("]");
}

void PrintReportText(const ReplayReport& report) {
  std::printf("transactions: %" PRIu64 " begun, %" PRIu64 " committed, %"
              PRIu64 " aborted\n\n",
              report.txn_begins, report.txn_commits, report.txn_aborts);
  std::printf("trace: %" PRIu64 " records\n", report.records);
  for (const auto& [name, count] : report.event_counts) {
    std::printf("  %-16.*s %" PRIu64 "\n", static_cast<int>(name.size()),
                name.data(), count);
  }
  std::printf("\nlatency (ns, bucket upper bounds):\n");
  PrintQuantilesText("invoke", Read(report.invoke_latency));
  for (size_t t = 0; t <= kExecTierCount; ++t) {
    const Quantiles q = Read(report.tier_latency[t]);
    if (q.count > 0) {  // Skip tiers nothing ran on.
      PrintQuantilesText(TierLabel(t), q);
    }
  }
  std::printf("\nabort-cost model (paper §4.5: cost = a + b·L + c·G):\n");
  PrintFitText("all-grafts", report.GlobalFit());
  std::printf("\nper-graft:\n");
  std::printf("  %-24s %12s %8s %8s %8s %8s\n", "graft", "invocations",
              "aborts", "native", "tier0", "tier1");
  for (const auto& [trace_id, agg] : report.grafts) {
    std::string label = agg.name.empty()
                            ? "graft#" + std::to_string(trace_id)
                            : agg.name;
    if (agg.kernels > 1) {
      label += " ×" + std::to_string(agg.kernels);
    }
    if (agg.degraded) {
      label += " [DEGRADED]";
    }
    std::printf("  %-24s %12" PRIu64 " %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %8" PRIu64 "\n",
                label.c_str(), agg.invocations, agg.aborts, agg.runs[0],
                agg.runs[1], agg.runs[2]);
    PrintFitText("", agg.model.Fit());
  }
}

// ---------------------------------------------------------------------------
// Spool modes: --spool, --follow and --fleet drive one loop over streams.

// One spool stream being reduced: a file, a segment chain, or one kernel of
// a fleet.
struct Stream {
  explicit Stream(std::string path_in) : path(std::move(path_in)) {}

  [[nodiscard]] Status status() const {
    return vino::spool::StreamStatus(follower.stats());
  }

  std::string path;  // As opened: a file, a segment, or a segment base.
  vino::spool::ChainedFollower follower;
  ReplayReport report;
  bool dead = false;  // An untrusted header stopped the scan for good.
};

using Streams = std::map<std::string, std::unique_ptr<Stream>>;

// Opens the stream if it is not open yet (a kernel mid-startup has no file,
// or half a header, and is retried next round), then folds every record now
// readable into its report. Returns true when records arrived.
bool PollStream(Stream& stream,
                std::vector<vino::trace::TaggedRecord>& batch) {
  batch.clear();
  Status status = stream.follower.stats().segments == 0
                      ? stream.follower.Open(stream.path)
                      : Status::kOk;
  if (IsOk(status)) {
    status = stream.follower.Poll(batch);
  }
  stream.dead = status == Status::kSpoolCorrupt;
  for (const auto& r : batch) {
    stream.report.OnRecord(r);
  }
  return !batch.empty();
}

// Scans `dir` for kernel spools; returns kernel key -> chain open path.
// Segment families collapse onto their base so the follower picks up the
// oldest live segment itself.
std::map<std::string, std::string> ScanFleetDir(const std::string& dir) {
  std::map<std::string, std::string> found;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return found;
  }
  constexpr std::string_view kPrefix = "vspool.";
  constexpr std::string_view kSuffix = ".bin";
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= kPrefix.size() + kSuffix.size() ||
        name.compare(0, kPrefix.size(), kPrefix) != 0 ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
            0) {
      continue;
    }
    const std::string full = dir + "/" + name;
    std::string base;
    uint64_t index = 0;
    if (vino::spool::ParseSegmentPath(full, &base, &index)) {
      const std::string base_name = base.substr(base.rfind('/') + 1);
      if (base_name.size() > kPrefix.size() &&
          base_name.compare(0, kPrefix.size(), kPrefix) == 0) {
        found.emplace(base_name.substr(kPrefix.size()), base);
      }
    } else {
      found.emplace(
          name.substr(kPrefix.size(),
                      name.size() - kPrefix.size() - kSuffix.size()),
          full);
    }
  }
  ::closedir(d);
  return found;
}

// Wakes the drain loop when the fleet directory changes: inotify on Linux
// (new kernels, rotated segments, and appends all wake immediately), a
// plain interval sleep elsewhere and for a single stream. Either way the
// loop rescans on wake, so the inotify path is latency, not correctness.
class Waiter {
 public:
  explicit Waiter(const std::string& dir) {
#ifdef __linux__
    if (dir.empty()) {
      return;
    }
    fd_ = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    if (fd_ >= 0 &&
        ::inotify_add_watch(fd_, dir.c_str(),
                            IN_CREATE | IN_MODIFY | IN_MOVED_TO | IN_DELETE) <
            0) {
      ::close(fd_);
      fd_ = -1;
    }
#else
    (void)dir;
#endif
  }
  ~Waiter() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  void Wait(uint64_t interval_ms) {
#ifdef __linux__
    if (fd_ >= 0) {
      struct pollfd pfd = {fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(interval_ms)) > 0) {
        char buf[4096];
        while (::read(fd_, buf, sizeof(buf)) > 0) {
        }
      }
      return;
    }
#endif
    ::usleep(static_cast<useconds_t>(interval_ms * 1000));
  }

 private:
  int fd_ = -1;
};

// The one drain loop. Reduces every stream until each has closed or died,
// or, with `once`, until a round brings nothing new. With a fleet `dir`,
// each round first adds the kernels that started since the last.
void DrainStreams(Streams& streams, const std::string& dir, bool once,
                  uint64_t interval_ms, bool quiet) {
  Waiter waiter(dir);
  std::vector<vino::trace::TaggedRecord> batch;
  while (true) {
    if (!dir.empty()) {
      for (const auto& [key, path] : ScanFleetDir(dir)) {
        if (streams.find(key) == streams.end()) {
          streams.emplace(key, std::make_unique<Stream>(path));
        }
      }
    }
    bool progress = false;
    bool all_done = !streams.empty();
    uint64_t records = 0;
    for (auto& [key, stream] : streams) {
      progress = PollStream(*stream, batch) || progress;
      all_done = all_done && (stream->follower.closed() || stream->dead);
      records += stream->report.records;
    }
    if (once ? !progress : all_done) {
      return;
    }
    if (!once) {
      if (progress && !quiet) {
        std::fprintf(stderr, "graftstat: %zu stream%s, %" PRIu64 " records\n",
                     streams.size(), streams.size() == 1 ? "" : "s", records);
      }
      waiter.Wait(interval_ms);
    }
  }
}

void PrintSpoolJson(const Stream& stream) {
  const vino::spool::ReadStats& s = stream.follower.stats();
  std::printf("{\"path\": ");
  PrintJsonString(stream.path);
  std::printf(", \"status\": ");
  PrintJsonString(StatusName(stream.status()));
  std::printf(", \"batches\": %" PRIu64 ", \"corrupt_batches\": %" PRIu64
              ", \"records\": %" PRIu64 ", \"lost_total\": %" PRIu64
              ", \"truncated\": %s, \"closed\": %s, \"rotated\": %s, "
              "\"segments\": %" PRIu64 ", \"first_batch_seq\": %" PRIu64
              ", \"seq_gaps\": %" PRIu64 "}",
              s.batches, s.corrupt_batches, s.records, s.lost_total,
              s.truncated ? "true" : "false", s.closed ? "true" : "false",
              s.rotated ? "true" : "false", s.segments, s.first_batch_seq,
              s.seq_gaps);
}

void PrintSpoolText(const Stream& stream) {
  const vino::spool::ReadStats& s = stream.follower.stats();
  const std::string_view status = StatusName(stream.status());
  std::printf("spool %s: %" PRIu64 " batches (%" PRIu64 " corrupt skipped), %"
              PRIu64 " records, %" PRIu64 " lost to ring wrap before the "
              "drainer arrived%s%s [%.*s]\n",
              stream.path.c_str(), s.batches, s.corrupt_batches, s.records,
              s.lost_total, s.truncated ? ", truncated tail" : "",
              s.closed ? ", closed cleanly" : "",
              static_cast<int>(status.size()), status.data());
  std::printf("  %" PRIu64 " segment%s chained (seq %" PRIu64 "..%" PRIu64
              ", %" PRIu64 " gap%s)%s\n\n",
              s.segments, s.segments == 1 ? "" : "s", s.first_batch_seq,
              s.next_batch_seq > 0 ? s.next_batch_seq - 1 : 0, s.seq_gaps,
              s.seq_gaps == 1 ? "" : "s",
              s.rotated ? ", awaiting successor segment" : "");
}

// Exit policy, the same for every stream in every spool mode: a truncated
// tail is normal for a live or torn spool (partial report, exit 0);
// corruption, or a stream that never opened, is an error.
int ExitCode(const Streams& streams) {
  if (streams.empty()) {
    return 1;
  }
  for (const auto& [key, stream] : streams) {
    const Status status = stream->status();
    if (!IsOk(status) && status != Status::kSpoolTruncated) {
      if (status == Status::kNotFound) {
        std::fprintf(stderr, "graftstat: cannot open spool '%s'\n",
                     stream->path.c_str());
      }
      return 1;
    }
  }
  return 0;
}

// --spool and --follow: one stream, read to its end or followed to its
// close trailer.
int RunSpool(const char* mode, const std::string& path, bool follow,
             bool json, uint64_t interval_ms) {
  Streams streams;
  Stream& stream =
      *streams.emplace(path, std::make_unique<Stream>(path)).first->second;
  DrainStreams(streams, "", !follow, interval_ms, json);
  if (json) {
    std::printf("{\n  \"mode\": ");
    PrintJsonString(mode);
    std::printf(",\n  \"spool\": ");
    PrintSpoolJson(stream);
    std::printf(",\n");
    PrintReportJson(stream.report, "  ");
    std::printf("\n}\n");
  } else {
    std::printf("graftstat --%s\n\n", mode);
    PrintSpoolText(stream);
    PrintReportText(stream.report);
  }
  return ExitCode(streams);
}

int RunFleet(const std::string& dir, bool json, uint64_t interval_ms,
             bool once) {
  Streams kernels;
  DrainStreams(kernels, dir, once, interval_ms, json);
  ReplayReport fleet;
  for (const auto& [key, kernel] : kernels) {
    fleet.Merge(kernel->report);
  }
  if (json) {
    std::printf("{\n  \"mode\": \"fleet\",\n  \"dir\": ");
    PrintJsonString(dir);
    std::printf(",\n  \"kernels\": [");
    bool first = true;
    for (const auto& [key, kernel] : kernels) {
      std::printf("%s\n    {\n      \"kernel\": ", first ? "" : ",");
      PrintJsonString(key);
      std::printf(",\n      \"spool\": ");
      PrintSpoolJson(*kernel);
      std::printf(",\n");
      PrintReportJson(kernel->report, "      ");
      std::printf("\n    }");
      first = false;
    }
    std::printf("%s],\n  \"fleet\": {\n    \"kernels\": %zu,\n",
                first ? "" : "\n  ", kernels.size());
    PrintReportJson(fleet, "    ");
    std::printf("\n  }\n}\n");
  } else {
    std::printf("graftstat --fleet %s (%zu kernel%s)\n", dir.c_str(),
                kernels.size(), kernels.size() == 1 ? "" : "s");
    for (const auto& [key, kernel] : kernels) {
      std::printf("\n== kernel %s ==\n", key.c_str());
      PrintSpoolText(*kernel);
      PrintReportText(kernel->report);
    }
    std::printf("\n== fleet union (%zu kernel%s) ==\n", kernels.size(),
                kernels.size() == 1 ? "" : "s");
    PrintReportText(fleet);
  }
  if (kernels.empty()) {
    std::fprintf(stderr, "graftstat: no kernel spools under '%s'\n",
                 dir.c_str());
  }
  return ExitCode(kernels);
}

// ---------------------------------------------------------------------------
// Self-test: the §4.5 experiment, reduced live and checked against the
// kernel's own counters.

// Undo closures mutate this so the replay work is real, not optimized away.
volatile uint64_t g_undo_sink = 0;

// A native graft that acquires args[0] locks, registers args[1] undo
// records, then aborts (args[2] != 0) or commits.
vino::Result<uint64_t> Misbehave(std::span<const uint64_t> args,
                                 std::vector<std::unique_ptr<TxnLock>>* locks,
                                 MemoryImage*) {
  const uint64_t want_locks = args.size() > 0 ? args[0] : 0;
  const uint64_t want_undo = args.size() > 1 ? args[1] : 0;
  const bool abort = args.size() > 2 && args[2] != 0;
  for (uint64_t i = 0; i < want_locks && i < locks->size(); ++i) {
    if (!IsOk((*locks)[i]->Acquire())) {
      return Status::kTxnAborted;
    }
  }
  for (uint64_t i = 0; i < want_undo; ++i) {
    vino::TxnOnAbort([] { g_undo_sink = g_undo_sink + 1; });
  }
  if (abort) {
    return Status::kTxnAborted;
  }
  return uint64_t{42};
}

// A sandboxed program graft, so the per-tier counters have something to
// count: instrumented, verified and, unless VINO_EXEC_TIER=0 pins the
// process to the interpreter, pre-decoded for Tier 1, as the loader would.
std::shared_ptr<Graft> TieredWorker() {
  vino::Asm a("tiered-worker");
  auto top = a.NewLabel();
  a.LoadImm(vino::R1, 12);
  a.LoadImm(vino::R2, 0);
  a.LoadImm(vino::R3, 0);
  a.Bind(top);
  a.AddI(vino::R2, vino::R2, 3);
  a.St64(vino::R3, vino::R2, 256);
  a.Ld64(vino::R4, vino::R3, 256);
  a.AddI(vino::R1, vino::R1, -1);
  a.Bne(vino::R1, vino::R3, top);
  a.Mov(vino::R0, vino::R2);
  a.Halt();
  auto inst = vino::Instrument(*a.Finish(), vino::MisfitOptions{16});
  vino::Program program = *inst;
  if (!vino::VerifySandbox(program).ok()) {
    return nullptr;
  }
  program.verified = true;
  if (vino::MaxExecTier() >= vino::ExecTier::kTier1) {
    program.compiled = vino::CompileThreaded(program);
  }
  return std::make_shared<Graft>("tiered-worker", std::move(program),
                                 GraftIdentity{1000, false}, 4096);
}

bool SameFit(const AbortCostModel::Fitted& a, const AbortCostModel::Fitted& b) {
  return a.valid == b.valid && a.samples == b.samples && a.a_ns == b.a_ns &&
         a.b_ns == b.b_ns && a.c_ns == b.c_ns &&
         a.mean_locks == b.mean_locks && a.mean_undo == b.mean_undo &&
         a.mean_cost_ns == b.mean_cost_ns;
}

bool SameHistogram(const LatencyHistogram& a, const LatencyHistogram& b) {
  uint64_t ab[vino::kHistogramBuckets];
  uint64_t bb[vino::kHistogramBuckets];
  a.ReadBuckets(ab);
  b.ReadBuckets(bb);
  return std::equal(std::begin(ab), std::end(ab), std::begin(bb)) &&
         a.SumNs() == b.SumNs();
}

// The self-test's independent reference: the report reduced from the trace
// stream must equal what the kernel counted directly. Without it, live and
// replay would both be reduced from the same records and a recorder bug
// would show in neither. Returns the first mismatch, or "" when all agree.
std::string CheckAgainstCounters(
    const ReplayReport& report,
    const std::vector<std::shared_ptr<Graft>>& grafts,
    const vino::GraftExecContext& exec, const vino::TxnStats& txn,
    uint64_t lost_total) {
  if (lost_total != 0) {
    return std::to_string(lost_total) + " records lost to ring wrap";
  }
  size_t ran = 0;
  for (const auto& g : grafts) {
    const auto it = report.grafts.find(g->trace_id());
    if (it == report.grafts.end()) {
      if (g->invocations() != 0) {
        return g->name() + " ran but is missing from the report";
      }
      continue;
    }
    ++ran;
    const ReplayReport::GraftAgg& agg = it->second;
    const uint64_t tier0 = g->tier_runs(vino::ExecTier::kTier0);
    const uint64_t tier1 = g->tier_runs(vino::ExecTier::kTier1);
    if (agg.invocations != g->invocations() || agg.aborts != g->aborts() ||
        agg.degraded != g->degraded()) {
      return g->name() + ": invocations, aborts or degraded flag";
    }
    if (agg.runs[0] != g->invocations() - tier0 - tier1 ||
        agg.runs[1] != tier0 || agg.runs[2] != tier1) {
      return g->name() + ": tier runs";
    }
    if (!SameFit(agg.model.Fit(), g->abort_cost().Fit())) {
      return g->name() + ": abort-cost fit";
    }
  }
  if (ran != report.grafts.size()) {
    return "the report holds grafts the kernel never ran";
  }
  if (!SameHistogram(report.invoke_latency, *exec.latency)) {
    return "invocation latency histogram";
  }
  for (size_t t = 0; t <= kExecTierCount; ++t) {
    if (!SameHistogram(report.tier_latency[t], *exec.tier_latency[t])) {
      return std::string(TierLabel(t)) + " latency histogram";
    }
  }
  if (report.txn_begins != txn.begins || report.txn_commits != txn.commits ||
      report.txn_aborts != txn.aborts) {
    return "transaction begins, commits or aborts";
  }
  return "";
}

int RunSelfTest(uint64_t invocations, const std::string& spool_out,
                bool json) {
  vino::trace::SetEnabled(true);

  // --spool-out, or with none the VINO_SPOOL environment, spools the run
  // exactly like a kernel would (DeriveEnvSpoolOptions) — several self-test
  // processes pointed at one directory stand in for a fleet of kernels.
  vino::spool::SpoolDrainer::Options spool_options;
  spool_options.path = spool_out;
  std::unique_ptr<vino::spool::SpoolDrainer> drainer;
  if (vino::spool::DeriveEnvSpoolOptions(&spool_options)) {
    auto started = vino::spool::SpoolDrainer::Start(spool_options);
    if (!started.ok()) {
      std::fprintf(stderr, "graftstat: cannot open --spool-out '%s'\n",
                   spool_options.path.c_str());
      return 1;
    }
    drainer = std::move(started.value());
  }

  TxnManager txn_manager;
  std::vector<std::unique_ptr<TxnLock>> locks;
  for (int i = 0; i < 8; ++i) {
    locks.push_back(
        std::make_unique<TxnLock>("graftstat.lock" + std::to_string(i)));
  }

  // Three abort-prone grafts with distinct (L, G) profiles — the variance
  // the least-squares fit needs — plus one that commits and one program
  // graft for the tiers.
  struct Profile {
    const char* name;
    uint64_t base_locks;
    uint64_t base_undo;
    bool aborts;
  };
  const Profile profiles[] = {
      {"lock-hoarder", 5, 2, true},
      {"undo-spammer", 1, 24, true},
      {"mixed-misbehaver", 3, 10, true},
      {"well-behaved", 1, 4, false},
      {"tiered-worker", 0, 0, false},
  };
  std::vector<std::shared_ptr<Graft>> grafts;
  for (const Profile& p : profiles) {
    if (std::strcmp(p.name, "tiered-worker") == 0) {
      grafts.push_back(TieredWorker());
      if (grafts.back() == nullptr) {
        std::fprintf(stderr, "graftstat: self-test program failed to verify\n");
        return 1;
      }
      continue;
    }
    grafts.push_back(std::make_shared<Graft>(
        p.name,
        [&locks](std::span<const uint64_t> args, MemoryImage* image) {
          return Misbehave(args, &locks, image);
        },
        GraftIdentity{1000, false}));
  }

  // The kernel's own latency histograms, recorded at the invocation
  // wrapper's latency sites: the reference the reduced ones must equal.
  LatencyHistogram invoke_latency;
  LatencyHistogram tier_latency[kExecTierCount + 1];
  vino::GraftExecContext exec(nullptr);
  exec.latency = &invoke_latency;
  for (size_t t = 0; t <= kExecTierCount; ++t) {
    exec.tier_latency[t] = &tier_latency[t];
  }

  // The reducer drains the rings itself, every 128 invocations (a single
  // ring, ~8 records per invocation: nothing wraps), and so does the spool.
  ReplayReport report;
  vino::trace::DrainCursor cursor;
  uint64_t lost_total = 0;
  for (uint64_t i = 0; i < invocations; ++i) {
    const Profile& p = profiles[i % std::size(profiles)];
    const auto& graft = grafts[i % std::size(grafts)];
    // Jitter L and G around the profile's base so neither predictor is
    // constant (a constant column is degenerate and fits to zero).
    const uint64_t args[3] = {p.base_locks + i % 3,
                              p.base_undo + (i / 2) % 5,
                              p.aborts ? uint64_t{1} : uint64_t{0}};
    (void)RunGraftInvocation(txn_manager, graft, args, exec);
    if ((i + 1) % 128 == 0) {
      lost_total = cursor.DrainInto(report).lost_total;
      if (drainer != nullptr) {
        drainer->DrainNow();
      }
    }
  }
  lost_total = cursor.DrainInto(report).lost_total;
  if (drainer != nullptr) {
    drainer->Stop();  // Final drain + close trailer.
  }
  for (const auto& g : grafts) {
    if (const auto it = report.grafts.find(g->trace_id());
        it != report.grafts.end()) {
      it->second.name = g->name();
    }
  }

  const vino::TxnStats txn = txn_manager.stats();
  const std::string mismatch =
      CheckAgainstCounters(report, grafts, exec, txn, lost_total);
  if (!mismatch.empty()) {
    std::fprintf(stderr,
                 "graftstat: self-test: the trace stream disagrees with the "
                 "kernel's own counters: %s\n",
                 mismatch.c_str());
    return 1;
  }

  const vino::spool::SpoolDrainer::Stats ds =
      drainer != nullptr ? drainer->stats()
                         : vino::spool::SpoolDrainer::Stats{};

  if (json) {
    std::printf("{\n  \"mode\": \"self-test\",\n  \"invocations\": %" PRIu64
                ",\n",
                invocations);
    if (drainer != nullptr) {
      std::printf("  \"spool_out\": {\"path\": ");
      PrintJsonString(drainer->path());
      std::printf(", \"records\": %" PRIu64 ", \"batches\": %" PRIu64
                  ", \"lost_total\": %" PRIu64 ", \"segments\": %" PRIu64
                  ", \"segments_reclaimed\": %" PRIu64 "},\n",
                  ds.records, ds.batches, ds.lost_total, ds.segments,
                  ds.segments_reclaimed);
    }
    std::printf("  \"txn_manager\": {\"slab_misses\": %" PRIu64
                ", \"slab_overflows\": %" PRIu64 ",\n    \"commit\": ",
                txn.slab_misses, txn.slab_overflows);
    PrintQuantilesJson(Read(txn_manager.commit_latency()));
    std::printf(",\n    \"abort\": ");
    PrintQuantilesJson(Read(txn_manager.abort_latency()));
    std::printf("},\n");
    PrintReportJson(report, "  ");
    std::printf("\n}\n");
    return 0;
  }

  std::printf("graftstat: %" PRIu64 " invocations, flight recorder live; "
              "the trace stream matches the kernel's counters\n",
              invocations);
  if (drainer != nullptr) {
    std::printf("spooled: %" PRIu64 " records in %" PRIu64 " batches -> %s "
                "(%" PRIu64 " lost, %" PRIu64 " segment%s, %" PRIu64
                " reclaimed)\n",
                ds.records, ds.batches, drainer->path().c_str(),
                ds.lost_total, ds.segments, ds.segments == 1 ? "" : "s",
                ds.segments_reclaimed);
  }
  std::printf("\ntransaction layer: %" PRIu64 " slab misses, %" PRIu64
              " slab overflows\n",
              txn.slab_misses, txn.slab_overflows);
  PrintQuantilesText("commit", Read(txn_manager.commit_latency()));
  PrintQuantilesText("abort", Read(txn_manager.abort_latency()));
  std::printf("\n");
  PrintReportText(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool once = false;
  uint64_t invocations = 2000;
  uint64_t interval_ms = 100;
  std::string spool_path;   // --spool: replay.
  std::string follow_path;  // --follow: tail.
  std::string fleet_dir;    // --fleet: every kernel under a directory.
  std::string spool_out;    // --spool-out: spool the self-test run.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strcmp(argv[i], "--invocations") == 0 && i + 1 < argc) {
      invocations = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--interval-ms") == 0 && i + 1 < argc) {
      interval_ms = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--spool") == 0 && i + 1 < argc) {
      spool_path = argv[++i];
    } else if (std::strcmp(argv[i], "--follow") == 0 && i + 1 < argc) {
      follow_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fleet") == 0 && i + 1 < argc) {
      fleet_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--spool-out") == 0 && i + 1 < argc) {
      spool_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: graftstat [--json] [--invocations N] "
                   "[--spool-out FILE]\n"
                   "       graftstat --spool PATH [--json]\n"
                   "       graftstat --follow PATH [--json] "
                   "[--interval-ms N]\n"
                   "       graftstat --fleet DIR [--json] [--once] "
                   "[--interval-ms N]\n");
      return 2;
    }
  }
  interval_ms = interval_ms == 0 ? 1 : interval_ms;

  if (!spool_path.empty()) {
    return RunSpool("spool", spool_path, /*follow=*/false, json, interval_ms);
  }
  if (!follow_path.empty()) {
    return RunSpool("follow", follow_path, /*follow=*/true, json, interval_ms);
  }
  if (!fleet_dir.empty()) {
    return RunFleet(fleet_dir, json, interval_ms, once);
  }
  return RunSelfTest(invocations, spool_out, json);
}
