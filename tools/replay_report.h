// graftstat's one reducer: every mode (self-test, --spool, --follow,
// --fleet) folds flight-recorder records into a ReplayReport, so their
// views agree by construction. A header of its own so the reduction can be
// unit-tested on a hand-built record stream (tests/replay_report_test.cc).
//
// Everything about invocations and transactions comes from kInvokeEnd, an
// invocation's only record (src/base/trace.h): one invocation and one tier
// run of graft `a`, its duration `b`, and — for a grafted invocation — one
// transaction that its path says committed or aborted. The abort-cost fit
// comes from kAbortCost, the degraded flag from kGraftDegraded.

#ifndef VINOLITE_TOOLS_REPLAY_REPORT_H_
#define VINOLITE_TOOLS_REPLAY_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/base/histogram.h"
#include "src/base/trace.h"
#include "src/sfi/exec_engine.h"

namespace vino {

class ReplayReport : public trace::TraceSink {
 public:
  struct GraftAgg {
    std::string name;      // Known only to the self-test, which loaded it.
    uint64_t kernels = 1;  // Kernel streams folded into this row.
    uint64_t invocations = 0;
    uint64_t aborts = 0;
    // Runs by execution tier, indexed like the kInvokeEnd tag's high byte:
    // tier + 1, with 0 for a native graft (or the ungrafted path).
    uint64_t runs[kExecTierCount + 1] = {};
    bool degraded = false;  // A kGraftDegraded event named this graft.
    AbortCostModel model;
  };

  void OnRecord(const trace::TaggedRecord& tagged) override {
    using trace::Event;
    using trace::PathTag;
    const trace::Record& r = tagged.record;
    const Event event = static_cast<Event>(r.event);
    ++records;
    ++event_counts[trace::EventName(event)];
    switch (event) {
      case Event::kInvokeEnd: {
        const size_t slot = Slot(r.tag);
        GraftAgg& agg = grafts[r.a];
        ++agg.invocations;
        ++agg.runs[slot];
        invoke_latency.Record(r.b);
        tier_latency[slot].Record(r.b);
        // Only the low byte is the path; the high byte carries the tier.
        const PathTag path = trace::InvokePathTag(r.tag);
        if (path == PathTag::kAbort) {
          ++agg.aborts;
        }
        // A grafted invocation ran in one transaction of its own, which
        // committed unless the invocation aborted. The ungrafted path
        // opens none.
        if (path != PathTag::kNull) {
          ++txn_begins;
          ++(path == PathTag::kAbort ? txn_aborts : txn_commits);
        }
        break;
      }
      case Event::kAbortCost:
        // The mirrored per-graft sample: a32 = L, tag = G, b = cost ns.
        grafts[r.a].model.Record(r.a32, r.tag, r.b);
        break;
      case Event::kGraftDegraded:
        grafts[r.a].degraded = true;
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
    const uint16_t tier_plus1 = trace::InvokeTierPlus1(tag);
    return tier_plus1 <= kExecTierCount ? tier_plus1 : 0;
  }
};

}  // namespace vino

#endif  // VINOLITE_TOOLS_REPLAY_REPORT_H_
