// Latency measurement primitives for the flight recorder.
//
// LatencyHistogram: log-bucketed (power-of-two) duration histogram, sharded
// like ShardedCounters so concurrent recorders on different threads never
// bounce a cache line. Quantiles are read from the bucket boundaries —
// exact enough for p50/p95/p99 reporting (a bucket is at worst 2× wide),
// free of allocation and of any recording-side lock.
//
// AbortCostModel: running least-squares fit of the paper's §4.5 abort-cost
// model, cost = a + b·L + c·G (L = locks held, G = undo-log length). Each
// abort contributes one (L, G, cost) sample as nine relaxed counter
// increments; Fit() solves the 3×3 normal equations on demand. This turns
// the paper's "35 µs + 10 µs·L + c·G" from a quoted constant into a
// continuously measured property of the running kernel.

#ifndef VINOLITE_SRC_BASE_HISTOGRAM_H_
#define VINOLITE_SRC_BASE_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/base/sharded_counter.h"

namespace vino {

// Buckets are value bit-widths: bucket i holds durations in [2^(i-1), 2^i)
// nanoseconds (bucket 0 holds 0). 64 buckets cover any uint64 duration.
inline constexpr size_t kHistogramBuckets = 64;

class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  // Records one duration. Relaxed adds on the caller's shard: contention-
  // free across threads, ~three uncontended RMWs.
  void Record(uint64_t ns) {
    Shard& shard = shards_[internal::StatShard()];
    shard.buckets[Bucket(ns)].fetch_add(1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] uint64_t Count() const {
    uint64_t n = 0;
    for (const Shard& shard : shards_) {
      n += shard.count.load(std::memory_order_relaxed);
    }
    return n;
  }

  [[nodiscard]] uint64_t SumNs() const {
    uint64_t s = 0;
    for (const Shard& shard : shards_) {
      s += shard.sum.load(std::memory_order_relaxed);
    }
    return s;
  }

  [[nodiscard]] double MeanNs() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(SumNs()) / static_cast<double>(n);
  }

  // The q-quantile (q in [0,1]) as the upper bound of the bucket holding
  // that rank; 0 with no samples. A concurrent Record may or may not be
  // included — statistics, not synchronization.
  [[nodiscard]] uint64_t QuantileNs(double q) const {
    uint64_t totals[kHistogramBuckets] = {};
    uint64_t n = 0;
    for (const Shard& shard : shards_) {
      for (size_t i = 0; i < kHistogramBuckets; ++i) {
        const uint64_t c = shard.buckets[i].load(std::memory_order_relaxed);
        totals[i] += c;
        n += c;
      }
    }
    if (n == 0) {
      return 0;
    }
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    uint64_t seen = 0;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      seen += totals[i];
      if (seen >= rank && totals[i] > 0) {
        return BucketUpperNs(i);
      }
    }
    return BucketUpperNs(kHistogramBuckets - 1);
  }

  // Merged per-bucket counts, for dump tools that render the distribution.
  void ReadBuckets(uint64_t (&out)[kHistogramBuckets]) const {
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      out[i] = 0;
    }
    for (const Shard& shard : shards_) {
      for (size_t i = 0; i < kHistogramBuckets; ++i) {
        out[i] += shard.buckets[i].load(std::memory_order_relaxed);
      }
    }
  }

  // Folds another histogram's samples into this one (graftstat's fleet
  // union). Reads `other` without synchronization, like
  // AbortCostModel::Merge: call at collection time.
  void Merge(const LatencyHistogram& other) {
    uint64_t buckets[kHistogramBuckets];
    other.ReadBuckets(buckets);
    Shard& shard = shards_[0];
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      shard.buckets[i].fetch_add(buckets[i], std::memory_order_relaxed);
    }
    shard.count.fetch_add(other.Count(), std::memory_order_relaxed);
    shard.sum.fetch_add(other.SumNs(), std::memory_order_relaxed);
  }

  [[nodiscard]] static size_t Bucket(uint64_t ns) {
    const size_t width = static_cast<size_t>(std::bit_width(ns));
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
  }

  // Inclusive upper bound of bucket i in nanoseconds.
  [[nodiscard]] static uint64_t BucketUpperNs(size_t i) {
    return i == 0 ? 0 : (i >= 63 ? ~uint64_t{0} : (uint64_t{1} << i) - 1);
  }

 private:
  // A shard spans several cache lines (64 buckets + sum + count); alignment
  // keeps two shards from splitting a line.
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> count{0};
  };
  Shard shards_[kStatShards];
};

// Running least-squares fit of cost = a + b·L + c·G over abort samples.
class AbortCostModel {
 public:
  struct Fitted {
    bool valid = false;   // ≥1 sample and a solvable system.
    double a_ns = 0.0;    // Fixed abort cost.
    double b_ns = 0.0;    // Per-lock-held cost.
    double c_ns = 0.0;    // Per-undo-record cost.
    uint64_t samples = 0;
    double mean_locks = 0.0;
    double mean_undo = 0.0;
    double mean_cost_ns = 0.0;
  };

  AbortCostModel() = default;
  AbortCostModel(const AbortCostModel&) = delete;
  AbortCostModel& operator=(const AbortCostModel&) = delete;

  // One abort sample: L locks held, G undo records replayed, measured cost.
  // Nine relaxed adds on the caller's shard; allocation-free.
  void Record(uint64_t locks, uint64_t undo_len, uint64_t cost_ns) {
    sums_.Add(kN);
    sums_.Add(kL, locks);
    sums_.Add(kG, undo_len);
    sums_.Add(kLL, locks * locks);
    sums_.Add(kGG, undo_len * undo_len);
    sums_.Add(kLG, locks * undo_len);
    cost_sums_.Add(kC, cost_ns);
    cost_sums_.Add(kCL, cost_ns * locks);
    cost_sums_.Add(kCG, cost_ns * undo_len);
  }

  [[nodiscard]] uint64_t samples() const { return sums_.Read(kN); }

  // Folds another model's samples into this one. The running sums are
  // additive, so merging N per-graft models yields exactly the model a
  // single aggregate Record stream would have built (graftstat's
  // "all-grafts" view, and the quantity a spool replay reconstructs from
  // kAbortCost records). Reads `other` without synchronization: call at
  // collection time, not while `other` is being fed.
  void Merge(const AbortCostModel& other) {
    sums_.Add(kN, other.sums_.Read(kN));
    sums_.Add(kL, other.sums_.Read(kL));
    sums_.Add(kG, other.sums_.Read(kG));
    sums_.Add(kLL, other.sums_.Read(kLL));
    sums_.Add(kGG, other.sums_.Read(kGG));
    sums_.Add(kLG, other.sums_.Read(kLG));
    cost_sums_.Add(kC, other.cost_sums_.Read(kC));
    cost_sums_.Add(kCL, other.cost_sums_.Read(kCL));
    cost_sums_.Add(kCG, other.cost_sums_.Read(kCG));
  }

  // Solves the normal equations. Degenerate predictors (no variance in L
  // or G across the samples) get a zero coefficient rather than a garbage
  // one; with zero samples the fit is invalid.
  [[nodiscard]] Fitted Fit() const {
    Fitted fit;
    const double n = static_cast<double>(sums_.Read(kN));
    if (n == 0.0) {
      return fit;
    }
    const double sl = static_cast<double>(sums_.Read(kL));
    const double sg = static_cast<double>(sums_.Read(kG));
    const double sll = static_cast<double>(sums_.Read(kLL));
    const double sgg = static_cast<double>(sums_.Read(kGG));
    const double slg = static_cast<double>(sums_.Read(kLG));
    const double sc = static_cast<double>(cost_sums_.Read(kC));
    const double scl = static_cast<double>(cost_sums_.Read(kCL));
    const double scg = static_cast<double>(cost_sums_.Read(kCG));

    fit.samples = sums_.Read(kN);
    fit.mean_locks = sl / n;
    fit.mean_undo = sg / n;
    fit.mean_cost_ns = sc / n;

    // Normal equations for [a b c]:
    //   [ n   sl   sg  ] [a]   [ sc  ]
    //   [ sl  sll  slg ] [b] = [ scl ]
    //   [ sg  slg  sgg ] [c]   [ scg ]
    double m[3][4] = {{n, sl, sg, sc}, {sl, sll, slg, scl}, {sg, slg, sgg, scg}};
    double x[3] = {0.0, 0.0, 0.0};
    bool solved[3] = {false, false, false};
    // Gaussian elimination with partial pivoting; a near-zero pivot marks a
    // degenerate predictor whose coefficient is pinned to zero.
    int row_of[3] = {-1, -1, -1};
    bool used[3] = {false, false, false};
    for (int col = 0; col < 3; ++col) {
      int pivot = -1;
      double best = 1e-9 * (n + sll + sgg + 1.0);  // Scale-aware epsilon.
      for (int r = 0; r < 3; ++r) {
        if (!used[r] && std::fabs(m[r][col]) > best) {
          best = std::fabs(m[r][col]);
          pivot = r;
        }
      }
      if (pivot < 0) {
        continue;  // Degenerate column (e.g. every sample had L == 0).
      }
      used[pivot] = true;
      row_of[col] = pivot;
      for (int r = 0; r < 3; ++r) {
        if (r == pivot || m[r][col] == 0.0) {
          continue;
        }
        const double f = m[r][col] / m[pivot][col];
        for (int k = 0; k < 4; ++k) {
          m[r][k] -= f * m[pivot][k];
        }
      }
    }
    for (int col = 2; col >= 0; --col) {
      const int r = row_of[col];
      if (r < 0) {
        continue;  // Coefficient stays zero.
      }
      double rhs = m[r][3];
      for (int k = col + 1; k < 3; ++k) {
        rhs -= m[r][k] * x[k];
      }
      x[col] = rhs / m[r][col];
      solved[col] = true;
    }
    fit.valid = solved[0] || solved[1] || solved[2];
    fit.a_ns = x[0];
    fit.b_ns = x[1];
    fit.c_ns = x[2];
    return fit;
  }

 private:
  enum SumCounter : size_t { kN, kL, kG, kLL, kGG, kLG };
  enum CostCounter : size_t { kC, kCL, kCG };
  ShardedCounters<6> sums_;
  ShardedCounters<3> cost_sums_;
};

// Sliding window over the most recent abort samples: the "what the graft
// has cost lately" side of drift detection, against AbortCostModel's
// "what it has cost over its lifetime". A mutex is fine here — aborts are
// the µs-scale disaster path, and the window is only touched then.
class AbortCostWindow {
 public:
  struct Snapshot {
    uint64_t samples = 0;  // Samples currently in the window (≤ capacity).
    uint64_t total = 0;    // Samples ever recorded.
    double mean_locks = 0.0;
    double mean_undo = 0.0;
    double mean_cost_ns = 0.0;
  };

  explicit AbortCostWindow(size_t capacity = 256)
      : ring_(capacity > 0 ? capacity : 1) {}

  AbortCostWindow(const AbortCostWindow&) = delete;
  AbortCostWindow& operator=(const AbortCostWindow&) = delete;

  void Record(uint64_t locks, uint64_t undo_len, uint64_t cost_ns) {
    std::lock_guard<std::mutex> guard(mutex_);
    Sample& slot = ring_[next_];
    if (total_ >= ring_.size()) {
      sum_locks_ -= slot.locks;  // Evict before overwrite.
      sum_undo_ -= slot.undo_len;
      sum_cost_ -= slot.cost_ns;
    }
    slot = Sample{locks, undo_len, cost_ns};
    sum_locks_ += locks;
    sum_undo_ += undo_len;
    sum_cost_ += cost_ns;
    next_ = (next_ + 1) % ring_.size();
    ++total_;
  }

  [[nodiscard]] Snapshot Read() const {
    std::lock_guard<std::mutex> guard(mutex_);
    Snapshot snap;
    snap.total = total_;
    snap.samples = total_ < ring_.size() ? total_ : ring_.size();
    if (snap.samples > 0) {
      const double n = static_cast<double>(snap.samples);
      snap.mean_locks = static_cast<double>(sum_locks_) / n;
      snap.mean_undo = static_cast<double>(sum_undo_) / n;
      snap.mean_cost_ns = static_cast<double>(sum_cost_) / n;
    }
    return snap;
  }

 private:
  struct Sample {
    uint64_t locks = 0;
    uint64_t undo_len = 0;
    uint64_t cost_ns = 0;
  };

  mutable std::mutex mutex_;
  std::vector<Sample> ring_;
  size_t next_ = 0;
  uint64_t total_ = 0;
  uint64_t sum_locks_ = 0;
  uint64_t sum_undo_ = 0;
  uint64_t sum_cost_ = 0;
};

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_HISTOGRAM_H_
