// The ledger's arithmetic: quantile selection, medians and printed ratios.
// Everything the benchmark reports goes through these few functions, and
// ledger_test.cc pins each of them on hand-built inputs.

#ifndef VINOLITE_LEDGER_STATS_H_
#define VINOLITE_LEDGER_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

// Nearest-rank quantile: the smallest sample with at least q·n samples at or
// below it (q in (0, 1]). Reorders `samples`; 0 for an empty set.
template <typename T>
double Quantile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = std::min(
      samples.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return static_cast<double>(samples[index]);
}

// p50/p99/p999 of one sample set, with the count they were taken over.
struct Summary {
  size_t count = 0;
  double p50 = 0, p99 = 0, p999 = 0;
};

template <typename T>
Summary Summarize(std::vector<T>& samples) {
  Summary s;
  s.count = samples.size();
  s.p50 = Quantile(samples, 0.50);
  s.p99 = Quantile(samples, 0.99);
  s.p999 = Quantile(samples, 0.999);
  return s;
}

// Median of per-trial values (the mean of the middle two for an even
// count); 0 for an empty set.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

// A ratio that is always printed with its base. A zero denominator reads 0:
// the layer did no such work on this workload.
struct Ratio {
  uint64_t num = 0;
  uint64_t den = 0;

  [[nodiscard]] double value() const {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  }
  [[nodiscard]] std::string Text() const {
    return std::to_string(num) + "/" + std::to_string(den);
  }
};

}  // namespace ledger

#endif  // VINOLITE_LEDGER_STATS_H_
