// Shared benchmark harness implementing the paper's measurement
// methodology (§4, Table 2):
//
//  * every path is timed per-invocation with the CPU cycle counter,
//  * each test runs 300-3000 iterations,
//  * the top and bottom 10% of samples are dropped before computing the
//    mean and standard deviation,
//  * results print as the paper's tables do: each path's elapsed time plus
//    the incremental overhead over the previous path.

#ifndef VINOLITE_BENCH_PATHS_H_
#define VINOLITE_BENCH_PATHS_H_

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/base/clock.h"
#include "src/base/stats.h"

namespace vino {
namespace bench {

struct Measurement {
  std::string label;
  TrimmedStats stats;  // In microseconds.
};

// Times `op` per-invocation, `iterations` times, optionally running
// `setup` before each timed invocation (outside the timed window).
inline Measurement MeasurePath(std::string label, const std::function<void()>& op,
                               int iterations = 1000,
                               const std::function<void()>& setup = {}) {
  const double cpm = CyclesPerMicro();
  SampleSet samples(static_cast<size_t>(iterations));

  // Warm-up: fill caches, fault in code.
  for (int i = 0; i < 10; ++i) {
    if (setup) {
      setup();
    }
    op();
  }
  for (int i = 0; i < iterations; ++i) {
    if (setup) {
      setup();
    }
    const uint64_t t0 = ReadCycleCounter();
    op();
    const uint64_t t1 = ReadCycleCounter();
    samples.Add(static_cast<double>(t1 - t0) / cpm);
  }
  return Measurement{std::move(label), samples.Trimmed()};
}

// Prints a paper-style decomposition table: elapsed per path, incremental
// overhead between successive paths, relative standard deviation.
inline void PrintPathTable(const std::string& title,
                           const std::vector<Measurement>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s %12s %14s %8s\n", "Path", "Elapsed(us)", "Overhead(us)",
              "sd(%)");
  std::printf("%s\n", std::string(66, '-').c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const double mean = rows[i].stats.mean;
    const double sd_pct =
        mean > 0 ? 100.0 * rows[i].stats.stddev / mean : 0.0;
    if (i == 0) {
      std::printf("%-28s %12.3f %14s %8.1f\n", rows[i].label.c_str(), mean, "-",
                  sd_pct);
    } else {
      std::printf("%-28s %12.3f %14.3f %8.1f\n", rows[i].label.c_str(), mean,
                  mean - rows[i - 1].stats.mean, sd_pct);
    }
  }
}

// One labelled scalar result (cost-benefit sections).
inline void PrintScalar(const std::string& label, double value,
                        const std::string& unit, int decimals = 3) {
  std::printf("  %-44s %12.*f %s\n", label.c_str(), decimals, value,
              unit.c_str());
}

}  // namespace bench
}  // namespace vino

#endif  // VINOLITE_BENCH_PATHS_H_
