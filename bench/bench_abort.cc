// Table 7 reproduction: Graft Abort Costs — null abort vs. full abort for
// each of the four sample grafts — plus the §4.5 abort-cost model:
//
//     abort cost = abort overhead + unlock cost + undo cost
//                =       A        +    B * L    +   c * G
//
// The sweep section varies the number of held locks (L) and the number of
// undo records to expose the two linear terms.

#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "bench/bench_kernel.h"
#include "bench/paths.h"
#include "src/graft/function_point.h"

namespace vino {
namespace bench {
namespace {

constexpr int kIterations = 1500;

// Builds a graft with `loads` load/store pairs of work and an abort at the
// end; lock_count lock acquisitions through k.lock (released by the abort).
Asm BuildAbortingGraft(const BenchKernel& kernel, int work_pairs, bool take_lock) {
  Asm a("aborter");
  if (take_lock) {
    a.Call(kernel.lock_id());
  }
  a.LoadImm(R1, 0);  // Arena-relative address; masked into the arena.
  for (int i = 0; i < work_pairs; ++i) {
    a.Ld64(R2, R1, i * 8);
    a.St64(R1, R2, i * 8 + 2048);
  }
  a.Call(kernel.abort_id());
  a.Halt();
  return a;
}

struct GraftAbortSpec {
  const char* name;
  int work_pairs;
  bool take_lock;
};

int Main() {
  BenchKernel kernel;

  // --- Table 7: null vs full abort per sample graft -------------------
  const GraftAbortSpec specs[] = {
      {"Read-Ahead", 2, true},      // Tiny body + shared-buffer lock.
      {"Page Eviction", 72, true},  // List scan + lock.
      {"Scheduling", 64, true},     // Process-list walk + lock.
      {"Encryption", 1024, false},  // Dense data loop, no lock.
  };

  std::printf("\n=== Table 7: Graft Abort Costs ===\n");
  std::printf("%-16s %14s %14s\n", "Graft", "NullAbort(us)", "FullAbort(us)");
  std::printf("%s\n", std::string(46, '-').c_str());

  for (const GraftAbortSpec& spec : specs) {
    FunctionGraftPoint point(
        std::string("bench.abort.") + spec.name,
        [](std::span<const uint64_t>) -> uint64_t { return 0; },
        FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(), &kernel.ns());

    // Null abort: a graft that immediately aborts.
    Asm null_asm = BuildAbortingGraft(kernel, 0, false);
    auto null_graft = kernel.LoadProgram(null_asm);

    Asm full_asm = BuildAbortingGraft(kernel, spec.work_pairs, spec.take_lock);
    auto full_graft = kernel.LoadProgram(full_asm);

    const Measurement null_abort = MeasurePath(
        "null", [&] { (void)point.Invoke({}); }, kIterations,
        [&] { (void)point.Replace(null_graft); });
    point.Remove();
    const Measurement full_abort = MeasurePath(
        "full", [&] { (void)point.Invoke({}); }, kIterations,
        [&] { (void)point.Replace(full_graft); });
    point.Remove();

    std::printf("%-16s %14.3f %14.3f\n", spec.name, null_abort.stats.mean,
                full_abort.stats.mean);
  }

  // --- §4.5 cost model sweep: abort = A + B*L + c*G -------------------
  // Measured directly on the transaction manager: begin, acquire L locks,
  // push U undo records, abort.
  std::printf("\n=== Abort cost model sweep (abort = A + B*L + c*G) ===\n");
  std::printf("%-8s %-12s %12s\n", "Locks", "UndoRecords", "Abort(us)");
  std::printf("%s\n", std::string(34, '-').c_str());

  std::vector<std::unique_ptr<TxnLock>> locks;
  for (int i = 0; i < 16; ++i) {
    locks.push_back(std::make_unique<TxnLock>("sweep." + std::to_string(i)));
  }
  static uint64_t slots[4096];

  double l0_u0 = 0;
  double l8_u0 = 0;
  double l0_u1024 = 0;
  for (const int lock_count : {0, 1, 2, 4, 8}) {
    for (const int undo_count : {0, 16, 128, 1024}) {
      if (lock_count != 0 && undo_count != 0 && lock_count != 8) {
        continue;  // Keep the grid focused on the two axes.
      }
      const Measurement m = MeasurePath(
          "abort",
          [&] {
            Transaction* txn = kernel.txn().Begin();
            for (int i = 0; i < lock_count; ++i) {
              (void)locks[static_cast<size_t>(i)]->Acquire();
            }
            for (int i = 0; i < undo_count; ++i) {
              uint64_t* slot = &slots[static_cast<size_t>(i) % 4096];
              txn->undo().Push([slot, old_value = *slot] { *slot = old_value; });
            }
            kernel.txn().Abort(txn, Status::kTxnAborted);
          },
          kIterations);
      std::printf("%-8d %-12d %12.3f\n", lock_count, undo_count, m.stats.mean);
      if (lock_count == 0 && undo_count == 0) {
        l0_u0 = m.stats.mean;
      }
      if (lock_count == 8 && undo_count == 0) {
        l8_u0 = m.stats.mean;
      }
      if (lock_count == 0 && undo_count == 1024) {
        l0_u1024 = m.stats.mean;
      }
    }
  }

  std::printf("\nFitted model terms (paper: 35us + 10us*L + c*G, c < 1):\n");
  PrintScalar("A (fixed abort overhead)", l0_u0, "us");
  // The per-lock and per-record terms are tens of ns and a few ns; in µs a
  // 1 ns change would be a step in the last printed digit.
  PrintScalar("B (per lock released)", (l8_u0 - l0_u0) / 8.0 * 1000.0,
              "ns/lock", 2);
  PrintScalar("undo replay (per record)", (l0_u1024 - l0_u0) / 1024.0 * 1000.0,
              "ns/record", 2);

  // Abort ~= commit claim: the paper observes abort adds little over commit.
  const Measurement commit = MeasurePath(
      "commit",
      [&] {
        Transaction* txn = kernel.txn().Begin();
        (void)kernel.txn().Commit(txn);
      },
      kIterations);
  PrintScalar("Empty begin+commit (for comparison)", commit.stats.mean, "us");
  PrintScalar("Empty begin+abort", l0_u0, "us");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace vino

int main() { return vino::bench::Main(); }
