// The survive-and-eject fuzz harness (tools/graftfuzz's engine).
//
// The paper's core claim is not that well-formed grafts behave — it is that
// the kernel *survives* misbehaved ones. RunFuzz() holds a live VinoKernel
// to that claim under generated hostility: every iteration draws a program
// from one of three classes —
//
//   valid   — RandomProgram → MiSFIT → sign → load; must be ACCEPTED, run
//             on both execution tiers with identical outcomes, and (when it
//             aborts) be forcibly ejected with the point still serving;
//   forged  — RandomForgedProgram hand-marked "instrumented" and signed by
//             a compromised-toolchain HMAC; the load-time verifier decides.
//             Accepted forgeries are invoked with a canary covering the
//             image's kernel region — a flipped canary byte is a sandbox
//             escape, the one unforgivable anomaly;
//   soup    — raw bytes or bit-flipped mutations of real containers fed to
//             DeserializeSignedGraft/Load; must be rejected, never crash.
//
// — and drives it through the full load → verify → install → invoke →
// abort/eject lifecycle, with the survival invariants of
// tests/serve_survival_test.cc enforced as hard assertions after every run:
//
//   * the kernel still serves (the sentinel function point answers),
//   * hostile programs were rejected at load or ejected at first abort,
//   * no event dispatched to the event point was lost,
//   * transactions balance (begins == commits + aborts),
//   * the harness's lock manager drained (no holders, no ghost waiters),
//   * the trace spool is lossless (writer ok, zero lost records, gap-free
//     batch sequence) and replayable.
//
// Every run is deterministic from its seed. Any anomaly emits a
// self-contained reproducer bundle — program bytes, disassembly, seed, and
// the replayed spool tail — and Triage() attributes it to a subsystem
// (verifier / tier backend / txn / lockmgr / spool) from the trace tags in
// the replayed spool. FaultInjection deliberately re-introduces two fixed
// seed bugs (the PR-9 lockmgr ghost waiter, the PR-6 verifier mask-write
// hole) so tests can prove the harness catches and attributes real
// regressions, not just that it stays green.

#ifndef VINOLITE_SRC_FUZZ_FUZZ_HARNESS_H_
#define VINOLITE_SRC_FUZZ_FUZZ_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/trace.h"

namespace vino {
namespace fuzz {

// Where an anomaly is attributed. Order matters only for display.
enum class Subsystem {
  kUnknown = 0,
  kVerifier,     // Load-time verifier / sandbox proof.
  kTierBackend,  // Tier-0 vs Tier-1 execution divergence.
  kTxn,          // Transaction begin/commit/abort imbalance.
  kLockMgr,      // Lock manager (ghost waiters, undrained locks).
  kSpool,        // Trace spool loss or corruption.
};
[[nodiscard]] const char* SubsystemName(Subsystem s);

enum class AnomalyKind {
  kKernelCorruption = 0,  // A graft wrote outside its arena (canary broke).
  kTierDivergence,        // Tier 0 and Tier 1 disagreed on an accepted program.
  kMissedEjection,        // An aborting graft was not forcibly removed.
  kValidRejected,         // Real toolchain output refused by the loader.
  kTxnImbalance,          // begins != commits + aborts at quiesce.
  kLockNotDrained,        // Locks still held / waiters queued at quiesce.
  kLostEvents,            // Event point stats disagree with dispatch count.
  kSpoolLoss,             // Spool lost records, gapped, or failed to replay.
  kServingFailure,        // The sentinel point stopped answering.
};
[[nodiscard]] const char* AnomalyKindName(AnomalyKind k);

struct Anomaly {
  AnomalyKind kind = AnomalyKind::kKernelCorruption;
  Subsystem subsystem = Subsystem::kUnknown;
  uint64_t seed = 0;
  int program_index = -1;  // -1: end-of-run invariant, not one program.
  std::string detail;
  std::string bundle_dir;  // Reproducer bundle, "" if none written.
};

// What Triage() consumes: the anomaly class plus the identifying ids the
// harness observed, matched against the replayed spool records.
struct TriageInput {
  AnomalyKind kind = AnomalyKind::kKernelCorruption;
  uint64_t graft_trace_id = 0;  // Nonzero: the offending graft.
  uint64_t lock_resource = 0;   // Nonzero: the undrained resource.
  bool ran_tier1 = false;
  bool tier0_agrees = false;
};

// Attributes an anomaly to a subsystem from the replayed spool tail. Rules
// (DESIGN.md "Adversarial testing"):
//   * kKernelCorruption / kValidRejected → kVerifier (the load-time proof
//     is the only thing standing between an accepted program and kernel
//     memory; kGraftRejected records confirm the verifier was the decider);
//   * kTierDivergence → kTierBackend;
//   * kMissedEjection → kTierBackend if the tiers disagreed, else the
//     ejection machinery's txn layer (no kGraftEjected record for the
//     graft's trace id confirms the eject never posted);
//   * kTxnImbalance → kTxn (read from TxnManager::stats(); no record
//     marks a transaction's begin, and a kInvokeEnd stands for one ended
//     transaction);
//   * kLockNotDrained → kLockMgr when the replay shows a kLockContend or
//     kLockAcquire record for the leaked resource id, else kUnknown;
//   * kLostEvents → kTxn (handlers are counted at txn boundaries);
//   * kSpoolLoss / replay failure → kSpool;
//   * kServingFailure → kUnknown (the bundle is the lead, not the tag).
[[nodiscard]] Subsystem Triage(const TriageInput& input,
                               const std::vector<trace::TaggedRecord>& replay);

// Deliberate re-introduction of known seed bugs, for harness demonstration
// tests: each injection must produce exactly one anomaly triaged to its
// subsystem.
struct FaultInjection {
  // PR-9 seed bug: a timed-out lock waiter walks away without CancelWait,
  // stranding a ghost entry the release path later promotes.
  bool lockmgr_ghost_waiter = false;
  // PR-6 seed bug: a forged program that overwrites the sandbox mask/base
  // registers is installed with a claimed verifier proof (loader bypass),
  // so the fast path executes it without bounds checks.
  bool verifier_mask_write_hole = false;
};

struct FuzzOptions {
  uint64_t seed = 1;
  int programs = 200;
  // Spool file for the kernel's drainer; "" disables spool invariants
  // (and spool-tail replay in bundles).
  std::string spool_path;
  // Where reproducer bundles are written; "" disables bundles.
  std::string artifacts_dir;
  FaultInjection inject;
};

struct FuzzReport {
  int programs = 0;       // Generated programs driven through the lifecycle.
  int valid_accepted = 0; // Toolchain-built programs the loader accepted.
  int valid_aborted = 0;  // ...whose invocation aborted (and was ejected).
  int forged_accepted = 0;
  int forged_rejected = 0;
  int soup_rejected = 0;
  int tier1_checked = 0;  // Accepted programs differentially cross-checked.
  uint64_t invocations = 0;
  uint64_t events_dispatched = 0;
  uint64_t spool_records = 0;  // Replayed from the spool at the end.
  std::vector<Anomaly> anomalies;

  [[nodiscard]] bool ok() const { return anomalies.empty(); }
};

// Runs one deterministic fuzz campaign. Never throws; every anomaly —
// including the injected ones — lands in the report.
[[nodiscard]] FuzzReport RunFuzz(const FuzzOptions& options);

// Renders a report as the human summary graftfuzz prints.
[[nodiscard]] std::string RenderReport(const FuzzReport& report);

}  // namespace fuzz
}  // namespace vino

#endif  // VINOLITE_SRC_FUZZ_FUZZ_HARNESS_H_
