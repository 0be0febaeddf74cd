// The tiered graft execution engine interface.
//
// An engine runs only a VerifiedProgram (src/sfi/verifier.h), so every run
// rests on the load-time verifier's proof and needs no per-access bounds
// check. Either backend can execute one:
//
//   Tier 0  (src/sfi/vm.h)          — the classic switch interpreter.
//   Tier 1  (src/sfi/threaded_vm.h) — direct-threaded dispatch over a
//                                     load-time pre-decoded op array
//                                     (computed goto).
//
// Tier selection happens exactly once, in VerifyAndCompile, which builds
// the Tier-1 artifact up to the caller's ceiling; graft points then pick
// the engine by the program's tier(), never by re-deciding policy.
//
// Both tiers stamp their per-op code out of the op table in src/sfi/isa.h,
// one body per operand shape, so they agree on every pure op by
// construction. The poll-interval clamp (RunOptions below), the
// final-register dump and the host-call probe-and-dispatch
// (src/sfi/engine_internal.h) are defined once. What each tier still
// writes for itself — memory access, fuel accounting and abort polling —
// keeps the MiSFIT masking semantics and the
// Rule-7 kCheckedCallR abort contract byte-for-byte; tests/property_test.cc
// and tools/graftfuzz hold the tiers to it differentially.

#ifndef VINOLITE_SRC_SFI_EXEC_ENGINE_H_
#define VINOLITE_SRC_SFI_EXEC_ENGINE_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

#include "src/base/status.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"

namespace vino {

class VerifiedProgram;  // src/sfi/verifier.h

enum class ExecTier : uint8_t {
  kTier0 = 0,  // Switch interpreter.
  kTier1 = 1,  // Direct-threaded pre-decoded dispatch.
};
inline constexpr size_t kExecTierCount = 2;

[[nodiscard]] std::string_view ExecTierName(ExecTier tier);

// The process-wide tier ceiling, read once from VINO_EXEC_TIER at first use
// and cached. Unset (or any value other than "0") allows Tier 1; "0" forces
// every graft onto the switch interpreter. It is VerifyAndCompile's default
// ceiling; the runtime never re-reads the environment.
[[nodiscard]] ExecTier MaxExecTier();

// Execution options. Deliberately a trivially-copyable POD: the graft
// invocation wrapper pre-builds one per graft point and reuses it for every
// invocation, so nothing here may require per-use construction (which rules
// out std::function — the abort predicate is a plain function pointer plus
// an opaque context word).
struct RunOptions {
  // Instruction budget; exhausting it returns kSfiFuelExhausted.
  uint64_t fuel = 100'000'000;

  // How often (in instructions) the abort predicate is polled.
  uint32_t poll_interval = 64;

  // The poll countdown's reload value. poll_interval == 0 means "poll as
  // often as possible", not "never": unclamped, the first decrement would
  // wrap to UINT32_MAX and silently disable cross-thread abort polling for
  // ~4B instructions.
  [[nodiscard]] uint32_t EffectivePollInterval() const {
    return poll_interval == 0 ? 1 : poll_interval;
  }

  // If set and abort_requested(abort_ctx) returns true at a poll, execution
  // stops with kTxnAborted. Wired to the invoking transaction's abort flag
  // by the graft wrapper (which needs no context and passes nullptr).
  bool (*abort_requested)(void* ctx) = nullptr;
  void* abort_ctx = nullptr;

  // If non-null, receives a copy of all kNumRegisters registers as they
  // were when execution stopped (any exit path). A test/debug hook — the
  // differential tier test asserts register-file equality through it; the
  // graft wrapper leaves it null.
  uint64_t* final_regs = nullptr;
};
static_assert(std::is_trivially_copyable_v<RunOptions>,
              "RunOptions must stay POD so graft points can pin one per "
              "point and share it across concurrent invocations");

struct RunOutcome {
  Status status = Status::kOk;
  uint64_t ret = 0;           // r0 at halt.
  uint64_t instructions = 0;  // Instructions executed.
  ExecTier tier = ExecTier::kTier0;  // Which backend actually ran.
};

// A backend that can execute a program against an image. Implementations
// must be stateless with respect to execution (Run is const and entered
// concurrently from any number of threads); all execution state lives on
// Run's stack.
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  // Executes `program` with `args` in r0..r5, confined to `image` by the
  // program's proof. `identity` is passed to every host call (the
  // installing user, §3.3).
  [[nodiscard]] virtual RunOutcome Run(const VerifiedProgram& program,
                                       MemoryImage* image,
                                       std::span<const uint64_t> args,
                                       const RunOptions& options,
                                       CallerIdentity identity) const = 0;
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_EXEC_ENGINE_H_
