// Tier 0 of the graft execution engine: an interpreter for vISA programs.
//
// Instrumented programs run with the sandbox mask/base registers initialized
// from the memory image's graft arena; their memory accesses cannot leave the
// arena. A VerifiedProgram carries the load-time proof of that, so Run
// executes it with no per-access bounds check.
//
// Preemption (Table 1, Rule 1): the interpreter charges one unit of fuel per
// instruction and polls an abort predicate at a fixed cadence, so an
// infinitely looping graft is bounded and an asynchronous transaction abort
// (e.g. a lock time-out fired by another thread) takes effect promptly.
//
// RunUnverified, the other entry, runs a raw Program with every access
// bounds-checked. No graft reaches it: tests use it as the reference a
// verified run must match, and to show the disaster — an uninstrumented
// program (the paper's "unsafe path") reaches the whole image, kernel
// memory included. RunOptions/RunOutcome and the engine interface live in
// src/sfi/exec_engine.h.
//
// Under GCC, vm.cc is compiled with -falign-functions=64. Without it, Run
// and its dispatch loop started wherever the preceding objects left off,
// and an edit elsewhere in the library moved the interpreter's rows by
// 20-30 % with vm.cc unchanged; stage 2 of tools/check.sh fails a build
// whose linked Run is off a 64-byte boundary.

#ifndef VINOLITE_SRC_SFI_VM_H_
#define VINOLITE_SRC_SFI_VM_H_

#include <cstdint>
#include <span>

#include "src/base/status.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/program.h"
#include "src/sfi/verifier.h"

namespace vino {

// The interpreter itself is stateless: all execution state (registers, pc,
// fuel) lives on Run's stack, and Run is const. A Vm can therefore be
// pinned once per graft point and entered concurrently from any number of
// threads — the per-invocation construction the wrapper used to pay is gone.
class Vm final : public ExecutionEngine {
 public:
  explicit Vm(const HostCallTable* host) : host_(host) {}

  // Executes `program` with `args` in r0..r5. The program's proof confines
  // every access, so none is bounds-checked. `identity` is passed to every
  // host call (the installing user, §3.3).
  RunOutcome Run(const VerifiedProgram& program, MemoryImage* image,
                 std::span<const uint64_t> args, const RunOptions& options,
                 CallerIdentity identity = {}) const override;

  // Executes a raw, unverified `program` with a bounds check on every
  // access: an access outside `image` stops the run with kSfiTrap, and a
  // malformed program gets kSfiBadOpcode / kBadGraft rather than UB.
  RunOutcome RunUnverified(const Program& program, MemoryImage* image,
                           std::span<const uint64_t> args,
                           const RunOptions& options,
                           CallerIdentity identity = {}) const;

 private:
  const HostCallTable* host_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_VM_H_
