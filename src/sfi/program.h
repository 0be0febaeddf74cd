// Graft programs: a sequence of vISA instructions plus linking metadata.

#ifndef VINOLITE_SRC_SFI_PROGRAM_H_
#define VINOLITE_SRC_SFI_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/sfi/isa.h"

namespace vino {

// A graft program. Produced by an assembler, transformed by the MiSFIT
// instrumenter; no field of it claims safety, so it runs only once
// VerifyAndCompile makes it a VerifiedProgram (src/sfi/verifier.h).
struct Program {
  std::string name;
  std::vector<Instruction> code;

  // True once the MiSFIT pass has run. The loader refuses uninstrumented
  // programs (paper §2.1: "the kernel must determine whether a graft has
  // been processed ... by such a tool"); the *benchmarks* execute
  // uninstrumented copies directly to measure the unsafe path.
  bool instrumented = false;

  // log2 of the sandbox size the program was instrumented for. The sandbox
  // mask baked into the prologue only confines addresses if the runtime
  // region matches, so the loader checks this against the graft's arena.
  uint32_t sandbox_log2 = 0;

  // Host-function ids named by direct kCall instructions, collected during
  // assembly. The dynamic linker checks each against the graft-callable
  // list before loading (paper §3.3: direct calls are checked at link time).
  std::vector<uint32_t> direct_call_ids;
};

// Structural validation, run by the instrumenter and again by the loader:
//  * every opcode is defined (and instrumentation-only opcodes appear only
//    in instrumented programs),
//  * all register indices are in range,
//  * all branch targets land inside the program,
//  * the program is non-empty and ends in a reachable kHalt (structurally:
//    the last instruction is kHalt or kJmp).
[[nodiscard]] Status VerifyProgram(const Program& program);

// Deterministic byte serialization; the unit the code-signing scheme signs.
[[nodiscard]] std::vector<uint8_t> EncodeProgram(const Program& program);

// Inverse of EncodeProgram. Fails with kBadGraft on malformed input.
[[nodiscard]] Result<Program> DecodeProgram(const std::vector<uint8_t>& bytes);

// Counts instructions by class; used by tests and the SFI overhead report.
struct ProgramProfile {
  size_t total = 0;
  size_t loads = 0;
  size_t stores = 0;
  size_t direct_calls = 0;
  size_t indirect_calls = 0;
  size_t sandbox_ops = 0;  // Instrumentation-inserted address ops.
};
[[nodiscard]] ProgramProfile ProfileProgram(const Program& program);

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_PROGRAM_H_
