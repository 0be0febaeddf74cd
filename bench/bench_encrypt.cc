// Table 6 reproduction: Encryption (Stream) Graft Overhead.
//
// "Our graft performs a trivial (xor-style) encryption of data as it is
//  copied ... Our sample graft is passed an 8KB input data buffer block and
//  an 8KB output buffer. ... it requires no synchronization overhead ...
//  but offers nearly the worst case of software fault isolation overhead,
//  because it consists almost entirely of load and store instructions."
//
// The base path is the in-kernel bcopy (memcpy) of 8 KB.

#include <cstdio>
#include <cstring>
#include <span>

#include "bench/bench_kernel.h"
#include "bench/paths.h"
#include "src/graft/function_point.h"

namespace vino {
namespace bench {
namespace {

constexpr uint64_t kBufferSize = 8 * 1024;
constexpr int kIterations = 1000;
constexpr uint64_t kKey = 0x5a5a5a5a5a5a5a5aull;

// The stream graft: xor-encrypt 8 KB, 8 bytes at a time, from the input
// area to the output area of the graft arena.
// Args: r0 = input addr, r1 = output addr, r2 = byte count.
Asm BuildEncryptGraft(const BenchKernel& kernel, bool abort_at_end) {
  Asm a(abort_at_end ? "encrypt-abort" : "encrypt");
  auto loop = a.NewLabel();
  auto done = a.NewLabel();

  a.LoadImm(R3, static_cast<int64_t>(kKey));
  a.LoadImm(R4, 0);  // index
  a.Bind(loop);
  a.BgeU(R4, R2, done);
  a.Add(R5, R0, R4);   // in + i
  a.Ld64(R6, R5);
  a.Xor(R6, R6, R3);   // encrypt
  a.Add(R5, R1, R4);   // out + i
  a.St64(R5, R6);
  a.AddI(R4, R4, 8);
  a.Jmp(loop);
  a.Bind(done);
  if (abort_at_end) {
    a.Call(kernel.abort_id());
  }
  a.LoadImm(R0, 0);
  a.Halt();
  return a;
}

int Main() {
  BenchKernel kernel;

  // Kernel-side buffers for the base/native paths.
  std::vector<uint8_t> src(kBufferSize, 0xab);
  std::vector<uint8_t> dst(kBufferSize, 0);

  FunctionGraftPoint point(
      "bench.stream",
      // Default implementation: plain bcopy, no transformation.
      [&](std::span<const uint64_t>) -> uint64_t {
        std::memcpy(dst.data(), src.data(), kBufferSize);
        return 0;
      },
      FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(), &kernel.ns());

  Asm safe_asm = BuildEncryptGraft(kernel, false);
  auto safe_graft = kernel.LoadProgram(safe_asm);
  Asm unsafe_asm = BuildEncryptGraft(kernel, false);
  auto unsafe_vm_graft = kernel.LoadUninstrumented(unsafe_asm);
  Asm abort_asm = BuildEncryptGraft(kernel, true);
  auto abort_graft = kernel.LoadProgram(abort_asm);
  Asm null_asm("null");
  null_asm.Halt();
  auto null_graft = kernel.LoadProgram(null_asm);

  auto native_graft = kernel.LoadNative(
      "encrypt-native",
      [&](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        // Compiled xor-encrypt, word at a time (the paper's unsafe path).
        const auto* in = reinterpret_cast<const uint64_t*>(src.data());
        auto* out = reinterpret_cast<uint64_t*>(dst.data());
        for (uint64_t i = 0; i < kBufferSize / 8; ++i) {
          out[i] = in[i] ^ kKey;
        }
        return 0ull;
      });

  // Arguments for program grafts: in at arena+0, out at arena+16K... the
  // arena is 64 KiB; place out at arena + 16 KiB.
  auto args_for = [&](const std::shared_ptr<Graft>& graft, uint64_t args[3]) {
    MemoryImage& arena = graft->image();
    args[0] = arena.arena_base();
    args[1] = arena.arena_base() + 16 * 1024;
    args[2] = kBufferSize;
    // Fill the input area once.
    std::vector<uint8_t> bytes(kBufferSize, 0xab);
    (void)arena.Write(args[0], bytes.data(), bytes.size());
  };

  std::vector<Measurement> rows;

  rows.push_back(MeasurePath(
      "Base path (bcopy 8KB)",
      [&] { std::memcpy(dst.data(), src.data(), kBufferSize); }, kIterations));

  rows.push_back(MeasurePath(
      "VINO path", [&] { (void)point.Invoke({}); }, kIterations));

  auto graft_row = [&](const char* label, const std::shared_ptr<Graft>& graft,
                       bool abort_row) {
    BenchKernel::Require(point.Replace(graft) == Status::kOk, label);
    uint64_t args[3] = {0, 0, 0};
    if (!graft->is_native()) {
      args_for(graft, args);
    }
    rows.push_back(MeasurePath(
        label,
        [&point, &args] { (void)point.Invoke(std::span<const uint64_t>(args, 3)); },
        kIterations,
        abort_row ? std::function<void()>([&point, graft] {
          (void)point.Replace(graft);
        })
                  : std::function<void()>()));
    BenchKernel::RequireTimedAsLabelled(point, *graft, abort_row, label);
    point.Remove();
  };

  graft_row("Null path", null_graft, false);
  graft_row("Unsafe path (interpreted)", unsafe_vm_graft, false);
  graft_row("Safe path", safe_graft, false);
  graft_row("Abort path", abort_graft, true);

  PrintPathTable("Table 6: Encryption Graft Overhead", rows);

  // Supplementary: compiled (native) xor-encrypt without SFI.
  Measurement native{{}, {}};
  {
    BenchKernel::Require(point.Replace(native_graft) == Status::kOk, "native");
    native = MeasurePath(
        "Unsafe path (native)", [&] { (void)point.Invoke({}); }, kIterations);
    point.Remove();
    PrintScalar("Unsafe path (native, compiled — supplementary)",
                native.stats.mean, "us");
  }

  // The headline claims of §4.4.
  const double unsafe_interp = rows[3].stats.mean;
  const double safe = rows[4].stats.mean;
  const double base = rows[0].stats.mean;
  std::printf("\nShape checks (paper: MiSFIT >100%% on this graft; encrypt ~3.4x "
              "bcopy; safe ~5.2x bcopy):\n");
  if (unsafe_interp > 0) {
    PrintScalar("MiSFIT overhead on graft function",
                100.0 * (safe - unsafe_interp) / unsafe_interp, "%");
  }
  if (base > 0) {
    PrintScalar("Unsafe(native) / bcopy ratio", native.stats.mean / base, "x");
    PrintScalar("Safe(interpreted) / bcopy ratio", safe / base, "x");
    PrintScalar("Safe / unsafe(interpreted) ratio", safe / unsafe_interp, "x");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace vino

int main() { return vino::bench::Main(); }
