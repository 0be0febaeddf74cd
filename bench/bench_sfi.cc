// §3.3 claims, as google-benchmark micros:
//  * "The cost of this protection is two to five cycles per load or store"
//    -> per-access cost delta between instrumented and raw programs.
//  * "our average cost is ten to fifteen cycles per indirect function call"
//    -> callable hash-table probe cost.
//  * code-signing cost (SHA-256 / HMAC) at load time.

#include <benchmark/benchmark.h>

#include "bench/gbench_main.h"
#include "src/base/sha256.h"
#include "src/sfi/assembler.h"
#include "src/sfi/callable_table.h"
#include "src/sfi/host.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/signing.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

constexpr int kOps = 256;

Program LoadStoreProgram(bool instrumented, bool elide = false) {
  Asm a("dense");
  a.LoadImm(R1, 0);
  for (int i = 0; i < kOps; ++i) {
    a.Ld64(R2, R1, i * 8);
    a.St64(R1, R2, i * 8 + 4096);
  }
  a.Halt();
  Result<Program> p = a.Finish();
  if (!instrumented) {
    return *p;
  }
  MisfitOptions options{16};
  options.elide_redundant_masks = elide;
  return *Instrument(*p, options);
}

Program AluProgram() {
  Asm a("alu");
  a.LoadImm(R1, 1);
  for (int i = 0; i < kOps * 2; ++i) {
    a.Add(R2, R2, R1);
  }
  a.Halt();
  return *a.Finish();
}

void BM_VmAluOp(benchmark::State& state) {
  HostCallTable host;
  MemoryImage image(4096, 16);
  Vm vm(&host);
  const Program p = AluProgram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.RunUnverified(p, &image, {}, RunOptions{}));
  }
  state.counters["ns/op"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kOps * 2,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_VmAluOp);

void BM_VmLoadStoreRaw(benchmark::State& state) {
  HostCallTable host;
  MemoryImage image(65536, 16);  // Big kernel region: raw offsets stay valid.
  Vm vm(&host);
  const Program p = LoadStoreProgram(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.RunUnverified(p, &image, {}, RunOptions{}));
  }
}
BENCHMARK(BM_VmLoadStoreRaw);

void BM_VmLoadStoreInstrumented(benchmark::State& state) {
  // The delta vs. BM_VmLoadStoreRaw, divided by 2*kOps accesses, is the
  // per-access MiSFIT cost (the paper's 2-5 cycles). Elision off: this is
  // the paper's one-sandbox-per-access cost model, kept stable for
  // cross-revision comparison.
  HostCallTable host;
  MemoryImage image(65536, 16);
  Vm vm(&host);
  const Program p = LoadStoreProgram(true, /*elide=*/false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.RunUnverified(p, &image, {}, RunOptions{}));
  }
}
BENCHMARK(BM_VmLoadStoreInstrumented);

void BM_VmLoadStoreElided(benchmark::State& state) {
  // Verifier-backed mask elision: the same dense run keeps one kSandboxAddr
  // for all 2*kOps accesses instead of one each, but still pays the Vm's
  // per-access InBounds branch.
  HostCallTable host;
  MemoryImage image(65536, 16);
  Vm vm(&host);
  const Program p = LoadStoreProgram(true, /*elide=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.RunUnverified(p, &image, {}, RunOptions{}));
  }
}
BENCHMARK(BM_VmLoadStoreElided);

void BM_VmLoadStoreVerified(benchmark::State& state) {
  // The full payoff: elided masks plus the verified fast path, which
  // deletes the per-access InBounds branch the load-time proof made
  // redundant. Delta vs. BM_VmLoadStoreInstrumented is the recovered
  // per-access overhead.
  HostCallTable host;
  MemoryImage image(65536, 16);
  Vm vm(&host);
  const Result<VerifiedProgram> p = VerifyAndCompile(
      LoadStoreProgram(true, /*elide=*/true), host, ExecTier::kTier0);
  if (!p.ok()) {
    state.SkipWithError("bench program failed verification");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.Run(*p, &image, {}, RunOptions{}));
  }
}
BENCHMARK(BM_VmLoadStoreVerified);

// Execution-tier sweep over load/store density: kOps work instructions, of
// which range(0) percent are memory accesses (Ld64/St64 pairs sandboxed by
// MiSFIT, masks elided, program verified), run on tier range(1). The Tier-1
// direct-threaded engine's win grows with memory-op density because each
// access drops the interpreter's operand re-decode plus the shared-switch
// misprediction; the PR acceptance gate reads the 50%-density pair.
Program DensityProgram(int density_pct) {
  Asm a("density");
  a.LoadImm(R1, 0);
  a.LoadImm(R2, 1);
  int emitted_mem = 0;
  for (int i = 0; i < kOps; ++i) {
    // Emit a memory op when running behind the requested density.
    if (emitted_mem * 100 < density_pct * (i + 1)) {
      if (i % 2 == 0) {
        a.Ld64(R3, R1, (i % 64) * 8);
      } else {
        a.St64(R1, R3, (i % 64) * 8 + 4096);
      }
      ++emitted_mem;
    } else if (i % 3 == 0) {
      a.Add(R4, R4, R2);
    } else if (i % 3 == 1) {
      a.Xor(R5, R5, R4);
    } else {
      a.ShrI(R6, R5, 1);
    }
  }
  a.Halt();
  MisfitOptions options{16};
  options.elide_redundant_masks = true;
  return *Instrument(*a.Finish(), options);
}

void BM_TierDensity(benchmark::State& state) {
  const int density = static_cast<int>(state.range(0));
  const int tier = static_cast<int>(state.range(1));
  HostCallTable host;
  MemoryImage image(65536, 16);
  const Result<VerifiedProgram> p = VerifyAndCompile(
      DensityProgram(density), host, static_cast<ExecTier>(tier));
  if (!p.ok()) {
    state.SkipWithError("bench program failed verification");
    return;
  }
  if (tier == 1) {
    if (p->tier() != ExecTier::kTier1) {
      state.SkipWithError("tier-1 compile unavailable");
      return;
    }
    const ThreadedVm tvm(&host);
    for (auto _ : state) {
      benchmark::DoNotOptimize(tvm.Run(*p, &image, {}, RunOptions{}));
    }
  } else {
    const Vm vm(&host);
    for (auto _ : state) {
      benchmark::DoNotOptimize(vm.Run(*p, &image, {}, RunOptions{}));
    }
  }
  state.counters["ns/ins"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kOps,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TierDensity)
    ->ArgNames({"memops_pct", "tier"})
    ->ArgsProduct({{0, 25, 50}, {0, 1}});

void BM_VerifySandbox(benchmark::State& state) {
  // Load-time cost of the proof itself (a one-time charge per load,
  // amortized over every run of the graft).
  const Program p = LoadStoreProgram(true, /*elide=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifySandbox(p));
  }
  state.counters["ins"] = static_cast<double>(p.code.size());
}
BENCHMARK(BM_VerifySandbox);

void BM_CallableTableProbeHit(benchmark::State& state) {
  CallableTable table;
  for (uint64_t i = 1; i <= 64; ++i) {
    table.Insert(i * 977);
  }
  uint64_t key = 977;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Contains(key));
    key = (key % (64 * 977)) + 977;
  }
}
BENCHMARK(BM_CallableTableProbeHit);

void BM_CallableTableProbeMiss(benchmark::State& state) {
  CallableTable table;
  for (uint64_t i = 1; i <= 64; ++i) {
    table.Insert(i * 977);
  }
  uint64_t key = 13;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Contains(key));
    key += 2;  // Odd keys: never multiples of 977*? (mostly misses).
  }
}
BENCHMARK(BM_CallableTableProbeMiss);

void BM_IndirectCallChecked(benchmark::State& state) {
  // Full checked indirect host call from inside the VM.
  HostCallTable host;
  const uint32_t id = host.Register(
      "k.noop", [](HostCallContext&) -> Result<uint64_t> { return 0ull; }, true);
  MemoryImage image(4096, 16);
  Vm vm(&host);
  Asm a("ccall");
  a.LoadImm(R1, id);
  for (int i = 0; i < 64; ++i) {
    a.CallR(R1);
  }
  a.Halt();
  const Program p = *Instrument(*a.Finish(), MisfitOptions{16});
  for (auto _ : state) {
    benchmark::DoNotOptimize(vm.RunUnverified(p, &image, {}, RunOptions{}));
  }
}
BENCHMARK(BM_IndirectCallChecked);

void BM_MisfitInstrumentation(benchmark::State& state) {
  // Tool-side cost: rewriting a 512-instruction program.
  const Program p = LoadStoreProgram(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Instrument(p, MisfitOptions{16}));
  }
}
BENCHMARK(BM_MisfitInstrumentation);

void BM_Sha256_8K(benchmark::State& state) {
  std::vector<uint8_t> data(8192, 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 8192);
}
BENCHMARK(BM_Sha256_8K);

void BM_SignAndVerify(benchmark::State& state) {
  SigningAuthority authority("bench-key");
  Program p = *Instrument(LoadStoreProgram(false), MisfitOptions{16});
  for (auto _ : state) {
    Result<SignedGraft> sg = authority.Sign(p);
    benchmark::DoNotOptimize(authority.Verify(*sg));
  }
}
BENCHMARK(BM_SignAndVerify);

}  // namespace
}  // namespace vino

int main(int argc, char** argv) { return vino::RunGbenchMain(argc, argv); }
