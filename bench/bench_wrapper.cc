// Ablation: where does the graft wrapper's fixed overhead go?
//
// DESIGN.md calls out the wrapper's cost components; this bench prices each
// in isolation with google-benchmark:
//   * the graft-point indirection (atomic graft load + stats),
//   * the transaction begin/commit pair,
//   * the resource-account swap,
//   * the result validator,
//   * the watchdog arm/disarm, on one thread and on two sharing a kernel,
//   * the VM entry/exit for a minimal program,
//   * a spinner run to its fuel budget and ejected, on each tier,
//   * poll_interval sensitivity (abort-latency vs throughput knob),
//   * the namespace's by-name visit, a by-name sweep over a thousand
//     tenants' points, and the loader's cost with and without a live
//     artifact of the same code.
// Every program graft is built through VerifyAndCompile, so it runs on the
// tier the loader picks unless the row pins one.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/gbench_main.h"
#include "src/base/log.h"
#include "src/graft/function_point.h"
#include "src/graft/loader.h"
#include "src/graft/namespace.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/sfi/signing.h"
#include "src/sfi/verifier.h"
#include "src/txn/watchdog.h"

namespace vino {
namespace {

constexpr GraftIdentity kRoot{0, true};

struct Fixture {
  Fixture() {
    Logger::Instance().SetMinLevel(LogLevel::kError);
  }
  TxnManager txn;
  HostCallTable host;
};

// Instruments `a` and makes its graft through VerifyAndCompile, so it runs
// on the tier the loader picks unless `ceiling` pins one. Null when the
// program does not reach the ceiling's tier.
std::shared_ptr<Graft> ProgramGraft(Asm& a, const HostCallTable& host,
                                    ExecTier ceiling = MaxExecTier()) {
  const Result<VerifiedProgram> p =
      VerifyAndCompile(*Instrument(*a.Finish()), host, ceiling);
  if (!p.ok() || p->tier() != ceiling) {
    return nullptr;
  }
  return std::make_shared<Graft>(p->program().name, *p, kRoot, 4096);
}

std::shared_ptr<Graft> NullProgramGraft(const HostCallTable& host) {
  Asm a("null");
  a.Halt();
  return ProgramGraft(a, host);
}

std::shared_ptr<Graft> NullNativeGraft() {
  return std::make_shared<Graft>(
      "null-native",
      [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        return 0ull;
      },
      kRoot);
}

// Baseline: ungrafted point (the VINO path: indirection only).
void BM_WrapperUngrafted(benchmark::State& state) {
  Fixture f;
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &f.txn, &f.host, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperUngrafted);

// + transaction + account swap + native call.
void BM_WrapperNativeNull(benchmark::State& state) {
  Fixture f;
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &f.txn, &f.host, nullptr);
  (void)point.Replace(NullNativeGraft());
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperNativeNull);

// + VM entry/exit instead of a native call.
void BM_WrapperVmNull(benchmark::State& state) {
  Fixture f;
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &f.txn, &f.host, nullptr);
  (void)point.Replace(NullProgramGraft(f.host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperVmNull);

// + result validator.
void BM_WrapperVmNullWithValidator(benchmark::State& state) {
  Fixture f;
  FunctionGraftPoint::Config config;
  config.validator = [](uint64_t result, std::span<const uint64_t>) {
    return result < 100;
  };
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &f.txn, &f.host, nullptr);
  (void)point.Replace(NullProgramGraft(f.host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperVmNullWithValidator);

// + watchdog arm/disarm per invocation.
void BM_WrapperVmNullWithWatchdog(benchmark::State& state) {
  Fixture f;
  Watchdog dog(10'000);
  FunctionGraftPoint::Config config;
  config.watchdog = &dog;
  config.wall_budget = 1'000'000;  // Never fires.
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &f.txn, &f.host, nullptr);
  (void)point.Replace(NullProgramGraft(f.host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperVmNullWithWatchdog);

// The ledger's shape: two client threads, each invoking its own point, on
// one kernel's TxnManager and, when `armed`, its one watchdog. The pair of
// rows prices what one thread's arm/disarm costs the other.
void RunSharedKernel(benchmark::State& state, bool armed) {
  // Built once for both threads: each thread's set-up runs before the
  // loop's start barrier, concurrently with the other's.
  static Fixture shared;
  FunctionGraftPoint::Config config;
  if (armed) {
    static Watchdog dog(10'000);
    config.watchdog = &dog;
    config.wall_budget = 1'000'000;  // Never fires.
  }
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &shared.txn, &shared.host, nullptr);
  (void)point.Replace(NullProgramGraft(shared.host));
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}

void BM_WrapperVmNullSharedKernel(benchmark::State& state) {
  RunSharedKernel(state, /*armed=*/false);
}
BENCHMARK(BM_WrapperVmNullSharedKernel)->Threads(2);

void BM_WrapperVmNullWithWatchdogSharedKernel(benchmark::State& state) {
  RunSharedKernel(state, /*armed=*/true);
}
BENCHMARK(BM_WrapperVmNullWithWatchdogSharedKernel)->Threads(2);

// Abort instead of commit (includes forcible removal + reinstall).
void BM_WrapperVmAbort(benchmark::State& state) {
  Fixture f;
  const uint32_t abort_id = f.host.Register(
      "t.abort",
      [](HostCallContext&) -> Result<uint64_t> { return Status::kTxnAborted; },
      true);
  Asm a("aborter");
  a.Call(abort_id).Halt();
  auto graft = ProgramGraft(a, f.host);
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &f.txn, &f.host, nullptr);
  for (auto _ : state) {
    (void)point.Replace(graft);
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperVmAbort);

// A hostile tenant's spinner: `forever: jmp forever` on a point with a
// 20,000-instruction fuel budget and no wall budget, so every invocation
// runs the budget dry and ejects the graft. Times the reinstall plus the
// ejecting Invoke on each tier; ns/ins spreads that over the budget, so
// it is the engine's cost per dispatched jump plus the abort's share.
void BM_WrapperVmSpinToFuel(benchmark::State& state) {
  constexpr uint64_t kSpinFuel = 20'000;
  Fixture f;
  FunctionGraftPoint::Config config;
  config.fuel = kSpinFuel;
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &f.txn, &f.host, nullptr);
  Asm a("spinner");
  auto forever = a.NewLabel();
  a.Bind(forever);
  a.Jmp(forever);
  auto graft = ProgramGraft(a, f.host, static_cast<ExecTier>(state.range(0)));
  if (graft == nullptr) {
    state.SkipWithError("bench graft failed to build");
    return;
  }
  for (auto _ : state) {
    (void)point.Replace(graft);
    benchmark::DoNotOptimize(point.Invoke({}));
  }
  state.counters["ns/ins"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kSpinFuel,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_WrapperVmSpinToFuel)->ArgName("tier")->Arg(0)->Arg(1);

// Execution-tier ablation through the full wrapper: the same small
// (~24-op) compute+memory graft as interpreted Tier 0, direct-threaded
// Tier 1, and equivalent native code. The native number is the floor the
// tiers chase; Tier 1 recovers the dispatch share of the gap while keeping
// the sandbox.
std::shared_ptr<Graft> SmallProgramGraft(const HostCallTable& host,
                                         ExecTier tier) {
  Asm a("small");
  a.LoadImm(R1, 0);
  a.LoadImm(R2, 1);
  for (int i = 0; i < 8; ++i) {
    a.Add(R3, R3, R2);
    a.St64(R1, R3, i * 8);
    a.Ld64(R4, R1, i * 8);
  }
  a.Mov(R0, R4);
  a.Halt();
  return ProgramGraft(a, host, tier);
}

void BM_WrapperTierSmall(benchmark::State& state) {
  Fixture f;
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &f.txn, &f.host, nullptr);
  auto graft =
      SmallProgramGraft(f.host, static_cast<ExecTier>(state.range(0)));
  if (graft == nullptr) {
    state.SkipWithError("bench graft failed to build");
    return;
  }
  (void)point.Replace(std::move(graft));
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperTierSmall)->ArgName("tier")->Arg(0)->Arg(1);

void BM_WrapperNativeSmall(benchmark::State& state) {
  // The native floor for the tier ablation: the same arithmetic and
  // stores, as host C++ against the graft arena.
  Fixture f;
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &f.txn, &f.host, nullptr);
  auto graft = std::make_shared<Graft>(
      "small-native",
      [](std::span<const uint64_t>, MemoryImage* image) -> Result<uint64_t> {
        uint64_t acc = 0;
        uint64_t last = 0;
        for (int i = 0; i < 8; ++i) {
          acc += 1;
          (void)image->Write(image->arena_base() + i * 8, &acc, sizeof(acc));
          (void)image->Read(image->arena_base() + i * 8, &last, sizeof(last));
        }
        return last;
      },
      kRoot);
  (void)point.Replace(std::move(graft));
  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_WrapperNativeSmall);

// poll_interval sensitivity: a 4096-instruction compute loop at different
// abort-poll cadences, on each tier. Finer polling = faster aborts, more
// poll overhead.
void BM_PollIntervalSweep(benchmark::State& state) {
  Fixture f;
  FunctionGraftPoint::Config config;
  config.poll_interval = static_cast<uint32_t>(state.range(0));
  const auto tier = static_cast<ExecTier>(state.range(1));
  FunctionGraftPoint point(
      "p", [](std::span<const uint64_t>) -> uint64_t { return 0; }, config,
      &f.txn, &f.host, nullptr);

  Asm a("loop4k");
  auto top = a.NewLabel();
  a.LoadImm(R1, 2048);
  a.LoadImm(R2, 0);
  a.Bind(top);
  a.AddI(R1, R1, -1);
  a.Bne(R1, R2, top);
  a.Halt();
  auto graft = ProgramGraft(a, f.host, tier);
  if (graft == nullptr) {
    state.SkipWithError("bench graft failed to build");
    return;
  }
  (void)point.Replace(std::move(graft));

  for (auto _ : state) {
    benchmark::DoNotOptimize(point.Invoke({}));
  }
}
BENCHMARK(BM_PollIntervalSweep)
    ->ArgNames({"interval", "tier"})
    ->ArgsProduct({{1, 8, 64, 1024}, {0, 1}});

// Names shaped like the ledger's ("serve.<tenant>.<family>"), and a fixed
// pseudo-random visiting order over them.
std::vector<std::string> LedgerNames(size_t count) {
  static constexpr const char* kFamilies[] = {"readahead", "evict", "encrypt",
                                              "sched"};
  std::vector<std::string> names;
  for (size_t i = 0; i < count; ++i) {
    names.push_back("serve." + std::to_string(i / 4) + "." + kFamilies[i % 4]);
  }
  return names;
}

std::vector<uint32_t> VisitOrder(size_t count) {
  std::vector<uint32_t> order(4096);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t& i : order) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    i = static_cast<uint32_t>(x % count);
  }
  return order;
}

// One by-name lookup and an empty visit: the namespace's share of every
// by-name invocation, at a small namespace and at a thousands-of-tenants
// one whose slots no longer fit in L1.
void BM_NamespaceVisit(benchmark::State& state) {
  Fixture f;
  GraftNamespace ns;
  const auto count = static_cast<size_t>(state.range(0));
  const std::vector<std::string> names = LedgerNames(count);
  std::vector<std::unique_ptr<FunctionGraftPoint>> points;
  for (const std::string& name : names) {
    points.push_back(std::make_unique<FunctionGraftPoint>(
        name, [](std::span<const uint64_t>) -> uint64_t { return 0; },
        FunctionGraftPoint::Config{}, &f.txn, &f.host, &ns));
  }
  const std::vector<uint32_t> order = VisitOrder(count);
  size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ns.WithFunction(
        names[order[k++ & (order.size() - 1)]],
        [](FunctionGraftPoint&) { return Status::kOk; }));
  }
}
BENCHMARK(BM_NamespaceVisit)->ArgName("names")->Arg(64)->Arg(8192);

// A short loop (16 iterations) for the tenant sweep.
Program ShortLoop() {
  Asm a("short-loop");
  auto top = a.NewLabel();
  a.LoadImm(R1, 16);
  a.LoadImm(R2, 0);
  a.Bind(top);
  a.AddI(R1, R1, -1);
  a.Bne(R1, R2, top);
  a.Mov(R0, R1);
  a.Halt();
  return *Instrument(*a.Finish());
}

// A thousand tenants, each with its own point and its own loaded copy of
// one short looping program, invoked round-robin by name: the ledger's
// request path without the lock manager and the net stack, where each
// request finds a different point and graft than the one before.
void BM_WrapperTenantSweep(benchmark::State& state) {
  Fixture f;
  GraftNamespace ns;
  const auto count = static_cast<size_t>(state.range(0));
  const std::vector<std::string> names = LedgerNames(count);
  std::vector<std::unique_ptr<FunctionGraftPoint>> points;
  const Program program = ShortLoop();
  for (const std::string& name : names) {
    points.push_back(std::make_unique<FunctionGraftPoint>(
        name, [](std::span<const uint64_t>) -> uint64_t { return 0; },
        FunctionGraftPoint::Config{}, &f.txn, &f.host, &ns));
    const Result<VerifiedProgram> verified =
        VerifyAndCompile(program, f.host, MaxExecTier());
    if (!verified.ok() ||
        !IsOk(points.back()->Replace(
            std::make_shared<Graft>(name, *verified, kRoot, 4096)))) {
      state.SkipWithError("bench graft failed to build");
      return;
    }
  }
  size_t k = 0;
  for (auto _ : state) {
    const std::string& name = names[k];
    k = k + 1 == count ? 0 : k + 1;
    benchmark::DoNotOptimize(
        ns.WithFunction(name, [](FunctionGraftPoint& point) {
          benchmark::DoNotOptimize(point.Invoke({}));
          return Status::kOk;
        }));
  }
}
BENCHMARK(BM_WrapperTenantSweep)->ArgName("tenants")->Arg(1000);

// GraftLoader::Load of signed programs: with repeat:1 each repeats the
// code of a graft that stays live, so its artifact is shared; with repeat:0
// each differs from the others in one immediate and none is live, so every
// load compiles one — the path that shares nothing.
void BM_LoaderLoad(benchmark::State& state) {
  Fixture f;
  GraftNamespace ns;
  const SigningAuthority authority("bench-key");
  GraftLoader loader(&ns, &f.host, authority);
  const bool repeat = state.range(0) != 0;
  std::vector<SignedGraft> grafts;
  for (int i = 0; i < 256; ++i) {
    Asm a("tenant." + std::to_string(i));
    a.LoadImm(R1, 0);
    a.LoadImm(R2, repeat ? 1 : 1 + i);
    for (int j = 0; j < 8; ++j) {
      a.Add(R3, R3, R2);
      a.St64(R1, R3, j * 8);
      a.Ld64(R4, R1, j * 8);
    }
    a.Mov(R0, R4);
    a.Halt();
    grafts.push_back(*authority.Sign(*Instrument(*a.Finish())));
  }
  const Result<std::shared_ptr<Graft>> live =
      loader.Load(grafts[0], {kRoot, nullptr});
  if (!live.ok()) {
    state.SkipWithError("bench graft failed to load");
    return;
  }
  size_t k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(loader.Load(grafts[k], {kRoot, nullptr}));
    k = k + 1 == grafts.size() ? 1 : k + 1;
  }
}
BENCHMARK(BM_LoaderLoad)->ArgName("repeat")->Arg(0)->Arg(1);

}  // namespace
}  // namespace vino

int main(int argc, char** argv) { return vino::RunGbenchMain(argc, argv); }
