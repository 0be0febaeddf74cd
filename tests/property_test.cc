// Property-based and parameterized sweeps over the core invariants:
//
//  P1. Sandbox confinement: no instrumented program, including randomly
//      generated ones, ever writes a byte outside its arena.
//  P2. Semantic transparency: instrumentation never changes the result of
//      a program whose accesses were already in-arena.
//  P3. Undo soundness: replaying the undo log restores a snapshot of
//      randomly mutated state, for any interleaving of nested commits and
//      aborts.
//  P4. Encode/decode round-trips every structurally valid program.
//  P5. Charge conservation: usage never exceeds limit; balanced
//      charge/uncharge sequences return to zero.
//  P6. Eviction safety: the page daemon never evicts a wired page and
//      never lets a graft evict across address spaces, for random graft
//      answers.
//  P7. Verifier soundness: any program the load-time verifier accepts can
//      run with the per-access bounds checks deleted — under arbitrary
//      entry arguments — without touching kernel memory; and real
//      instrumenter output always lands in the accept set with unchanged
//      semantics.

#include <gtest/gtest.h>

#include <cstring>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/fuzz/program_gen.h"
#include "src/mem/memory_system.h"
#include "src/resource/account.h"
#include "src/sfi/assembler.h"
#include "src/sfi/isa.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

// ---------------------------------------------------------------------
// P1/P2: random-program generation.
//
// The generators live in src/fuzz/program_gen.h, shared with the
// graftfuzz harness; VINO_FUZZ_SEEDS / VINO_FUZZ_ITERS widen the sweep
// without a rebuild, and failures dump a graftdump-style disassembly to
// VINO_FUZZ_ARTIFACTS for offline repro.
// ---------------------------------------------------------------------

// Dumps `program` on a just-failed trial and stops the sweep (later trials
// of a poisoned RNG stream add noise, not information).
bool DumpOnFailure(const char* label, uint64_t seed, int trial,
                   const Program& program, const char* notes) {
  if (!::testing::Test::HasFailure()) {
    return false;
  }
  const std::string path =
      fuzz::DumpArtifact(label, seed, trial, program, notes, "");
  if (!path.empty()) {
    std::cerr << "failing program dumped to " << path << "\n";
  }
  return true;
}

class SandboxFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SandboxFuzzTest, RandomProgramsNeverEscapeArena) {
  Rng rng(GetParam());
  HostCallTable host;
  const int trials = fuzz::ItersFromEnv(40);
  for (int trial = 0; trial < trials; ++trial) {
    const Program raw = fuzz::RandomProgram(rng, fuzz::GenOptions{.length = 30});
    Result<Program> inst = Instrument(raw, MisfitOptions{16});
    ASSERT_TRUE(inst.ok());

    MemoryImage image(8192, 16);
    // Canary pattern over the whole kernel region.
    for (uint64_t i = 0; i < image.kernel_size(); ++i) {
      image.data()[i] = static_cast<uint8_t>(i * 13 + 7);
    }
    Vm vm(&host);
    const RunOutcome out = vm.RunUnverified(*inst, &image, {}, RunOptions{});
    EXPECT_EQ(out.status, Status::kOk);

    for (uint64_t i = 0; i < image.kernel_size(); ++i) {
      ASSERT_EQ(image.data()[i], static_cast<uint8_t>(i * 13 + 7))
          << "kernel byte " << i << " corrupted (seed=" << GetParam()
          << " trial=" << trial << ")";
    }
  }
}

TEST_P(SandboxFuzzTest, InstrumentationPreservesInArenaSemantics) {
  // Programs restricted to in-arena addresses must compute identical
  // results before and after instrumentation.
  Rng rng(GetParam() ^ 0xabcdef);
  HostCallTable host;
  for (int trial = 0; trial < 40; ++trial) {
    MemoryImage image(4096, 16);
    const uint64_t base = image.arena_base();

    Asm a("inarena");
    // Seed registers with in-arena addresses, then random ALU + mem ops
    // with small offsets so every access stays inside the 64 KiB arena.
    for (uint8_t reg = 1; reg < 8; ++reg) {
      a.LoadImm(Reg{reg}, static_cast<int64_t>(base + rng.Below(32 * 1024)));
    }
    for (int i = 0; i < 25; ++i) {
      const auto addr_reg = Reg{static_cast<uint8_t>(1 + rng.Below(7))};
      const auto val_reg = Reg{static_cast<uint8_t>(8 + rng.Below(4))};
      switch (rng.Below(4)) {
        case 0:
          a.St64(addr_reg, val_reg, static_cast<int64_t>(rng.Below(1024)));
          break;
        case 1:
          a.Ld64(val_reg, addr_reg, static_cast<int64_t>(rng.Below(1024)));
          break;
        case 2:
          a.Add(val_reg, val_reg, addr_reg);
          break;
        default:
          a.XorI(val_reg, val_reg, static_cast<int64_t>(rng.Next() & 0xffff));
          break;
      }
    }
    a.Add(R0, R8, R9);
    a.Add(R0, R0, R10);
    a.Halt();
    Result<Program> raw = a.Finish();
    ASSERT_TRUE(raw.ok());

    Vm vm(&host);
    const RunOutcome before = vm.RunUnverified(*raw, &image, {}, RunOptions{});
    ASSERT_EQ(before.status, Status::kOk);

    image.ZeroArena();
    Result<Program> inst = Instrument(*raw, MisfitOptions{16});
    ASSERT_TRUE(inst.ok());
    const RunOutcome after = vm.RunUnverified(*inst, &image, {}, RunOptions{});
    ASSERT_EQ(after.status, Status::kOk);
    EXPECT_EQ(before.ret, after.ret) << "seed=" << GetParam() << " trial=" << trial;
  }
}

TEST_P(SandboxFuzzTest, EncodeDecodeRoundTripsRandomPrograms) {
  Rng rng(GetParam() ^ 0x777);
  const int trials = fuzz::ItersFromEnv(40);
  for (int trial = 0; trial < trials; ++trial) {
    const int length = static_cast<int>(rng.Range(1, 60));
    Program p = fuzz::RandomProgram(rng, fuzz::GenOptions{.length = length});
    p.direct_call_ids = {static_cast<uint32_t>(rng.Below(100) + 1)};
    const std::vector<uint8_t> bytes = EncodeProgram(p);
    Result<Program> decoded = DecodeProgram(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->code, p.code);
    EXPECT_EQ(decoded->direct_call_ids, p.direct_call_ids);
    EXPECT_EQ(decoded->name, p.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SandboxFuzzTest,
    ::testing::ValuesIn(fuzz::SeedsFromEnv({1, 42, 1337, 0xdeadbeef, 99999})));

// ---------------------------------------------------------------------
// P7: verifier soundness.
// ---------------------------------------------------------------------

class VerifierFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerifierFuzzTest, AcceptedForgeriesAreConfinedWithoutRuntimeChecks) {
  // Random forged instruction streams (hand-marked "instrumented", so no
  // instrumenter discipline) probe the analysis directly: whatever the
  // verifier accepts runs as a VerifiedProgram — every per-access InBounds
  // branch deleted — under fuzzed entry arguments, and a kernel canary
  // checks that the accept set really is the confined set.
  Rng rng(GetParam() ^ 0x5afe);
  HostCallTable host;
  size_t accepted = 0;
  const int trials = fuzz::ItersFromEnv(150);
  for (int trial = 0; trial < trials; ++trial) {
    const Program p = fuzz::RandomForgedProgram(rng);
    const Result<VerifiedProgram> verified =
        VerifyAndCompile(p, host, ExecTier::kTier0);
    if (!verified.ok()) {
      continue;
    }
    ++accepted;

    MemoryImage image(8192, 16);
    for (uint64_t i = 0; i < image.kernel_size(); ++i) {
      image.data()[i] = static_cast<uint8_t>(i * 29 + 3);
    }
    uint64_t args[kMaxArgs];
    for (uint64_t& arg : args) {
      arg = rng.Next();  // Includes kernel addresses and wild pointers.
    }
    Vm vm(&host);
    const RunOutcome out = vm.Run(*verified, &image, args, RunOptions{});
    EXPECT_EQ(out.status, Status::kOk)
        << "seed=" << GetParam() << " trial=" << trial;
    for (uint64_t i = 0; i < image.kernel_size(); ++i) {
      if (image.data()[i] != static_cast<uint8_t>(i * 29 + 3)) {
        ADD_FAILURE() << "kernel byte " << i << " corrupted through the "
                      << "verified fast path (seed=" << GetParam()
                      << " trial=" << trial << ")";
        break;
      }
    }
    if (DumpOnFailure("verifier-forged", GetParam(), trial, p,
                      "accepted forgery escaped confinement on the "
                      "checks-deleted fast path")) {
      return;
    }
  }
  // The property must not hold vacuously: some forgeries verify.
  EXPECT_GT(accepted, 0u) << "seed=" << GetParam();
}

TEST_P(VerifierFuzzTest, InstrumenterOutputVerifiesAndFastPathAgrees) {
  // Completeness half of P7: everything the real pipeline emits is in the
  // accept set, and deleting the bounds checks never changes its meaning.
  Rng rng(GetParam() ^ 0xfa57);
  HostCallTable host;
  const int trials = fuzz::ItersFromEnv(40);
  for (int trial = 0; trial < trials; ++trial) {
    const Program raw = fuzz::RandomProgram(rng, fuzz::GenOptions{.length = 30});
    Result<Program> inst = Instrument(raw, MisfitOptions{16});
    ASSERT_TRUE(inst.ok());
    const Result<VerifiedProgram> verified =
        VerifyAndCompile(*inst, host, ExecTier::kTier0);
    EXPECT_TRUE(verified.ok()) << StatusName(verified.status()) << " (seed="
                               << GetParam() << " trial=" << trial << ")";
    if (DumpOnFailure("verifier-complete", GetParam(), trial, *inst,
                      "real instrumenter output rejected by the verifier")) {
      return;
    }

    uint64_t args[kMaxArgs];
    for (uint64_t& arg : args) {
      arg = rng.Next();
    }
    MemoryImage checked_img(8192, 16);
    MemoryImage verified_img(8192, 16);
    Vm vm(&host);
    const RunOutcome checked =
        vm.RunUnverified(*inst, &checked_img, args, RunOptions{});
    const RunOutcome fast =
        vm.Run(*verified, &verified_img, args, RunOptions{});
    EXPECT_EQ(fast.status, checked.status);
    EXPECT_EQ(fast.ret, checked.ret);
    EXPECT_EQ(fast.instructions, checked.instructions);
    if (DumpOnFailure("verifier-complete", GetParam(), trial, *inst,
                      "checked and checks-deleted paths diverged")) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, VerifierFuzzTest,
    ::testing::ValuesIn(fuzz::SeedsFromEnv({2, 77, 2026, 0xfade, 40404})));

// ---------------------------------------------------------------------
// P8: tier equivalence. The Tier-1 direct-threaded engine and the Tier-0
// interpreter are the same abstract machine: for any program the real
// pipeline emits, both tiers must produce identical registers, identical
// memory images, the identical host-call sequence, and identical abort
// reasons — including mid-program aborts (fuel exhaustion, Rule-7 bad
// indirect calls).
// ---------------------------------------------------------------------

class TierFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TierFuzzTest, TiersAgreeOnRegistersMemoryHostCallsAndAborts) {
  Rng rng(GetParam() ^ 0x71e2);

  // One recording host table per tier, registered identically so ids match;
  // the recorded (id, arg) sequences must come out equal. A second,
  // non-graft-callable id makes some trials end in a Rule-7 abort.
  struct RecordingHost {
    HostCallTable table;
    std::vector<std::pair<uint64_t, uint64_t>> calls;
    uint32_t ok_id = 0;
    uint32_t hostile_id = 0;
    RecordingHost() {
      ok_id = table.Register(
          "fuzz.record",
          [this](HostCallContext& ctx) -> Result<uint64_t> {
            calls.emplace_back(0, ctx.args[0]);
            return ctx.args[0] ^ 0x9e3779b97f4a7c15ull;
          },
          true);
      hostile_id = table.Register(
          "fuzz.hostile",
          [](HostCallContext&) -> Result<uint64_t> { return 1ull; },
          /*graft_callable=*/false);
    }
  };
  RecordingHost host0;
  RecordingHost host1;
  ASSERT_EQ(host0.ok_id, host1.ok_id);
  ASSERT_EQ(host0.hostile_id, host1.hostile_id);

  size_t compiled_count = 0;
  size_t abort_count = 0;
  const int trials = fuzz::ItersFromEnv(60);
  for (int trial = 0; trial < trials; ++trial) {
    // RandomProgram's ALU/memory mix, plus indirect host calls: mostly the
    // recorder, occasionally the non-callable id (a guaranteed abort).
    const int length = static_cast<int>(rng.Range(5, 40));
    const Program raw = fuzz::RandomProgram(
        rng, fuzz::GenOptions{.length = length,
                              .ok_call_id = host0.ok_id,
                              .hostile_call_id = host0.hostile_id,
                              .hostile_call_chance = 0.1});
    Result<Program> inst = Instrument(raw, MisfitOptions{16});
    ASSERT_TRUE(inst.ok());
    const Result<VerifiedProgram> tier1 =
        VerifyAndCompile(*inst, host0.table, ExecTier::kTier1);
    ASSERT_TRUE(tier1.ok());
    ASSERT_EQ(tier1->tier(), ExecTier::kTier1)
        << "seed=" << GetParam() << " trial=" << trial;
    ++compiled_count;
    const Result<VerifiedProgram> tier0 =
        VerifyAndCompile(*inst, host0.table, ExecTier::kTier0);
    ASSERT_TRUE(tier0.ok());

    uint64_t args[kMaxArgs];
    for (uint64_t& arg : args) {
      arg = rng.Next();
    }
    // Small fuel budgets on some trials force mid-program fuel aborts, so
    // abort *reasons* get differential coverage too.
    RunOptions options;
    if (rng.Chance(0.3)) {
      options.fuel = rng.Range(1, 64);
    }
    uint64_t regs0[kNumRegisters];
    uint64_t regs1[kNumRegisters];
    MemoryImage image0(8192, 16);
    MemoryImage image1(8192, 16);

    host0.calls.clear();
    options.final_regs = regs0;
    const RunOutcome out0 =
        Vm(&host0.table).Run(*tier0, &image0, args, options);

    host1.calls.clear();
    options.final_regs = regs1;
    const RunOutcome out1 =
        ThreadedVm(&host1.table).Run(*tier1, &image1, args, options);

    EXPECT_EQ(out1.status, out0.status)
        << "seed=" << GetParam() << " trial=" << trial;
    EXPECT_EQ(out1.ret, out0.ret)
        << "seed=" << GetParam() << " trial=" << trial;
    EXPECT_EQ(out1.instructions, out0.instructions)
        << "seed=" << GetParam() << " trial=" << trial;
    EXPECT_EQ(out0.tier, ExecTier::kTier0);
    EXPECT_EQ(out1.tier, ExecTier::kTier1);
    for (int i = 0; i < kNumRegisters; ++i) {
      if (regs1[i] != regs0[i]) {
        ADD_FAILURE() << "register r" << i << " diverged (seed=" << GetParam()
                      << " trial=" << trial << ")";
        break;
      }
    }
    EXPECT_EQ(host1.calls, host0.calls)
        << "host-call sequences diverged (seed=" << GetParam()
        << " trial=" << trial << ")";
    EXPECT_EQ(
        std::memcmp(image0.data(), image1.data(), image0.total_size()), 0)
        << "memory images diverged (seed=" << GetParam() << " trial=" << trial
        << ")";
    if (DumpOnFailure("tier-fuzz", GetParam(), trial, *inst,
                      "Tier-0 and Tier-1 diverged on this program")) {
      return;
    }
    if (!IsOk(out0.status)) {
      ++abort_count;
    }
  }
  // Not vacuous: every trial compiled, and some trials aborted mid-program.
  EXPECT_EQ(compiled_count, static_cast<size_t>(trials));
  EXPECT_GT(abort_count, 0u) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TierFuzzTest,
    ::testing::ValuesIn(fuzz::SeedsFromEnv({6, 83, 7001, 0x7071, 52525})));

// ---------------------------------------------------------------------
// P3: undo soundness under random nested transaction trees.
// ---------------------------------------------------------------------

class UndoFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UndoFuzzTest, NestedCommitAbortAlwaysRestoresAbortedState) {
  // Model: an array of 32 cells. We run a random tree of transactions,
  // mutating cells through TxnSet. A shadow interpreter tracks what the
  // final state *should* be: mutations under any aborted ancestor vanish.
  Rng rng(GetParam());
  TxnManager manager;

  for (int trial = 0; trial < 30; ++trial) {
    static uint64_t cells[32];
    uint64_t shadow[32];
    for (int i = 0; i < 32; ++i) {
      cells[i] = shadow[i] = rng.Next() & 0xff;
    }

    // Each frame records the shadow snapshot at Begin so an abort can
    // restore it.
    struct Frame {
      Transaction* txn;
      uint64_t snapshot[32];
    };
    std::vector<Frame> stack;

    const int steps = 60;
    for (int s = 0; s < steps; ++s) {
      const uint64_t action = rng.Below(10);
      if (action < 4 || stack.empty()) {
        if (stack.size() < 6) {
          Frame frame;
          frame.txn = manager.Begin();
          std::copy(std::begin(shadow), std::end(shadow), frame.snapshot);
          stack.push_back(frame);
        }
      } else if (action < 8) {
        const size_t i = rng.Below(32);
        const uint64_t v = rng.Next() & 0xff;
        TxnSet(&cells[i], v);
        shadow[i] = v;
      } else if (action < 9) {
        // Commit innermost: its effects persist into the parent scope.
        Frame frame = stack.back();
        stack.pop_back();
        ASSERT_EQ(manager.Commit(frame.txn), Status::kOk);
      } else {
        // Abort innermost: state reverts to its Begin snapshot.
        Frame frame = stack.back();
        stack.pop_back();
        manager.Abort(frame.txn, Status::kTxnAborted);
        std::copy(std::begin(frame.snapshot), std::end(frame.snapshot), shadow);
      }
    }
    // Unwind what's left with random outcomes.
    while (!stack.empty()) {
      Frame frame = stack.back();
      stack.pop_back();
      if (rng.Chance(0.5)) {
        ASSERT_EQ(manager.Commit(frame.txn), Status::kOk);
      } else {
        manager.Abort(frame.txn, Status::kTxnAborted);
        std::copy(std::begin(frame.snapshot), std::end(frame.snapshot), shadow);
      }
    }

    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(cells[i], shadow[i])
          << "cell " << i << " diverged (seed=" << GetParam() << " trial=" << trial
          << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UndoFuzzTest,
                         ::testing::Values(7, 21, 4242, 0xfeed, 31337));

// ---------------------------------------------------------------------
// P5: resource charge conservation.
// ---------------------------------------------------------------------

class ChargeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChargeFuzzTest, UsageNeverExceedsLimitAndBalancesToZero) {
  Rng rng(GetParam());
  ResourceAccount account("fuzz");
  const uint64_t limit = rng.Range(100, 10'000);
  account.SetLimit(ResourceType::kMemory, limit);

  std::vector<uint64_t> outstanding;
  for (int step = 0; step < 500; ++step) {
    if (rng.Chance(0.6)) {
      const uint64_t amount = rng.Range(1, 200);
      if (IsOk(account.Charge(ResourceType::kMemory, amount))) {
        outstanding.push_back(amount);
      }
    } else if (!outstanding.empty()) {
      const size_t i = rng.Below(outstanding.size());
      account.Uncharge(ResourceType::kMemory, outstanding[i]);
      outstanding[i] = outstanding.back();
      outstanding.pop_back();
    }
    ASSERT_LE(account.usage(ResourceType::kMemory), limit);
  }
  for (const uint64_t amount : outstanding) {
    account.Uncharge(ResourceType::kMemory, amount);
  }
  EXPECT_EQ(account.usage(ResourceType::kMemory), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChargeFuzzTest,
                         ::testing::Values(3, 17, 2025, 0xbeef, 555));

// ---------------------------------------------------------------------
// P6: eviction safety for arbitrary graft answers.
// ---------------------------------------------------------------------

class EvictionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvictionFuzzTest, RandomGraftAnswersNeverEvictWiredOrForeignPages) {
  Rng rng(GetParam());
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
  MemorySystem mem(24, &txn, &host, &ns);
  VirtualAddressSpace* a = mem.CreateVas("a", 16);
  VirtualAddressSpace* b = mem.CreateVas("b", 16);

  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mem.Touch(a->id(), i).ok());
    ASSERT_TRUE(mem.Touch(b->id(), i).ok());
  }
  // Wire two of a's pages.
  ASSERT_EQ(a->Wire(0), Status::kOk);
  ASSERT_EQ(a->Wire(1), Status::kOk);
  Page* wired0 = a->FindResident(0);
  Page* wired1 = a->FindResident(1);

  for (int round = 0; round < 50; ++round) {
    // Install a graft on `a` that returns a random page id (possibly
    // foreign, wired, free, or nonsense).
    const uint64_t answer = rng.Below(30);
    Asm g("rand-evict");
    g.LoadImm(R0, static_cast<int64_t>(answer)).Halt();
    Result<Program> inst = Instrument(*g.Finish());
    ASSERT_TRUE(inst.ok());
    a->eviction_point().Remove();
    ASSERT_EQ(a->eviction_point().Replace(
                  std::make_shared<Graft>(
                      "rand-evict", *VerifyAndCompile(*inst, host),
                      kUser, 4096)),
              Status::kOk);

    const size_t b_resident_before = b->resident_count();
    const Status s = mem.EvictOne();
    if (!IsOk(s)) {
      break;  // Ran out of evictable pages; invariants still checked below.
    }
    // Wired pages survive everything.
    ASSERT_TRUE(wired0->resident && wired0->wired);
    ASSERT_TRUE(wired1->resident && wired1->wired);
    // If the global victim came from `a`, `b` must be untouched unless the
    // victim itself belonged to `b` (global selection) — the *graft* can
    // never redirect onto `b`: b only ever loses pages via global victim
    // choice, so its count drops by at most 1 per round.
    ASSERT_GE(b->resident_count() + 1, b_resident_before);

    // Refill so rounds stay interesting.
    const uint64_t refill = rng.Range(20, 200);
    (void)mem.Touch(a->id(), refill);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvictionFuzzTest,
                         ::testing::Values(11, 29, 307, 0xc0de, 909));

}  // namespace
}  // namespace vino
