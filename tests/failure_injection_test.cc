// Failure injection: abort a graft at *every possible point* in its
// execution and prove the kernel's state is bit-for-bit untouched.
//
// The graft performs a chain of undo-logged kernel mutations and resource
// charges. We sweep the fuel limit from 1 instruction to "enough to
// finish": every prefix of the graft's execution gets cut off exactly once,
// at every instruction boundary, and every cut must roll back cleanly.

#include <gtest/gtest.h>

#include <array>
#include <tuple>

#include "src/graft/function_point.h"
#include "src/graft/namespace.h"
#include "src/resource/account.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

class FailureInjectionTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  FailureInjectionTest() : lock_("fi.lock") {
    set_id_ = host_.Register(
        "fi.set",
        [this](HostCallContext& ctx) -> Result<uint64_t> {
          TxnSet(&cells_[ctx.args[0] % cells_.size()], ctx.args[1]);
          return 0ull;
        },
        true);
    alloc_id_ = host_.Register(
        "fi.alloc",
        [](HostCallContext& ctx) -> Result<uint64_t> {
          const Status s = ChargeCurrent(ResourceType::kMemory, ctx.args[0]);
          if (!IsOk(s)) {
            return s;
          }
          return 0ull;
        },
        true);
    lock_id_ = host_.Register(
        "fi.lock",
        [this](HostCallContext&) -> Result<uint64_t> {
          const Status s = lock_.Acquire();
          if (!IsOk(s)) {
            return s;
          }
          return 0ull;
        },
        true);
  }

  // The test graft: lock, mutate 4 cells, charge memory, mutate 4 more.
  std::shared_ptr<Graft> MutatorGraft() {
    Asm a("mutator");
    a.Call(lock_id_);
    for (int64_t i = 0; i < 4; ++i) {
      a.LoadImm(R0, i);
      a.LoadImm(R1, 100 + i);
      a.Call(set_id_);
    }
    a.LoadImm(R0, 64);
    a.Call(alloc_id_);
    for (int64_t i = 4; i < 8; ++i) {
      a.LoadImm(R0, i);
      a.LoadImm(R1, 100 + i);
      a.Call(set_id_);
    }
    a.LoadImm(R0, 1);
    a.Halt();
    Result<Program> inst = Instrument(*a.Finish());
    EXPECT_TRUE(inst.ok());
    auto graft = std::make_shared<Graft>(
        "mutator", *VerifyAndCompile(*inst, host_), kUser, 4096);
    graft->account().SetLimit(ResourceType::kMemory, 1024);
    return graft;
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  TxnLock lock_;
  std::array<uint64_t, 8> cells_{};
  uint32_t set_id_ = 0;
  uint32_t alloc_id_ = 0;
  uint32_t lock_id_ = 0;
};

TEST_P(FailureInjectionTest, AbortAtEveryInstructionBoundaryRollsBackFully) {
  auto graft = MutatorGraft();
  const uint64_t fuel = GetParam();

  FunctionGraftPoint::Config config;
  config.fuel = fuel;
  config.poll_interval = 1'000'000;  // Fuel is the only cutter.
  FunctionGraftPoint point(
      "fi.point." + std::to_string(fuel),
      [](std::span<const uint64_t>) -> uint64_t { return 7; }, config, &txn_,
      &host_, &ns_);

  // Snapshot and run.
  const std::array<uint64_t, 8> before = cells_;
  ASSERT_EQ(point.Replace(graft), Status::kOk);
  const uint64_t result = point.Invoke({});

  if (point.stats().graft_aborts == 1) {
    // Cut mid-flight: everything rolled back.
    EXPECT_EQ(result, 7u) << "fuel=" << fuel;
    EXPECT_EQ(cells_, before) << "fuel=" << fuel;
    EXPECT_EQ(graft->account().usage(ResourceType::kMemory), 0u)
        << "fuel=" << fuel;
    EXPECT_FALSE(point.grafted());
  } else {
    // Enough fuel to finish: all mutations landed, charge kept.
    EXPECT_EQ(result, 1u) << "fuel=" << fuel;
    for (size_t i = 0; i < cells_.size(); ++i) {
      EXPECT_EQ(cells_[i], 100 + i) << "fuel=" << fuel;
    }
    EXPECT_EQ(graft->account().usage(ResourceType::kMemory), 64u);
  }
  // Either way the lock is free afterwards (released by commit or abort).
  EXPECT_FALSE(lock_.held()) << "fuel=" << fuel;
}

// Sweep a dense range of cut points (the full program is ~32 instructions)
// plus a generous value that always completes.
INSTANTIATE_TEST_SUITE_P(FuelSweep, FailureInjectionTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16, 17, 18, 19, 20,
                                           21, 22, 23, 24, 25, 26, 27, 28, 29,
                                           30, 31, 32, 33, 34, 35, 40, 1000));

TEST(FailureInjectionEdge, HostErrorMidChainRollsBackEarlierMutations) {
  // The alloc call fails (zero limits) after mutations already happened.
  TxnManager txn;
  HostCallTable host;
  static std::array<uint64_t, 4> cells{};
  cells = {};
  const uint32_t set_id = host.Register(
      "e.set",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        TxnSet(&cells[ctx.args[0] % cells.size()], ctx.args[1]);
        return 0ull;
      },
      true);
  const uint32_t alloc_id = host.Register(
      "e.alloc",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        const Status s = ChargeCurrent(ResourceType::kMemory, ctx.args[0]);
        if (!IsOk(s)) {
          return s;
        }
        return 0ull;
      },
      true);

  Asm a("failer");
  a.LoadImm(R0, 0).LoadImm(R1, 5).Call(set_id);
  a.LoadImm(R0, 1).LoadImm(R1, 6).Call(set_id);
  a.LoadImm(R0, 9999).Call(alloc_id);  // Exceeds the zero limit.
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>(
      "failer", *VerifyAndCompile(*inst, host), kUser, 4096);

  FunctionGraftPoint point(
      "e.point", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      FunctionGraftPoint::Config{}, &txn, &host, nullptr);
  ASSERT_EQ(point.Replace(graft), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 7u);
  EXPECT_EQ(cells[0], 0u);  // Both earlier mutations undone.
  EXPECT_EQ(cells[1], 0u);
}

}  // namespace
}  // namespace vino
