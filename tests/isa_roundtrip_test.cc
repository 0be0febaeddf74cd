// Systematic per-opcode coverage: every assemblable opcode is executed by
// the VM, disassembled, re-assembled, and encode/decode round-tripped; every
// ALU, shift, divide and branch op is pinned to hand-written results on
// boundary operands, on both execution tiers and in the verifier's constant
// folding; and the text assembler's immediates cover the full int64 range.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sfi/assembler.h"
#include "src/sfi/disasm.h"
#include "src/sfi/memory_image.h"
#include "src/sfi/misfit.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace vino {
namespace {

// One operand exemplar per shape (branches point at the final halt).
Instruction Exemplar(Op op, int64_t branch_target) {
  switch (ShapeOf(op)) {
    case OpShape::kLoadImm:
      return {op, 1, 0, 0, -42};
    case OpShape::kMov:
      return {op, 1, 2, 0, 0};
    case OpShape::kAluR:
      return {op, 1, 2, 3, 0};
    case OpShape::kAluI:
      return {op, 1, 2, 0, 5};
    case OpShape::kLoad:
      return {op, 1, 2, 0, 8};
    case OpShape::kStore:
      return {op, 0, 2, 3, 8};
    case OpShape::kJump:
      return {op, 0, 0, 0, branch_target};
    case OpShape::kBranch:
      return {op, 0, 1, 2, branch_target};
    case OpShape::kCall:
      return {op, 0, 0, 0, 1};
    case OpShape::kCallR:
      return {op, 0, 3, 0, 0};  // r3 holds the callable id (1).
    default:
      return {op, 0, 0, 0, 0};
  }
}

class OpRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(OpRoundTripTest, DisassembleReassembleEncodeDecode) {
  const Op op = static_cast<Op>(GetParam());
  if (IsInstrumentationOnly(op)) {
    GTEST_SKIP() << "instrumentation-only opcode";
  }

  HostCallTable host;
  host.Register("k.one", [](HostCallContext&) -> Result<uint64_t> { return 1ull; },
                true);

  // Program: setup registers with arena addresses, the exemplar, halt.
  MemoryImage image(4096, 16);
  Program p;
  p.name = "op-" + std::string(OpName(op));
  p.code.push_back(
      {Op::kLoadImm, 1, 0, 0, static_cast<int64_t>(image.arena_base())});
  p.code.push_back(
      {Op::kLoadImm, 2, 0, 0, static_cast<int64_t>(image.arena_base() + 64)});
  p.code.push_back({Op::kLoadImm, 3, 0, 0, 1});  // Also the callable id.
  const auto halt_index = static_cast<int64_t>(p.code.size() + 1);
  p.code.push_back(Exemplar(op, halt_index));
  p.code.push_back({Op::kHalt, 0, 0, 0, 0});
  ASSERT_EQ(VerifyProgram(p), Status::kOk);

  // Executes cleanly (r1/r2 hold in-arena addresses; call id 1 registered).
  Vm vm(&host);
  EXPECT_EQ(vm.RunUnverified(p, &image, {}, RunOptions{}).status, Status::kOk)
      << OpName(op);

  // Disassemble -> reassemble -> identical code.
  DisasmOptions options;
  options.host = &host;
  const std::string text = Disassemble(p, options);
  Result<Program> reassembled = Assemble(text, p.name, &host);
  ASSERT_TRUE(reassembled.ok()) << OpName(op) << "\n" << text;
  EXPECT_EQ(reassembled->code, p.code) << OpName(op) << "\n" << text;

  // Encode -> decode -> identical.
  Result<Program> decoded = DecodeProgram(EncodeProgram(p));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, p.code);
}

INSTANTIATE_TEST_SUITE_P(AllOps, OpRoundTripTest,
                         ::testing::Range(0, static_cast<int>(Op::kOpCount)),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name(OpName(static_cast<Op>(param_info.param)));
                           for (char& c : name) {
                             if (c == '?' ) {
                               c = 'X';
                             }
                           }
                           return name;
                         });

// --- Op semantics on boundary operands ----------------------------------

constexpr uint64_t kMin = uint64_t{1} << 63;  // INT64_MIN's bit pattern.
constexpr uint64_t kMax = kMin - 1;           // INT64_MAX.
constexpr uint64_t kAll = ~uint64_t{0};       // UINT64_MAX, -1 signed.

// (a, b) operand pairs built from 0, 1, 63, 64, INT64_MIN, INT64_MAX and
// UINT64_MAX: carries and borrows across bit 63, shift counts at and past
// the 6-bit mask, division by zero, and compares that differ between the
// signed and unsigned readings.
constexpr std::array<std::pair<uint64_t, uint64_t>, 10> kPairs = {{
    {0, 0},
    {1, 64},
    {1, 63},
    {63, 64},
    {64, 63},
    {kMin, 63},
    {kMax, 1},
    {kAll, kMin},
    {kMin, kAll},
    {kAll, 0},
}};

// Hand-computed results, one per kPairs entry. Register and immediate forms
// of an op share a row. Branch rows give 1 for taken, 0 for not taken.
struct SemanticsRow {
  std::vector<Op> ops;
  std::array<uint64_t, kPairs.size()> expected;
};

const std::vector<SemanticsRow>& SemanticsRows() {
  static const std::vector<SemanticsRow> rows = {
      {{Op::kAdd, Op::kAddI},
       {0, 65, 64, 127, 127, kMin + 63, kMin, kMax, kMax, kAll}},
      {{Op::kSub},
       {0, kAll - 62, kAll - 61, kAll, 1, kMax - 62, kMax - 1, kMax, kMin + 1,
        kAll}},
      {{Op::kMul, Op::kMulI},
       {0, 64, 63, 4032, 4032, kMin, kMax, kMin, kMin, 0}},
      {{Op::kDivU},
       {0, 0, 0, 0, 1, 0x0208208208208208, kMax, 1, 0, 0}},
      {{Op::kRemU}, {0, 1, 1, 63, 1, 8, 0, kMax, kMin, 0}},
      {{Op::kAnd, Op::kAndI}, {0, 0, 1, 0, 0, 0, 1, kMin, kMin, 0}},
      {{Op::kOr, Op::kOrI},
       {0, 65, 63, 127, 127, kMin + 63, kMax, kAll, kAll, kAll}},
      {{Op::kXor, Op::kXorI},
       {0, 65, 62, 127, 127, kMin + 63, kMax - 1, kMax, kMax, kAll}},
      {{Op::kShl, Op::kShlI}, {0, 1, kMin, 63, 0, 0, kAll - 1, kAll, 0, kAll}},
      {{Op::kShr, Op::kShrI},
       {0, 1, 0, 63, 0, 1, kMax >> 1, kAll, 1, kAll}},
      {{Op::kSar}, {0, 1, 0, 63, 0, kAll, kMax >> 1, kAll, kAll, kAll}},
      {{Op::kBeq}, {1, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {{Op::kBne}, {0, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
      {{Op::kBltU}, {0, 1, 1, 1, 0, 0, 0, 0, 1, 0}},
      {{Op::kBgeU}, {1, 0, 0, 0, 1, 1, 1, 1, 0, 1}},
      {{Op::kBltS}, {0, 1, 1, 1, 0, 1, 0, 0, 1, 1}},
      {{Op::kBgeS}, {1, 0, 0, 0, 1, 0, 1, 1, 0, 0}},
  };
  return rows;
}

// Leaves `op`'s result (for a branch: 1 if taken) in r0. An ALU program also
// feeds both 32-bit halves of the result to indirect calls: the always-taken
// beq skips them at run time, but the verifier explores both edges, so its
// constant fold of the op surfaces in VerifierReport::const_indirect_ids.
Program SemanticsProgram(Op op, uint64_t a, uint64_t b) {
  const auto imm = [](uint64_t v) { return static_cast<int64_t>(v); };
  Program p;
  p.name = "sem-" + std::string(OpName(op));
  p.code = {{Op::kLoadImm, 1, 0, 0, imm(a)}, {Op::kLoadImm, 2, 0, 0, imm(b)}};
  if (IsBranch(op)) {
    p.code.push_back({Op::kLoadImm, 0, 0, 0, 1});
    p.code.push_back({op, 0, 1, 2, 5});
    p.code.push_back({Op::kLoadImm, 0, 0, 0, 0});
  } else {
    p.code.push_back(ReadsRs2(op) ? Instruction{op, 0, 1, 2, 0}
                                  : Instruction{op, 0, 1, 0, imm(b)});
    p.code.push_back({Op::kShrI, 3, 0, 0, 32});
    p.code.push_back({Op::kBeq, 0, 1, 1, 7});
    p.code.push_back({Op::kCallR, 0, 0, 0, 0});
    p.code.push_back({Op::kCallR, 0, 3, 0, 0});
  }
  p.code.push_back({Op::kHalt, 0, 0, 0, 0});
  return p;
}

// --- Text assembler immediates ------------------------------------------

TEST(AssemblerImmediateTest, Int64MinImmediateRoundTrips) {
  Program p;
  p.name = "int64-min";
  p.code = {{Op::kLoadImm, 1, 0, 0, INT64_MIN}, {Op::kHalt, 0, 0, 0, 0}};
  const std::string text = Disassemble(p);
  Result<Program> reassembled = Assemble(text, p.name, nullptr);
  ASSERT_TRUE(reassembled.ok()) << text;
  EXPECT_EQ(reassembled->code, p.code) << text;
}

TEST(AssemblerImmediateTest, ImmediatesOutsideInt64AreRejected) {
  const auto assembles = [](const char* source) {
    return Assemble(source, "imm", nullptr).ok();
  };
  EXPECT_FALSE(assembles("loadi r1, 9223372036854775808\nhalt"));
  EXPECT_FALSE(assembles("loadi r1, -9223372036854775809\nhalt"));
  EXPECT_TRUE(assembles("loadi r1, 9223372036854775807\nhalt"));
}

TEST(AssemblerImmediateTest, CallIdBeyond32BitsIsRejected) {
  EXPECT_FALSE(Assemble("call 4294967297\nhalt", "wide", nullptr).ok());
  Result<Program> widest = Assemble("call 4294967295\nhalt", "widest", nullptr);
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest->code[0].imm, int64_t{UINT32_MAX});
}

TEST(OpSemanticsTest, RowsCoverEveryComputeOp) {
  for (int i = 0; i < static_cast<int>(Op::kOpCount); ++i) {
    const Op op = static_cast<Op>(i);
    const OpShape shape = ShapeOf(op);
    if (shape != OpShape::kAluR && shape != OpShape::kAluI &&
        shape != OpShape::kBranch) {
      continue;
    }
    const auto& rows = SemanticsRows();
    const auto covers = [op](const SemanticsRow& r) {
      return std::find(r.ops.begin(), r.ops.end(), op) != r.ops.end();
    };
    EXPECT_TRUE(std::any_of(rows.begin(), rows.end(), covers))
        << OpName(op) << " has no boundary-operand row";
  }
}

TEST(OpSemanticsTest, BoundaryOperandsOnBothTiersAndInTheVerifierFold) {
  HostCallTable host;
  for (const SemanticsRow& row : SemanticsRows()) {
    for (const Op op : row.ops) {
      for (size_t i = 0; i < kPairs.size(); ++i) {
        const auto [a, b] = kPairs[i];
        const uint64_t want = row.expected[i];
        SCOPED_TRACE(std::string(OpName(op)) + " pair " + std::to_string(i));

        const Program source = SemanticsProgram(op, a, b);
        ASSERT_EQ(VerifyProgram(source), Status::kOk);
        Result<Program> instrumented = Instrument(source, MisfitOptions{16});
        ASSERT_TRUE(instrumented.ok());
        const VerifierReport report = VerifySandbox(*instrumented);
        ASSERT_TRUE(report.ok()) << report.reason;
        const Result<VerifiedProgram> verified =
            VerifyAndCompile(*instrumented, host, ExecTier::kTier1);
        ASSERT_TRUE(verified.ok());
        ASSERT_EQ(verified->tier(), ExecTier::kTier1);

        MemoryImage image(4096, 16);
        // Tier 0 with per-access bounds checks, Tier 0 on the verified
        // fast path, and Tier 1.
        const Vm vm(&host);
        const RunOutcome checked =
            vm.RunUnverified(source, &image, {}, RunOptions{});
        const RunOutcome fast = vm.Run(*verified, &image, {}, RunOptions{});
        const RunOutcome threaded =
            ThreadedVm(&host).Run(*verified, &image, {}, RunOptions{});
        ASSERT_EQ(checked.status, Status::kOk);
        ASSERT_EQ(fast.status, Status::kOk);
        ASSERT_EQ(threaded.status, Status::kOk);
        ASSERT_EQ(threaded.tier, ExecTier::kTier1);
        EXPECT_EQ(checked.ret, want);
        EXPECT_EQ(fast.ret, want);
        EXPECT_EQ(threaded.ret, want);

        if (!IsBranch(op)) {
          std::vector<uint32_t> folded = {static_cast<uint32_t>(want),
                                          static_cast<uint32_t>(want >> 32)};
          std::sort(folded.begin(), folded.end());
          folded.erase(std::unique(folded.begin(), folded.end()), folded.end());
          EXPECT_EQ(report.const_indirect_ids, folded);
        }
      }
    }
  }
}

}  // namespace
}  // namespace vino
