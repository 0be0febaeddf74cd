// GraftLoader tests: the dynamic linker's five load-time checks and the
// name-based install flows of Figures 1 and 2.

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "src/graft/loader.h"
#include "src/sfi/assembler.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/isa.h"
#include "src/sfi/misfit.h"
#include "src/sfi/verifier.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};
constexpr GraftIdentity kRoot{0, true};

class LoaderTest : public ::testing::Test {
 protected:
  LoaderTest()
      : authority_("trusted-misfit-key"),
        loader_(&ns_, &host_, SigningAuthority("trusted-misfit-key")) {
    callable_id_ = host_.Register(
        "k.ok", [](HostCallContext&) -> Result<uint64_t> { return 1ull; }, true);
    internal_id_ = host_.Register(
        "k.secret", [](HostCallContext&) -> Result<uint64_t> { return 2ull; },
        false);
  }

  SignedGraft MakeSigned(uint32_t call_id = 0) {
    Asm a("test-graft");
    if (call_id != 0) {
      a.Call(call_id);
    }
    a.LoadImm(R0, 5).Halt();
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    Result<SignedGraft> sg = authority_.Sign(*inst);
    EXPECT_TRUE(sg.ok());
    return *sg;
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  SigningAuthority authority_;
  GraftLoader loader_;
  uint32_t callable_id_ = 0;
  uint32_t internal_id_ = 0;
};

TEST_F(LoaderTest, LoadsValidGraft) {
  Result<std::shared_ptr<Graft>> graft =
      loader_.Load(MakeSigned(callable_id_), {kUser, nullptr});
  ASSERT_TRUE(graft.ok());
  EXPECT_EQ((*graft)->name(), "test-graft");
  EXPECT_FALSE((*graft)->is_native());
  // Fresh grafts cannot allocate anything (zero limits, §3.2).
  EXPECT_EQ((*graft)->account().Charge(ResourceType::kMemory, 1),
            Status::kLimitExceeded);
}

TEST_F(LoaderTest, RejectsTamperedSignature) {
  SignedGraft sg = MakeSigned();
  sg.program.code[0].imm = 1234;
  EXPECT_EQ(loader_.Load(sg, {kUser, nullptr}).status(), Status::kBadSignature);
}

TEST_F(LoaderTest, RejectsWrongAuthority) {
  // Signed by an authority whose key the kernel does not trust.
  SigningAuthority rogue("rogue-key");
  Asm a("rogue");
  a.LoadImm(R0, 1).Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  Result<SignedGraft> sg = rogue.Sign(*inst);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(loader_.Load(*sg, {kUser, nullptr}).status(), Status::kBadSignature);
}

TEST_F(LoaderTest, RejectsDirectCallToInternalFunction) {
  // Rule 7: a graft that direct-calls a non-graft-callable function is
  // refused at link time — even though its signature is valid.
  EXPECT_EQ(loader_.Load(MakeSigned(internal_id_), {kUser, nullptr}).status(),
            Status::kIllegalCall);
}

TEST_F(LoaderTest, SponsorBilling) {
  ResourceAccount installer("installer");
  installer.SetLimit(ResourceType::kMemory, 128);
  Result<std::shared_ptr<Graft>> graft =
      loader_.Load(MakeSigned(), {kUser, &installer});
  ASSERT_TRUE(graft.ok());
  EXPECT_EQ((*graft)->account().Charge(ResourceType::kMemory, 64), Status::kOk);
  EXPECT_EQ(installer.usage(ResourceType::kMemory), 64u);
}

TEST_F(LoaderTest, InstallFunctionByName) {
  FunctionGraftPoint point(
      "file.read-ahead", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &txn_, &host_, &ns_);

  Result<std::shared_ptr<Graft>> graft = loader_.Load(MakeSigned(), {kUser, nullptr});
  ASSERT_TRUE(graft.ok());

  EXPECT_EQ(loader_.InstallFunction("no.such.point", *graft), Status::kNotFound);
  EXPECT_EQ(loader_.InstallFunction("file.read-ahead", *graft), Status::kOk);
  EXPECT_TRUE(point.grafted());
  EXPECT_EQ(point.Invoke({}), 5u);
}

TEST_F(LoaderTest, InstallEventByName) {
  EventGraftPoint point("net.tcp.80.connection", EventGraftPoint::Config{}, &txn_,
                        &host_, &ns_);
  Result<std::shared_ptr<Graft>> graft = loader_.Load(MakeSigned(), {kUser, nullptr});
  ASSERT_TRUE(graft.ok());
  EXPECT_EQ(loader_.InstallEvent("net.tcp.80.connection", *graft, 1), Status::kOk);
  EXPECT_EQ(point.handler_count(), 1u);
  EXPECT_EQ(loader_.InstallEvent("nope", *graft, 1), Status::kNotFound);
}

TEST_F(LoaderTest, RestrictedPointEnforcedThroughLoader) {
  FunctionGraftPoint::Config config;
  config.restricted = true;
  FunctionGraftPoint point(
      "vm.global-eviction", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      config, &txn_, &host_, &ns_);

  Result<std::shared_ptr<Graft>> user_graft =
      loader_.Load(MakeSigned(), {kUser, nullptr});
  ASSERT_TRUE(user_graft.ok());
  EXPECT_EQ(loader_.InstallFunction("vm.global-eviction", *user_graft),
            Status::kRestrictedPoint);

  Result<std::shared_ptr<Graft>> root_graft =
      loader_.Load(MakeSigned(), {kRoot, nullptr});
  ASSERT_TRUE(root_graft.ok());
  EXPECT_EQ(loader_.InstallFunction("vm.global-eviction", *root_graft), Status::kOk);
}

TEST_F(LoaderTest, NativeUnsafeRequiresPrivilege) {
  auto fn = [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
    return 0ull;
  };
  EXPECT_EQ(loader_.LoadNativeUnsafe("n", fn, {kUser, nullptr}).status(),
            Status::kPermissionDenied);
  EXPECT_TRUE(loader_.LoadNativeUnsafe("n", fn, {kRoot, nullptr}).ok());
}

TEST_F(LoaderTest, RejectsForgedManifestDirectCall) {
  // A compromised toolchain signs hand-written "instrumented" code whose
  // manifest declares only the benign callable id while the code also calls
  // the internal one. The pre-verifier loader link-checked the declared
  // list and accepted this; the verifier stage reads the code.
  Program p;
  p.name = "forged";
  p.instrumented = true;
  p.sandbox_log2 = 16;
  p.code = {
      Instruction{Op::kCall, 0, 0, 0, callable_id_},
      Instruction{Op::kCall, 0, 0, 0, internal_id_},
      Instruction{Op::kHalt, 0, 0, 0, 0},
  };
  p.direct_call_ids = {callable_id_};
  Result<SignedGraft> sg = authority_.Sign(p);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(loader_.Load(*sg, {kUser, nullptr}).status(), Status::kIllegalCall);
}

TEST_F(LoaderTest, RejectsForgedUncheckedIndirectCall) {
  // Same threat model, register-indirect flavor: a kCallR the "instrumenter"
  // left unrewritten would bypass the runtime callable probe entirely.
  Program p;
  p.name = "forged";
  p.instrumented = true;
  p.sandbox_log2 = 16;
  p.code = {
      Instruction{Op::kLoadImm, 1, 0, 0, internal_id_},
      Instruction{Op::kCallR, 0, 1, 0, 0},
      Instruction{Op::kHalt, 0, 0, 0, 0},
  };
  Result<SignedGraft> sg = authority_.Sign(p);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(loader_.Load(*sg, {kUser, nullptr}).status(),
            Status::kVerifyFailed);
}

// The proof is a type, not a field: a raw Program cannot become a Graft or
// a VerifiedProgram; only VerifyAndCompile (and its named escape hatch)
// makes one.
static_assert(!std::is_constructible_v<Graft, std::string, Program,
                                       GraftIdentity, uint64_t>);
static_assert(!std::is_constructible_v<VerifiedProgram, Program>);
static_assert(!std::is_constructible_v<VerifiedProgram, const Program&>);
static_assert(!std::is_default_constructible_v<VerifiedProgram>);

TEST_F(LoaderTest, LoadedGraftsCarryTheArtifactOfTheirTierCeiling) {
  // The loader's ceiling is MaxExecTier(): a loaded program carries the
  // Tier-1 pre-decoded artifact unless VINO_EXEC_TIER=0 pins the process to
  // the interpreter, in which case the loader must not compile at all.
  Result<std::shared_ptr<Graft>> graft =
      loader_.Load(MakeSigned(callable_id_), {kUser, nullptr});
  ASSERT_TRUE(graft.ok());
  const VerifiedProgram& loaded = (*graft)->program();
  EXPECT_EQ(loaded.tier(), MaxExecTier());
  EXPECT_EQ(loaded.compiled() != nullptr, MaxExecTier() == ExecTier::kTier1);
  // The same program under each explicit ceiling.
  for (const ExecTier ceiling : {ExecTier::kTier0, ExecTier::kTier1}) {
    const Result<VerifiedProgram> verified =
        VerifyAndCompile(loaded.program(), host_, ceiling);
    ASSERT_TRUE(verified.ok());
    EXPECT_EQ(verified->tier(), ceiling);
    EXPECT_EQ(verified->compiled() != nullptr, ceiling == ExecTier::kTier1);
  }
}

TEST_F(LoaderTest, RejectsRawProgramEvenIfSomehowSigned) {
  // Defence in depth: construct a SignedGraft whose program claims to be
  // instrumented but is structurally raw — covered by signature check; and
  // an uninstrumented program with a forged flag cleared.
  SignedGraft sg = MakeSigned();
  sg.program.instrumented = false;
  EXPECT_EQ(loader_.Load(sg, {kUser, nullptr}).status(), Status::kBadSignature);
}

}  // namespace
}  // namespace vino
