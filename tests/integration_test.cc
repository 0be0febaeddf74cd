// Full-stack integration tests: assemble (text) -> instrument -> sign ->
// load -> install -> invoke across multiple subsystems at once, plus
// end-to-end recovery scenarios that span the transaction system, resource
// accounts, and the kernel substrates.

#include <gtest/gtest.h>

#include <string>

#include "src/fs/file_system.h"
#include "src/graft/loader.h"
#include "src/mem/memory_system.h"
#include "src/net/net_stack.h"
#include "src/sched/scheduler.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/txn/accessor.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

// A complete kernel instance for integration scenarios.
class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : authority_("itest-key"),
        loader_(&ns_, &host_, SigningAuthority("itest-key")),
        clock_(),
        disk_(DiskParams{}, &clock_),
        cache_(128, 16, &disk_, &clock_),
        fs_(&disk_, &cache_, &txn_, &host_, &ns_),
        mem_(32, &txn_, &host_, &ns_),
        net_(&txn_, &host_, &ns_),
        sched_(Scheduler::Params{}, &clock_, &txn_, &host_, &ns_) {}

  // Full pipeline from text assembly to a loaded graft.
  Result<std::shared_ptr<Graft>> LoadFromSource(const std::string& source,
                                                const std::string& name) {
    Result<Program> program = Assemble(source, name, &host_);
    if (!program.ok()) {
      return program.status();
    }
    Result<Program> inst = Instrument(*program);
    if (!inst.ok()) {
      return inst.status();
    }
    Result<SignedGraft> sg = authority_.Sign(*inst);
    if (!sg.ok()) {
      return sg.status();
    }
    return loader_.Load(*sg, {kUser, nullptr});
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  SigningAuthority authority_;
  GraftLoader loader_;
  ManualClock clock_;
  SimDisk disk_;
  BufferCache cache_;
  FlatFileSystem fs_;
  MemorySystem mem_;
  NetStack net_;
  Scheduler sched_;
};

TEST_F(IntegrationTest, TextAssemblyToInstalledGraftViaNamespace) {
  // The Figure 1 flow, end to end, against a real open file.
  Result<FileId> file = fs_.CreateFile("data", 64 * 4096);
  ASSERT_TRUE(file.ok());
  Result<OpenFile*> open = fs_.Open(*file);
  ASSERT_TRUE(open.ok());

  // Graft: always ask for block 7 (offset 7*4096, one block).
  const std::string source = R"(
    ; compute-ra: write one extent to the output area, return 1
    loadi r6, 28672    ; 7 * 4096
    st64 r4, r6        ; out[0].offset
    loadi r6, 4096
    st64 r4, r6, 8     ; out[0].length
    loadi r0, 1
    halt
  )";
  Result<std::shared_ptr<Graft>> graft = LoadFromSource(source, "block7-ra");
  ASSERT_TRUE(graft.ok());

  const std::string point_name = (*open)->readahead_point().name();
  ASSERT_EQ(ns_.WithFunction(point_name,
                             [](FunctionGraftPoint&) { return Status::kOk; }),
            Status::kOk);
  ASSERT_EQ(loader_.InstallFunction(point_name, *graft), Status::kOk);

  // Any read now prefetches block 7.
  ASSERT_TRUE((*open)->Read(0, 4096).ok());
  EXPECT_EQ((*open)->stats().prefetches_enqueued, 1u);
  clock_.Advance(100'000);
  Result<OpenFile::ReadResult> hinted = (*open)->Read(7 * 4096, 4096);
  ASSERT_TRUE(hinted.ok());
  EXPECT_TRUE(hinted->cache_hit);
}

TEST_F(IntegrationTest, NestedGraftsNestedTransactions) {
  // Graft A's host call internally invokes graft point B (a graft calling a
  // graft): B runs in a nested transaction; B's abort must not kill A.
  static uint64_t state_a = 0;
  static uint64_t state_b = 0;
  state_a = state_b = 0;

  FunctionGraftPoint point_b(
      "inner.point", [](std::span<const uint64_t>) -> uint64_t { return 99; },
      FunctionGraftPoint::Config{}, &txn_, &host_, &ns_);

  const uint32_t call_inner = host_.Register(
      "k.call_inner",
      [&point_b](HostCallContext&) -> Result<uint64_t> {
        return point_b.Invoke({});
      },
      true);
  const uint32_t set_a = host_.Register(
      "k.set_a",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        TxnSet(&state_a, ctx.args[0]);
        return 0ull;
      },
      true);
  const uint32_t set_b = host_.Register(
      "k.set_b",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        TxnSet(&state_b, ctx.args[0]);
        return 0ull;
      },
      true);

  // Inner graft: mutate state_b, then trap (illegal indirect call).
  Asm inner("inner");
  inner.LoadImm(R0, 55).Call(set_b);
  inner.LoadImm(R1, 0xffff).CallR(R1);  // Aborts.
  inner.Halt();
  Result<SignedGraft> inner_signed = authority_.Sign(*Instrument(*inner.Finish()));
  ASSERT_TRUE(inner_signed.ok());
  Result<std::shared_ptr<Graft>> inner_graft =
      loader_.Load(*inner_signed, {kUser, nullptr});
  ASSERT_TRUE(inner_graft.ok());
  ASSERT_EQ(point_b.Replace(*inner_graft), Status::kOk);

  // Outer graft: mutate state_a, call inner point, return inner's answer.
  Asm outer("outer");
  outer.LoadImm(R0, 11).Call(set_a);
  outer.Call(call_inner);
  outer.Halt();
  Result<SignedGraft> outer_signed = authority_.Sign(*Instrument(*outer.Finish()));
  ASSERT_TRUE(outer_signed.ok());
  Result<std::shared_ptr<Graft>> outer_graft =
      loader_.Load(*outer_signed, {kUser, nullptr});
  ASSERT_TRUE(outer_graft.ok());

  FunctionGraftPoint point_a(
      "outer.point", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &txn_, &host_, &ns_);
  ASSERT_EQ(point_a.Replace(*outer_graft), Status::kOk);

  const uint64_t result = point_a.Invoke({});
  // Inner aborted -> inner point fell back to its default (99); outer
  // committed, keeping its own mutation.
  EXPECT_EQ(result, 99u);
  EXPECT_EQ(state_a, 11u);  // Outer's write survived.
  EXPECT_EQ(state_b, 0u);   // Inner's write rolled back.
  EXPECT_FALSE(point_b.grafted());  // Inner graft removed.
  EXPECT_TRUE(point_a.grafted());   // Outer graft unharmed.
  EXPECT_EQ(txn_.stats().nested_begins, 1u);
}

TEST_F(IntegrationTest, ResourceDelegationAcrossLoaderAndPoints) {
  // Installer funds the graft by limit transfer; the graft spends through a
  // host allocation call; an abort refunds everything.
  ResourceAccount installer("installer");
  installer.SetLimit(ResourceType::kMemory, 1000);

  const uint32_t alloc = host_.Register(
      "k.alloc",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        const Status s = ChargeCurrent(ResourceType::kMemory, ctx.args[0]);
        if (!IsOk(s)) {
          return s;
        }
        return 0ull;
      },
      true);

  Asm a("spender");
  a.LoadImm(R0, 400).Call(alloc);
  a.LoadImm(R0, 1).Halt();
  Result<SignedGraft> sg = authority_.Sign(*Instrument(*a.Finish()));
  ASSERT_TRUE(sg.ok());
  Result<std::shared_ptr<Graft>> graft = loader_.Load(*sg, {kUser, nullptr});
  ASSERT_TRUE(graft.ok());
  ASSERT_EQ(installer.TransferLimit(ResourceType::kMemory, 500, (*graft)->account()),
            Status::kOk);

  FunctionGraftPoint point(
      "spend.point", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &txn_, &host_, &ns_);
  ASSERT_EQ(point.Replace(*graft), Status::kOk);

  EXPECT_EQ(point.Invoke({}), 1u);
  EXPECT_EQ((*graft)->account().usage(ResourceType::kMemory), 400u);

  // A second invocation exceeds the remaining 100 -> abort refunds the
  // failed attempt (nothing extra charged) and the committed 400 stays.
  EXPECT_EQ(point.Invoke({}), 0u);  // Fell back to default.
  EXPECT_EQ((*graft)->account().usage(ResourceType::kMemory), 400u);
  EXPECT_FALSE(point.grafted());
}

TEST_F(IntegrationTest, EvictionGraftUnderMemoryPressureFromFileCache) {
  // Two subsystems interacting: an address space under pressure while an
  // eviction graft protects its hot pages; forward progress throughout.
  VirtualAddressSpace* vas = mem_.CreateVas("app", 8);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok());
  }
  // Protect pages 0 and 1.
  Page* hot0 = vas->FindResident(0);
  Page* hot1 = vas->FindResident(1);
  vas->SetPinnedHints({hot0->id, hot1->id});

  const std::string source = R"(
    ; eviction: return first resident not in hints
    ; r0=victim r1=res addr r2=res count r3=hint addr r4=hint count
    loadi r5, 0
  outer:
    bgeu r5, r2, giveup
    shli r7, r5, 3
    add r7, r1, r7
    ld64 r6, r7
    loadi r8, 0
  inner:
    bgeu r8, r4, take
    shli r9, r8, 3
    add r9, r3, r9
    ld64 r10, r9
    beq r10, r6, skip
    addi r8, r8, 1
    jmp inner
  take:
    mov r0, r6
    halt
  skip:
    addi r5, r5, 1
    jmp outer
  giveup:
    halt
  )";
  Result<std::shared_ptr<Graft>> graft = LoadFromSource(source, "pin-evict");
  ASSERT_TRUE(graft.ok());
  ASSERT_EQ(vas->eviction_point().Replace(*graft), Status::kOk);
  vas->SetPinnedHints({hot0->id, hot1->id});  // Re-mirror into new arena.

  // Pressure: fault 20 more pages through the 8-frame limit.
  for (uint64_t i = 8; i < 28; ++i) {
    ASSERT_TRUE(mem_.Touch(vas->id(), i).ok()) << i;
    // Keep the hot pages' ids fresh in the hint mirror (ids are stable).
  }
  // The hot pages never left memory.
  EXPECT_EQ(vas->FindResident(0), hot0);
  EXPECT_EQ(vas->FindResident(1), hot1);
  EXPECT_GT(mem_.stats().graft_overrules, 0u);
  EXPECT_LE(vas->resident_count(), 8u);
}

TEST_F(IntegrationTest, HttpGraftServesWhileReadaheadGraftPrefetches) {
  // Two grafted subsystems at once: an HTTP handler event graft and a file
  // read-ahead graft, interleaved, both transactional.
  EventGraftPoint* port = net_.ListenTcp(80);
  const std::string http_src = R"(
    ; echo handler: recv into arena, send back, close
    mov r6, r0
    loadi r7, 65536
    mov r1, r7
    loadi r2, 256
    call net.recv
    mov r8, r0
    mov r0, r6
    mov r1, r7
    mov r2, r8
    call net.send
    mov r0, r6
    call net.close
    loadi r0, 1
    halt
  )";
  Result<std::shared_ptr<Graft>> http = LoadFromSource(http_src, "echo");
  ASSERT_TRUE(http.ok());
  (*http)->account().SetLimit(ResourceType::kNetBandwidth, 4096);
  ASSERT_EQ(port->AddHandler(*http, 1), Status::kOk);

  Result<FileId> file = fs_.CreateFile("content", 64 * 4096);
  ASSERT_TRUE(file.ok());
  Result<OpenFile*> open = fs_.Open(*file);
  ASSERT_TRUE(open.ok());

  for (int i = 0; i < 5; ++i) {
    Result<ConnectionId> conn = net_.DeliverConnection(80, "GET /" + std::to_string(i));
    ASSERT_TRUE(conn.ok());
    EXPECT_EQ(net_.FindConnection(*conn)->tx, "GET /" + std::to_string(i));
    ASSERT_TRUE((*open)->Read(static_cast<uint64_t>(i) * 4096, 4096).ok());
  }
  EXPECT_EQ(txn_.stats().aborts, 0u);
  EXPECT_GE(txn_.stats().commits, 5u);
}

TEST_F(IntegrationTest, LoaderNamespaceEndToEndErrors) {
  // Every failure mode of the Figure 1 flow, through the real pipeline.
  Result<std::shared_ptr<Graft>> graft = LoadFromSource("loadi r0, 1\nhalt\n", "ok");
  ASSERT_TRUE(graft.ok());
  // Unknown point.
  EXPECT_EQ(loader_.InstallFunction("does.not.exist", *graft), Status::kNotFound);
  // Syntax error in source.
  EXPECT_FALSE(LoadFromSource("bogus r1\n", "bad").ok());
  // Unknown host function name.
  EXPECT_FALSE(LoadFromSource("call not.a.function\nhalt\n", "bad2").ok());
}

}  // namespace
}  // namespace vino
