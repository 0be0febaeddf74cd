// VinoKernel facade tests: construction wiring, the source->graft pipeline,
// and cross-subsystem sanity through the single entry point.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/trace.h"
#include "src/base/trace_spool.h"
#include "src/graft/function_point.h"
#include "src/kernel/kernel.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

TEST(KernelTest, DefaultConstructionWiresEverything) {
  VinoKernel kernel;
  EXPECT_NE(kernel.watchdog(), nullptr);
  EXPECT_EQ(kernel.mem().pool().frame_count(), 4096u);
  EXPECT_EQ(kernel.cache().capacity(), 1024u);
  // The net stack registered its host functions.
  EXPECT_TRUE(kernel.host().IdOf("net.recv").ok());
  EXPECT_TRUE(kernel.host().IdOf("net.send").ok());
  EXPECT_TRUE(kernel.host().IdOf("net.close").ok());
}

TEST(KernelTest, ConfigurationRespected) {
  VinoKernelConfig config;
  config.memory_frames = 64;
  config.cache_buffers = 16;
  config.start_watchdog = false;
  config.event_pool.workers = 3;
  config.event_pool.queue_capacity = 32;
  VinoKernel kernel(config);
  EXPECT_EQ(kernel.watchdog(), nullptr);
  EXPECT_EQ(kernel.mem().pool().frame_count(), 64u);
  EXPECT_EQ(kernel.cache().capacity(), 16u);
  EXPECT_EQ(kernel.event_pool().worker_count(), 3u);
  EXPECT_EQ(kernel.event_pool().queue_capacity(), 32u);
}

TEST(KernelTest, EventPoolCarriesNetTraffic) {
  VinoKernelConfig config;
  config.start_watchdog = false;
  config.event_pool.workers = 2;
  VinoKernel kernel(config);

  EventGraftPoint* point = kernel.net().ListenUdp(9);
  auto handler = std::make_shared<Graft>(
      "tick",
      [&kernel](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        Connection* c = kernel.net().FindConnection(args[0]);
        if (c == nullptr) {
          return Status::kNotFound;
        }
        c->tx = "ok";
        return 0ull;
      },
      GraftIdentity{0, true});
  handler->account().SetLimit(ResourceType::kThreads, 2);
  ASSERT_EQ(point->AddHandler(handler, 1), Status::kOk);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(kernel.net().DeliverPacketAsync(9, "x").ok());
  }
  kernel.net().DrainEvents();
  EXPECT_EQ(point->stats().handler_runs, 8u);
  // The kernel's own pool (not the process default) carried the traffic.
  EXPECT_GT(kernel.event_pool().stats().submitted, 0u);
}

TEST(KernelTest, SourcePipelineProducesRunnableGraft) {
  VinoKernel kernel;
  Result<std::shared_ptr<Graft>> graft = kernel.LoadGraftFromSource(
      "loadi r0, 1234\nhalt\n", "answer", kUser);
  ASSERT_TRUE(graft.ok());
  EXPECT_TRUE((*graft)->program().instrumented);

  FunctionGraftPoint point(
      "k.point", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(), &kernel.ns());
  ASSERT_EQ(kernel.loader().InstallFunction("k.point", *graft), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 1234u);
}

TEST(KernelTest, SourcePipelineErrors) {
  VinoKernel kernel;
  EXPECT_FALSE(kernel.LoadGraftFromSource("not an opcode\n", "bad", kUser).ok());
  EXPECT_FALSE(
      kernel.LoadGraftFromSource("call no.such.fn\nhalt\n", "bad2", kUser).ok());
}

TEST(KernelTest, SponsorPlumbsThroughPipeline) {
  VinoKernel kernel;
  ResourceAccount installer("installer");
  installer.SetLimit(ResourceType::kMemory, 100);
  Result<std::shared_ptr<Graft>> graft = kernel.LoadGraftFromSource(
      "loadi r0, 0\nhalt\n", "sponsored", kUser, &installer);
  ASSERT_TRUE(graft.ok());
  EXPECT_EQ((*graft)->account().Charge(ResourceType::kMemory, 40), Status::kOk);
  EXPECT_EQ(installer.usage(ResourceType::kMemory), 40u);
}

TEST(KernelTest, DefaultPointConfigWiresWatchdog) {
  VinoKernel kernel;
  FunctionGraftPoint::Config config = kernel.DefaultPointConfig(5'000);
  EXPECT_EQ(config.watchdog, kernel.watchdog());
  EXPECT_EQ(config.wall_budget, 5'000u);

  VinoKernelConfig no_dog;
  no_dog.start_watchdog = false;
  VinoKernel bare(no_dog);
  FunctionGraftPoint::Config config2 = bare.DefaultPointConfig();
  EXPECT_EQ(config2.watchdog, nullptr);
  EXPECT_EQ(config2.wall_budget, 0u);
}

TEST(KernelTest, GraftPointIntrospection) {
  VinoKernel kernel;
  Result<FileId> file = kernel.fs().CreateFile("f", 4096);
  ASSERT_TRUE(file.ok());
  Result<OpenFile*> open = kernel.fs().Open(*file);
  ASSERT_TRUE(open.ok());
  kernel.net().ListenTcp(80);
  kernel.sched().CreateThread("t", 1);
  VirtualAddressSpace* vas = kernel.mem().CreateVas("v", 8);
  (void)vas;

  const auto points = kernel.ListGraftPoints();
  // compute-ra + tcp event + schedule-delegate + vas eviction.
  EXPECT_GE(points.size(), 4u);
  bool saw_event = false;
  bool saw_function = false;
  for (const auto& p : points) {
    saw_event |= p.is_event;
    saw_function |= !p.is_event;
  }
  EXPECT_TRUE(saw_event);
  EXPECT_TRUE(saw_function);
}

TEST(KernelTest, ConfiguredSpoolDrainsTracesAcrossKernelLifetime) {
  const std::string path =
      ::testing::TempDir() + "vino_kernel_spool." + std::to_string(::getpid()) +
      ".bin";
  trace::ResetForTest();
  trace::SetEnabled(true);
  {
    VinoKernelConfig config;
    config.start_watchdog = false;
    config.trace_spool.path = path;
    VinoKernel kernel(config);
    ASSERT_NE(kernel.spool(), nullptr);
    EXPECT_EQ(kernel.spool()->path(), path);

    // Exercise a traced workload through the facade.
    Result<std::shared_ptr<Graft>> graft = kernel.LoadGraftFromSource(
        "loadi r0, 7\nhalt\n", "traced", kUser);
    ASSERT_TRUE(graft.ok());
    FunctionGraftPoint point(
        "k.spooled", [](std::span<const uint64_t>) -> uint64_t { return 0; },
        FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(),
        &kernel.ns());
    ASSERT_EQ(kernel.loader().InstallFunction("k.spooled", *graft), Status::kOk);
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(point.Invoke({}), 7u);
    }
  }  // Kernel destruction: final drain + close trailer.
  trace::SetEnabled(false);

  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(path, records, &stats), Status::kOk);
  EXPECT_TRUE(stats.closed);
  // The 50 invocations (begin/end + txn begin/commit each) all made it out.
  uint64_t invoke_ends = 0;
  for (const auto& r : records) {
    if (static_cast<trace::Event>(r.record.event) == trace::Event::kInvokeEnd) {
      ++invoke_ends;
    }
  }
  EXPECT_GE(invoke_ends, 50u);
  std::remove(path.c_str());
  trace::ResetForTest();
}

TEST(KernelTest, ConfiguredRotationSpoolsSegmentRing) {
  const std::string base = ::testing::TempDir() + "vino_kernel_rspool." +
                           std::to_string(::getpid());
  trace::ResetForTest();
  trace::SetEnabled(true);
  {
    VinoKernelConfig config;
    config.start_watchdog = false;
    config.trace_spool.path = base;
    config.trace_spool.rotation.segment_bytes = 8 * 1024;  // Rotate often.
    config.trace_spool.rotation.max_segments = 1000;       // Reclaim nothing.
    VinoKernel kernel(config);
    ASSERT_NE(kernel.spool(), nullptr);

    Result<std::shared_ptr<Graft>> graft = kernel.LoadGraftFromSource(
        "loadi r0, 7\nhalt\n", "traced", kUser);
    ASSERT_TRUE(graft.ok());
    FunctionGraftPoint point(
        "k.rspooled", [](std::span<const uint64_t>) -> uint64_t { return 0; },
        FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(),
        &kernel.ns());
    ASSERT_EQ(kernel.loader().InstallFunction("k.rspooled", *graft),
              Status::kOk);
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(point.Invoke({}), 7u);
    }
  }
  trace::SetEnabled(false);

  // The workload spilled across multiple segments; the chain reads back as
  // one continuous, closed stream.
  std::vector<trace::TaggedRecord> records;
  spool::ReadStats stats;
  ASSERT_EQ(spool::ReadSpoolChain(base, records, &stats), Status::kOk);
  EXPECT_TRUE(stats.closed);
  EXPECT_GT(stats.segments, 1u);
  EXPECT_EQ(stats.first_batch_seq, 0u);
  EXPECT_EQ(stats.seq_gaps, 0u);
  uint64_t invoke_ends = 0;
  for (const auto& r : records) {
    if (static_cast<trace::Event>(r.record.event) == trace::Event::kInvokeEnd) {
      ++invoke_ends;
    }
  }
  EXPECT_GE(invoke_ends, 400u);
  for (const uint64_t index : spool::ListSegments(base)) {
    std::remove(spool::SegmentPath(base, index).c_str());
  }
  trace::ResetForTest();
}

TEST(KernelTest, EjectDegradedIsPerKernel) {
  // The observing kernel is built first: a later kernel's switch must not
  // reach back into it.
  VinoKernelConfig config;
  config.start_watchdog = false;
  config.eject_degraded = false;
  VinoKernel observing(config);
  config.eject_degraded = true;
  VinoKernel ejecting(config);

  // 96 conforming aborts, then two drift windows of 40 µs ones.
  auto graft = std::make_shared<Graft>(
      "drifter",
      [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        return 42ull;
      },
      GraftIdentity{0, true});
  for (uint64_t i = 0; i < 160; ++i) {
    const uint64_t locks = i % 4;
    const uint64_t undo = (i * 7) % 16;
    graft->RecordAbortCost(locks, undo,
                           i < 96 ? 1000 + 100 * locks + 10 * undo : 40'000);
  }
  ASSERT_TRUE(graft->degraded());

  auto make_point = [&graft](VinoKernel& kernel) {
    auto point = std::make_unique<FunctionGraftPoint>(
        "test.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
        FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(), nullptr);
    EXPECT_EQ(point->Replace(graft), Status::kOk);
    EXPECT_EQ(point->Invoke({}), 42u);
    return point;
  };
  EXPECT_TRUE(make_point(observing)->grafted())
      << "the observing kernel's point ejected the graft";
  EXPECT_FALSE(make_point(ejecting)->grafted());
}

TEST(KernelTest, NoSpoolConfiguredMeansNoDrainer) {
  VinoKernelConfig config;
  config.start_watchdog = false;
  VinoKernel kernel(config);
  // (check.sh sets VINO_SPOOL for the whole suite run; only assert the
  // "off" shape when the environment agrees.)
  if (std::getenv("VINO_SPOOL") == nullptr) {
    EXPECT_EQ(kernel.spool(), nullptr);
  }
}

TEST(KernelTest, UnwritableSpoolPathDegradesToNoSpooling) {
  VinoKernelConfig config;
  config.start_watchdog = false;
  config.trace_spool.path = "/nonexistent-dir-vino/spool.bin";
  VinoKernel kernel(config);  // Must not throw or fail construction.
  EXPECT_EQ(kernel.spool(), nullptr);
  // The rest of the kernel is fully functional.
  EXPECT_TRUE(kernel.host().IdOf("net.recv").ok());
}

TEST(KernelTest, EndToEndFileWorkloadThroughFacade) {
  VinoKernel kernel;
  Result<FileId> file = kernel.fs().CreateFile("data", 32 * 4096);
  ASSERT_TRUE(file.ok());
  Result<OpenFile*> open = kernel.fs().Open(*file);
  ASSERT_TRUE(open.ok());

  Result<std::shared_ptr<Graft>> graft = kernel.LoadGraftFromSource(
      R"(
        ; prefetch block 3 on every read
        loadi r6, 12288
        st64 r4, r6
        loadi r6, 4096
        st64 r4, r6, 8
        loadi r0, 1
        halt
      )",
      "block3-ra", kUser);
  ASSERT_TRUE(graft.ok());
  ASSERT_EQ(kernel.loader().InstallFunction((*open)->readahead_point().name(),
                                            *graft),
            Status::kOk);
  ASSERT_TRUE((*open)->Read(0, 4096).ok());
  EXPECT_EQ((*open)->stats().prefetches_enqueued, 1u);
  kernel.clock().Advance(100'000);
  Result<OpenFile::ReadResult> hit = (*open)->Read(3 * 4096, 4096);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
}

}  // namespace
}  // namespace vino
