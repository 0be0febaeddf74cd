// FunctionGraftPoint and EventGraftPoint tests: the invocation wrapper,
// abort-and-fallback behaviour, forcible removal, result validation, the
// one trace record an invocation posts, and event handler ordering.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/base/trace.h"
#include "src/graft/event_point.h"
#include "src/graft/function_point.h"
#include "src/graft/namespace.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/txn/accessor.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};
constexpr GraftIdentity kRoot{0, true};

class GraftPointTest : public ::testing::Test {
 protected:
  GraftPointTest() {
    noop_id_ = host_.Register(
        "k.noop", [](HostCallContext&) -> Result<uint64_t> { return 0ull; }, true);
    internal_id_ = host_.Register(
        "k.internal", [](HostCallContext&) -> Result<uint64_t> { return 1ull; },
        false);
  }

  // Builds an instrumented graft that returns `value`.
  std::shared_ptr<Graft> ConstGraft(uint64_t value) {
    Asm a("const-graft");
    a.LoadImm(R0, static_cast<int64_t>(value)).Halt();
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        "const-graft", *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  // A graft that loops forever (misbehaving).
  std::shared_ptr<Graft> SpinGraft() {
    Asm a("spin-graft");
    auto top = a.NewLabel();
    a.Bind(top);
    a.Jmp(top);
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        "spin-graft", *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  FunctionGraftPoint::Config DefaultConfig() { return FunctionGraftPoint::Config{}; }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  uint32_t noop_id_ = 0;
  uint32_t internal_id_ = 0;
};

TEST_F(GraftPointTest, UngraftedInvokesDefault) {
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  EXPECT_EQ(point.Invoke({}), 7u);
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(txn_.stats().begins, 0u);  // VINO path: no transaction.
}

TEST_F(GraftPointTest, GraftReplacesDefault) {
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  ASSERT_EQ(point.Replace(ConstGraft(42)), Status::kOk);
  EXPECT_TRUE(point.grafted());
  EXPECT_EQ(point.Invoke({}), 42u);
  EXPECT_EQ(txn_.stats().begins, 1u);
  EXPECT_EQ(txn_.stats().commits, 1u);
}

TEST_F(GraftPointTest, SecondReplaceIsBusy) {
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  ASSERT_EQ(point.Replace(ConstGraft(1)), Status::kOk);
  EXPECT_EQ(point.Replace(ConstGraft(2)), Status::kBusy);
  point.Remove();
  EXPECT_EQ(point.Replace(ConstGraft(2)), Status::kOk);
}

TEST_F(GraftPointTest, RestrictedPointRejectsUnprivileged) {
  FunctionGraftPoint::Config config;
  config.restricted = true;
  FunctionGraftPoint point(
      "global.policy", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      config, &txn_, &host_, &ns_);
  EXPECT_EQ(point.Replace(ConstGraft(1)), Status::kRestrictedPoint);

  Asm a("root-graft");
  a.LoadImm(R0, 9).Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p);
  ASSERT_TRUE(inst.ok());
  auto root_graft = std::make_shared<Graft>(
      "root-graft", *VerifyAndCompile(*inst, host_), kRoot, 4096);
  EXPECT_EQ(point.Replace(root_graft), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 9u);
}

TEST_F(GraftPointTest, MisbehavingGraftAbortedRemovedAndDefaulted) {
  FunctionGraftPoint::Config config;
  config.fuel = 10'000;  // Bound the spin.
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; }, config,
      &txn_, &host_, &ns_);
  ASSERT_EQ(point.Replace(SpinGraft()), Status::kOk);

  // Invocation: graft exhausts fuel -> abort -> forcible removal -> default.
  EXPECT_EQ(point.Invoke({}), 7u);
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(point.stats().graft_aborts, 1u);
  EXPECT_EQ(point.stats().forcible_removals, 1u);
  EXPECT_EQ(txn_.stats().aborts, 1u);

  // Next invocation is the clean VINO path again.
  EXPECT_EQ(point.Invoke({}), 7u);
  EXPECT_EQ(txn_.stats().begins, 1u);  // No new transaction.
}

TEST_F(GraftPointTest, AbortUndoesKernelStateChanges) {
  static uint64_t kernel_state = 5;
  kernel_state = 5;
  // Graft-callable accessor that mutates kernel state with undo logging,
  // then a graft that calls it and traps.
  const uint32_t set_id = host_.Register(
      "k.set_state",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        TxnSet(&kernel_state, ctx.args[0]);
        return 0ull;
      },
      true);

  Asm a("mutate-then-trap");
  a.LoadImm(R0, 99);
  a.Call(set_id);
  a.LoadImm(R1, static_cast<int64_t>(noop_id_));  // Fine so far...
  a.CallR(R1);
  a.LoadImm(R1, static_cast<int64_t>(internal_id_));  // ...then illegal.
  a.CallR(R1);
  a.Halt();
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p);
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>(
      "mutator", *VerifyAndCompile(*inst, host_), kUser, 4096);

  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  ASSERT_EQ(point.Replace(graft), Status::kOk);

  EXPECT_EQ(point.Invoke({}), 7u);        // Fell back to default.
  EXPECT_EQ(kernel_state, 5u);            // Mutation rolled back.
  EXPECT_FALSE(point.grafted());          // Forcibly removed.
  EXPECT_EQ(point.stats().graft_aborts, 1u);
}

TEST_F(GraftPointTest, ValidatorRejectsBadResultUsesDefault) {
  FunctionGraftPoint::Config config;
  config.validator = [](uint64_t result, std::span<const uint64_t>) {
    return result < 10;
  };
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 3; }, config,
      &txn_, &host_, &ns_);
  ASSERT_EQ(point.Replace(ConstGraft(1000)), Status::kOk);

  EXPECT_EQ(point.Invoke({}), 3u);  // Bad result ignored; default used.
  EXPECT_EQ(point.stats().bad_results, 1u);
  EXPECT_TRUE(point.grafted());  // Not removed (max_bad_results == 0).
}

TEST_F(GraftPointTest, BadResultStrikesRemoveGraft) {
  FunctionGraftPoint::Config config;
  config.validator = [](uint64_t result, std::span<const uint64_t>) {
    return result < 10;
  };
  config.max_bad_results = 3;
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 3; }, config,
      &txn_, &host_, &ns_);
  ASSERT_EQ(point.Replace(ConstGraft(1000)), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 3u);
  EXPECT_EQ(point.Invoke({}), 3u);
  EXPECT_TRUE(point.grafted());
  EXPECT_EQ(point.Invoke({}), 3u);  // Third strike.
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(point.stats().forcible_removals, 1u);
}

TEST_F(GraftPointTest, NativeGraftRunsUnsafePath) {
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  auto native = std::make_shared<Graft>(
      "native",
      [](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        return args.empty() ? 0 : args[0] * 2;
      },
      kRoot);
  ASSERT_EQ(point.Replace(native), Status::kOk);
  const std::vector<uint64_t> args{21};
  EXPECT_EQ(point.Invoke(args), 42u);
  EXPECT_EQ(txn_.stats().commits, 1u);  // Unsafe path still transactional.
}

TEST_F(GraftPointTest, NativeGraftAbortViaStatus) {
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  auto native = std::make_shared<Graft>(
      "native-fail",
      [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        return Status::kTxnAborted;
      },
      kRoot);
  ASSERT_EQ(point.Replace(native), Status::kOk);
  EXPECT_EQ(point.Invoke({}), 7u);
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(txn_.stats().aborts, 1u);
}

TEST_F(GraftPointTest, ConcurrentInvokeAndReplaceIsSafe) {
  // Hot-swap: one thread invokes in a loop while another replaces/removes.
  // The atomic graft pointer guarantees each invocation sees a coherent
  // graft (or none); nothing crashes and results are always valid.
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  auto g1 = ConstGraft(41);
  auto g2 = ConstGraft(42);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad_results{0};
  std::thread invoker([&] {
    while (!stop.load()) {
      const uint64_t r = point.Invoke({});
      if (r != 7 && r != 41 && r != 42) {
        bad_results.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 300; ++i) {
    (void)point.Replace(g1);
    point.Remove();
    (void)point.Replace(g2);
    point.Remove();
  }
  stop.store(true);
  invoker.join();
  EXPECT_EQ(bad_results.load(), 0u);
}

TEST_F(GraftPointTest, HostCallsCarryInstallerIdentity) {
  // §3.3: graft-callable functions check the installing user's permissions.
  // A host function gating on privilege must see who installed the graft.
  const uint32_t admin_op = host_.Register(
      "k.admin_op",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        if (!ctx.identity.privileged) {
          return Status::kPermissionDenied;
        }
        return 1ull;
      },
      true);
  const uint32_t whoami = host_.Register(
      "k.whoami",
      [](HostCallContext& ctx) -> Result<uint64_t> { return ctx.identity.uid; },
      true);

  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);

  // Unprivileged installer: admin_op refuses -> graft aborts -> default.
  Asm a("try-admin");
  a.Call(admin_op).Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
      "try-admin", *VerifyAndCompile(*inst, host_), kUser, 4096)),
            Status::kOk);
  EXPECT_EQ(point.Invoke({}), 7u);
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(txn_.stats().aborts, 1u);

  // Privileged installer: the same code succeeds.
  Result<Program> inst2 = Instrument(*Asm("try-admin2").Call(admin_op).Halt().Finish());
  ASSERT_TRUE(inst2.ok());
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
      "try-admin2", *VerifyAndCompile(*inst2, host_), kRoot, 4096)),
            Status::kOk);
  EXPECT_EQ(point.Invoke({}), 1u);

  // whoami sees the installer's uid.
  point.Remove();
  Result<Program> inst3 = Instrument(*Asm("whoami").Call(whoami).Halt().Finish());
  ASSERT_TRUE(inst3.ok());
  ASSERT_EQ(point.Replace(std::make_shared<Graft>(
      "whoami", *VerifyAndCompile(*inst3, host_), kUser, 4096)),
            Status::kOk);
  EXPECT_EQ(point.Invoke({}), kUser.uid);
}

TEST_F(GraftPointTest, NamespaceLookup) {
  FunctionGraftPoint point(
      "openfile.7.compute-ra", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      DefaultConfig(), &txn_, &host_, &ns_);
  const FunctionGraftPoint* found = nullptr;
  ASSERT_EQ(ns_.WithFunction("openfile.7.compute-ra",
                             [&found](FunctionGraftPoint& p) {
                               found = &p;
                               return Status::kOk;
                             }),
            Status::kOk);
  EXPECT_EQ(found, &point);
  EXPECT_EQ(ns_.WithFunction("no.such.point",
                             [](FunctionGraftPoint&) { return Status::kOk; }),
            Status::kNotFound);

  const auto entries = ns_.List();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "openfile.7.compute-ra");
  EXPECT_FALSE(entries[0].is_event);
}

// --- Flight recorder: one record per invocation ---------------------------

// Turns the flight recorder on for one test and hands back the records the
// test posts: a cursor drained once up front skips everything older.
class RecordedTrace {
 public:
  RecordedTrace() : was_enabled_(trace::Enabled()) {
    trace::SetEnabled(true);
    (void)cursor_.DrainInto(sink_);
    sink_.got.clear();
  }
  ~RecordedTrace() { trace::SetEnabled(was_enabled_); }

  std::vector<trace::Record> Take() {
    (void)cursor_.DrainInto(sink_);
    std::vector<trace::Record> records;
    for (const trace::TaggedRecord& tagged : sink_.got) {
      records.push_back(tagged.record);
    }
    sink_.got.clear();
    return records;
  }

 private:
  struct Sink : trace::TraceSink {
    std::vector<trace::TaggedRecord> got;
    void OnRecord(const trace::TaggedRecord& r) override { got.push_back(r); }
  };
  const bool was_enabled_;
  trace::DrainCursor cursor_;
  Sink sink_;
};

size_t CountEvents(const std::vector<trace::Record>& records,
                   trace::Event event) {
  return static_cast<size_t>(
      std::count_if(records.begin(), records.end(), [event](const auto& r) {
        return static_cast<trace::Event>(r.event) == event;
      }));
}

TEST_F(GraftPointTest, TracedCommitPostsOneEndRecordStampedAtStart) {
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  const std::shared_ptr<Graft> graft = ConstGraft(42);
  ASSERT_EQ(point.Replace(graft), Status::kOk);

  RecordedTrace recorded;
  EXPECT_EQ(point.Invoke({}), 42u);
  const uint64_t after_ns = trace::NowNs();
  const std::vector<trace::Record> records = recorded.Take();

  ASSERT_EQ(records.size(), 1u);
  const trace::Record& end = records[0];
  EXPECT_EQ(static_cast<trace::Event>(end.event), trace::Event::kInvokeEnd);
  EXPECT_EQ(trace::InvokePathTag(end.tag), trace::PathTag::kSafe);
  EXPECT_EQ(trace::InvokeTierPlus1(end.tag),
            static_cast<uint16_t>(graft->program().tier()) + 1);
  EXPECT_EQ(end.a, graft->trace_id());
  EXPECT_EQ(end.a32, 0u);  // No locks held at commit.
  EXPECT_GT(end.b, 0u);
  // Stamped at the start: start + duration is not after the call returned.
  EXPECT_LE(end.time_ns + end.b, after_ns);
  // The wrapper timed the commit for the transaction manager.
  EXPECT_EQ(txn_.commit_latency().Count(), 1u);
  EXPECT_EQ(txn_.abort_latency().Count(), 0u);
}

TEST_F(GraftPointTest, TracedAbortPostsEndCostAndEjectionButNoTxnRecords) {
  TxnLock lock("obj.lock");
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  uint64_t slot = 0;
  const auto graft = std::make_shared<Graft>(
      "lock-then-abort",
      [&lock, &slot](std::span<const uint64_t>,
                     MemoryImage*) -> Result<uint64_t> {
        EXPECT_EQ(lock.Acquire(), Status::kOk);  // L = 1.
        TxnSet(&slot, uint64_t{1});              // G = 1.
        return Status::kTxnAborted;
      },
      kRoot);
  ASSERT_EQ(point.Replace(graft), Status::kOk);

  RecordedTrace recorded;
  EXPECT_EQ(point.Invoke({}), 7u);  // Aborted, removed, default ran.
  EXPECT_FALSE(point.grafted());
  EXPECT_EQ(slot, 0u);
  const std::vector<trace::Record> records = recorded.Take();

  for (const trace::Event gone :
       {trace::Event::kInvokeBegin, trace::Event::kTxnBegin,
        trace::Event::kTxnCommit, trace::Event::kTxnAbort}) {
    EXPECT_EQ(CountEvents(records, gone), 0u) << trace::EventName(gone);
  }
  ASSERT_EQ(CountEvents(records, trace::Event::kInvokeEnd), 1u);
  ASSERT_EQ(CountEvents(records, trace::Event::kAbortCost), 1u);
  ASSERT_EQ(CountEvents(records, trace::Event::kGraftEjected), 1u);
  for (const trace::Record& r : records) {
    switch (static_cast<trace::Event>(r.event)) {
      case trace::Event::kInvokeEnd:
        EXPECT_EQ(trace::InvokePathTag(r.tag), trace::PathTag::kAbort);
        EXPECT_EQ(trace::InvokeTierPlus1(r.tag), 0u);  // Native.
        EXPECT_EQ(r.a32, 1u);
        EXPECT_EQ(r.a, graft->trace_id());
        break;
      case trace::Event::kAbortCost:
        EXPECT_EQ(r.a32, 1u);
        EXPECT_EQ(r.tag, 1u);
        EXPECT_EQ(r.a, graft->trace_id());
        break;
      case trace::Event::kGraftEjected:
        EXPECT_EQ(r.a, graft->trace_id());
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(txn_.abort_latency().Count(), 1u);
  EXPECT_EQ(txn_.commit_latency().Count(), 0u);
}

TEST_F(GraftPointTest, TracedUngraftedInvocationPostsOneNullEndRecord) {
  FunctionGraftPoint point(
      "obj.fn", [](std::span<const uint64_t>) -> uint64_t { return 7; },
      DefaultConfig(), &txn_, &host_, &ns_);
  RecordedTrace recorded;
  EXPECT_EQ(point.Invoke({}), 7u);
  const std::vector<trace::Record> records = recorded.Take();

  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(static_cast<trace::Event>(records[0].event),
            trace::Event::kInvokeEnd);
  EXPECT_EQ(records[0].tag, trace::PackInvokeTag(trace::PathTag::kNull, 0));
  EXPECT_EQ(records[0].a, 0u);  // No graft.
  EXPECT_EQ(records[0].a32, 0u);
}

// --- Event graft points --------------------------------------------------

class EventPointTest : public GraftPointTest {
 protected:
  // A graft that stores its tag into a shared log via host call.
  std::shared_ptr<Graft> TagGraft(const std::string& name, uint64_t tag) {
    Asm a(name);
    a.LoadImm(R0, static_cast<int64_t>(tag)).Call(log_id_).Halt();
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    return std::make_shared<Graft>(
        name, *VerifyAndCompile(*inst, host_), kUser, 4096);
  }

  void SetUp() override {
    log_id_ = host_.Register(
        "k.log_tag",
        [this](HostCallContext& ctx) -> Result<uint64_t> {
          log_.push_back(ctx.args[0]);
          return 0ull;
        },
        true);
  }

  uint32_t log_id_ = 0;
  std::vector<uint64_t> log_;
};

TEST_F(EventPointTest, HandlersRunInOrder) {
  EventGraftPoint point("net.tcp.80.connection", EventGraftPoint::Config{}, &txn_,
                        &host_, &ns_);
  ASSERT_EQ(point.AddHandler(TagGraft("h2", 2), 20), Status::kOk);
  ASSERT_EQ(point.AddHandler(TagGraft("h1", 1), 10), Status::kOk);
  ASSERT_EQ(point.AddHandler(TagGraft("h3", 3), 30), Status::kOk);
  EXPECT_EQ(point.handler_count(), 3u);

  const auto outcome = point.Dispatch({});
  EXPECT_EQ(outcome.handlers_run, 3u);
  EXPECT_EQ(outcome.handler_aborts, 0u);
  EXPECT_EQ(log_, (std::vector<uint64_t>{1, 2, 3}));  // By order value.
}

TEST_F(EventPointTest, DuplicateHandlerNameRejected) {
  EventGraftPoint point("ev", EventGraftPoint::Config{}, &txn_, &host_, &ns_);
  ASSERT_EQ(point.AddHandler(TagGraft("h", 1), 1), Status::kOk);
  EXPECT_EQ(point.AddHandler(TagGraft("h", 2), 2), Status::kAlreadyExists);
}

TEST_F(EventPointTest, AbortingHandlerRemovedOthersSurvive) {
  EventGraftPoint::Config config;
  config.fuel = 10'000;
  EventGraftPoint point("ev", config, &txn_, &host_, &ns_);

  Asm a("bad-handler");
  auto top = a.NewLabel();
  a.Bind(top);
  a.Jmp(top);
  Result<Program> p = a.Finish();
  ASSERT_TRUE(p.ok());
  Result<Program> inst = Instrument(*p);
  ASSERT_TRUE(inst.ok());
  auto bad = std::make_shared<Graft>(
      "bad-handler", *VerifyAndCompile(*inst, host_), kUser, 4096);

  ASSERT_EQ(point.AddHandler(TagGraft("good", 7), 1), Status::kOk);
  ASSERT_EQ(point.AddHandler(bad, 2), Status::kOk);

  auto outcome = point.Dispatch({});
  EXPECT_EQ(outcome.handlers_run, 2u);
  EXPECT_EQ(outcome.handler_aborts, 1u);
  EXPECT_EQ(point.handler_count(), 1u);  // Bad one removed (covert DoS, §2.5).
  EXPECT_EQ(log_, std::vector<uint64_t>{7});

  // Stream keeps flowing.
  outcome = point.Dispatch({});
  EXPECT_EQ(outcome.handler_aborts, 0u);
  EXPECT_EQ(log_, (std::vector<uint64_t>{7, 7}));
}

TEST_F(EventPointTest, RemoveHandlerByName) {
  EventGraftPoint point("ev", EventGraftPoint::Config{}, &txn_, &host_, &ns_);
  ASSERT_EQ(point.AddHandler(TagGraft("h", 1), 1), Status::kOk);
  EXPECT_EQ(point.RemoveHandler("nope"), Status::kNotFound);
  EXPECT_EQ(point.RemoveHandler("h"), Status::kOk);
  EXPECT_EQ(point.handler_count(), 0u);
}

TEST_F(EventPointTest, AsyncWorkersChargeThreadResource) {
  EventGraftPoint point("ev", EventGraftPoint::Config{}, &txn_, &host_, &ns_);
  auto native = std::make_shared<Graft>(
      "counter",
      [](std::span<const uint64_t>, MemoryImage*) -> Result<uint64_t> {
        return 0ull;
      },
      kRoot);
  // Account allows exactly one worker thread.
  native->account().SetLimit(ResourceType::kThreads, 1);
  ASSERT_EQ(point.AddHandler(native, 1), Status::kOk);

  point.DispatchAsync({1});
  point.Drain();
  const auto s = point.stats();
  EXPECT_EQ(s.handler_runs, 1u);
  EXPECT_EQ(native->account().usage(ResourceType::kThreads), 0u);

  // Zero-thread account: the handler cannot afford a pool worker, so the
  // event degrades to synchronous delivery on the dispatching thread — it
  // still runs (events are never dropped), recorded as an inline run.
  native->account().SetLimit(ResourceType::kThreads, 0);
  point.DispatchAsync({2});
  point.Drain();
  const auto s2 = point.stats();
  EXPECT_EQ(s2.handler_runs, 2u);
  EXPECT_EQ(s2.async_inline_runs, 1u);
}

TEST_F(EventPointTest, EventNamespaceLookup) {
  EventGraftPoint point("net.udp.2049.packet", EventGraftPoint::Config{}, &txn_,
                        &host_, &ns_);
  const auto visit_event = [this](const std::string& name) {
    return ns_.WithEvent(name, [](EventGraftPoint&) { return Status::kOk; });
  };
  ASSERT_EQ(visit_event("net.udp.2049.packet"), Status::kOk);
  EXPECT_EQ(visit_event("net.udp.2049.packet2"), Status::kNotFound);
  EXPECT_EQ(ns_.WithFunction("net.udp.2049.packet",
                             [](FunctionGraftPoint&) { return Status::kOk; }),
            Status::kNotFound);
}

}  // namespace
}  // namespace vino
