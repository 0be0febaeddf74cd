// Network substrate tests: ports, connections, the net.* host interface,
// bandwidth accounting, and transactional retraction of partial responses.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/graft/function_point.h"
#include "src/net/net_stack.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

constexpr GraftIdentity kUser{1001, false};

class NetTest : public ::testing::Test {
 protected:
  NetTest() : stack_(&txn_, &host_, &ns_) {}

  // Builds an echo handler: recv into arena, send it back, close.
  std::shared_ptr<Graft> EchoHandler(uint64_t bandwidth_limit = 1 << 20) {
    const uint32_t recv = host_.IdOf("net.recv").value();
    const uint32_t send = host_.IdOf("net.send").value();
    const uint32_t close = host_.IdOf("net.close").value();

    Asm a("echo");
    // r6 = connection id (arrives in r0).
    a.Mov(R6, R0);
    // recv(conn, arena_base, 1024). Arena base must be computed by the
    // graft; the sandbox base register is not readable, so grafts use
    // address 0 and rely on masking... but host calls check InArena, so we
    // pass a real arena address via loadi of 0 + the sandbox OR trick is
    // unavailable. Instead the kernel convention is that grafts address
    // their arena from 0 upward and the host functions treat addresses
    // relative... -- see NOTE below; here we cheat and use the known arena
    // base for a 64KiB-arena graft image (4096-byte kernel region).
    a.LoadImm(R7, 65536);  // Arena base for kernel_region=4096, arena 64KiB.
    a.Mov(R0, R6);
    a.Mov(R1, R7);
    a.LoadImm(R2, 1024);
    a.Call(recv);
    a.Mov(R8, R0);  // bytes received
    // send(conn, base, n)
    a.Mov(R0, R6);
    a.Mov(R1, R7);
    a.Mov(R2, R8);
    a.Call(send);
    // close(conn)
    a.Mov(R0, R6);
    a.Call(close);
    a.LoadImm(R0, 1);
    a.Halt();
    Result<Program> p = a.Finish();
    EXPECT_TRUE(p.ok());
    Result<Program> inst = Instrument(*p);
    EXPECT_TRUE(inst.ok());
    auto graft = std::make_shared<Graft>(
        "echo", *VerifyAndCompile(*inst, host_), kUser, 4096);
    graft->account().SetLimit(ResourceType::kNetBandwidth, bandwidth_limit);
    return graft;
  }

  // Sends 4 bytes, then 4 more: with a bandwidth budget of 6 the second
  // send fails, so the handler aborts after a partial reply.
  std::shared_ptr<Graft> PartialSendHandler() {
    const uint32_t send = host_.IdOf("net.send").value();
    Asm a("partial-send");
    a.Mov(R6, R0);
    for (int i = 0; i < 2; ++i) {
      a.Mov(R0, R6);
      a.LoadImm(R1, 65536);
      a.LoadImm(R2, 4);
      a.Call(send);
    }
    a.LoadImm(R0, 1);
    a.Halt();
    Result<Program> inst = Instrument(*a.Finish());
    EXPECT_TRUE(inst.ok());
    auto graft = std::make_shared<Graft>(
        "partial-send", *VerifyAndCompile(*inst, host_), kUser, 4096);
    graft->account().SetLimit(ResourceType::kNetBandwidth, 6);
    return graft;
  }

  // Calls `call` on a connection id the graft computes: 0, UINT64_MAX, its
  // own id + 1 (the newest id, plus one), a fixed id, or its first argument.
  enum class HostileId { kZero, kMax, kNext, kFixed, kArg };
  std::shared_ptr<Graft> HostileIdHandler(const char* call, HostileId which,
                                          ConnectionId fixed = 0) {
    Asm a(std::string("hostile-") + call);
    switch (which) {
      case HostileId::kZero:
        a.LoadImm(R0, 0);
        break;
      case HostileId::kMax:
        a.LoadImm(R0, -1);
        break;
      case HostileId::kNext:
        a.AddI(R0, R0, 1);
        break;
      case HostileId::kFixed:
        a.LoadImm(R0, static_cast<int64_t>(fixed));
        break;
      case HostileId::kArg:
        break;
    }
    a.LoadImm(R1, 65536);
    a.LoadImm(R2, 4);
    a.Call(host_.IdOf(call).value());
    a.LoadImm(R0, 1);
    a.Halt();
    Result<Program> inst = Instrument(*a.Finish());
    EXPECT_TRUE(inst.ok());
    auto graft = std::make_shared<Graft>(std::string("hostile-") + call,
                                         *VerifyAndCompile(*inst, host_),
                                         kUser, 4096);
    graft->account().SetLimit(ResourceType::kNetBandwidth, 1 << 20);
    return graft;
  }

  // Calls each net.* host function from outside any handler on `id`.
  void ExpectEveryCallReads(ConnectionId id, Status expected) {
    MemoryImage image(4096, 16);
    for (const char* call : {"net.recv", "net.send", "net.close"}) {
      const HostCallTable::Entry* entry = host_.Lookup(host_.IdOf(call).value());
      ASSERT_NE(entry, nullptr);
      HostCallContext ctx;
      ctx.args = {id, 65536, 4};
      ctx.image = &image;
      Result<uint64_t> r = entry->fn(ctx);
      ASSERT_FALSE(r.ok()) << call << " id " << id;
      EXPECT_EQ(r.status(), expected) << call << " id " << id;
    }
  }

  // Installs a handler naming `id` through `call` on a fresh port and
  // delivers to it: the handler must be aborted and removed.
  void ExpectHandlerNamingIdAborts(const char* call, ConnectionId id,
                                   uint16_t port) {
    EventGraftPoint* point = stack_.ListenTcp(port);
    ASSERT_EQ(point->AddHandler(HostileIdHandler(call, HostileId::kFixed, id), 1),
              Status::kOk);
    Result<ConnectionId> conn = stack_.DeliverConnection(port, "x");
    ASSERT_TRUE(conn.ok());
    EXPECT_EQ(point->stats().handler_aborts, 1u) << call;
    EXPECT_EQ(point->handler_count(), 0u) << call;
    EXPECT_EQ(stack_.FindConnection(*conn)->tx, "") << call;
  }

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  NetStack stack_;
};

TEST_F(NetTest, DeliveryWithoutListenerFails) {
  EXPECT_FALSE(stack_.DeliverConnection(80, "x").ok());
}

TEST_F(NetTest, ListenIsIdempotent) {
  EventGraftPoint* a = stack_.ListenTcp(80);
  EventGraftPoint* b = stack_.ListenTcp(80);
  EXPECT_EQ(a, b);
  EXPECT_NE(stack_.ListenUdp(80), a);  // Different protocol, different point.
}

TEST_F(NetTest, EchoHandlerRoundTrip) {
  EventGraftPoint* point = stack_.ListenTcp(7);
  ASSERT_EQ(point->AddHandler(EchoHandler(), 1), Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnection(7, "hello vino");
  ASSERT_TRUE(conn.ok());
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tx, "hello vino");
  EXPECT_FALSE(c->open);  // Handler closed it.
  EXPECT_EQ(stack_.stats().bytes_sent, 10u);
}

TEST_F(NetTest, BandwidthLimitAbortsAndRetractsResponse) {
  EventGraftPoint* point = stack_.ListenTcp(7);
  // 4-byte bandwidth budget; a 10-byte send exceeds it -> the host call
  // fails -> the handler's transaction aborts -> handler removed.
  ASSERT_EQ(point->AddHandler(EchoHandler(/*bandwidth_limit=*/4), 1), Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnection(7, "0123456789");
  ASSERT_TRUE(conn.ok());
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tx, "");             // No partial junk leaked.
  EXPECT_TRUE(c->open);             // Close (never reached) not applied.
  EXPECT_EQ(point->handler_count(), 0u);  // Handler removed after abort.
}

TEST_F(NetTest, AbortedHandlerRetractsPartialSend) {
  // Handler sends 4 bytes successfully, then loops forever: the abort must
  // retract the already-sent bytes (undo log on net.send).
  const uint32_t send = host_.IdOf("net.send").value();
  Asm a("partial");
  a.Mov(R6, R0);
  a.LoadImm(R7, 65536);
  a.Mov(R1, R7);
  a.LoadImm(R2, 4);
  a.Call(send);
  auto top = a.NewLabel();
  a.Bind(top);
  a.Jmp(top);  // Covert denial of service.
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>(
      "partial", *VerifyAndCompile(*inst, host_), kUser, 4096);
  graft->account().SetLimit(ResourceType::kNetBandwidth, 1 << 20);

  // On the port's own point: net.* serves only the handler its connection
  // was delivered to.
  EventGraftPoint* point = stack_.ListenTcp(9);
  ASSERT_EQ(point->AddHandler(graft, 1), Status::kOk);
  Result<ConnectionId> conn = stack_.DeliverConnection(9, "abcd");
  ASSERT_TRUE(conn.ok());
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(point->stats().handler_aborts, 1u);  // Out of fuel.
  EXPECT_EQ(c->tx, "");  // The 4 sent bytes were retracted by the abort.
  EXPECT_EQ(stack_.stats().bytes_sent, 0u);
}

TEST_F(NetTest, RecvRejectsKernelDestinations) {
  // A graft cannot use net.recv as a confused deputy to scribble on kernel
  // memory: destination must be inside its own arena.
  const uint32_t recv = host_.IdOf("net.recv").value();
  Asm a("deputy");
  a.Mov(R6, R0);
  a.Mov(R0, R6);
  a.LoadImm(R1, 64);  // Kernel region address!
  a.LoadImm(R2, 16);
  a.Call(recv);
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  auto graft = std::make_shared<Graft>(
      "deputy", *VerifyAndCompile(*inst, host_), kUser, 4096);

  EventGraftPoint* point = stack_.ListenTcp(11);
  ASSERT_EQ(point->AddHandler(graft, 1), Status::kOk);
  Result<ConnectionId> conn = stack_.DeliverConnection(11, "payload");
  ASSERT_TRUE(conn.ok());
  // The host call failed -> handler aborted and removed.
  EXPECT_EQ(point->handler_count(), 0u);
}

TEST_F(NetTest, UdpPacketDelivery) {
  EventGraftPoint* point = stack_.ListenUdp(2049);
  ASSERT_EQ(point->AddHandler(EchoHandler(), 1), Status::kOk);
  Result<ConnectionId> pkt = stack_.DeliverPacket(2049, "nfs-req");
  ASSERT_TRUE(pkt.ok());
  EXPECT_EQ(stack_.FindConnection(*pkt)->tx, "nfs-req");
  EXPECT_EQ(stack_.stats().packets, 1u);
}

TEST_F(NetTest, MultipleHandlersEachOwnTransaction) {
  EventGraftPoint* point = stack_.ListenTcp(13);
  ASSERT_EQ(point->AddHandler(EchoHandler(), 1), Status::kOk);

  // Second handler: a logger that always aborts (bad internal call).
  const uint32_t send = host_.IdOf("net.send").value();
  Asm a("aborter");
  a.Mov(R6, R0);
  a.LoadImm(R1, 1);  // Arena addr 1... then wild indirect call:
  a.LoadImm(R7, 0xffff);
  a.CallR(R7);
  a.Call(send);
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(point->AddHandler(std::make_shared<Graft>(
      "aborter", *VerifyAndCompile(*inst, host_), kUser, 4096), 2),
            Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnection(13, "hi");
  ASSERT_TRUE(conn.ok());
  // Echo handler's reply survives its own committed transaction even though
  // the second handler aborted.
  EXPECT_EQ(stack_.FindConnection(*conn)->tx, "hi");
  EXPECT_EQ(point->handler_count(), 1u);
}

TEST_F(NetTest, AsyncDeliveryCompletesAfterDrain) {
  EventGraftPoint* point = stack_.ListenTcp(8080);
  auto handler = EchoHandler();
  handler->account().SetLimit(ResourceType::kThreads, 4);
  ASSERT_EQ(point->AddHandler(handler, 1), Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnectionAsync(8080, "async!");
  ASSERT_TRUE(conn.ok());
  stack_.DrainEvents();
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->tx, "async!");
  EXPECT_FALSE(c->open);
  EXPECT_EQ(stack_.stats().bytes_sent, 6u);
}

TEST_F(NetTest, AsyncTrafficFromManyDispatchersNoEventLost) {
  // Route a burst of UDP traffic through the pool from several dispatcher
  // threads; every packet must be answered after the drain. The handler is
  // native and touches only its own connection, so concurrent invocations
  // (pool workers + inline fallbacks) never share mutable state — a VM
  // graft would share its one arena across workers.
  EventGraftPoint* point = stack_.ListenUdp(5353);
  auto handler = std::make_shared<Graft>(
      "native-echo",
      [this](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        Connection* c = stack_.FindConnection(args[0]);
        if (c == nullptr) {
          return Status::kNotFound;
        }
        c->tx = c->rx;
        return 0ull;
      },
      GraftIdentity{0, true});
  handler->account().SetLimit(ResourceType::kThreads, 8);
  ASSERT_EQ(point->AddHandler(handler, 1), Status::kOk);

  constexpr int kDispatchers = 4;
  constexpr int kPerDispatcher = 25;
  std::vector<std::vector<ConnectionId>> ids(kDispatchers);
  std::vector<std::thread> dispatchers;
  for (int d = 0; d < kDispatchers; ++d) {
    dispatchers.emplace_back([this, d, &ids] {
      for (int i = 0; i < kPerDispatcher; ++i) {
        Result<ConnectionId> pkt = stack_.DeliverPacketAsync(5353, "ping");
        EXPECT_TRUE(pkt.ok());
        if (pkt.ok()) {
          ids[static_cast<size_t>(d)].push_back(*pkt);
        }
      }
    });
  }
  for (auto& t : dispatchers) {
    t.join();
  }
  stack_.DrainEvents();

  EXPECT_EQ(stack_.stats().packets,
            static_cast<uint64_t>(kDispatchers) * kPerDispatcher);
  for (const auto& per_thread : ids) {
    for (const ConnectionId id : per_thread) {
      Connection* c = stack_.FindConnection(id);
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->tx, "ping") << "connection " << id;
    }
  }
  const auto point_stats = point->stats();
  EXPECT_EQ(point_stats.handler_runs,
            static_cast<uint64_t>(kDispatchers) * kPerDispatcher);
}

TEST_F(NetTest, BytesSentCountsOnlyCommittedSends) {
  // An abort retracts a partial reply from tx; it must retract it from
  // stats().bytes_sent too.
  EventGraftPoint* partial = stack_.ListenTcp(9);
  ASSERT_EQ(partial->AddHandler(PartialSendHandler(), 1), Status::kOk);
  Result<ConnectionId> conn = stack_.DeliverConnection(9, "abcd");
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(partial->handler_count(), 0u);  // Aborted and removed.
  EXPECT_EQ(stack_.FindConnection(*conn)->tx, "");
  EXPECT_EQ(stack_.stats().bytes_sent, 0u);

  // Committed echoes and aborted partial sends, interleaved.
  EventGraftPoint* echo = stack_.ListenTcp(7);
  ASSERT_EQ(echo->AddHandler(EchoHandler(), 1), Status::kOk);
  std::vector<ConnectionId> ids = {*conn};
  for (int i = 0; i < 6; ++i) {
    Result<ConnectionId> ok = stack_.DeliverConnection(7, "reply-" + std::to_string(i));
    ASSERT_TRUE(ok.ok());
    ids.push_back(*ok);
    ASSERT_EQ(partial->AddHandler(PartialSendHandler(), 1), Status::kOk);
    Result<ConnectionId> bad = stack_.DeliverConnection(9, "abcd");
    ASSERT_TRUE(bad.ok());
    ids.push_back(*bad);
  }
  uint64_t tx_total = 0;
  for (const ConnectionId id : ids) {
    tx_total += stack_.FindConnection(id)->tx.size();
  }
  EXPECT_EQ(tx_total, 6u * 7u);  // "reply-N" per committed echo.
  EXPECT_EQ(stack_.stats().bytes_sent, tx_total);
}

TEST_F(NetTest, HostileConnectionIdsAreNotFound) {
  // The net.* calls take connection ids straight from graft registers.
  // Ids never published -- 0, UINT64_MAX, the newest id + 1 (the ring's
  // next slot, not yet filled) -- must read kNotFound, whoever asks.
  EventGraftPoint* echo = stack_.ListenTcp(80);
  ASSERT_EQ(echo->AddHandler(EchoHandler(), 1), Status::kOk);
  Result<ConnectionId> first = stack_.DeliverConnection(80, "hello");
  ASSERT_TRUE(first.ok());

  for (const uint64_t id : {uint64_t{0}, UINT64_MAX, *first + 1}) {
    ExpectEveryCallReads(id, Status::kNotFound);
  }
  EXPECT_EQ(stack_.FindConnection(0), nullptr);
  EXPECT_EQ(stack_.FindConnection(UINT64_MAX), nullptr);
  EXPECT_EQ(stack_.FindConnection(*first + 1), nullptr);

  // The same ids from inside handlers: each handler is aborted and removed,
  // and the stack keeps answering on another port.
  uint16_t port = 100;
  for (const char* call : {"net.recv", "net.send", "net.close"}) {
    for (const HostileId which :
         {HostileId::kZero, HostileId::kMax, HostileId::kNext}) {
      EventGraftPoint* point = stack_.ListenTcp(port);
      ASSERT_EQ(point->AddHandler(HostileIdHandler(call, which), 1), Status::kOk);
      Result<ConnectionId> conn = stack_.DeliverConnection(port, "x");
      ASSERT_TRUE(conn.ok());
      EXPECT_EQ(point->handler_count(), 0u) << call;
      EXPECT_EQ(point->stats().handler_aborts, 1u) << call;
      EXPECT_EQ(stack_.FindConnection(*conn)->tx, "");

      Result<ConnectionId> next = stack_.DeliverConnection(80, "still here");
      ASSERT_TRUE(next.ok());
      EXPECT_EQ(stack_.FindConnection(*next)->tx, "still here") << call;
      ++port;
    }
  }
}

TEST_F(NetTest, ALapRecyclesTheOldestConnection) {
  // A thread's connection stays readable for kRingSlots - 1 more of its
  // deliveries. One more, and its slot (same address) carries the newest
  // connection, while its id reads null and kNotFound, also to a handler.
  EventGraftPoint* echo = stack_.ListenTcp(7);
  ASSERT_EQ(echo->AddHandler(EchoHandler(), 1), Status::kOk);
  Result<ConnectionId> oldest = stack_.DeliverConnection(7, "oldest");
  ASSERT_TRUE(oldest.ok());
  const Connection* slot = stack_.FindConnection(*oldest);
  ASSERT_NE(slot, nullptr);
  for (size_t i = 1; i < NetStack::kRingSlots; ++i) {
    ASSERT_TRUE(stack_.DeliverConnection(7, "r" + std::to_string(i)).ok());
  }
  ASSERT_EQ(stack_.FindConnection(*oldest), slot);
  EXPECT_EQ(slot->tx, "oldest");

  Result<ConnectionId> newest = stack_.DeliverConnection(7, "newest");
  ASSERT_TRUE(newest.ok());
  EXPECT_NE(*newest, *oldest);
  EXPECT_EQ(stack_.FindConnection(*oldest), nullptr);
  EXPECT_EQ(stack_.FindConnection(*newest), slot);
  EXPECT_EQ(slot->id, *newest);
  EXPECT_EQ(slot->tx, "newest");
  EXPECT_FALSE(slot->open);

  ExpectEveryCallReads(*oldest, Status::kNotFound);
  uint16_t port = 300;
  for (const char* call : {"net.recv", "net.send", "net.close"}) {
    ExpectHandlerNamingIdAborts(call, *oldest, port++);
  }
  EXPECT_EQ(stack_.FindConnection(*newest)->tx, "newest");
}

TEST_F(NetTest, PendingAsyncSlotsAreNeverReused) {
  // One thread makes more async deliveries than its ring has slots while
  // every handler waits on a latch, on a pool whose queue holds them all.
  // A slot whose handler has not run is never refilled: the surplus is
  // refused with kNoMemory, and each accepted connection answers its own
  // payload once the handlers run.
  WorkerPool::Config pool_config;
  pool_config.workers = 2;
  pool_config.queue_capacity = 2 * NetStack::kRingSlots;
  WorkerPool pool(pool_config);
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
  NetStack stack(&txn, &host, &ns, &pool);

  std::latch open(1);
  auto handler = std::make_shared<Graft>(
      "held-echo",
      [&](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        open.wait();
        Connection* c = stack.FindConnection(args[0]);
        if (c == nullptr) {
          return Status::kNotFound;
        }
        c->tx = c->rx;
        return 0ull;
      },
      GraftIdentity{0, true});
  handler->account().SetLimit(ResourceType::kThreads, 1 << 20);
  ASSERT_EQ(stack.ListenUdp(53)->AddHandler(handler, 1), Status::kOk);

  constexpr size_t kDeliveries = NetStack::kRingSlots + 64;
  std::vector<std::pair<ConnectionId, std::string>> accepted;
  size_t refused = 0;
  for (size_t i = 0; i < kDeliveries; ++i) {
    const std::string payload = "q" + std::to_string(i);
    Result<ConnectionId> id = stack.DeliverPacketAsync(53, payload);
    if (id.ok()) {
      accepted.emplace_back(*id, payload);
    } else {
      EXPECT_EQ(id.status(), Status::kNoMemory);
      ++refused;
    }
  }
  open.count_down();
  stack.DrainEvents();

  EXPECT_EQ(accepted.size(), NetStack::kRingSlots);
  EXPECT_EQ(refused, kDeliveries - NetStack::kRingSlots);
  std::set<ConnectionId> unique;
  for (const auto& [id, payload] : accepted) {
    unique.insert(id);
    const Connection* c = stack.FindConnection(id);
    ASSERT_NE(c, nullptr) << "connection " << id;
    EXPECT_EQ(c->rx, payload);
    EXPECT_EQ(c->tx, payload) << "connection " << id;
  }
  EXPECT_EQ(unique.size(), accepted.size());

  // Drained, the ring takes traffic again.
  Result<ConnectionId> again = stack.DeliverPacketAsync(53, "again");
  ASSERT_TRUE(again.ok());
  stack.DrainEvents();
  EXPECT_EQ(stack.FindConnection(*again)->tx, "again");
}

TEST_F(NetTest, NeighbourConnectionIdsArePermissionDenied) {
  // A handler reaches only the connection its own event delivered. Naming
  // a neighbour's live connection -- delivered synchronously and left
  // open, or delivered async with its handler still blocked -- aborts the
  // handler, and the neighbour's request and reply stay as the
  // neighbour's own handler leaves them.
  std::latch gate(1);
  auto neighbour = [this](std::latch* wait_for) {
    auto graft = std::make_shared<Graft>(
        wait_for == nullptr ? "neighbour" : "held-neighbour",
        [this, wait_for](std::span<const uint64_t> args,
                         MemoryImage*) -> Result<uint64_t> {
          if (wait_for != nullptr) {
            wait_for->wait();
          }
          Connection* c = stack_.FindConnection(args[0]);
          if (c == nullptr) {
            return Status::kNotFound;
          }
          c->tx += "reply:" + c->rx;  // Leaves the connection open.
          return 0ull;
        },
        GraftIdentity{0, true});
    graft->account().SetLimit(ResourceType::kThreads, 4);
    return graft;
  };
  ASSERT_EQ(stack_.ListenTcp(80)->AddHandler(neighbour(nullptr), 1), Status::kOk);
  ASSERT_EQ(stack_.ListenTcp(90)->AddHandler(neighbour(&gate), 1), Status::kOk);

  Result<ConnectionId> sync = stack_.DeliverConnection(80, "sync");
  ASSERT_TRUE(sync.ok());
  Result<ConnectionId> held = stack_.DeliverConnectionAsync(90, "held");
  ASSERT_TRUE(held.ok());

  // A handler of another point is refused too, even when its event
  // carries the neighbour's id: that point did not deliver it.
  EventGraftPoint other("test.other", EventGraftPoint::Config{}, &txn_, &host_,
                        &ns_);
  uint16_t port = 200;
  for (const ConnectionId id : {*sync, *held}) {
    ExpectEveryCallReads(id, Status::kPermissionDenied);
    for (const char* call : {"net.recv", "net.send", "net.close"}) {
      ExpectHandlerNamingIdAborts(call, id, port++);
    }
    EXPECT_EQ(other.AddHandler(HostileIdHandler("net.send", HostileId::kArg), 1),
              Status::kOk);
    const uint64_t args[1] = {id};
    EXPECT_EQ(other.Dispatch(args).handler_aborts, 1u);
  }
  // Nothing since the async delivery may ASSERT: returning early would
  // leave the held handler blocked and the fixture's drain waiting for it.
  gate.count_down();
  stack_.DrainEvents();

  const std::pair<ConnectionId, const char*> expected[] = {
      {*sync, "reply:sync"}, {*held, "reply:held"}};
  for (const auto& [id, reply] : expected) {
    const Connection* c = stack_.FindConnection(id);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->tx, reply);
    EXPECT_EQ(c->rx_consumed, 0u);
    EXPECT_TRUE(c->open);
  }
  EXPECT_EQ(stack_.stats().bytes_sent, 0u);
}

TEST_F(NetTest, GraftNestedInAHandlerCannotUseItsConnection) {
  // The handler passes its own connection id to a function graft it
  // invokes. That graft runs under its own account, not the handler's, so
  // its net.send is refused: the function graft aborts and is removed, and
  // the handler's reply gets none of its bytes.
  FunctionGraftPoint nested(
      "test.nested", [](std::span<const uint64_t>) -> uint64_t { return 0; },
      FunctionGraftPoint::Config{}, &txn_, &host_, &ns_);
  ASSERT_EQ(nested.Replace(HostileIdHandler("net.send", HostileId::kArg)),
            Status::kOk);
  auto handler = std::make_shared<Graft>(
      "invokes-nested",
      [&nested](std::span<const uint64_t> args, MemoryImage*) -> Result<uint64_t> {
        const uint64_t conn[1] = {args[0]};
        return nested.Invoke(conn);
      },
      GraftIdentity{0, true});
  ASSERT_EQ(stack_.ListenTcp(70)->AddHandler(handler, 1), Status::kOk);

  Result<ConnectionId> conn = stack_.DeliverConnection(70, "x");
  ASSERT_TRUE(conn.ok());
  EXPECT_FALSE(nested.grafted());
  EXPECT_EQ(stack_.FindConnection(*conn)->tx, "");
  EXPECT_EQ(stack_.stats().bytes_sent, 0u);
}

TEST_F(NetTest, ConcurrentDeliveriesAcrossRingLapsKeepEveryConnection) {
  // Four threads deliver TCP and UDP traffic on their own ports (one echo
  // graft each, so no arena is shared) until each ring has come round three
  // times. Each re-reads its own connections inside the window (its last
  // kRingSlots deliveries) while the others keep creating: a connection in
  // the window must never move or change, and the one a lap older is gone.
  constexpr int kThreads = 4;
  constexpr int kWindow = static_cast<int>(NetStack::kRingSlots);
  constexpr int kPerThread = 3 * kWindow + 64;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(stack_.ListenTcp(static_cast<uint16_t>(1000 + t))
                  ->AddHandler(EchoHandler(), 1),
              Status::kOk);
    ASSERT_EQ(stack_.ListenUdp(static_cast<uint16_t>(2000 + t))
                  ->AddHandler(EchoHandler(), 1),
              Status::kOk);
  }

  auto payload = [](int t, int i) {
    // Lengths straddle the short-string buffer.
    return "t" + std::to_string(t) + "-" + std::to_string(i) +
           std::string(static_cast<size_t>(i % 24), '.');
  };
  std::vector<std::vector<ConnectionId>> ids(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto tcp = static_cast<uint16_t>(1000 + t);
      const auto udp = static_cast<uint16_t>(2000 + t);
      std::vector<ConnectionId>& mine = ids[static_cast<size_t>(t)];
      auto check = [&](int i) {
        const ConnectionId id = mine[static_cast<size_t>(i)];
        const Connection* c = stack_.FindConnection(id);
        ASSERT_NE(c, nullptr) << "connection " << id;
        EXPECT_EQ(c->id, id);
        EXPECT_EQ(c->port, i % 2 == 0 ? tcp : udp);
        EXPECT_EQ(c->rx, payload(t, i));
        EXPECT_EQ(c->tx, payload(t, i)) << "connection " << id;
        EXPECT_FALSE(c->open);
      };
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kPerThread; ++i) {
        Result<ConnectionId> id = i % 2 == 0
                                      ? stack_.DeliverConnection(tcp, payload(t, i))
                                      : stack_.DeliverPacket(udp, payload(t, i));
        ASSERT_TRUE(id.ok());
        mine.push_back(*id);
        const int oldest = std::max(0, i - kWindow + 1);
        check(i);
        check(oldest);
        check(oldest + (i * 7) % (i - oldest + 1));
        if (i >= kWindow) {
          EXPECT_EQ(stack_.FindConnection(mine[static_cast<size_t>(i - kWindow)]),
                    nullptr);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  std::set<ConnectionId> unique;
  uint64_t bytes = 0;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(ids[static_cast<size_t>(t)].size(), static_cast<size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      const ConnectionId id = ids[static_cast<size_t>(t)][static_cast<size_t>(i)];
      unique.insert(id);
      const Connection* c = stack_.FindConnection(id);
      if (i >= kPerThread - kWindow) {
        ASSERT_NE(c, nullptr) << "connection " << id;
        EXPECT_EQ(c->tx, payload(t, i));
      } else {
        EXPECT_EQ(c, nullptr) << "connection " << id;
      }
      bytes += payload(t, i).size();
    }
  }
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(unique.size(), kTotal);
  // Ids stay near the count made: each thread took one block per lap.
  constexpr uint64_t kBlocks =
      kThreads * ((kPerThread + kWindow - 1) / kWindow);
  EXPECT_LT(*unique.rbegin(), (kBlocks + 1) * NetStack::kRingSlots);
  const NetStack::Stats stats = stack_.stats();
  EXPECT_EQ(stats.connections, kTotal / 2);
  EXPECT_EQ(stats.packets, kTotal / 2);
  EXPECT_EQ(stats.bytes_sent, bytes);
}

TEST_F(NetTest, ConcurrentListenOnOnePortReturnsOnePoint) {
  constexpr int kThreads = 8;
  std::vector<EventGraftPoint*> got(kThreads, nullptr);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      got[static_cast<size_t>(t)] = stack_.ListenTcp(4242);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_NE(got[0], nullptr);
  for (EventGraftPoint* point : got) {
    EXPECT_EQ(point, got[0]);
  }
  EXPECT_EQ(stack_.ListenTcp(4242), got[0]);
  EXPECT_EQ(got[0]->name(), "net.tcp.4242.connection");
}

}  // namespace
}  // namespace vino
