// Network substrate tests: ports, connections, the net.* host interface,
// bandwidth accounting, and transactional retraction of partial responses.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

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
    auto graft = std::make_shared<Graft>("echo", *inst, kUser, 4096);
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
    auto graft = std::make_shared<Graft>("partial-send", *inst, kUser, 4096);
    graft->account().SetLimit(ResourceType::kNetBandwidth, 6);
    return graft;
  }

  // Calls `call` on a connection id the graft computes: 0, UINT64_MAX, or
  // its own id + 1 (the newest id, plus one).
  enum class HostileId { kZero, kMax, kNext };
  std::shared_ptr<Graft> HostileIdHandler(const char* call, HostileId which) {
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
    }
    a.LoadImm(R1, 65536);
    a.LoadImm(R2, 4);
    a.Call(host_.IdOf(call).value());
    a.LoadImm(R0, 1);
    a.Halt();
    Result<Program> inst = Instrument(*a.Finish());
    EXPECT_TRUE(inst.ok());
    auto graft = std::make_shared<Graft>(std::string("hostile-") + call,
                                         *inst, kUser, 4096);
    graft->account().SetLimit(ResourceType::kNetBandwidth, 1 << 20);
    return graft;
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
  auto graft = std::make_shared<Graft>("partial", *inst, kUser, 4096);
  graft->account().SetLimit(ResourceType::kNetBandwidth, 1 << 20);

  EventGraftPoint::Config config;
  config.fuel = 50'000;
  EventGraftPoint point("test.partial-send", config, &txn_, &host_, &ns_);
  ASSERT_EQ(point.AddHandler(graft, 1), Status::kOk);

  // Create a raw connection (no stack listener needed) and dispatch.
  EventGraftPoint* listen = stack_.ListenTcp(9);
  (void)listen;
  Result<ConnectionId> conn = stack_.DeliverConnection(9, "abcd");
  ASSERT_TRUE(conn.ok());
  Connection* c = stack_.FindConnection(*conn);
  ASSERT_NE(c, nullptr);
  const uint64_t args[1] = {*conn};
  point.Dispatch(args);
  EXPECT_EQ(c->tx, "");  // The 4 sent bytes were retracted by the abort.
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
  auto graft = std::make_shared<Graft>("deputy", *inst, kUser, 4096);

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
  ASSERT_EQ(point->AddHandler(std::make_shared<Graft>("aborter", *inst, kUser, 4096), 2),
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
  // Ids never published -- 0, UINT64_MAX, the newest id + 1 (an allocated
  // slot of the current chunk) -- must read kNotFound, whoever asks.
  EventGraftPoint* echo = stack_.ListenTcp(80);
  ASSERT_EQ(echo->AddHandler(EchoHandler(), 1), Status::kOk);
  Result<ConnectionId> first = stack_.DeliverConnection(80, "hello");
  ASSERT_TRUE(first.ok());

  MemoryImage image(4096, 16);
  for (const char* call : {"net.recv", "net.send", "net.close"}) {
    const HostCallTable::Entry* entry = host_.Lookup(host_.IdOf(call).value());
    ASSERT_NE(entry, nullptr);
    for (const uint64_t id : {uint64_t{0}, UINT64_MAX, *first + 1}) {
      HostCallContext ctx;
      ctx.args = {id, 65536, 4};
      ctx.image = &image;
      Result<uint64_t> r = entry->fn(ctx);
      ASSERT_FALSE(r.ok()) << call << " id " << id;
      EXPECT_EQ(r.status(), Status::kNotFound) << call << " id " << id;
    }
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

TEST_F(NetTest, ConcurrentDeliveriesAcrossChunksKeepEveryConnection) {
  // Four threads deliver TCP and UDP traffic on their own ports (one echo
  // graft each, so no arena is shared) until ids cross three chunk
  // boundaries. Each re-reads its own earlier connections while the others
  // keep creating: a published connection must never move or change.
  constexpr int kThreads = 4;
  constexpr int kPerThread =
      static_cast<int>((3 * NetStack::kChunkSize) / kThreads) + 64;
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
      auto check = [&](int i) {
        const ConnectionId id = ids[static_cast<size_t>(t)][static_cast<size_t>(i)];
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
        ids[static_cast<size_t>(t)].push_back(*id);
        check(i);
        check(i / 2);
        check(i * 7 % (i + 1));
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
      EXPECT_EQ(stack_.FindConnection(id)->tx, payload(t, i));
      bytes += payload(t, i).size();
    }
  }
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_GT(kTotal, 3 * NetStack::kChunkSize);
  EXPECT_EQ(unique.size(), kTotal);  // Unique...
  EXPECT_EQ(*unique.begin(), 1u);    // ...and dense.
  EXPECT_EQ(*unique.rbegin(), kTotal);
  EXPECT_EQ(stack_.FindConnection(kTotal + 1), nullptr);
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
