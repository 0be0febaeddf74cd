#include "src/net/net_stack.h"

#include "src/resource/account.h"
#include "src/txn/accessor.h"

namespace vino {

NetStack::NetStack(TxnManager* txn_manager, HostCallTable* host,
                   GraftNamespace* ns, WorkerPool* pool)
    : txn_manager_(txn_manager),
      host_(host),
      ns_(ns),
      pool_(pool),
      listeners_{std::make_unique<std::atomic<EventGraftPoint*>[]>(kPorts),
                 std::make_unique<std::atomic<EventGraftPoint*>[]>(kPorts)},
      chunks_(std::make_unique<std::atomic<Connection*>[]>(kDirectoryChunks)) {
  // net.recv: r0 = connection id, r1 = arena destination, r2 = max bytes.
  // Returns the number of bytes copied (0 at end of request).
  host->Register(
      "net.recv",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        Connection* conn = FindConnection(ctx.args[0]);
        if (conn == nullptr || !conn->open) {
          return Status::kNotFound;
        }
        if (ctx.image == nullptr) {
          return Status::kInvalidArgs;
        }
        const uint64_t remaining = conn->rx.size() - conn->rx_consumed;
        uint64_t n = ctx.args[2] < remaining ? ctx.args[2] : remaining;
        // The destination must lie inside the caller's arena: a graft must
        // not use the kernel as a deputy to write kernel memory.
        if (n > 0 && !ctx.image->InArena(ctx.args[1], n)) {
          return Status::kPermissionDenied;
        }
        if (n > 0) {
          const Status s =
              ctx.image->Write(ctx.args[1], conn->rx.data() + conn->rx_consumed, n);
          if (!IsOk(s)) {
            return s;
          }
          const uint64_t prior = conn->rx_consumed;
          conn->rx_consumed += n;
          TxnOnAbort([conn, prior] { conn->rx_consumed = prior; });
        }
        return n;
      },
      /*graft_callable=*/true);

  // net.send: r0 = connection id, r1 = arena source, r2 = length.
  // Appends to the response; undo-logged so aborts retract partial output.
  host->Register(
      "net.send",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        Connection* conn = FindConnection(ctx.args[0]);
        if (conn == nullptr || !conn->open) {
          return Status::kNotFound;
        }
        if (ctx.image == nullptr || !ctx.image->InArena(ctx.args[1], ctx.args[2])) {
          return Status::kPermissionDenied;
        }
        const Status charge = ChargeCurrent(ResourceType::kNetBandwidth, ctx.args[2]);
        if (!IsOk(charge)) {
          return charge;
        }
        // Read straight into the response's tail; shrink back on failure.
        const size_t prior_size = conn->tx.size();
        const uint64_t n = ctx.args[2];
        conn->tx.resize(prior_size + n);
        const Status s = ctx.image->Read(ctx.args[1], conn->tx.data() + prior_size, n);
        if (!IsOk(s)) {
          conn->tx.resize(prior_size);
          return s;
        }
        counters_.Add(kBytesSent, n);
        TxnOnAbort([this, conn, prior_size, n] {
          conn->tx.resize(prior_size);
          counters_.Add(kBytesSent, uint64_t{0} - n);
        });
        return n;
      },
      /*graft_callable=*/true);

  // net.close: r0 = connection id.
  host->Register(
      "net.close",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        Connection* conn = FindConnection(ctx.args[0]);
        if (conn == nullptr) {
          return Status::kNotFound;
        }
        if (conn->open) {
          conn->open = false;
          TxnOnAbort([conn] { conn->open = true; });
        }
        return 0ull;
      },
      /*graft_callable=*/true);
}

NetStack::~NetStack() {
  // Async handlers still in flight may look connections up.
  DrainEvents();
  // Chunks are allocated in id order, so the first empty slot ends them.
  for (size_t i = 0; i < kDirectoryChunks; ++i) {
    Connection* chunk = chunks_[i].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      break;
    }
    delete[] chunk;
  }
}

EventGraftPoint* NetStack::Listen(Protocol proto, uint16_t port) {
  std::lock_guard<std::mutex> guard(mutex_);
  std::atomic<EventGraftPoint*>& slot = listeners_[proto][port];
  if (EventGraftPoint* existing = slot.load(std::memory_order_relaxed)) {
    return existing;
  }
  const std::string name =
      proto == kTcp ? "net.tcp." + std::to_string(port) + ".connection"
                    : "net.udp." + std::to_string(port) + ".packet";
  EventGraftPoint::Config config;
  config.pool = pool_;
  points_.push_back(std::make_unique<EventGraftPoint>(name, config, txn_manager_,
                                                      host_, ns_));
  slot.store(points_.back().get(), std::memory_order_release);
  return points_.back().get();
}

EventGraftPoint* NetStack::ListenTcp(uint16_t port) { return Listen(kTcp, port); }

EventGraftPoint* NetStack::ListenUdp(uint16_t port) { return Listen(kUdp, port); }

Result<ConnectionId> NetStack::NewConnection(uint16_t port, std::string payload) {
  std::lock_guard<std::mutex> guard(mutex_);
  const ConnectionId id = newest_.load(std::memory_order_relaxed) + 1;
  const size_t index = id >> kChunkBits;
  if (index >= kDirectoryChunks) {
    return Status::kNoMemory;
  }
  Connection* chunk = chunks_[index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Connection[kChunkSize];
    chunks_[index].store(chunk, std::memory_order_relaxed);
  }
  Connection& conn = chunk[id & (kChunkSize - 1)];
  conn.id = id;
  conn.port = port;
  conn.rx = std::move(payload);
  // Publishes the slot (and its chunk) to FindConnection's acquire load.
  newest_.store(id, std::memory_order_release);
  return id;
}

Result<ConnectionId> NetStack::Deliver(Protocol proto, uint16_t port,
                                       std::string payload, bool async) {
  EventGraftPoint* point =
      listeners_[proto][port].load(std::memory_order_acquire);
  if (point == nullptr) {
    return Status::kNotFound;
  }
  const Result<ConnectionId> id = NewConnection(port, std::move(payload));
  if (!id.ok()) {
    return id;
  }
  counters_.Add(proto == kTcp ? kConnections : kPackets);
  if (async) {
    point->DispatchAsync({*id});
  } else {
    const uint64_t args[1] = {*id};
    point->Dispatch(args);
  }
  return id;
}

Result<ConnectionId> NetStack::DeliverConnection(uint16_t port,
                                                 std::string request) {
  return Deliver(kTcp, port, std::move(request), /*async=*/false);
}

Result<ConnectionId> NetStack::DeliverPacket(uint16_t port, std::string payload) {
  return Deliver(kUdp, port, std::move(payload), /*async=*/false);
}

Result<ConnectionId> NetStack::DeliverConnectionAsync(uint16_t port,
                                                      std::string request) {
  return Deliver(kTcp, port, std::move(request), /*async=*/true);
}

Result<ConnectionId> NetStack::DeliverPacketAsync(uint16_t port,
                                                  std::string payload) {
  return Deliver(kUdp, port, std::move(payload), /*async=*/true);
}

void NetStack::DrainEvents() {
  // Snapshot under the lock, drain outside it: draining blocks on handler
  // completion, and handlers call back into the stack.
  std::vector<EventGraftPoint*> points;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    points.reserve(points_.size());
    for (const auto& point : points_) {
      points.push_back(point.get());
    }
  }
  for (EventGraftPoint* point : points) {
    point->Drain();
  }
}

Connection* NetStack::FindConnection(ConnectionId id) {
  // Ids come straight from graft registers. newest_ never passes the
  // directory (NewConnection refuses first), so one comparison rejects
  // unpublished ids and ids past the directory alike.
  if (id == 0 || id > newest_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  return &chunks_[id >> kChunkBits].load(std::memory_order_relaxed)
              [id & (kChunkSize - 1)];
}

NetStack::Stats NetStack::stats() const {
  Stats s;
  s.connections = counters_.Read(kConnections);
  s.packets = counters_.Read(kPackets);
  s.bytes_sent = counters_.Read(kBytesSent);
  return s;
}

}  // namespace vino
