#include "src/net/net_stack.h"

#include "src/base/context.h"
#include "src/resource/account.h"
#include "src/txn/accessor.h"

namespace vino {

// One reusable connection. Only its ring's owner refills `conn`, while the
// slot is not busy, and publishes `id` after it.
struct NetStack::Slot {
  std::atomic<ConnectionId> id{0};  // The published id; 0 before the first.
  // Set while the slot's delivery runs; cleared (release) by the delivering
  // thread, or by an async event's last handler.
  std::atomic<bool> busy{false};
  // The point its delivery event went to. Atomic: a foreign handler's scope
  // check may read it while the owner refills the slot.
  std::atomic<const EventGraftPoint*> point{nullptr};
  Connection conn;
};

// One delivering thread's connections. `cursor` and `laps` are the owner's;
// `block` is also read by other rings taking a block.
struct alignas(64) NetStack::Ring {
  std::atomic<uint64_t> block{0};  // The current lap's id block.
  uint64_t laps = 0;               // Blocks taken so far.
  uint64_t cursor = 0;             // Slots passed so far, filled or skipped.
  Slot slots[kRingSlots];
};

NetStack::NetStack(TxnManager* txn_manager, HostCallTable* host,
                   GraftNamespace* ns, WorkerPool* pool)
    : txn_manager_(txn_manager),
      host_(host),
      ns_(ns),
      pool_(pool),
      listeners_{std::make_unique<std::atomic<EventGraftPoint*>[]>(kPorts),
                 std::make_unique<std::atomic<EventGraftPoint*>[]>(kPorts)},
      directory_(std::make_unique<std::atomic<Ring*>[]>(kDirectoryBlocks)) {
  // Undo closures name the connection by id and look it up again: an undo
  // replayed after the slot was recycled (a nested commit merges it into an
  // outer transaction) finds no connection and leaves the slot alone.

  // net.recv: r0 = connection id, r1 = arena destination, r2 = max bytes.
  // Returns the number of bytes copied (0 at end of request).
  host->Register(
      "net.recv",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        const Result<Connection*> own = OwnConnection(ctx.args[0]);
        if (!own.ok()) {
          return own.status();
        }
        Connection* conn = *own;
        if (!conn->open) {
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
          TxnOnAbort([this, id = conn->id, prior] {
            if (Connection* c = FindConnection(id)) {
              c->rx_consumed = prior;
            }
          });
        }
        return n;
      },
      /*graft_callable=*/true);

  // net.send: r0 = connection id, r1 = arena source, r2 = length.
  // Appends to the response; undo-logged so aborts retract partial output.
  host->Register(
      "net.send",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        const Result<Connection*> own = OwnConnection(ctx.args[0]);
        if (!own.ok()) {
          return own.status();
        }
        Connection* conn = *own;
        if (!conn->open) {
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
        // The aborted send leaves the byte count even if its slot was
        // recycled: it was never committed.
        TxnOnAbort([this, id = conn->id, prior_size, n] {
          if (Connection* c = FindConnection(id)) {
            c->tx.resize(prior_size);
          }
          counters_.Add(kBytesSent, uint64_t{0} - n);
        });
        return n;
      },
      /*graft_callable=*/true);

  // net.close: r0 = connection id.
  host->Register(
      "net.close",
      [this](HostCallContext& ctx) -> Result<uint64_t> {
        const Result<Connection*> own = OwnConnection(ctx.args[0]);
        if (!own.ok()) {
          return own.status();
        }
        Connection* conn = *own;
        if (conn->open) {
          conn->open = false;
          TxnOnAbort([this, id = conn->id] {
            if (Connection* c = FindConnection(id)) {
              c->open = true;
            }
          });
        }
        return 0ull;
      },
      /*graft_callable=*/true);
}

NetStack::~NetStack() {
  // Async handlers still in flight may look connections up, and their
  // events clear their slots' busy flags.
  DrainEvents();
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

Result<NetStack::Slot*> NetStack::NewConnection(const EventGraftPoint* point,
                                                uint16_t port,
                                                std::string_view payload) {
  if (Ring* ring = rings_.Local([](uint32_t) { return std::make_unique<Ring>(); })) {
    return Open(*ring, point, port, payload);
  }
  std::lock_guard<std::mutex> guard(overflow_mutex_);
  if (overflow_ == nullptr) {
    overflow_ = std::make_unique<Ring>();
  }
  return Open(*overflow_, point, port, payload);
}

Result<NetStack::Slot*> NetStack::Open(Ring& ring, const EventGraftPoint* point,
                                       uint16_t port, std::string_view payload) {
  // Pass over slots whose delivery still runs; a whole lap of them is full.
  uint64_t cursor = ring.cursor;
  for (size_t skipped = 0;
       ring.slots[cursor % kRingSlots].busy.load(std::memory_order_acquire);
       ++cursor) {
    if (++skipped == kRingSlots) {
      return Status::kNoMemory;
    }
  }
  if ((cursor >> kRingBits) == ring.laps) {  // A new lap: relabel.
    ring.block.store(TakeBlock(ring), std::memory_order_relaxed);
    ++ring.laps;
  }
  ring.cursor = cursor + 1;
  const size_t index = cursor % kRingSlots;
  Slot& slot = ring.slots[index];
  Connection& conn = slot.conn;
  conn.id = (ring.block.load(std::memory_order_relaxed) << kRingBits) | index;
  conn.port = port;
  conn.open = true;
  conn.rx.assign(payload);
  conn.rx_consumed = 0;
  conn.tx.clear();  // Keeps its capacity: a warm reply allocates nothing.
  slot.point.store(point, std::memory_order_relaxed);
  slot.busy.store(true, std::memory_order_relaxed);
  // Publishes the refilled slot to FindSlot's acquire load.
  slot.id.store(conn.id, std::memory_order_release);
  return &slot;
}

// A block's directory entry may still belong to a ring filling the block
// kDirectoryBlocks back (a thread that went quiet while the stack handed out
// ~67 M ids). That block is passed over, so a ring's current connections
// never lose their entry.
uint64_t NetStack::TakeBlock(Ring& ring) {
  for (;;) {
    const uint64_t block = next_block_.fetch_add(1, std::memory_order_relaxed);
    const size_t entry = block % kDirectoryBlocks;
    const Ring* holder = directory_[entry].load(std::memory_order_relaxed);
    if (holder == nullptr || holder == &ring ||
        holder->block.load(std::memory_order_relaxed) % kDirectoryBlocks != entry) {
      // Release: a reader that finds the ring here sees it constructed.
      directory_[entry].store(&ring, std::memory_order_release);
      return block;
    }
  }
}

Result<ConnectionId> NetStack::Deliver(Protocol proto, uint16_t port,
                                       std::string_view payload, bool async) {
  EventGraftPoint* point =
      listeners_[proto][port].load(std::memory_order_acquire);
  if (point == nullptr) {
    return Status::kNotFound;
  }
  const Result<Slot*> opened = NewConnection(point, port, payload);
  if (!opened.ok()) {
    return opened.status();
  }
  Slot* slot = *opened;
  const ConnectionId id = slot->conn.id;
  counters_.Add(proto == kTcp ? kConnections : kPackets);
  if (async) {
    point->DispatchAsync(
        {id}, [slot] { slot->busy.store(false, std::memory_order_release); });
  } else {
    const uint64_t args[1] = {id};
    point->Dispatch(args);
    slot->busy.store(false, std::memory_order_release);
  }
  return id;
}

Result<ConnectionId> NetStack::DeliverConnection(uint16_t port,
                                                 std::string_view request) {
  return Deliver(kTcp, port, request, /*async=*/false);
}

Result<ConnectionId> NetStack::DeliverPacket(uint16_t port,
                                             std::string_view payload) {
  return Deliver(kUdp, port, payload, /*async=*/false);
}

Result<ConnectionId> NetStack::DeliverConnectionAsync(uint16_t port,
                                                      std::string_view request) {
  return Deliver(kTcp, port, request, /*async=*/true);
}

Result<ConnectionId> NetStack::DeliverPacketAsync(uint16_t port,
                                                  std::string_view payload) {
  return Deliver(kUdp, port, payload, /*async=*/true);
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

NetStack::Slot* NetStack::FindSlot(ConnectionId id) const {
  // Ids come straight from graft registers. A slot never filled holds id
  // 0, and id 0 is never handed out, so 0 is refused first.
  if (id == 0) {
    return nullptr;
  }
  Ring* ring = directory_[(id >> kRingBits) % kDirectoryBlocks].load(
      std::memory_order_acquire);
  if (ring == nullptr) {
    return nullptr;
  }
  Slot& slot = ring->slots[id % kRingSlots];
  return slot.id.load(std::memory_order_acquire) == id ? &slot : nullptr;
}

Connection* NetStack::FindConnection(ConnectionId id) {
  Slot* slot = FindSlot(id);
  return slot != nullptr ? &slot->conn : nullptr;
}

Result<Connection*> NetStack::OwnConnection(ConnectionId id) const {
  Slot* slot = FindSlot(id);
  if (slot == nullptr) {
    return Status::kNotFound;
  }
  // Only a handler running for this connection's own delivery event may use
  // it. That delivery keeps the slot busy until the handler returns, so a
  // connection that passes cannot be refilled under the handler.
  const EventGraftPoint::HandledEvent* event = EventGraftPoint::Handling();
  if (event == nullptr || event->args.empty() || event->args[0] != id ||
      event->point != slot->point.load(std::memory_order_relaxed) ||
      event->account != KernelContext::Current().account) {
    return Status::kPermissionDenied;
  }
  return &slot->conn;
}

NetStack::Stats NetStack::stats() const {
  Stats s;
  s.connections = counters_.Read(kConnections);
  s.packets = counters_.Read(kPackets);
  s.bytes_sent = counters_.Read(kBytesSent);
  return s;
}

}  // namespace vino
