// Minimal network substrate for event grafts (paper §3.5).
//
// Models ports, connections, and datagrams. Listening on a port creates an
// event graft point ("net.tcp.<port>.connection" / "net.udp.<port>.packet");
// synthetic traffic is delivered through DeliverConnection / DeliverPacket
// (synchronous: handlers have run when the call returns) or through
// DeliverConnectionAsync / DeliverPacketAsync (handlers run on the shared
// event worker pool — the paper's "spawn a worker thread per event" model,
// bounded; see src/base/worker_pool.h). Either way each handler runs in its
// own transaction. After async delivery, DrainEvents() (or draining the
// individual point) waits for handlers to finish.
//
// Connections are recycled. Each delivering thread fills its own ring of
// kRingSlots reusable slots, so the stack's memory grows with the number
// of delivering threads, not with the number of connections. A ring takes
// ids in blocks of kRingSlots from one stack-wide counter, a fresh block
// for each lap, so ids stay unique and about as dense as the connections
// made. A connection stays findable until its delivering thread has made
// kRingSlots more deliveries; then its slot, string capacity kept, carries
// a new connection and the old id reads null. A slot whose delivery is
// still running (a sync dispatch in progress, an async one queued or
// running) is skipped, never reused; when a whole lap is, delivery fails
// with kNoMemory. Threads past kMaxRings share one more ring under a lock.
//
// Concurrency: delivery takes no stack-wide lock. Claiming a slot touches
// only the caller's ring, and one atomic add per lap takes an id block.
// Looking up a connection or a listener takes no lock and no hash: a fixed
// directory maps an id's block to its ring, and the slot must publish that
// very id. Listeners sit in one port-indexed table per protocol, read
// lock-free by Deliver*. `mutex_` guards only listening. Stats are
// relaxed, sharded counters.
//
// A single connection's byte streams are NOT locked: the stack assumes one
// handler consumes a given connection (true for the one-handler-per-port
// services the paper builds; multi-handler ports should use sync delivery
// or disjoint connections).
//
// Grafts interact with connections through three graft-callable host
// functions the stack registers:
//   net.recv(conn, dst, max)  - copy request bytes into the graft arena,
//   net.send(conn, src, len)  - append bytes from the arena to the response
//                               (charged against kNetBandwidth),
//   net.close(conn)           - close the connection.
// Each reaches only the connection whose delivery event the calling
// handler is running for (same point, same argument, the handler's own
// account); another live id reads kPermissionDenied, and an id never
// published or already recycled reads kNotFound. net.send is undo-logged:
// an aborted handler's partial response is discarded, so a crashing HTTP
// handler never leaks half a reply.

#ifndef VINOLITE_SRC_NET_NET_STACK_H_
#define VINOLITE_SRC_NET_NET_STACK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/sharded_counter.h"
#include "src/base/thread_registry.h"
#include "src/base/worker_pool.h"
#include "src/graft/event_point.h"
#include "src/graft/namespace.h"
#include "src/sfi/host.h"
#include "src/txn/txn_manager.h"

namespace vino {

using ConnectionId = uint64_t;

struct Connection {
  ConnectionId id = 0;
  uint16_t port = 0;
  bool open = true;
  std::string rx;          // Bytes from the client (the request).
  uint64_t rx_consumed = 0;
  std::string tx;          // Bytes queued to the client (the response).
};

class NetStack {
 public:
  // Registers the net.* host functions into `host` at construction.
  // `pool` (borrowed, may be null → process default) carries async event
  // delivery for every point this stack creates.
  NetStack(TxnManager* txn_manager, HostCallTable* host, GraftNamespace* ns,
           WorkerPool* pool = nullptr);

  ~NetStack();

  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  // Creates (or returns) the connection-event point for a TCP port.
  EventGraftPoint* ListenTcp(uint16_t port);
  // Creates (or returns) the packet-event point for a UDP port.
  EventGraftPoint* ListenUdp(uint16_t port);

  // Synthetic traffic injection. Creates a connection carrying `request`
  // and dispatches the port's connection event with the connection id as
  // the argument. The request is taken as a view and copied into the
  // slot's kept buffer, so a request no longer than the slot's earlier
  // ones allocates nothing. Returns the id (connection exists even if no
  // handler consumed it). Fails with kNotFound if nothing listens on the
  // port, and with kNoMemory if every slot of the calling thread's ring
  // still has a delivery running.
  Result<ConnectionId> DeliverConnection(uint16_t port,
                                         std::string_view request);

  // Dispatches a UDP packet event; the payload (taken as a view, like the
  // request above) rides in a one-shot connection-like object.
  Result<ConnectionId> DeliverPacket(uint16_t port, std::string_view payload);

  // Asynchronous variants: the event is dispatched onto the worker pool
  // and the call returns immediately with the connection id. The view is
  // copied before the call returns, as above. The response
  // (Connection::tx) is complete only after DrainEvents() — or after
  // draining the port's point.
  Result<ConnectionId> DeliverConnectionAsync(uint16_t port,
                                              std::string_view request);
  Result<ConnectionId> DeliverPacketAsync(uint16_t port,
                                          std::string_view payload);

  // Waits for every outstanding async event dispatched by this stack.
  void DrainEvents();

  // Lock-free. Null for id 0, for any id not yet published, and for an id
  // whose slot has since been recycled. The connection stays valid until
  // its delivering thread has made kRingSlots more deliveries.
  [[nodiscard]] Connection* FindConnection(ConnectionId id);

  struct Stats {
    uint64_t connections = 0;
    uint64_t packets = 0;
    uint64_t bytes_sent = 0;  // Committed sends only: an abort retracts.
  };
  [[nodiscard]] Stats stats() const;

  // Connection table geometry: a ring of kRingSlots slots per delivering
  // thread (one id block per lap), rings for up to kMaxRings threads, and
  // a directory of kDirectoryBlocks ring pointers indexed by block number
  // modulo its size.
  static constexpr size_t kRingBits = 12;
  static constexpr size_t kRingSlots = size_t{1} << kRingBits;
  static constexpr uint32_t kMaxRings = 256;
  static constexpr size_t kDirectoryBlocks = size_t{1} << 14;

 private:
  enum Protocol : size_t { kTcp, kUdp, kProtocols };
  static constexpr size_t kPorts = size_t{1} << 16;

  struct Slot;
  struct Ring;

  EventGraftPoint* Listen(Protocol proto, uint16_t port);
  Result<ConnectionId> Deliver(Protocol proto, uint16_t port,
                               std::string_view payload, bool async);
  // Fills the calling thread's next free slot and publishes it, marked busy
  // until its delivery has run.
  Result<Slot*> NewConnection(const EventGraftPoint* point, uint16_t port,
                              std::string_view payload);
  Result<Slot*> Open(Ring& ring, const EventGraftPoint* point, uint16_t port,
                     std::string_view payload);
  uint64_t TakeBlock(Ring& ring);
  [[nodiscard]] Slot* FindSlot(ConnectionId id) const;
  // The connection `id` if the calling handler's event delivered it.
  Result<Connection*> OwnConnection(ConnectionId id) const;

  TxnManager* txn_manager_;
  const HostCallTable* host_;
  GraftNamespace* ns_;
  WorkerPool* pool_;

  // Guards points_ and the writers of listeners_. Never held while
  // dispatching.
  std::mutex mutex_;
  std::vector<std::unique_ptr<EventGraftPoint>> points_;
  // kPorts slots per protocol; a slot is set once, by Listen.
  std::unique_ptr<std::atomic<EventGraftPoint*>[]> listeners_[kProtocols];

  // The next id block. Block 0 is never handed out, so neither is id 0.
  std::atomic<uint64_t> next_block_{1};
  // Entry b % kDirectoryBlocks: the ring that took block b last, or null.
  std::unique_ptr<std::atomic<Ring*>[]> directory_;
  ThreadRegistry<Ring, kMaxRings> rings_;
  std::mutex overflow_mutex_;   // Guards overflow_ and its slots' claims.
  std::unique_ptr<Ring> overflow_;  // Threads past kMaxRings deliver here.

  enum Counter : size_t { kConnections, kPackets, kBytesSent };
  ShardedCounters<3> counters_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_NET_NET_STACK_H_
