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
// Concurrency: looking up a connection or a listener takes no lock and no
// hash. Connections live in an append-only table of fixed-size chunks
// indexed by their dense ConnectionId; a fixed directory of atomic chunk
// pointers never moves, so a lookup is one acquire load of the newest
// published id, a bounds check and an index. Listeners sit in one
// port-indexed table per protocol, read lock-free by Deliver*. `mutex_`
// guards only listening and connection creation, which fills a slot and
// then release-publishes its id: one acquisition per delivery, never held
// while a handler runs (handlers call back into net.recv/net.send). Stats
// are relaxed, sharded counters.
//
// A single connection's byte streams are NOT locked: the stack assumes one
// handler consumes a given connection (true for the one-handler-per-port
// services the paper builds; multi-handler ports should use sync delivery
// or disjoint connections).
//
// Connections are never freed: callers (the serving benchmarks among them)
// read Connection::tx after the handler has closed the connection, and a
// Connection* stays valid for the stack's lifetime. A stack whose directory
// is full fails delivery with kNoMemory. Any graft can name any published
// connection id through the net.* calls; ids that were never published
// (0, past the newest, past the directory) read kNotFound.
//
// Grafts interact with connections through three graft-callable host
// functions the stack registers:
//   net.recv(conn, dst, max)  - copy request bytes into the graft arena,
//   net.send(conn, src, len)  - append bytes from the arena to the response
//                               (charged against kNetBandwidth),
//   net.close(conn)           - close the connection.
// net.send is undo-logged: an aborted handler's partial response is
// discarded, so a crashing HTTP handler never leaks half a reply.

#ifndef VINOLITE_SRC_NET_NET_STACK_H_
#define VINOLITE_SRC_NET_NET_STACK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/sharded_counter.h"
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
  // the argument. Returns the id (connection exists even if no handler
  // consumed it). Fails with kNotFound if nothing listens on the port, and
  // with kNoMemory once the connection table is full.
  Result<ConnectionId> DeliverConnection(uint16_t port, std::string request);

  // Dispatches a UDP packet event; the payload rides in a one-shot
  // connection-like object.
  Result<ConnectionId> DeliverPacket(uint16_t port, std::string payload);

  // Asynchronous variants: the event is dispatched onto the worker pool
  // and the call returns immediately with the connection id. The response
  // (Connection::tx) is complete only after DrainEvents() — or after
  // draining the port's point.
  Result<ConnectionId> DeliverConnectionAsync(uint16_t port,
                                              std::string request);
  Result<ConnectionId> DeliverPacketAsync(uint16_t port, std::string payload);

  // Waits for every outstanding async event dispatched by this stack.
  void DrainEvents();

  // Lock-free. Null for id 0 and for any id not yet published.
  [[nodiscard]] Connection* FindConnection(ConnectionId id);

  struct Stats {
    uint64_t connections = 0;
    uint64_t packets = 0;
    uint64_t bytes_sent = 0;  // Committed sends only: an abort retracts.
  };
  [[nodiscard]] Stats stats() const;

  // Connection table geometry: kChunkSize connections per chunk, and a
  // directory of kDirectoryChunks chunk pointers (~67 M connections).
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kDirectoryChunks = size_t{1} << 14;

 private:
  enum Protocol : size_t { kTcp, kUdp, kProtocols };
  static constexpr size_t kPorts = size_t{1} << 16;

  EventGraftPoint* Listen(Protocol proto, uint16_t port);
  Result<ConnectionId> Deliver(Protocol proto, uint16_t port,
                               std::string payload, bool async);
  Result<ConnectionId> NewConnection(uint16_t port, std::string payload);

  TxnManager* txn_manager_;
  const HostCallTable* host_;
  GraftNamespace* ns_;
  WorkerPool* pool_;

  // Guards points_ and the writers of listeners_, chunks_ and newest_.
  // Never held while dispatching.
  std::mutex mutex_;
  std::vector<std::unique_ptr<EventGraftPoint>> points_;
  // kPorts slots per protocol; a slot is set once, by Listen.
  std::unique_ptr<std::atomic<EventGraftPoint*>[]> listeners_[kProtocols];
  // kDirectoryChunks slots, each null or a Connection[kChunkSize]; slot i
  // holds ids [i·kChunkSize, (i+1)·kChunkSize). Id 0 is never handed out.
  std::unique_ptr<std::atomic<Connection*>[]> chunks_;
  std::atomic<ConnectionId> newest_{0};  // Ids 1..newest_ are published.

  enum Counter : size_t { kConnections, kPackets, kBytesSent };
  ShardedCounters<3> counters_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_NET_NET_STACK_H_
