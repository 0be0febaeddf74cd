// The net stack's per-connection path, as the serving benchmarks drive it:
// DeliverConnection to a port whose §3.5 HTTP handler graft (Tier 1)
// receives the request, sends a canned reply and closes the connection,
// then FindConnection and a check of the reply. That is a listener lookup,
// a connection creation, the handler's transaction, three net.* host calls
// (each a connection lookup) and the caller's own lookup per iteration.
//
// Each benchmark thread delivers to its own port and handler (a graft's
// arena has one writer), so with two threads only the stack itself is
// shared: its id-block counter, ring directory, listener tables and
// counters. Each thread fills its own connection ring.
//
//   bench_net --benchmark_repetitions=10 --json=out.json

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/gbench_main.h"
#include "src/base/log.h"
#include "src/net/net_stack.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/sfi/verifier.h"

namespace vino {
namespace {

constexpr GraftIdentity kRoot{0, true};
constexpr uint16_t kFirstPort = 8000;
constexpr int64_t kArenaBase = 65536;  // 4 KiB kernel region, 64 KiB arena.
constexpr char kRequest[] = "GET / HTTP/1.0\r\n\r\n";
constexpr char kReply[] = "HTTP/1.0 200 OK\r\nServer: vino-graft\r\n\r\nhello";

// recv the request; if it is a GET, send the reply deposited at
// arena+1024; close.
std::shared_ptr<Graft> HttpHandler(const HostCallTable& host) {
  const uint32_t recv = host.IdOf("net.recv").value();
  const uint32_t send = host.IdOf("net.send").value();
  const uint32_t close = host.IdOf("net.close").value();
  Asm a("http");
  auto out = a.NewLabel();
  a.Mov(R6, R0);
  a.LoadImm(R7, kArenaBase);
  a.Mov(R1, R7);
  a.LoadImm(R2, 1024);
  a.Call(recv);
  a.Ld8(R9, R7);
  a.LoadImm(R10, 'G');
  a.Bne(R9, R10, out);
  a.Mov(R0, R6);
  a.LoadImm(R1, kArenaBase + 1024);
  a.LoadImm(R2, static_cast<int64_t>(sizeof(kReply) - 1));
  a.Call(send);
  a.Bind(out);
  a.Mov(R0, R6);
  a.Call(close);
  a.LoadImm(R0, 1);
  a.Halt();
  Result<Program> inst = Instrument(*a.Finish());
  if (!inst.ok()) {
    return nullptr;
  }
  const Result<VerifiedProgram> p =
      VerifyAndCompile(*inst, host, ExecTier::kTier1);
  if (!p.ok()) {
    return nullptr;
  }
  auto graft = std::make_shared<Graft>("http", *p, kRoot, 4096);
  if (graft->image().Write(graft->image().arena_base() + 1024, kReply,
                           sizeof(kReply) - 1) != Status::kOk) {
    return nullptr;
  }
  graft->account().SetLimit(ResourceType::kNetBandwidth, UINT64_MAX);
  return graft;
}

// A failed handler set-up shows up as a delivery without a reply.
struct Fixture {
  explicit Fixture(int threads) : stack(&txn, &host, &ns) {
    Logger::Instance().SetMinLevel(LogLevel::kError);
    for (int t = 0; t < threads; ++t) {
      (void)stack.ListenTcp(static_cast<uint16_t>(kFirstPort + t))
          ->AddHandler(HttpHandler(host), 0);
    }
  }
  TxnManager txn;
  HostCallTable host;
  GraftNamespace ns;
  NetStack stack;
};

// A fresh stack per run, so every run's threads start from empty rings and
// each run pays the same first lap. Thread 0 builds and tears it down; the
// benchmark loop's start and end barriers order that against the other
// threads.
std::unique_ptr<Fixture> fixture;

void BM_DeliverConnection(benchmark::State& state) {
  if (state.thread_index() == 0) {
    fixture = std::make_unique<Fixture>(state.threads());
  }
  const auto port = static_cast<uint16_t>(kFirstPort + state.thread_index());
  const std::string request = kRequest;
  for (auto _ : state) {
    Result<ConnectionId> id = fixture->stack.DeliverConnection(port, request);
    const Connection* conn =
        id.ok() ? fixture->stack.FindConnection(*id) : nullptr;
    benchmark::DoNotOptimize(conn);
    if (conn == nullptr || conn->tx.size() != sizeof(kReply) - 1) {
      state.SkipWithError("no HTTP reply");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    fixture.reset();
  }
}
BENCHMARK(BM_DeliverConnection)->Threads(1)->Threads(2)->UseRealTime();

}  // namespace
}  // namespace vino

int main(int argc, char** argv) { return vino::RunGbenchMain(argc, argv); }
