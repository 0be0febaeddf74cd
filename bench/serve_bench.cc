// Multi-tenant serving harness (the PR-9 tentpole): a sustained end-to-end
// scenario that drives a whole VinoKernel the way a shared box would be
// driven — N installers (default 200), each owning grafts from the paper's
// four families (read-ahead, eviction, encryption, scheduling) plus an
// in-kernel HTTP handler on its own TCP port, with a configurable fraction
// of the installers hostile (misbehavior-zoo attack classes). Worker
// threads serve requests through the real kernel paths: namespace lookup →
// graft invoke → lock-manager acquire/release → synchronous connection
// delivery. Per-installer resource accounts bill for real (grafts are
// loaded with the tenant account as sponsor; net.send charges bandwidth
// against it).
//
// The harness reports p50/p99/p999 request latency, mean, and per-request
// cost (ns — the inverse-throughput measure bench_compare.py can gate on),
// per measured epoch, and then *asserts the survival invariants* as hard
// failures (exit 1):
//   * every hostile graft is ejected (fuel abort, resource-limit abort,
//     bad-result strikes, or covert-DoS handler abort) while every benign
//     graft stays installed — zero false ejections,
//   * zero lost events: each port's event count equals the connections
//     delivered to it,
//   * the lock table drains (no stranded waiters; every timed-out request
//     withdrew atomically via CancelWait),
//   * transactions balance (begins == commits + aborts),
//   * billing balances (an aborted memory hog's charges are rolled back;
//     benign tenants were actually charged for bandwidth),
//   * the kernel is still serving: a final sweep gets HTTP 200 from every
//     benign tenant.
//
// Usage:
//   serve_bench [--installers N] [--requests R] [--epochs E] [--threads T]
//               [--density F] [--hostile F] [--lock-slots N]
//               [--hostile-retry N] [--lock-deadline-us U]
//               [--smoke] [--spool PATH] [--json FILE]

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/hash.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/lockmgr/lock_manager.h"
#include "src/resource/account.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace bench {
namespace {

constexpr int kFamilyCount = 4;
const char* const kFamilyNames[kFamilyCount] = {"readahead", "evict",
                                                "encrypt", "sched"};

// Hostile attack classes, rotated over the hostile installers.
enum Attack {
  kAttackSpinner = 0,   // §2.2: infinite loop on the read-ahead point.
  kAttackStriker = 1,   // §4.2: garbage results on the validated sched point.
  kAttackMemHog = 2,    // §2.2: 1MB charge against a 64KB memory limit.
  kAttackHttpHang = 3,  // §2.5: covert DoS — handler hangs mid-reply.
  kAttackClasses = 4,
};

// Family grafts and HTTP handlers are built with a 4KB arena over the
// loader's default 4KB kernel region; the arena is size-aligned, so it
// starts at 4096.
constexpr uint32_t kArenaLog2 = 12;
constexpr int64_t kArenaBase = 4096;

constexpr const char kGetRequest[] = "GET / HTTP/1.0\r\n\r\n";
constexpr uint64_t kPriorityCeiling = 256;  // sched validator bound

struct Options {
  int installers = 200;
  int requests = 24;  // Per installer, per epoch.
  int epochs = 3;     // Measured epochs (one warmup epoch always runs).
  int threads = 0;    // 0 = min(8, hardware).
  double density = 1.0;
  double hostile = 0.05;
  int lock_slots = 16;
  // Every Nth request, a hostile tenant reinstalls its broken graft and
  // invokes it (it gets ejected again). 0 disables retries.
  int hostile_retry = 25;
  int lock_deadline_us = 150;  // Bounded lock wait before degrading.
  bool smoke = false;
  std::string json_path;
  std::string spool_path;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--installers N] [--requests R] [--epochs E] [--threads T]\n"
      "          [--density F] [--hostile F] [--lock-slots N]\n"
      "          [--hostile-retry N] [--lock-deadline-us U]\n"
      "          [--smoke] [--spool PATH] [--json FILE]\n",
      argv0);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  auto next = [&](int& i) -> const char* {
    if (i + 1 >= argc) Usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--installers") {
      opt.installers = std::atoi(next(i));
    } else if (arg == "--requests") {
      opt.requests = std::atoi(next(i));
    } else if (arg == "--epochs") {
      opt.epochs = std::atoi(next(i));
    } else if (arg == "--threads") {
      opt.threads = std::atoi(next(i));
    } else if (arg == "--density") {
      opt.density = std::atof(next(i));
    } else if (arg == "--hostile") {
      opt.hostile = std::atof(next(i));
    } else if (arg == "--lock-slots") {
      opt.lock_slots = std::atoi(next(i));
    } else if (arg == "--hostile-retry") {
      opt.hostile_retry = std::atoi(next(i));  // 0 disables retries.
    } else if (arg == "--lock-deadline-us") {
      opt.lock_deadline_us = std::atoi(next(i));
    } else if (arg == "--smoke") {
      opt.smoke = true;
      opt.installers = 48;
      opt.requests = 12;
      opt.epochs = 2;
      opt.hostile = 0.10;  // 4+ hostile installers: every attack class.
    } else if (arg == "--json") {
      opt.json_path = next(i);
    } else if (arg == "--spool") {
      opt.spool_path = next(i);
    } else {
      Usage(argv[0]);
    }
  }
  if (opt.installers < 1 || opt.installers > 60000 || opt.requests < 1 ||
      opt.epochs < 1 || opt.lock_slots < 1 || opt.density < 0.0 ||
      opt.density > 1.0 || opt.hostile < 0.0 || opt.hostile > 1.0) {
    Usage(argv[0]);
  }
  if (opt.threads <= 0) {
    // Oversubscribe small boxes: a serving kernel is driven by more
    // connections than cores, and the contention bugs this harness exists
    // to flush out need overlapping critical sections.
    const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
    opt.threads = static_cast<int>(std::min(8u, hw));
  }
  return opt;
}

// --- Graft programs -------------------------------------------------------

// readahead: a short policy loop, then next = current + 8.
Program ReadaheadProgram(const std::string& name) {
  Asm a(name);
  auto loop = a.NewLabel();
  a.Mov(R1, R0);
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 16);
  a.Bind(loop);
  a.AddI(R4, R2, 3);
  a.Xor(R4, R4, R1);
  a.AddI(R2, R2, 1);
  a.BltU(R2, R3, loop);
  a.AddI(R0, R1, 8);
  a.Halt();
  return *a.Finish();
}

// evict: scan a 16-slot table in the arena, return victim = block % 16.
Program EvictProgram(const std::string& name) {
  Asm a(name);
  auto loop = a.NewLabel();
  a.Mov(R5, R0);
  a.LoadImm(R1, kArenaBase);
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 16);
  a.Bind(loop);
  a.St64(R1, R2);
  a.AddI(R1, R1, 8);
  a.AddI(R2, R2, 1);
  a.BltU(R2, R3, loop);
  a.LoadImm(R6, 16);
  a.RemU(R0, R5, R6);
  a.Halt();
  return *a.Finish();
}

// encrypt: XOR 8 words in place keyed by the request id, return 1.
Program EncryptProgram(const std::string& name) {
  Asm a(name);
  auto loop = a.NewLabel();
  a.Mov(R5, R0);
  a.LoadImm(R1, kArenaBase);
  a.LoadImm(R2, 0);
  a.LoadImm(R3, 8);
  a.Bind(loop);
  a.Ld64(R4, R1);
  a.XorI(R4, R4, 0x5A);
  a.Xor(R4, R4, R5);
  a.St64(R1, R4);
  a.AddI(R1, R1, 8);
  a.AddI(R2, R2, 1);
  a.BltU(R2, R3, loop);
  a.LoadImm(R0, 1);
  a.Halt();
  return *a.Finish();
}

// sched: priority = (block * 2654435761) >> 24 & 0xff — always < 256, so it
// passes the point's validator.
Program SchedProgram(const std::string& name) {
  Asm a(name);
  a.MulI(R2, R0, 2654435761);
  a.ShrI(R2, R2, 24);
  a.AndI(R0, R2, 255);
  a.Halt();
  return *a.Finish();
}

Program SpinnerProgram(const std::string& name) {
  Asm a(name);
  auto forever = a.NewLabel();
  a.Bind(forever);
  a.Jmp(forever);
  return *a.Finish();
}

Program StrikerProgram(const std::string& name) {
  Asm a(name);
  a.LoadImm(R0, 100000);  // Way past the validator's < 256 bound.
  a.Halt();
  return *a.Finish();
}

Program MemHogProgram(const std::string& name, uint32_t alloc_id) {
  Asm a(name);
  a.LoadImm(R0, 1 << 20);  // 1MB against a 64KB limit.
  a.Call(alloc_id);
  a.Halt();
  return *a.Finish();
}

// The §3.5 HTTP handler: recv; if GET, send the response deposited at
// arena+1024; close. The hang variant sends a partial reply then loops
// forever (covert DoS) — the abort retracts the partial send and removes
// the handler.
Program HttpProgram(const std::string& name, const HostCallTable& host,
                    int64_t response_len, bool hang) {
  const uint32_t recv = host.IdOf("net.recv").value();
  const uint32_t send = host.IdOf("net.send").value();
  const uint32_t close = host.IdOf("net.close").value();

  Asm a(name);
  auto not_get = a.NewLabel();
  auto out = a.NewLabel();

  a.Mov(R6, R0);  // connection id
  a.LoadImm(R7, kArenaBase);
  a.Mov(R1, R7);
  a.LoadImm(R2, 1024);
  a.Call(recv);

  a.Ld8(R9, R7);
  a.LoadImm(R10, 'G');
  a.Bne(R9, R10, not_get);

  if (hang) {
    a.Mov(R0, R6);
    a.LoadImm(R1, kArenaBase + 1024);
    a.LoadImm(R2, 16);
    a.Call(send);
    auto forever = a.NewLabel();
    a.Bind(forever);
    a.Jmp(forever);
  }

  a.Mov(R0, R6);
  a.LoadImm(R1, kArenaBase + 1024);
  a.LoadImm(R2, response_len);
  a.Call(send);
  a.Jmp(out);

  a.Bind(not_get);
  a.Bind(out);
  a.Mov(R0, R6);
  a.Call(close);
  a.LoadImm(R0, 1);
  a.Halt();
  return *a.Finish();
}

// --- Tenants --------------------------------------------------------------

struct Tenant {
  int id = 0;
  uint16_t port = 0;
  bool hostile = false;
  int attack = -1;
  std::unique_ptr<ResourceAccount> account;
  std::array<std::unique_ptr<FunctionGraftPoint>, kFamilyCount> points;
  std::array<std::string, kFamilyCount> point_names;
  // The benign graft intended for each family point (null when the density
  // draw left the point ungrafted or the slot carries the attack graft).
  std::array<std::shared_ptr<Graft>, kFamilyCount> family_grafts;
  std::array<bool, kFamilyCount> installed{};  // benign graft present
  // Function-family attack grafts are kept so the churn thread can model a
  // tenant retrying its broken extension (reinstall -> eject, repeatedly).
  std::shared_ptr<Graft> attack_graft;
  int attack_family = -1;
  EventGraftPoint* http_point = nullptr;       // owned by the net stack
  std::string response;
  // Per-tenant counters; single-writer by construction (tenant i is served
  // only by thread i % T, and setup/sweep are single-threaded).
  uint64_t delivered = 0;
  ConnectionId last_conn = 0;
};

struct ThreadResult {
  std::vector<uint64_t> samples_ns;
  uint64_t lock_waits = 0;
  uint64_t lock_timeouts = 0;
  uint64_t lock_anomalies = 0;  // CancelWait on a vanished request: a bug.
  uint64_t http_ok = 0;
  uint64_t holder_serial = 0;
  uint64_t checksum = 0;  // Keeps graft results observable.
};

struct Harness {
  explicit Harness(const Options& options)
      : opt(options), kernel(MakeConfig(options)) {}

  static VinoKernelConfig MakeConfig(const Options& options) {
    VinoKernelConfig config;
    if (!options.spool_path.empty()) {
      trace::SetEnabled(true);  // The spool drains the flight recorder.
      config.trace_spool.path = options.spool_path;
    }
    return config;
  }

  Options opt;
  VinoKernel kernel;
  SimpleLockManager locks;
  std::vector<std::unique_ptr<Tenant>> tenants;
  uint32_t alloc_id = 0;
  int hostile_count = 0;
};

std::shared_ptr<Graft> LoadGraft(Harness& h, const SigningAuthority& authority,
                                 Program program, int tenant_id,
                                 ResourceAccount* sponsor) {
  Result<Program> inst = Instrument(std::move(program), MisfitOptions{kArenaLog2});
  if (!inst.ok()) return nullptr;
  Result<SignedGraft> sg = authority.Sign(*inst);
  if (!sg.ok()) return nullptr;
  Result<std::shared_ptr<Graft>> graft = h.kernel.loader().Load(
      *sg, {GraftIdentity{1000 + static_cast<uint32_t>(tenant_id), false},
            sponsor});
  return graft.ok() ? *graft : nullptr;
}

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "serve_bench: setup failed: %s\n", what);
    std::exit(2);
  }
}

// Density draw: deterministic per (tenant, family).
bool DensityInstalled(const Options& opt, int tenant, int family) {
  const uint64_t mixed =
      MixU64(static_cast<uint64_t>(tenant) * kFamilyCount + family + 1);
  return static_cast<double>(mixed % 10000) < opt.density * 10000.0;
}

void SetupTenants(Harness& h) {
  const SigningAuthority authority("vinolite-default-signing-key");

  h.alloc_id = h.kernel.host().Register(
      "serve.alloc",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        const Status s = ChargeCurrent(ResourceType::kMemory, ctx.args[0]);
        if (!IsOk(s)) return s;
        return 0ull;
      },
      /*graft_callable=*/true);

  const int want_hostile =
      static_cast<int>(h.opt.hostile * h.opt.installers + 0.5);
  h.tenants.reserve(static_cast<size_t>(h.opt.installers));

  for (int i = 0; i < h.opt.installers; ++i) {
    auto tenant = std::make_unique<Tenant>();
    tenant->id = i;
    tenant->port = static_cast<uint16_t>(2000 + i);
    // Spread the hostile installers evenly over the id space.
    const bool hostile =
        want_hostile > 0 &&
        (static_cast<int64_t>(i + 1) * want_hostile / h.opt.installers >
         static_cast<int64_t>(i) * want_hostile / h.opt.installers);
    if (hostile) {
      tenant->hostile = true;
      tenant->attack = h.hostile_count % kAttackClasses;
      ++h.hostile_count;
    }

    tenant->account =
        std::make_unique<ResourceAccount>("tenant." + std::to_string(i));
    tenant->account->SetLimit(ResourceType::kMemory, 64 * 1024);
    tenant->account->SetLimit(ResourceType::kNetBandwidth, 1u << 30);
    tenant->account->SetLimit(ResourceType::kThreads, 8);

    // Four family points, fuel-bounded and wall-bounded.
    for (int f = 0; f < kFamilyCount; ++f) {
      FunctionGraftPoint::Config config = h.kernel.DefaultPointConfig(50'000);
      config.fuel = 200'000;
      config.poll_interval = 64;
      if (f == 3) {  // sched results are validated; strikes remove.
        config.validator = [](uint64_t result, std::span<const uint64_t>) {
          return result < kPriorityCeiling;
        };
        config.max_bad_results = 3;
      }
      tenant->point_names[f] = "serve." + std::to_string(i) + "." +
                               kFamilyNames[f];
      const uint64_t fallback = 40 + static_cast<uint64_t>(f);
      tenant->points[f] = std::make_unique<FunctionGraftPoint>(
          tenant->point_names[f],
          [fallback](std::span<const uint64_t>) -> uint64_t {
            return fallback;
          },
          config, &h.kernel.txn(), &h.kernel.host(), &h.kernel.ns());
    }

    // Family grafts: benign per the density draw; the hostile tenant's
    // attack family always carries the attack graft instead.
    const std::string tag = "t" + std::to_string(i);
    for (int f = 0; f < kFamilyCount; ++f) {
      const bool is_attack_slot =
          tenant->hostile && ((tenant->attack == kAttackSpinner && f == 0) ||
                              (tenant->attack == kAttackMemHog && f == 1) ||
                              (tenant->attack == kAttackStriker && f == 3));
      if (is_attack_slot) {
        Program attack =
            tenant->attack == kAttackSpinner
                ? SpinnerProgram(tag + ".spin")
                : tenant->attack == kAttackMemHog
                      ? MemHogProgram(tag + ".hog", h.alloc_id)
                      : StrikerProgram(tag + ".strike");
        std::shared_ptr<Graft> graft =
            LoadGraft(h, authority, std::move(attack), i,
                      tenant->account.get());
        Require(graft != nullptr, "load attack graft");
        Require(h.kernel.loader().InstallFunction(tenant->point_names[f],
                                                  graft) == Status::kOk,
                "install attack graft");
        tenant->attack_graft = std::move(graft);
        tenant->attack_family = f;
        continue;
      }
      if (!DensityInstalled(h.opt, i, f)) continue;
      Program program = f == 0   ? ReadaheadProgram(tag + ".ra")
                        : f == 1 ? EvictProgram(tag + ".ev")
                        : f == 2 ? EncryptProgram(tag + ".enc")
                                 : SchedProgram(tag + ".sched");
      std::shared_ptr<Graft> graft = LoadGraft(h, authority,
                                               std::move(program), i,
                                               tenant->account.get());
      Require(graft != nullptr, "load family graft");
      Require(h.kernel.loader().InstallFunction(tenant->point_names[f],
                                                graft) == Status::kOk,
              "install family graft");
      tenant->family_grafts[f] = std::move(graft);
      tenant->installed[f] = true;
    }

    // The HTTP service: every tenant listens on its own port; the hostile
    // kAttackHttpHang class gets the covert-DoS handler instead.
    tenant->http_point = h.kernel.net().ListenTcp(tenant->port);
    Require(tenant->http_point != nullptr, "listen");
    tenant->response = "HTTP/1.0 200 OK\r\nServer: vino-graft\r\n\r\ntenant " +
                       std::to_string(i);
    const bool hang = tenant->hostile && tenant->attack == kAttackHttpHang;
    std::shared_ptr<Graft> handler = LoadGraft(
        h, authority,
        HttpProgram(tag + ".http", h.kernel.host(),
                    static_cast<int64_t>(tenant->response.size()), hang),
        i, tenant->account.get());
    Require(handler != nullptr, "load http handler");
    Require(handler->image().Write(handler->image().arena_base() + 1024,
                                   tenant->response.data(),
                                   tenant->response.size()) ==
                Status::kOk,
            "deposit response");
    const std::string point_name =
        "net.tcp." + std::to_string(tenant->port) + ".connection";
    Require(h.kernel.loader().InstallEvent(point_name, handler, 0) ==
                Status::kOk,
            "install http handler");

    h.tenants.push_back(std::move(tenant));
  }
}

// --- The request path -----------------------------------------------------

uint64_t ServeOne(Harness& h, Tenant& tenant, int request, int thread_id,
                  ThreadResult& out) {
  const auto start = std::chrono::steady_clock::now();

  // 1. Family policy: namespace lookup + graft invoke.
  const int fam = (tenant.id + request) % kFamilyCount;
  const uint64_t args[2] = {static_cast<uint64_t>(request),
                            static_cast<uint64_t>(tenant.id)};
  uint64_t result = 0;
  (void)h.kernel.ns().WithFunction(
      tenant.point_names[fam], [&](FunctionGraftPoint& point) -> Status {
        result = point.Invoke(args);
        return Status::kOk;
      });
  out.checksum += result;

  // 2. Lock manager: same (request, family) maps to the same resource for
  // every tenant, so serving threads genuinely contend.
  const LockResourceId resource =
      (static_cast<uint64_t>(request) * 2654435761ull + fam) %
      static_cast<uint64_t>(h.opt.lock_slots);
  const LockHolderId holder =
      (static_cast<uint64_t>(thread_id + 1) << 32) | ++out.holder_serial;
  const LockMode mode = ((tenant.id + request) % 5 == 0) ? LockMode::kExclusive
                                                         : LockMode::kShared;
  const Status got = h.locks.GetLock(resource, holder, mode);
  bool held = got == Status::kOk;
  if (got == Status::kBusy) {
    ++out.lock_waits;
    // Bounded wait: a serving deadline, not an unbounded block. Waits
    // normally resolve in tens of microseconds; a waiter stuck behind a
    // request whose graft is mid-abort blows the deadline instead.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(h.opt.lock_deadline_us);
    while (!held && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
      held = h.locks.Holds(resource, holder);
    }
    if (!held) {
      // Timed out: withdraw atomically. If the grant raced the timeout,
      // CancelWait releases it; kNotFound would mean the queue lost us.
      const Status cancel = h.locks.CancelWait(resource, holder);
      if (cancel == Status::kNotFound) ++out.lock_anomalies;
      ++out.lock_timeouts;
    }
  }

  // Hostile tenants periodically retry their broken extension: reinstall,
  // invoke, get forcibly ejected all over again (the paper's misbehaved
  // extension does not stay gone). The retry runs here, while this
  // request's resource lock is held — a misbehaved graft aborting inside a
  // lock-holding request is exactly the covert-DoS shape that stalls other
  // tenants' waiters past their deadline; those waiters time out and
  // withdraw atomically. Deterministic per (tenant, request), so every run
  // performs the same ejections.
  if (tenant.attack_family >= 0 && h.opt.hostile_retry > 0 &&
      (request + tenant.id) % h.opt.hostile_retry == 0) {
    (void)h.kernel.ns().WithFunction(
        tenant.point_names[tenant.attack_family],
        [&](FunctionGraftPoint& point) -> Status {
          (void)point.Replace(tenant.attack_graft);
          out.checksum += point.Invoke(args);
          return Status::kOk;
        });
  }

  // 3. The tenant's in-kernel HTTP service (synchronous delivery: the
  // handler has run — or aborted — when this returns). Served while the
  // resource lock is held, so lock hold times are real work, not empty
  // critical sections — a timed-out request degrades to serving unlocked
  // rather than refusing the connection.
  Result<ConnectionId> conn =
      h.kernel.net().DeliverConnection(tenant.port, kGetRequest);
  ++tenant.delivered;
  if (conn.ok()) {
    tenant.last_conn = *conn;
    Connection* c = h.kernel.net().FindConnection(*conn);
    if (c != nullptr && c->tx.rfind("HTTP/1.0 200", 0) == 0) ++out.http_ok;
  }

  if (held) {
    (void)h.locks.ReleaseLock(resource, holder);
  }

  const auto end = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

// Runs one epoch: every tenant gets `requests` requests, served by thread
// (tenant.id % threads) so a tenant's graft arenas stay single-writer.
// Returns wall nanoseconds.
uint64_t RunEpoch(Harness& h, bool measured,
                  std::vector<ThreadResult>& results) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(h.opt.threads));
  for (int t = 0; t < h.opt.threads; ++t) {
    workers.emplace_back([&h, &results, t, measured] {
      ThreadResult& out = results[static_cast<size_t>(t)];
      for (int r = 0; r < h.opt.requests; ++r) {
        for (size_t i = static_cast<size_t>(t); i < h.tenants.size();
             i += static_cast<size_t>(h.opt.threads)) {
          const uint64_t ns = ServeOne(h, *h.tenants[i], r, t, out);
          if (measured) out.samples_ns.push_back(ns);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

// Final single-threaded sweep: enough invocations to deliver every pending
// strike/abort, plus two more connections per tenant so the last connection
// reflects the post-ejection steady state.
void Sweep(Harness& h, ThreadResult& out) {
  for (auto& tenant : h.tenants) {
    for (int f = 0; f < kFamilyCount; ++f) {
      for (int k = 0; k < 4; ++k) {
        const uint64_t args[2] = {static_cast<uint64_t>(k),
                                  static_cast<uint64_t>(tenant->id)};
        (void)h.kernel.ns().WithFunction(
            tenant->point_names[f],
            [&](FunctionGraftPoint& point) -> Status {
              out.checksum += point.Invoke(args);
              return Status::kOk;
            });
      }
    }
    for (int k = 0; k < 2; ++k) {
      Result<ConnectionId> conn =
          h.kernel.net().DeliverConnection(tenant->port, kGetRequest);
      ++tenant->delivered;
      if (conn.ok()) tenant->last_conn = *conn;
    }
  }
}

// --- Metrics --------------------------------------------------------------

struct EpochMetrics {
  uint64_t samples = 0;
  uint64_t wall_ns = 0;
  double p50 = 0, p99 = 0, p999 = 0, mean = 0;
  double req_cost_ns = 0;  // wall / requests: the inverse-throughput gauge.
  double throughput = 0;   // requests / second.
};

EpochMetrics Summarize(std::vector<uint64_t>& samples, uint64_t wall_ns) {
  EpochMetrics m;
  m.samples = samples.size();
  m.wall_ns = wall_ns;
  if (samples.empty()) return m;
  std::sort(samples.begin(), samples.end());
  auto quantile = [&](double q) {
    const size_t idx = std::min(
        samples.size() - 1,
        static_cast<size_t>(q * static_cast<double>(samples.size())));
    return static_cast<double>(samples[idx]);
  };
  m.p50 = quantile(0.50);
  m.p99 = quantile(0.99);
  m.p999 = quantile(0.999);
  uint64_t total = 0;
  for (const uint64_t s : samples) total += s;
  m.mean = static_cast<double>(total) / static_cast<double>(samples.size());
  m.req_cost_ns =
      static_cast<double>(wall_ns) / static_cast<double>(samples.size());
  m.throughput = static_cast<double>(samples.size()) /
                 (static_cast<double>(wall_ns) / 1e9);
  return m;
}

// --- Survival invariants --------------------------------------------------

struct InvariantReport {
  int checked = 0;
  int failed = 0;

  void Check(bool ok, const std::string& what) {
    ++checked;
    if (!ok) ++failed;
    std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  }
};

void CheckInvariants(Harness& h, const std::vector<ThreadResult>& results,
                     InvariantReport& report) {
  // 1. Every hostile graft ejected; every benign graft still installed.
  int hostile_ejected = 0;
  bool benign_intact = true;
  bool hostile_ok = true;
  uint64_t benign_removals = 0;
  for (const auto& tenant : h.tenants) {
    if (tenant->hostile) {
      switch (tenant->attack) {
        case kAttackSpinner:
          if (!tenant->points[0]->grafted() &&
              tenant->points[0]->stats().forcible_removals >= 1) {
            ++hostile_ejected;
          } else {
            hostile_ok = false;
          }
          break;
        case kAttackMemHog:
          if (!tenant->points[1]->grafted() &&
              tenant->points[1]->stats().forcible_removals >= 1) {
            ++hostile_ejected;
          } else {
            hostile_ok = false;
          }
          break;
        case kAttackStriker:
          if (!tenant->points[3]->grafted() &&
              tenant->points[3]->stats().bad_results >= 3) {
            ++hostile_ejected;
          } else {
            hostile_ok = false;
          }
          break;
        case kAttackHttpHang:
          if (tenant->http_point->handler_count() == 0 &&
              tenant->http_point->stats().handler_aborts >= 1) {
            ++hostile_ejected;
          } else {
            hostile_ok = false;
          }
          break;
        default:
          hostile_ok = false;
      }
    }
    for (int f = 0; f < kFamilyCount; ++f) {
      if (!tenant->installed[f]) continue;
      if (!tenant->points[f]->grafted()) benign_intact = false;
      benign_removals += tenant->points[f]->stats().forcible_removals;
    }
  }
  report.Check(hostile_ok && hostile_ejected == h.hostile_count,
               "every hostile graft ejected (" +
                   std::to_string(hostile_ejected) + "/" +
                   std::to_string(h.hostile_count) + ")");
  report.Check(benign_intact && benign_removals == 0,
               "zero false ejections (benign grafts all still installed)");

  // 2. Benign tenants still serving HTTP 200 after the final sweep.
  int serving = 0, benign_http = 0;
  for (const auto& tenant : h.tenants) {
    if (tenant->hostile && tenant->attack == kAttackHttpHang) continue;
    ++benign_http;
    Connection* c = h.kernel.net().FindConnection(tenant->last_conn);
    if (c != nullptr && c->tx.rfind("HTTP/1.0 200", 0) == 0) ++serving;
  }
  report.Check(serving == benign_http,
               "kernel still serving: final GET answered 200 by " +
                   std::to_string(serving) + "/" +
                   std::to_string(benign_http) + " benign tenants");

  // 3. Zero lost events: each port's event count equals the connections
  // delivered to it.
  bool events_exact = true;
  uint64_t total_events = 0;
  for (const auto& tenant : h.tenants) {
    const EventGraftPoint::Stats stats = tenant->http_point->stats();
    total_events += stats.events;
    if (stats.events != tenant->delivered) events_exact = false;
  }
  report.Check(events_exact, "zero lost events (" +
                                 std::to_string(total_events) +
                                 " events == connections delivered)");

  // 4. Lock table drained: no stranded waiters, no CancelWait anomalies.
  size_t stranded = 0;
  for (int s = 0; s < h.opt.lock_slots; ++s) {
    stranded += h.locks.WaiterCount(static_cast<LockResourceId>(s));
  }
  uint64_t anomalies = 0, waits = 0, timeouts = 0;
  for (const auto& r : results) {
    anomalies += r.lock_anomalies;
    waits += r.lock_waits;
    timeouts += r.lock_timeouts;
  }
  report.Check(stranded == 0 && anomalies == 0,
               "lock table drained (" + std::to_string(waits) + " waits, " +
                   std::to_string(timeouts) +
                   " timeouts withdrew cleanly, 0 stranded)");

  // 5. Transactions balance and the hostile mix actually aborted.
  const TxnStats txn = h.kernel.txn().stats();
  report.Check(txn.begins == txn.commits + txn.aborts,
               "transactions balance (begins " + std::to_string(txn.begins) +
                   " == commits " + std::to_string(txn.commits) +
                   " + aborts " + std::to_string(txn.aborts) + ")");
  // Spinner / memhog / http-hang each abort at least once; strikers are
  // removed without aborting.
  uint64_t min_aborts = 0;
  for (const auto& tenant : h.tenants) {
    if (tenant->hostile && tenant->attack != kAttackStriker) ++min_aborts;
  }
  report.Check(txn.aborts >= min_aborts,
               "hostile aborts observed (aborts " + std::to_string(txn.aborts) +
                   " >= " + std::to_string(min_aborts) + " hostile)");

  // 6. Billing balances: the aborted memory hog holds nothing; benign
  // tenants paid real bandwidth for their responses.
  bool billing_ok = true;
  for (const auto& tenant : h.tenants) {
    if (tenant->hostile && tenant->attack == kAttackMemHog &&
        tenant->account->usage(ResourceType::kMemory) != 0) {
      billing_ok = false;
    }
    if (!tenant->hostile &&
        tenant->account->usage(ResourceType::kNetBandwidth) == 0) {
      billing_ok = false;
    }
  }
  report.Check(billing_ok,
               "billing balances (hog charges rolled back; benign tenants "
               "charged for bandwidth)");

  // 7. Spool observability attached and lossless (when requested).
  if (!h.opt.spool_path.empty()) {
    spool::SpoolDrainer* drainer = h.kernel.spool();
    bool spool_ok = drainer != nullptr;
    spool::SpoolDrainer::Stats stats;
    if (spool_ok) {
      drainer->DrainNow();
      stats = drainer->stats();
      spool_ok = stats.records > 0 && stats.writer_status == Status::kOk &&
                 stats.lost_total == 0;
    }
    report.Check(spool_ok, "spool attached and lossless (" +
                               std::to_string(stats.records) + " records, " +
                               std::to_string(stats.lost_total) + " lost)");
  }
}

// --- Output ---------------------------------------------------------------

void WriteJson(const Harness& h, const std::vector<EpochMetrics>& epochs,
               const InvariantReport& report) {
  std::ofstream out(h.opt.json_path);
  if (!out) {
    std::fprintf(stderr, "serve_bench: cannot write %s\n",
                 h.opt.json_path.c_str());
    std::exit(2);
  }
  out << "{\n  \"context\": {\n"
      << "    \"executable\": \"serve_bench\",\n"
      << "    \"num_cpus\": " << h.opt.threads << "\n  },\n";
  out << "  \"serve\": {\n"
      << "    \"installers\": " << h.opt.installers << ",\n"
      << "    \"requests_per_installer\": " << h.opt.requests << ",\n"
      << "    \"epochs\": " << h.opt.epochs << ",\n"
      << "    \"threads\": " << h.opt.threads << ",\n"
      << "    \"density\": " << h.opt.density << ",\n"
      << "    \"hostile\": " << h.opt.hostile << ",\n"
      << "    \"hostile_installers\": " << h.hostile_count << ",\n"
      << "    \"lock_slots\": " << h.opt.lock_slots << ",\n"
      << "    \"hostile_retry\": " << h.opt.hostile_retry << ",\n"
      << "    \"lock_deadline_us\": " << h.opt.lock_deadline_us << ",\n"
      << "    \"invariants_checked\": " << report.checked << ",\n"
      << "    \"invariants_failed\": " << report.failed << "\n  },\n";
  out << "  \"benchmarks\": [\n";
  bool first = true;
  auto entry = [&](const char* metric, double ns, uint64_t iterations) {
    if (!first) out << ",\n";
    first = false;
    out << "    {\"name\": \"serve/" << metric << "\", \"run_name\": \"serve/"
        << metric << "\", \"run_type\": \"iteration\", \"iterations\": "
        << iterations << ", \"real_time\": " << ns
        << ", \"cpu_time\": " << ns << ", \"time_unit\": \"ns\"}";
  };
  for (const EpochMetrics& m : epochs) {
    entry("p50", m.p50, m.samples);
    entry("p99", m.p99, m.samples);
    entry("p999", m.p999, m.samples);
    entry("mean", m.mean, m.samples);
    entry("req_cost", m.req_cost_ns, m.samples);
  }
  out << "\n  ]\n}\n";
}

int Main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  Logger::Instance().SetMinLevel(LogLevel::kError);

  Harness h(opt);
  SetupTenants(h);

  std::printf(
      "== multi-tenant serving: %d installers (%d hostile), density %.2f, "
      "%d threads ==\n",
      opt.installers, h.hostile_count, opt.density, opt.threads);
  std::printf("   %zu graft points, %d TCP ports, %d lock slots\n",
              h.kernel.ListGraftPoints().size(), opt.installers,
              opt.lock_slots);

  std::vector<ThreadResult> results(static_cast<size_t>(opt.threads));

  // Warmup epoch: first contact with every hostile graft — the ejections
  // happen here, so the measured epochs see the surviving steady state with
  // the hostile churn already priced into the kernel's structures.
  (void)RunEpoch(h, /*measured=*/false, results);

  // Background install churn during the measured epochs: benign grafts are
  // removed and reinstalled under live traffic, the install/remove-vs-invoke
  // race the namespace and points must tolerate.
  std::atomic<bool> churn_stop{false};
  std::thread churn([&h, &churn_stop] {
    Rng rng(0x5EEDF00Dull);
    while (!churn_stop.load(std::memory_order_acquire)) {
      Tenant& tenant = *h.tenants[rng.Next() % h.tenants.size()];
      const int f = static_cast<int>(rng.Next() % kFamilyCount);
      if (!tenant.hostile && tenant.installed[f]) {
        (void)h.kernel.ns().WithFunction(
            tenant.point_names[f], [&](FunctionGraftPoint& point) -> Status {
              point.Remove();
              return point.Replace(tenant.family_grafts[f]);
            });
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<EpochMetrics> epochs;
  std::printf("\n%-7s %10s %10s %10s %10s %12s %12s\n", "epoch", "p50(us)",
              "p99(us)", "p999(us)", "mean(us)", "req_cost(ns)", "req/s");
  for (int e = 0; e < opt.epochs; ++e) {
    for (auto& r : results) r.samples_ns.clear();
    const uint64_t wall = RunEpoch(h, /*measured=*/true, results);
    std::vector<uint64_t> all;
    for (auto& r : results) {
      all.insert(all.end(), r.samples_ns.begin(), r.samples_ns.end());
    }
    const EpochMetrics m = Summarize(all, wall);
    epochs.push_back(m);
    std::printf("%-7d %10.1f %10.1f %10.1f %10.1f %12.0f %12.0f\n", e,
                m.p50 / 1e3, m.p99 / 1e3, m.p999 / 1e3, m.mean / 1e3,
                m.req_cost_ns, m.throughput);
  }

  churn_stop.store(true, std::memory_order_release);
  churn.join();

  ThreadResult sweep_result;
  Sweep(h, sweep_result);

  std::printf("\nsurvival invariants:\n");
  InvariantReport report;
  CheckInvariants(h, results, report);

  if (!opt.json_path.empty()) WriteJson(h, epochs, report);

  if (report.failed > 0) {
    std::printf("\n%d/%d invariants FAILED\n", report.failed, report.checked);
    return 1;
  }
  std::printf("\nall %d invariants held; kernel served throughout\n",
              report.checked);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace vino

int main(int argc, char** argv) { return vino::bench::Main(argc, argv); }
