// Survival under hostile multi-tenant load, end to end on one VinoKernel:
// whatever a graft does, the kernel keeps serving, and the graft is
// aborted and removed.
//
// 48 tenants each own four function graft points from the paper's
// families (read-ahead, eviction, encryption, scheduling) and an in-kernel
// HTTP handler on their own TCP port. Five tenants are hostile, rotating
// through the misbehavior zoo's four attack classes. Serving threads drive
// every request through the real kernel paths: namespace lookup -> graft
// invoke -> lock-manager acquire with a bounded wait (a timed-out request
// withdraws atomically via CancelWait) -> the tenant's HTTP delivery ->
// release. Hostile tenants retry their broken graft inside the lock-held
// section, and a churn thread removes and reinstalls benign grafts under
// live traffic. Every graft is sponsored by its tenant's resource account,
// so billing is real.
//
// After a warm-up round, two serving rounds and a single-threaded sweep,
// the survival invariants are asserted: every hostile graft ejected (per
// attack class), no benign graft ejected, every tenant still answering
// HTTP 200, no event lost on any port, the lock table drained (no stranded
// waiter, no leaked holder), transactions balanced, the hostile aborts
// observed, billing rolled back for the aborted memory hog and charged to
// every benign tenant, and — when the kernel spools (VINO_SPOOL) — the
// spool lossless. The request path's performance is measured by ledger/.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/trace.h"
#include "src/kernel/kernel.h"
#include "src/lockmgr/lock_manager.h"
#include "src/resource/account.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

// The scenario.
constexpr int kTenants = 48;
constexpr int kHostile = 5;        // Spread evenly over the tenant ids.
constexpr int kRequests = 12;      // Per tenant, per round.
constexpr int kRounds = 2;         // Serving rounds after the warm-up round.
constexpr int kHostileRetry = 25;  // Every 25th request of a hostile tenant.
constexpr int kLockSlots = 16;
constexpr auto kLockDeadline = std::chrono::microseconds(150);
constexpr uint64_t kFuel = 200'000;

constexpr int kFamilyCount = 4;
const char* const kFamilyNames[kFamilyCount] = {"readahead", "evict",
                                                "encrypt", "sched"};

// Hostile attack classes, rotated over the hostile tenants.
enum Attack {
  kAttackSpinner = 0,   // §2.2: infinite loop on the read-ahead point.
  kAttackStriker = 1,   // §4.2: garbage results on the validated sched point.
  kAttackMemHog = 2,    // §2.2: 1MB charge against a 64KB memory limit.
  kAttackHttpHang = 3,  // §2.5: covert DoS — handler hangs mid-reply.
  kAttackClasses = 4,
};
const char* const kAttackNames[kAttackClasses] = {"spinner", "striker",
                                                  "mem-hog", "http-hang"};

// Family grafts and HTTP handlers are built with a 4KB arena over the
// loader's default 4KB kernel region; the arena is size-aligned, so it
// starts at 4096.
constexpr uint32_t kArenaLog2 = 12;
constexpr int64_t kArenaBase = 4096;

constexpr const char kGetRequest[] = "GET / HTTP/1.0\r\n\r\n";
constexpr uint64_t kPriorityCeiling = 256;  // sched validator bound

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

// The family point a function-family attack lands on; -1 for the HTTP
// hang, which attacks the tenant's handler instead.
int AttackFamily(int attack) {
  switch (attack) {
    case kAttackSpinner: return 0;  // readahead
    case kAttackMemHog:  return 1;  // evict
    case kAttackStriker: return 3;  // sched
    default:             return -1;
  }
}

Program AttackProgram(int attack, const std::string& tag, uint32_t alloc_id) {
  switch (attack) {
    case kAttackSpinner: return SpinnerProgram(tag + ".spin");
    case kAttackMemHog:  return MemHogProgram(tag + ".hog", alloc_id);
    default:             return StrikerProgram(tag + ".strike");
  }
}

Program FamilyProgram(int family, const std::string& tag) {
  switch (family) {
    case 0:  return ReadaheadProgram(tag + ".ra");
    case 1:  return EvictProgram(tag + ".ev");
    case 2:  return EncryptProgram(tag + ".enc");
    default: return SchedProgram(tag + ".sched");
  }
}

// --- Tenants --------------------------------------------------------------

struct Tenant {
  int id = 0;
  uint16_t port = 0;
  int attack = -1;  // Attack class; -1 for a benign tenant.
  std::unique_ptr<ResourceAccount> account;
  std::array<std::unique_ptr<FunctionGraftPoint>, kFamilyCount> points;
  std::array<std::string, kFamilyCount> point_names;
  // The benign graft on each family point (null on the attack slot).
  std::array<std::shared_ptr<Graft>, kFamilyCount> family_grafts;
  // A function-family attack graft, kept so the tenant can retry it.
  std::shared_ptr<Graft> attack_graft;
  int attack_family = -1;
  EventGraftPoint* http_point = nullptr;  // Owned by the net stack.
  // Single-writer: tenant i is served only by thread i % threads, and
  // set-up and the sweep are single-threaded.
  uint64_t delivered = 0;
  ConnectionId last_conn = 0;

  [[nodiscard]] bool hostile() const { return attack >= 0; }
};

// One serving thread's state.
struct Worker {
  int id = 0;
  uint64_t holder_serial = 0;
  uint64_t lock_anomalies = 0;  // CancelWait on a vanished request: a bug.
};

struct Harness {
  VinoKernel kernel;
  SimpleLockManager locks;
  std::vector<std::unique_ptr<Tenant>> tenants;
};

std::shared_ptr<Graft> LoadGraft(Harness& h, const SigningAuthority& authority,
                                 Program program, const Tenant& tenant) {
  Result<Program> inst =
      Instrument(std::move(program), MisfitOptions{kArenaLog2});
  if (!inst.ok()) return nullptr;
  Result<SignedGraft> sg = authority.Sign(*inst);
  if (!sg.ok()) return nullptr;
  Result<std::shared_ptr<Graft>> graft = h.kernel.loader().Load(
      *sg, {GraftIdentity{1000 + static_cast<uint32_t>(tenant.id), false},
            tenant.account.get()});
  return graft.ok() ? *graft : nullptr;
}

void SetupTenants(Harness& h) {
  const SigningAuthority authority("vinolite-default-signing-key");

  const uint32_t alloc_id = h.kernel.host().Register(
      "serve.alloc",
      [](HostCallContext& ctx) -> Result<uint64_t> {
        const Status s = ChargeCurrent(ResourceType::kMemory, ctx.args[0]);
        if (!IsOk(s)) return s;
        return 0ull;
      },
      /*graft_callable=*/true);

  int hostile_count = 0;
  for (int i = 0; i < kTenants; ++i) {
    auto tenant = std::make_unique<Tenant>();
    tenant->id = i;
    tenant->port = static_cast<uint16_t>(2000 + i);
    if ((i + 1) * kHostile / kTenants > i * kHostile / kTenants) {
      tenant->attack = hostile_count++ % kAttackClasses;
      tenant->attack_family = AttackFamily(tenant->attack);
    }

    tenant->account =
        std::make_unique<ResourceAccount>("tenant." + std::to_string(i));
    tenant->account->SetLimit(ResourceType::kMemory, 64 * 1024);
    tenant->account->SetLimit(ResourceType::kNetBandwidth, 1u << 30);
    tenant->account->SetLimit(ResourceType::kThreads, 8);

    // Four family points, fuel-bounded and wall-bounded.
    for (int f = 0; f < kFamilyCount; ++f) {
      FunctionGraftPoint::Config config = h.kernel.DefaultPointConfig(50'000);
      config.fuel = kFuel;
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

    // Every family point carries a benign graft, except the hostile
    // tenant's attack family, which carries the attack graft instead.
    const std::string tag = "t" + std::to_string(i);
    for (int f = 0; f < kFamilyCount; ++f) {
      const bool attack_slot = f == tenant->attack_family;
      std::shared_ptr<Graft> graft = LoadGraft(
          h, authority,
          attack_slot ? AttackProgram(tenant->attack, tag, alloc_id)
                      : FamilyProgram(f, tag),
          *tenant);
      const std::string& name = tenant->point_names[f];
      ASSERT_NE(graft, nullptr) << name;
      ASSERT_EQ(h.kernel.loader().InstallFunction(name, graft), Status::kOk)
          << name;
      (attack_slot ? tenant->attack_graft : tenant->family_grafts[f]) =
          std::move(graft);
    }

    // The HTTP service: every tenant listens on its own port; the
    // kAttackHttpHang class gets the covert-DoS handler.
    tenant->http_point = h.kernel.net().ListenTcp(tenant->port);
    ASSERT_NE(tenant->http_point, nullptr);
    const std::string response =
        "HTTP/1.0 200 OK\r\nServer: vino-graft\r\n\r\ntenant " +
        std::to_string(i);
    std::shared_ptr<Graft> handler = LoadGraft(
        h, authority,
        HttpProgram(tag + ".http", h.kernel.host(),
                    static_cast<int64_t>(response.size()),
                    tenant->attack == kAttackHttpHang),
        *tenant);
    ASSERT_NE(handler, nullptr);
    ASSERT_EQ(handler->image().Write(handler->image().arena_base() + 1024,
                                     response.data(), response.size()),
              Status::kOk);
    ASSERT_EQ(h.kernel.loader().InstallEvent(
                  "net.tcp." + std::to_string(tenant->port) + ".connection",
                  handler, 0),
              Status::kOk);

    h.tenants.push_back(std::move(tenant));
  }
}

// --- The request path -----------------------------------------------------

void ServeOne(Harness& h, Tenant& tenant, int request, Worker& worker) {
  // 1. Family policy: namespace lookup + graft invoke.
  const int fam = (tenant.id + request) % kFamilyCount;
  const uint64_t args[2] = {static_cast<uint64_t>(request),
                            static_cast<uint64_t>(tenant.id)};
  (void)h.kernel.ns().WithFunction(
      tenant.point_names[fam], [&](FunctionGraftPoint& point) -> Status {
        (void)point.Invoke(args);
        return Status::kOk;
      });

  // 2. Lock manager: the same (request, family) maps to the same slot for
  // every tenant, so serving threads genuinely contend.
  const LockResourceId resource =
      (static_cast<uint64_t>(request) * 2654435761ull + fam) % kLockSlots;
  const LockHolderId holder =
      (static_cast<uint64_t>(worker.id + 1) << 32) | ++worker.holder_serial;
  const LockMode mode = ((tenant.id + request) % 5 == 0) ? LockMode::kExclusive
                                                         : LockMode::kShared;
  const Status got = h.locks.GetLock(resource, holder, mode);
  bool held = got == Status::kOk;
  if (got == Status::kBusy) {
    // Bounded wait: a serving deadline, not an unbounded block. A waiter
    // stuck behind a request whose graft is mid-abort blows the deadline.
    const auto deadline = std::chrono::steady_clock::now() + kLockDeadline;
    while (!held && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
      held = h.locks.Holds(resource, holder);
    }
    // Timed out: withdraw atomically. If the grant raced the timeout,
    // CancelWait releases it; kNotFound would mean the queue lost us.
    if (!held && h.locks.CancelWait(resource, holder) == Status::kNotFound) {
      ++worker.lock_anomalies;
    }
  }

  // Hostile tenants retry their broken extension — reinstall, invoke, get
  // ejected all over again — while this request's lock is held, so the
  // abort stalls the slot's waiters past their deadline and they must
  // withdraw cleanly. Deterministic per (tenant, request).
  if (tenant.attack_family >= 0 && (request + tenant.id) % kHostileRetry == 0) {
    (void)h.kernel.ns().WithFunction(
        tenant.point_names[tenant.attack_family],
        [&](FunctionGraftPoint& point) -> Status {
          (void)point.Replace(tenant.attack_graft);
          (void)point.Invoke(args);
          return Status::kOk;
        });
  }

  // 3. The tenant's in-kernel HTTP service, delivered synchronously (the
  // handler has run — or aborted — when this returns) while the lock is
  // held, so lock hold times are real work.
  Result<ConnectionId> conn =
      h.kernel.net().DeliverConnection(tenant.port, kGetRequest);
  ++tenant.delivered;
  if (conn.ok()) tenant.last_conn = *conn;

  if (held) (void)h.locks.ReleaseLock(resource, holder);
}

// One round: every tenant gets kRequests requests, served by thread
// (tenant.id % threads) so a tenant's graft arenas stay single-writer.
void ServeRound(Harness& h, std::vector<Worker>& workers) {
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (Worker& worker : workers) {
    threads.emplace_back([&h, &worker, stride = workers.size()] {
      for (int r = 0; r < kRequests; ++r) {
        for (size_t i = static_cast<size_t>(worker.id); i < h.tenants.size();
             i += stride) {
          ServeOne(h, *h.tenants[i], r, worker);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

// Final single-threaded sweep: enough invocations to deliver every pending
// strike or abort, plus two more connections per tenant so the last one
// reflects the post-ejection steady state.
void Sweep(Harness& h) {
  for (auto& tenant : h.tenants) {
    for (int f = 0; f < kFamilyCount; ++f) {
      for (int k = 0; k < 4; ++k) {
        const uint64_t args[2] = {static_cast<uint64_t>(k),
                                  static_cast<uint64_t>(tenant->id)};
        (void)h.kernel.ns().WithFunction(
            tenant->point_names[f], [&](FunctionGraftPoint& point) -> Status {
              (void)point.Invoke(args);
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

// --- The test -------------------------------------------------------------

TEST(ServeSurvivalTest, KernelServesThroughHostileTenantsAndEjectsThem) {
  Logger::Instance().SetMinLevel(LogLevel::kError);  // Aborts log by design.
  Harness h;
  // A spooling kernel (VINO_SPOOL) drains the flight recorder, so record.
  const bool was_tracing = trace::Enabled();
  if (h.kernel.spool() != nullptr) trace::SetEnabled(true);

  ASSERT_NO_FATAL_FAILURE(SetupTenants(h));

  // Oversubscribe small boxes: the contention bugs this scenario flushes
  // out need overlapping critical sections.
  const unsigned hw = std::max(4u, std::thread::hardware_concurrency());
  std::vector<Worker> workers(std::min(8u, hw));
  for (size_t t = 0; t < workers.size(); ++t) {
    workers[t].id = static_cast<int>(t);
  }

  // Warm-up round: first contact with every hostile graft, so the serving
  // rounds run against the post-ejection state plus the hostile retries.
  ServeRound(h, workers);

  // Install churn under live traffic: benign grafts removed and
  // reinstalled, the install/remove-vs-invoke race the namespace and the
  // points must tolerate.
  std::atomic<bool> churn_stop{false};
  std::thread churn([&h, &churn_stop] {
    Rng rng(0x5EEDF00Dull);
    while (!churn_stop.load(std::memory_order_acquire)) {
      Tenant& tenant = *h.tenants[rng.Next() % h.tenants.size()];
      const int f = static_cast<int>(rng.Next() % kFamilyCount);
      if (!tenant.hostile() && tenant.family_grafts[f] != nullptr) {
        (void)h.kernel.ns().WithFunction(
            tenant.point_names[f], [&](FunctionGraftPoint& point) -> Status {
              point.Remove();
              return point.Replace(tenant.family_grafts[f]);
            });
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int round = 0; round < kRounds; ++round) ServeRound(h, workers);
  churn_stop.store(true, std::memory_order_release);
  churn.join();

  Sweep(h);

  // Every hostile graft ejected, by the mechanism its attack class calls
  // for; every attack class present.
  std::array<int, kAttackClasses> ejected_per_class{};
  uint64_t min_aborts = 0;  // Strikers are removed without aborting.
  for (const auto& tenant : h.tenants) {
    if (!tenant->hostile()) continue;
    SCOPED_TRACE("tenant " + std::to_string(tenant->id) + " (" +
                 kAttackNames[tenant->attack] + ")");
    bool ejected = false;
    if (tenant->attack == kAttackHttpHang) {
      ejected = tenant->http_point->handler_count() == 0 &&
                tenant->http_point->stats().handler_aborts >= 1;
    } else {
      const FunctionGraftPoint& point = *tenant->points[tenant->attack_family];
      const FunctionGraftPoint::Stats stats = point.stats();
      ejected = !point.grafted() && (tenant->attack == kAttackStriker
                                         ? stats.bad_results >= 3
                                         : stats.forcible_removals >= 1);
    }
    EXPECT_TRUE(ejected) << "hostile graft not ejected";
    if (ejected) ++ejected_per_class[tenant->attack];
    if (tenant->attack != kAttackStriker) ++min_aborts;
  }
  for (int a = 0; a < kAttackClasses; ++a) {
    EXPECT_GE(ejected_per_class[a], 1) << kAttackNames[a] << " never ejected";
  }

  for (const auto& tenant : h.tenants) {
    SCOPED_TRACE("tenant " + std::to_string(tenant->id));
    // Zero false ejections.
    for (int f = 0; f < kFamilyCount; ++f) {
      if (tenant->family_grafts[f] == nullptr) continue;
      EXPECT_TRUE(tenant->points[f]->grafted()) << kFamilyNames[f];
      EXPECT_EQ(tenant->points[f]->stats().forcible_removals, 0u)
          << kFamilyNames[f];
    }
    // Still serving: the final GET answered 200.
    if (tenant->attack != kAttackHttpHang) {
      const Connection* c = h.kernel.net().FindConnection(tenant->last_conn);
      EXPECT_TRUE(c != nullptr && c->tx.rfind("HTTP/1.0 200", 0) == 0)
          << "final GET not answered 200";
    }
    // Zero lost events: the port's event count equals its deliveries.
    EXPECT_EQ(tenant->http_point->stats().events, tenant->delivered);
    // Billing: the aborted memory hog's charges were rolled back; benign
    // tenants paid for the bandwidth of their replies.
    if (tenant->attack == kAttackMemHog) {
      EXPECT_EQ(tenant->account->usage(ResourceType::kMemory), 0u);
    }
    if (!tenant->hostile()) {
      EXPECT_GT(tenant->account->usage(ResourceType::kNetBandwidth), 0u);
    }
  }

  // The lock table drained: every timed-out request withdrew cleanly, no
  // waiter is stranded and no holder leaked, so an exclusive probe is
  // granted on every slot.
  uint64_t anomalies = 0;
  for (const Worker& worker : workers) anomalies += worker.lock_anomalies;
  EXPECT_EQ(anomalies, 0u) << "CancelWait found no request to withdraw";
  constexpr LockHolderId kProbe = ~0ull;
  for (int s = 0; s < kLockSlots; ++s) {
    const auto slot = static_cast<LockResourceId>(s);
    EXPECT_EQ(h.locks.WaiterCount(slot), 0u) << "slot " << s << " has waiters";
    const Status probe = h.locks.GetLock(slot, kProbe, LockMode::kExclusive);
    EXPECT_EQ(probe, Status::kOk) << "slot " << s << " still held";
    if (probe == Status::kOk) {
      EXPECT_EQ(h.locks.ReleaseLock(slot, kProbe), Status::kOk);
    }
  }

  // Transactions balance, and the hostile mix really aborted.
  const TxnStats txn = h.kernel.txn().stats();
  EXPECT_EQ(txn.begins, txn.commits + txn.aborts);
  EXPECT_GE(txn.aborts, min_aborts);

  // The spool, when attached, kept every record.
  if (spool::SpoolDrainer* drainer = h.kernel.spool()) {
    drainer->DrainNow();
    const spool::SpoolDrainer::Stats stats = drainer->stats();
    EXPECT_EQ(stats.writer_status, Status::kOk);
    EXPECT_GT(stats.records, 0u);
    EXPECT_EQ(stats.lost_total, 0u);
  }
  trace::SetEnabled(was_tracing);
}

}  // namespace
}  // namespace vino
