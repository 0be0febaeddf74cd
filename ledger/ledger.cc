// The serving ledger: one benchmark command per workload against a
// VinoKernel it stands up itself (ledger/README.md has the full story).
//
//   ledger_bench --workload serve_benign|serve_hostile|tenant_churn
//                --seed N --seconds S [--spans] [--scratch DIR]
//
// A run is a sequence of trials, as many as fit in --seconds (at least
// three). Each trial constructs a fresh kernel, onboards 1,000 tenants (four
// family graft points and an HTTP handler each), warms every tenant up
// without timing, then replays the seeded streams from two closed-loop
// client threads pinned to their own CPUs. Every answer is checked against a
// reference model and the survival invariants are checked after each trial;
// any failure exits 1 without printing metrics. The last stdout line is one
// JSON object: the end-to-end metrics (medians over trials) and, with
// --spans, the per-layer metrics reduced from benchmark-side spans.

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "spans.h"
#include "src/base/log.h"
#include "src/base/trace.h"
#include "src/base/trace_spool.h"
#include "src/kernel/kernel.h"
#include "src/lockmgr/lock_manager.h"
#include "src/resource/account.h"
#include "src/sfi/assembler.h"
#include "src/sfi/exec_engine.h"
#include "src/sfi/misfit.h"
#include "stats.h"
#include "stream.h"

namespace ledger {
namespace {

using vino::Asm;
using vino::ConnectionId;
using vino::EventGraftPoint;
using vino::FunctionGraftPoint;
using vino::Graft;
using vino::LockHolderId;
using vino::LockMode;
using vino::Program;
using vino::Result;
using vino::Status;
using vino::VinoKernel;
using vino::VinoKernelConfig;
using vino::R0;
using vino::R1;
using vino::R2;
using vino::R3;
using vino::R4;
using vino::R5;
using vino::R6;
using vino::R7;
using vino::R9;
using vino::R10;

// Family grafts and HTTP handlers get a 4 KB arena over the loader's 4 KB
// kernel region; the arena is size-aligned, so it starts at 4096.
constexpr uint32_t kArenaLog2 = 12;
constexpr int64_t kArenaBase = 4096;
constexpr const char kSigningKey[] = "vinolite-default-signing-key";
constexpr const char kGetRequest[] = "GET / HTTP/1.0\r\n\r\n";
constexpr uint16_t kTenantPortBase = 2000;
constexpr uint16_t kSlotPortBase = 4000;
constexpr uint64_t kPriorityCeiling = 256;  // The sched point's validator.
// Benign grafts run under 100 instructions; fuel bounds the spinner.
constexpr uint64_t kFuel = 20'000;
// The wall budget only has to outlast preemption: on a VM with heavy steal
// time a 50 ms budget once aborted a benign graft whose thread the host had
// descheduled mid-invoke.
constexpr vino::Micros kWallBudgetUs = 1'000'000;
// A queued lock request withdraws after this long; only a hostile retry
// holding a lock normally outlasts it.
constexpr uint64_t kLockDeadlineNs = 150'000;
constexpr uint64_t kStallNs = 1'000'000;
// The first trial of a process runs cold (fresh heap, first-touch page
// faults; its set-up takes about twice as long), so it is checked like every
// other trial but left out of the numbers.
constexpr int kWarmupTrials = 1;
constexpr int kMinTrials = 3;  // Counted trials.

uint64_t Now() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t Saturate(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

[[noreturn]] void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "ledger: FAILED: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);  // Clients may still be running; skip static teardown.
}

// --- Graft programs and the reference model --------------------------------

Program FamilyProgram(int family, const std::string& name) {
  Asm a(name);
  auto loop = a.NewLabel();
  switch (family) {
    case 0:  // readahead: a short policy loop, then next = arg + 8.
      a.Mov(R1, R0);
      a.LoadImm(R2, 0);
      a.LoadImm(R3, 16);
      a.Bind(loop);
      a.AddI(R4, R2, 3);
      a.Xor(R4, R4, R1);
      a.AddI(R2, R2, 1);
      a.BltU(R2, R3, loop);
      a.AddI(R0, R1, 8);
      break;
    case 1:  // evict: fill a 16-slot table in the arena, victim = arg % 16.
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
      break;
    case 2:  // encrypt: XOR 8 arena words keyed by arg, return 1.
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
      break;
    default:  // sched: priority = (arg * 2654435761) >> 24 & 0xff.
      a.MulI(R2, R0, 2654435761);
      a.ShrI(R2, R2, 24);
      a.AndI(R0, R2, 255);
      break;
  }
  a.Halt();
  return *a.Finish();
}

uint64_t GraftAnswer(int family, uint64_t arg) {
  switch (family) {
    case 0:
      return arg + 8;
    case 1:
      return arg % 16;
    case 2:
      return 1;
    default:
      return ((arg * 2654435761ull) >> 24) & 255;
  }
}

uint64_t DefaultAnswer(int family) { return 40 + static_cast<uint64_t>(family); }

Program AttackProgram(int attack, const std::string& name, uint32_t alloc_id) {
  Asm a(name);
  if (attack == kSpinner) {
    auto forever = a.NewLabel();
    a.Bind(forever);
    a.Jmp(forever);
  } else if (attack == kMemHog) {
    a.LoadImm(R0, 1 << 20);
    a.Call(alloc_id);
    a.Halt();
  } else {  // kStriker: far past the sched validator's bound.
    a.LoadImm(R0, 100000);
    a.Halt();
  }
  return *a.Finish();
}

// The §3.5 HTTP handler: recv; if GET, send the response deposited at
// arena+1024; close. The hang variant sends 16 bytes and spins, so its abort
// must retract the partial reply.
Program HttpProgram(const std::string& name, const vino::HostCallTable& host,
                    int64_t response_len, bool hang) {
  const uint32_t recv = host.IdOf("net.recv").value();
  const uint32_t send = host.IdOf("net.send").value();
  const uint32_t close = host.IdOf("net.close").value();
  Asm a(name);
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
  a.LoadImm(R2, hang ? 16 : response_len);
  a.Call(send);
  if (hang) {
    auto forever = a.NewLabel();
    a.Bind(forever);
    a.Jmp(forever);
  }
  a.Bind(out);
  a.Mov(R0, R6);
  a.Call(close);
  a.LoadImm(R0, 1);
  a.Halt();
  return *a.Finish();
}

// --- Options ----------------------------------------------------------------

struct Options {
  Workload workload = Workload::kServeBenign;
  uint64_t seed = 1;
  double seconds = 10;
  bool spans = false;
  std::string scratch = ".";
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: ledger_bench --workload serve_benign|serve_hostile|"
               "tenant_churn --seed N --seconds S [--spans] [--scratch DIR]\n");
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::optional<Workload> w = ParseWorkload(value());
      if (!w) Usage();
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (arg == "--spans") {
      opt.spans = true;
    } else if (arg == "--scratch") {
      opt.scratch = value();
    } else {
      Usage();
    }
  }
  if (!have_workload || !(opt.seconds > 0)) Usage();
  return opt;
}

// --- CPU placement ------------------------------------------------------------

struct Placement {
  std::vector<int> allowed;      // The process's CPUs at start.
  std::vector<int> client_cpus;  // One per client.
  std::vector<int> kernel_cpus;  // The constructing thread and its children.
};

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) out += (out.empty() ? "" : ",") + std::to_string(cpu);
  return out;
}

bool PinThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// Clients take the last CPUs of the allowed set; everything else — the
// main thread and every kernel thread it creates (watchdog, event pool,
// spool drainer) — stays on the rest. With too few CPUs the clients share.
Placement PlaceThreads(int clients) {
  Placement p;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) p.allowed.push_back(cpu);
    }
  }
  if (p.allowed.empty()) Fail("sched_getaffinity returned no CPUs");
  const size_t n = p.allowed.size();
  const size_t c = static_cast<size_t>(clients);
  if (n > c) {
    p.client_cpus.assign(p.allowed.end() - static_cast<std::ptrdiff_t>(c),
                         p.allowed.end());
    p.kernel_cpus.assign(p.allowed.begin(),
                         p.allowed.end() - static_cast<std::ptrdiff_t>(c));
  } else {
    for (size_t i = 0; i < c; ++i) p.client_cpus.push_back(p.allowed[i % n]);
    p.kernel_cpus = p.allowed;
  }
  return p;
}

size_t ThreadCount() {
  size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return n;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Span recording, compiled out of untraced runs ---------------------------

template <bool kTraced>
struct Tracer {
  SpanLog* log = nullptr;

  void Open(Layer layer) const {
    if constexpr (kTraced) log->Open(layer, Now());
  }
  void OpenAt(Layer layer, uint64_t t) const {
    if constexpr (kTraced) log->Open(layer, t);
  }
  void Close() const {
    if constexpr (kTraced) log->Close(Now());
  }
  void CloseAt(uint64_t t) const {
    if constexpr (kTraced) log->Close(t);
  }
  // Closes the innermost span and opens `layer` on one clock read.
  void Next(Layer layer) const {
    if constexpr (kTraced) log->Next(layer, Now());
  }
  void Relabel(Layer layer) const {
    if constexpr (kTraced) log->Relabel(layer);
  }
};

// --- Tenants and the kernel --------------------------------------------------

struct Tenant {
  uint32_t id = 0;  // Unique per incarnation: names, body, invoke argument.
  uint16_t port = 0;
  TenantPlan plan;
  std::unique_ptr<vino::ResourceAccount> account;
  std::array<std::string, kFamilies> names;
  std::array<std::unique_ptr<FunctionGraftPoint>, kFamilies> points;
  std::array<std::shared_ptr<Graft>, kFamilies> grafts;  // Benign or attack.
  std::string http_graft;
  EventGraftPoint* http = nullptr;  // Owned by the net stack.
  std::string body;                 // Expected response; empty for the hang.
  uint64_t delivered = 0;           // Connections delivered to this port.
};

struct Kernel {
  explicit Kernel(const VinoKernelConfig& config) : kernel(config) {}

  VinoKernel kernel;
  vino::SimpleLockManager locks;
  vino::SigningAuthority authority{kSigningKey};
  uint32_t alloc_id = 0;
  // Points must be unregistered (Retire) before these are destroyed.
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<std::unique_ptr<Tenant>> slots;
};

struct Stall {
  ConnectionId conn = 0;
  uint64_t ns = 0;
};

// One thread's work and findings. Single writer; read after join.
struct Client {
  Client(int index_in, size_t span_capacity)
      : index(index_in), log(span_capacity) {}

  int index = 0;
  std::vector<uint32_t> latency_ns;
  std::vector<uint32_t> onboard_ns;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
  uint64_t lock_queued = 0;
  uint64_t lock_timeouts = 0;
  uint64_t lock_anomalies = 0;  // CancelWait found nothing to withdraw.
  uint64_t holder_serial = 0;
  uint64_t loads = 0;  // Graft loads attempted; any rejection fails the run.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanLog log;
  std::vector<Stall> stalls;

  void Wrong(const std::string& what) {
    if (wrong++ == 0) first_wrong = what;
  }
};

std::string TenantTag(const Tenant& t) { return "tenant " + std::to_string(t.id); }

// Instrument -> Sign -> Load, each in its own span.
template <bool kTraced>
std::shared_ptr<Graft> LoadGraft(Kernel& k, Program program, const Tenant& t,
                                 const Tracer<kTraced>& tr, uint64_t& loads) {
  ++loads;
  tr.Open(Layer::kInstrument);
  Result<Program> inst =
      vino::Instrument(std::move(program), vino::MisfitOptions{kArenaLog2});
  tr.Next(Layer::kSign);
  Result<vino::SignedGraft> sg =
      inst.ok() ? k.authority.Sign(*inst) : Result<vino::SignedGraft>(inst.status());
  tr.Next(Layer::kLoad);
  Result<std::shared_ptr<Graft>> graft =
      sg.ok() ? k.kernel.loader().Load(
                    *sg, {vino::GraftIdentity{1000 + t.id, false}, t.account.get()})
              : Result<std::shared_ptr<Graft>>(sg.status());
  tr.Close();
  if (!graft.ok()) {
    Fail("loading a graft for " + TenantTag(t) + ": " +
         std::string(vino::StatusName(graft.status())));
  }
  return *graft;
}

// Closes the install span around `status`'s call and checks it.
template <bool kTraced>
void CloseInstall(const Tracer<kTraced>& tr, Status status, const Tenant& t) {
  tr.Close();
  if (status != Status::kOk) {
    Fail("installing a graft for " + TenantTag(t) + ": " +
         std::string(vino::StatusName(status)));
  }
}

std::string Reply(uint32_t id) {
  return "HTTP/1.0 200 OK\r\nServer: vino-graft\r\n\r\ntenant " + std::to_string(id);
}

bool Hangs(const TenantPlan& plan) { return plan.hostile && plan.attack == kHttpHang; }

std::unique_ptr<Tenant> NewTenant(uint32_t id, uint16_t port,
                                  const std::string& prefix,
                                  const TenantPlan& plan) {
  auto t = std::make_unique<Tenant>();
  t->id = id;
  t->port = port;
  t->plan = plan;
  static constexpr const char* kFamilyNames[kFamilies] = {"readahead", "evict",
                                                          "encrypt", "sched"};
  for (int f = 0; f < kFamilies; ++f) t->names[f] = prefix + kFamilyNames[f];
  t->http_graft = "t" + std::to_string(id) + ".http";
  if (!Hangs(plan)) t->body = Reply(id);
  return t;
}

// Delivers one GET to `t` (inside an open kDeliver span) and checks the
// reply: a benign handler answers with the tenant's own body; the hanging
// handler's partial reply must have been retracted.
template <bool kTraced>
bool Get(Kernel& k, Tenant& t, const Tracer<kTraced>& tr) {
  Result<ConnectionId> conn =
      k.kernel.net().DeliverConnection(t.port, kGetRequest);
  ++t.delivered;
  tr.Next(Layer::kFind);
  const vino::Connection* reply =
      conn.ok() ? k.kernel.net().FindConnection(*conn) : nullptr;
  return reply != nullptr && reply->tx == t.body;
}

// Registers the tenant's points, loads and installs its grafts and its HTTP
// handler, and (for a benign tenant) gets its first HTTP 200.
template <bool kTraced>
void Onboard(Kernel& k, Tenant& t, const Tracer<kTraced>& tr, uint64_t& loads) {
  t.account = std::make_unique<vino::ResourceAccount>("tenant." +
                                                      std::to_string(t.id));
  t.account->SetLimit(vino::ResourceType::kMemory, 64 * 1024);
  t.account->SetLimit(vino::ResourceType::kNetBandwidth, 1u << 30);
  t.account->SetLimit(vino::ResourceType::kThreads, 8);

  for (int f = 0; f < kFamilies; ++f) {
    FunctionGraftPoint::Config config = k.kernel.DefaultPointConfig(kWallBudgetUs);
    config.fuel = kFuel;
    config.poll_interval = 64;
    if (f == 3) {  // sched results are validated; one strike ejects.
      config.validator = [](uint64_t result, std::span<const uint64_t>) {
        return result < kPriorityCeiling;
      };
      config.max_bad_results = 1;
    }
    const uint64_t fallback = DefaultAnswer(f);
    tr.Open(Layer::kRegister);
    t.points[f] = std::make_unique<FunctionGraftPoint>(
        t.names[f],
        [fallback](std::span<const uint64_t>) -> uint64_t { return fallback; },
        std::move(config), &k.kernel.txn(), &k.kernel.host(), &k.kernel.ns());
    tr.Close();
  }

  const std::string tag = "t" + std::to_string(t.id);
  const int attack_family = t.plan.hostile ? AttackFamily(t.plan.attack) : -1;
  for (int f = 0; f < kFamilies; ++f) {
    Program program;
    if (f == attack_family) {
      program = AttackProgram(t.plan.attack, tag + ".attack", k.alloc_id);
    } else if (!t.plan.hostile && (t.plan.grafted >> f & 1)) {
      program = FamilyProgram(f, tag + ".f" + std::to_string(f));
    } else {
      continue;
    }
    t.grafts[f] = LoadGraft(k, std::move(program), t, tr, loads);
    tr.Open(Layer::kInstall);
    CloseInstall(tr, k.kernel.loader().InstallFunction(t.names[f], t.grafts[f]),
                 t);
  }

  t.http = k.kernel.net().ListenTcp(t.port);
  if (t.http == nullptr) Fail("listening for " + TenantTag(t));
  const std::string reply = Reply(t.id);
  std::shared_ptr<Graft> handler = LoadGraft(
      k,
      HttpProgram(t.http_graft, k.kernel.host(),
                  static_cast<int64_t>(reply.size()), Hangs(t.plan)),
      t, tr, loads);
  if (handler->image().Write(handler->image().arena_base() + 1024,
                             reply.data(), reply.size()) != Status::kOk) {
    Fail("depositing the response for " + TenantTag(t));
  }
  tr.Open(Layer::kInstall);
  CloseInstall(tr,
               k.kernel.loader().InstallEvent(
                   "net.tcp." + std::to_string(t.port) + ".connection", handler, 0),
               t);

  if (!t.plan.hostile) {
    tr.Open(Layer::kDeliver);
    const bool ok = Get(k, t, tr);
    tr.Close();
    if (!ok) Fail("first GET of " + TenantTag(t) + " did not answer 200");
  }
}

// Unregisters the tenant's points and removes its HTTP handler, so the slot
// and its port can be reused.
template <bool kTraced>
void Retire(Kernel& k, Tenant& t, const Tracer<kTraced>& tr) {
  for (int f = 0; f < kFamilies; ++f) {
    tr.Open(Layer::kUnregister);
    k.kernel.ns().Unregister(t.names[f]);
    tr.Close();
    t.points[f].reset();
  }
  if (t.http->handler_count() > 0) {
    tr.Open(Layer::kRemoveHandler);
    const Status s = t.http->RemoveHandler(t.http_graft);
    tr.Close();
    if (s != Status::kOk) Fail("removing the handler of " + TenantTag(t));
  }
}

// --- The request path ----------------------------------------------------------

template <bool kTraced>
uint64_t Invoke(FunctionGraftPoint& point, std::span<const uint64_t> args,
                const Tracer<kTraced>& tr) {
  if constexpr (!kTraced) {
    return point.Invoke(args);
  } else {
    const bool grafted = point.grafted();
    tr.Open(grafted ? Layer::kInvokeSafe : Layer::kInvokeDefault);
    const uint64_t result = point.Invoke(args);
    if (grafted && !point.grafted()) tr.Relabel(Layer::kInvokeAbort);
    tr.Close();
    return result;
  }
}

bool AnswerOk(const Tenant& t, int family, uint64_t arg, uint64_t got) {
  if (got == DefaultAnswer(family)) return true;
  return !t.plan.hostile && (t.plan.grafted >> family & 1) &&
         got == GraftAnswer(family, arg);
}

// Waits for a queued lock request until granted or past the deadline; a
// late request withdraws with CancelWait. Returns whether the lock is held.
bool AwaitLock(Kernel& k, vino::LockResourceId resource, LockHolderId holder,
               Client& c) {
  const uint64_t deadline = Now() + kLockDeadlineNs;
  while (Now() < deadline) {
    if (k.locks.Holds(resource, holder)) return true;
    std::this_thread::yield();
  }
  if (k.locks.CancelWait(resource, holder) == Status::kNotFound) {
    ++c.lock_anomalies;
  }
  ++c.lock_timeouts;
  return false;
}

// One serving request: namespace lookup -> family invoke -> lock get (and
// wait) -> [retry or churn] -> HTTP delivery -> response read -> release.
// `t0` is the previous request's end; returns this request's end.
template <bool kTraced>
uint64_t Serve(Kernel& k, Tenant& t, const Op& op, Client& c, uint64_t t0,
               bool& good) {
  const Tracer<kTraced> tr{&c.log};
  const uint64_t args[2] = {op.arg, t.id};
  const int family = op.family;
  tr.OpenAt(Layer::kRequest, t0);
  tr.OpenAt(Layer::kLookup, t0);
  uint64_t result = 0;
  const Status looked = k.kernel.ns().WithFunction(
      t.names[family], [&](FunctionGraftPoint& point) {
        result = Invoke(point, args, tr);
        return Status::kOk;
      });

  tr.Next(Layer::kLockGet);
  const LockHolderId holder =
      (static_cast<uint64_t>(c.index + 1) << 32) | ++c.holder_serial;
  const Status got = k.locks.GetLock(
      op.resource, holder, op.exclusive ? LockMode::kExclusive : LockMode::kShared);
  bool held = got == Status::kOk;
  if (got == Status::kBusy) {
    ++c.lock_queued;
    tr.Next(Layer::kLockWait);
    held = AwaitLock(k, op.resource, holder, c);
  }

  bool special_ok = true;
  if (op.kind == OpKind::kRetry || op.kind == OpKind::kChurn) {
    tr.Next(Layer::kLookup);
    const bool retry = op.kind == OpKind::kRetry;
    uint64_t retried = DefaultAnswer(family);
    const Status s = k.kernel.ns().WithFunction(
        t.names[family], [&](FunctionGraftPoint& point) {
          tr.Open(retry ? Layer::kRetry : Layer::kChurn);
          if (!retry) point.Remove();
          Status replaced = point.Replace(t.grafts[family]);
          if (retry) {
            retried = Invoke(point, args, tr);
            // A hostile graft must be ejected again by the call it ran in.
            if (point.grafted()) replaced = Status::kInternal;
          }
          tr.Close();
          return replaced;
        });
    special_ok = s == Status::kOk && retried == DefaultAnswer(family);
  }

  uint64_t deliver_start = 0;
  if constexpr (kTraced) {
    deliver_start = Now();
    c.log.Next(Layer::kDeliver, deliver_start);
  }
  Result<ConnectionId> conn =
      k.kernel.net().DeliverConnection(t.port, kGetRequest);
  ++t.delivered;
  if constexpr (kTraced) {
    const uint64_t end = Now();
    if (end - deliver_start > kStallNs) {
      c.stalls.push_back({conn.ok() ? *conn : 0, end - deliver_start});
    }
    c.log.Next(Layer::kFind, end);
  }
  const vino::Connection* reply =
      conn.ok() ? k.kernel.net().FindConnection(*conn) : nullptr;
  if (held) {
    tr.Next(Layer::kLockRelease);
    if (k.locks.ReleaseLock(op.resource, holder) != Status::kOk) ++c.lock_anomalies;
  }
  tr.Close();

  good = looked == Status::kOk && AnswerOk(t, family, op.arg, result) &&
         special_ok && reply != nullptr && reply->tx == t.body;
  if (!good) {
    c.Wrong(TenantTag(t) + " family " + std::to_string(family) + ": answer " +
            std::to_string(result) +
            (reply == nullptr ? ", no connection"
                              : ", reply of " + std::to_string(reply->tx.size()) +
                                    " bytes") +
            (special_ok ? "" : ", retry/churn failed"));
  }
  const uint64_t end = Now();
  tr.CloseAt(end);
  return end;
}

// --- Trials ---------------------------------------------------------------------

struct Counters {
  uint64_t graft_runs = 0, graft_aborts = 0, ejections = 0;
  uint64_t handler_runs = 0, handler_aborts = 0;
  vino::TxnStats txn;
  uint64_t watchdog_fires = 0;
  uint64_t bytes_sent = 0;
  vino::spool::SpoolDrainer::Stats spool;
};

// Function-point counters cover the stable tenants: churn slots' points are
// destroyed mid-phase. Event points persist per port, so they cover both.
Counters Snapshot(Kernel& k) {
  Counters c;
  for (const auto& t : k.tenants) {
    for (const auto& p : t->points) {
      const FunctionGraftPoint::Stats s = p->stats();
      c.graft_runs += s.graft_runs;
      c.graft_aborts += s.graft_aborts;
      c.ejections += s.forcible_removals;
    }
  }
  for (const auto* list : {&k.tenants, &k.slots}) {
    for (const auto& t : *list) {
      const EventGraftPoint::Stats s = t->http->stats();
      c.handler_runs += s.handler_runs;
      c.handler_aborts += s.handler_aborts;
    }
  }
  c.txn = k.kernel.txn().stats();
  c.watchdog_fires = k.kernel.watchdog() ? k.kernel.watchdog()->fires() : 0;
  c.bytes_sent = k.kernel.net().stats().bytes_sent;
  if (k.kernel.spool() != nullptr) c.spool = k.kernel.spool()->stats();
  return c;
}

// Everything one run accumulates: per-trial values (reported as medians)
// and ratios (numerators and denominators summed over trials).
struct Ledger {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, Ratio> ratios;

  void Add(const std::string& name, double v) { values[name].push_back(v); }
  void AddRatio(const std::string& name, uint64_t num, uint64_t den) {
    Ratio& r = ratios[name];
    r.num += num;
    r.den += den;
  }
  [[nodiscard]] double MedianOf(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : Median(it->second);
  }
  [[nodiscard]] Ratio RatioOf(const std::string& name) const {
    auto it = ratios.find(name);
    return it == ratios.end() ? Ratio{} : it->second;
  }
};

struct Run {
  Options opt;
  Plan plan;
  Placement placement;
  size_t kernel_threads = 0;
  int trials = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  std::vector<uint32_t> onboard_ns;  // Pooled over counted trials.
  double peak_rss_mib = 0;
  Ledger ledger;
  uint64_t sum_roots = 0, sum_misses = 0, max_sum_error_ns = 0;
  std::vector<Stall> stalls;
};

std::string SpoolBase(const Options& opt) {
  return opt.scratch + "/ledger-spool." + std::to_string(::getpid());
}

VinoKernelConfig MakeConfig(const Options& opt) {
  VinoKernelConfig config;
  if (opt.workload == Workload::kServeHostile) {
    config.trace_spool.path = SpoolBase(opt);
    config.trace_spool.rotation.segment_bytes = 8u << 20;
    config.trace_spool.rotation.max_segments = 4;
    // The default cadence (2-100 ms) lets two full-speed clients wrap their
    // 4096-record rings and lose about a fifth of the records; the fastest
    // cadence keeps the loss to a few percent (trace.kept_ratio).
    config.trace_spool.min_interval_us = 100;
    config.trace_spool.max_interval_us = 500;
  }
  return config;
}

void RemoveSpool(const Options& opt) {
  const std::string prefix =
      std::filesystem::path(SpoolBase(opt)).filename().string();
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(opt.scratch, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

struct Phase {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> serving_done{false};
};

// Touches every tenant the client serves: one request per family point,
// which is also where the hostile grafts are first ejected.
void WarmUp(Kernel& k, const Plan& plan, Client& c) {
  for (uint32_t t = 0; t < k.tenants.size(); ++t) {
    if (!ServedBy(plan, c.index, t)) continue;
    for (int f = 0; f < kFamilies; ++f) {
      Op op;
      op.tenant = t;
      op.family = static_cast<uint8_t>(f);
      op.resource = (t * kFamilies + static_cast<uint32_t>(f)) %
                    kLockResources;
      op.arg = static_cast<uint32_t>(f);
      bool good = true;
      (void)Serve<false>(k, *k.tenants[t], op, c, Now(), good);
    }
  }
}

template <bool kTraced>
void ServeLoop(Kernel& k, const std::vector<Op>& ops, Client& c) {
  uint64_t t = Now();
  c.start_ns = t;
  for (const Op& op : ops) {
    bool good = true;
    const uint64_t end = Serve<kTraced>(k, *k.tenants[op.tenant], op, c, t, good);
    c.latency_ns.push_back(Saturate(end - t));
    ++c.attempted;
    if (good) ++c.ok;
    t = end;
  }
  c.end_ns = t;
}

// tenant_churn's second client: retire a slot's tenant and onboard a new
// one, back to back, until the serving client has finished its stream.
template <bool kTraced>
void ChurnLoop(Kernel& k, const std::vector<Op>& ops,
               Client& c, const std::atomic<bool>& serving_done) {
  const Tracer<kTraced> tr{&c.log};
  uint64_t t = Now();
  c.start_ns = t;
  uint32_t incarnation = 0;
  for (const Op& op : ops) {
    if (serving_done.load(std::memory_order_acquire)) break;
    std::unique_ptr<Tenant>& slot = k.slots[op.tenant];
    tr.OpenAt(Layer::kRetire, t);
    Retire(k, *slot, tr);
    const uint64_t mid = Now();
    tr.CloseAt(mid);
    TenantPlan fresh_plan;
    fresh_plan.grafted = op.grafted;
    auto fresh = NewTenant(20000 + ++incarnation, slot->port,
                           "churn." + std::to_string(op.tenant) + ".", fresh_plan);
    fresh->delivered = slot->delivered;
    slot = std::move(fresh);
    tr.OpenAt(Layer::kOnboard, mid);
    Onboard(k, *slot, tr, c.loads);
    t = Now();
    tr.CloseAt(t);
    c.onboard_ns.push_back(Saturate(t - mid));
  }
  if (!serving_done.load(std::memory_order_acquire)) {
    Fail("the churn stream ran out before the serving client finished; "
         "lengthen onboard_ops");
  }
  c.end_ns = t;
}

template <bool kTraced>
void ClientMain(Kernel& k, const Plan& plan, Client& c, int cpu, Phase& phase) {
  if (!PinThread({cpu})) Fail("pinning client " + std::to_string(c.index));
  const bool churner =
      plan.workload == Workload::kTenantChurn && c.index == 1;
  if (!churner) WarmUp(k, plan, c);
  phase.ready.fetch_add(1, std::memory_order_acq_rel);
  while (!phase.go.load(std::memory_order_acquire)) std::this_thread::yield();
  const std::vector<Op>& ops = plan.streams[static_cast<size_t>(c.index)];
  if (churner) {
    ChurnLoop<kTraced>(k, ops, c, phase.serving_done);
  } else {
    ServeLoop<kTraced>(k, ops, c);
    phase.serving_done.store(true, std::memory_order_release);
  }
}

size_t SpanCapacity(const std::vector<Op>& ops) {
  size_t n = 0;
  for (const Op& op : ops) {
    n += op.kind == OpKind::kOnboard ? 48 : op.kind == OpKind::kServe ? 8 : 11;
  }
  return n;
}

void CheckInvariants(Kernel& k, const Plan& plan, const Counters& end,
                     const std::vector<std::unique_ptr<Client>>& clients,
                     const Client& sweeper, uint64_t* spool_lost) {
  std::vector<std::string> failed;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  };
  for (const auto* list : {&k.tenants, &k.slots}) {
    for (const auto& t : *list) {
      const int attack_family = t->plan.hostile ? AttackFamily(t->plan.attack) : -1;
      for (int f = 0; f < kFamilies; ++f) {
        const FunctionGraftPoint& p = *t->points[f];
        if (f == attack_family) {
          check(!p.grafted() && p.stats().forcible_removals >= 1,
                TenantTag(*t) + ": hostile graft not ejected");
        } else if (t->grafts[f] != nullptr) {
          check(p.grafted() && p.stats().forcible_removals == 0,
                TenantTag(*t) + ": benign graft falsely ejected");
        }
      }
      const EventGraftPoint::Stats s = t->http->stats();
      if (Hangs(t->plan)) {
        check(t->http->handler_count() == 0 && s.handler_aborts >= 1,
              TenantTag(*t) + ": hanging handler not ejected");
      } else {
        check(t->http->handler_count() == 1 && s.handler_aborts == 0,
              TenantTag(*t) + ": benign handler falsely ejected");
      }
      check(s.events == t->delivered,
            TenantTag(*t) + ": lost events (" + std::to_string(s.events) +
                " events, " + std::to_string(t->delivered) + " delivered)");
    }
  }
  check(end.txn.begins == end.txn.commits + end.txn.aborts,
        "transactions do not balance");

  uint64_t anomalies = sweeper.lock_anomalies;
  for (const auto& c : clients) anomalies += c->lock_anomalies;
  check(anomalies == 0, std::to_string(anomalies) + " lock anomalies");
  const LockHolderId probe = ~0ull;
  for (int r = 0; r < kLockResources; ++r) {
    const auto resource = static_cast<vino::LockResourceId>(r);
    const bool drained =
        k.locks.WaiterCount(resource) == 0 &&
        k.locks.GetLock(resource, probe, LockMode::kExclusive) == Status::kOk &&
        k.locks.ReleaseLock(resource, probe) == Status::kOk;
    check(drained, "lock resource " + std::to_string(r) + " not drained");
  }

  if (plan.workload == Workload::kServeHostile) {
    vino::spool::SpoolDrainer* drainer = k.kernel.spool();
    check(drainer != nullptr, "spool not attached");
    if (drainer != nullptr) {
      drainer->DrainNow();
      const auto s = drainer->stats();
      check(s.writer_status == Status::kOk && s.records > 0, "spool writer failed");
      *spool_lost = s.lost_total;
    }
  }
  if (!failed.empty()) {
    Fail(std::to_string(failed.size()) + " survival invariant(s) failed; first: " +
         failed.front());
  }
}

// After the kernel (and so the drainer) is gone: the spool must replay as a
// closed chain with no batch-sequence gaps, and every record the drainer
// arrived too late for must be accounted in the stream's loss counter.
void CheckSpool(const Options& opt, uint64_t drainer_lost) {
  std::vector<vino::trace::TaggedRecord> records;
  vino::spool::ReadStats stats;
  const Status s = vino::spool::ReadSpoolChain(SpoolBase(opt), records, &stats);
  if (s != Status::kOk || stats.seq_gaps != 0 || !stats.closed ||
      records.empty() || stats.lost_total < drainer_lost) {
    Fail("spool replay: " + std::string(vino::StatusName(s)) + ", " +
         std::to_string(stats.seq_gaps) + " gaps, " +
         std::to_string(stats.lost_total) + " lost of " +
         std::to_string(drainer_lost) + " counted, closed=" +
         (stats.closed ? "yes" : "no"));
  }
}

template <bool kTraced>
void RunTrial(Run& run, int trial) {
  const Plan& plan = run.plan;
  const int nclients = kClients;
  const size_t stable = plan.tenants.size();

  Client main_client(nclients, kTraced ? 48 * (stable + plan.slots.size()) + 8 : 0);
  const Tracer<kTraced> tr{&main_client.log};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < nclients; ++c) {
    const auto& ops = plan.streams[static_cast<size_t>(c)];
    clients.push_back(std::make_unique<Client>(c, kTraced ? SpanCapacity(ops) : 0));
    (ops.front().kind == OpKind::kOnboard ? clients.back()->onboard_ns
                                          : clients.back()->latency_ns)
        .reserve(ops.size());
  }

  // --- Set-up: boot plus onboarding every initial tenant.
  const uint64_t setup_start = Now();
  tr.OpenAt(Layer::kBoot, setup_start);
  auto k = std::make_unique<Kernel>(MakeConfig(run.opt));
  const uint64_t booted = Now();
  tr.CloseAt(booted);
  if (trial == 0) run.kernel_threads = ThreadCount() - 1;
  k->alloc_id = k->kernel.host().Register(
      "serve.alloc",
      [](vino::HostCallContext& ctx) -> Result<uint64_t> {
        const Status s = vino::ChargeCurrent(vino::ResourceType::kMemory, ctx.args[0]);
        if (!vino::IsOk(s)) return s;
        return 0ull;
      },
      /*graft_callable=*/true);
  uint64_t onboard_start = Now();
  std::vector<uint32_t> setup_onboard_ns;
  auto onboard_initial = [&](std::unique_ptr<Tenant> t) {
    tr.OpenAt(Layer::kOnboard, onboard_start);
    Onboard(*k, *t, tr, main_client.loads);
    const uint64_t done = Now();
    tr.CloseAt(done);
    if (!t->plan.hostile) setup_onboard_ns.push_back(Saturate(done - onboard_start));
    onboard_start = done;
    return t;
  };
  for (uint32_t i = 0; i < stable; ++i) {
    k->tenants.push_back(onboard_initial(
        NewTenant(i, static_cast<uint16_t>(kTenantPortBase + i),
                  "serve." + std::to_string(i) + ".", plan.tenants[i])));
  }
  for (uint32_t s = 0; s < plan.slots.size(); ++s) {
    k->slots.push_back(onboard_initial(
        NewTenant(10000 + s, static_cast<uint16_t>(kSlotPortBase + s),
                  "churn." + std::to_string(s) + ".", plan.slots[s])));
  }
  const double setup_s = static_cast<double>(onboard_start - setup_start) / 1e9;

  // --- Warm-up and the timed phase.
  Phase phase;
  std::vector<std::thread> threads;
  for (int c = 0; c < nclients; ++c) {
    threads.emplace_back(ClientMain<kTraced>, std::ref(*k), std::cref(plan),
                         std::ref(*clients[static_cast<size_t>(c)]),
                         run.placement.client_cpus[static_cast<size_t>(c)],
                         std::ref(phase));
  }
  while (phase.ready.load(std::memory_order_acquire) < nclients) {
    std::this_thread::yield();
  }
  const Counters before = Snapshot(*k);
  phase.go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  const Counters after = Snapshot(*k);

  // --- Final sweep from the main thread: every point once more, and one
  // more GET per tenant; every benign tenant must still answer 200.
  for (auto* list : {&k->tenants, &k->slots}) {
    for (auto& t : *list) {
      for (int f = 0; f < kFamilies; ++f) {
        Op op;
        op.family = static_cast<uint8_t>(f);
        op.arg = static_cast<uint32_t>(t->id + static_cast<uint32_t>(f));
        op.resource = static_cast<uint32_t>(f);
        bool good = true;
        (void)Serve<false>(*k, *t, op, main_client, Now(), good);
      }
    }
  }
  for (const auto& c : clients) {
    if (c->wrong != 0) Fail(std::to_string(c->wrong) + " wrong answers; first: " + c->first_wrong);
  }
  if (main_client.wrong != 0) {
    Fail("final sweep: " + std::to_string(main_client.wrong) +
         " wrong answers; first: " + main_client.first_wrong);
  }
  uint64_t spool_lost = 0;
  CheckInvariants(*k, plan, after, clients, main_client, &spool_lost);

  // --- Teardown: retire every tenant (timed as unregistrations), then the
  // kernel; the spool is only complete once its drainer has stopped.
  const uint64_t commit_p50_ns = k->kernel.txn().commit_latency().QuantileNs(0.5);
  const uint64_t abort_p50_ns = k->kernel.txn().abort_latency().QuantileNs(0.5);
  for (auto* list : {&k->tenants, &k->slots}) {
    for (auto& t : *list) {
      tr.Open(Layer::kRetire);
      Retire(*k, *t, tr);
      tr.Close();
    }
  }
  k.reset();
  // Peak memory of a fresh process serving one trial's fixed stream. Read
  // before the spool check, which loads the whole spool; later trials only
  // add allocator fragmentation that varies with how many trials fit.
  if (trial < kWarmupTrials) run.peak_rss_mib = PeakRssMiB();
  if (plan.workload == Workload::kServeHostile) {
    CheckSpool(run.opt, spool_lost);
    RemoveSpool(run.opt);
    // The recorder's rings outlive the kernel; a new kernel's drainer would
    // count the old rings' overwritten history as loss.
    vino::trace::ResetForTest();
  }

  // --- This trial's numbers.
  Ledger& L = run.ledger;
  std::vector<uint32_t> latency;
  uint64_t served = 0, ok = 0, queued = 0, timeouts = 0;
  uint64_t phase_start = UINT64_MAX, phase_end = 0;
  const Client* churner = nullptr;
  for (const auto& c : clients) {
    if (plan.workload == Workload::kTenantChurn && c->index == 1) {
      churner = c.get();
      continue;
    }
    latency.insert(latency.end(), c->latency_ns.begin(), c->latency_ns.end());
    served += c->attempted;
    ok += c->ok;
    queued += c->lock_queued;
    timeouts += c->lock_timeouts;
    phase_start = std::min(phase_start, c->start_ns);
    phase_end = std::max(phase_end, c->end_ns);
  }
  const double phase_s = static_cast<double>(phase_end - phase_start) / 1e9;
  const Summary req = Summarize(latency);
  std::vector<uint32_t> onboard =
      churner != nullptr ? churner->onboard_ns : setup_onboard_ns;
  const double onboard_s =
      churner != nullptr ? static_cast<double>(churner->end_ns - churner->start_ns) / 1e9
                         : setup_s;
  const Summary onb = Summarize(onboard);

  std::printf(
      "trial %d%s: setup %.4f s, %" PRIu64 " requests in %.3f s (%.0f req/s), "
      "p50 %.2f us, p99 %.2f us, p999 %.1f us (n=%zu); onboard p50 %.3f ms "
      "p99 %.3f ms (n=%zu); lock waits %" PRIu64 ", timeouts %" PRIu64
      "; invariants held\n",
      trial + 1, trial < kWarmupTrials ? " (warm-up, not counted)" : "", setup_s,
      served, phase_s, static_cast<double>(served) / phase_s, req.p50 / 1e3,
      req.p99 / 1e3, req.p999 / 1e3, req.count, onb.p50 / 1e6, onb.p99 / 1e6,
      onb.count, queued, timeouts);
  if (trial < kWarmupTrials) return;

  run.attempted += served;
  run.ok += ok;
  run.onboard_ns.insert(run.onboard_ns.end(), onboard.begin(), onboard.end());
  L.Add("setup_s", setup_s);
  L.Add("req_p50_us", req.p50 / 1e3);
  L.Add("req_p99_us", req.p99 / 1e3);
  L.Add("req_p999_us", req.p999 / 1e3);
  L.Add("throughput_rps", static_cast<double>(served) / phase_s);
  L.Add("onboards_per_s", static_cast<double>(onb.count) / onboard_s);
  L.Add("kernel.boot_ms", static_cast<double>(booted - setup_start) / 1e6);
  L.Add("graft.ejections", static_cast<double>(after.ejections - before.ejections));
  L.Add("txn.watchdog_fires",
        static_cast<double>(after.watchdog_fires - before.watchdog_fires));
  L.Add("txn.commit.p50_ns", static_cast<double>(commit_p50_ns));
  L.Add("txn.abort.p50_us", static_cast<double>(abort_p50_ns) / 1e3);
  L.Add("trace.drains_per_s",
        static_cast<double>(after.spool.drains - before.spool.drains) / phase_s);
  L.AddRatio("ok_ratio", ok, served);
  uint64_t loads = main_client.loads;
  for (const auto& c : clients) loads += c->loads;
  L.AddRatio("graft.load.reject_ratio", 0, loads);
  L.AddRatio("graft.abort_ratio", after.graft_aborts - before.graft_aborts,
             after.graft_runs - before.graft_runs);
  L.AddRatio("txn.begins_per_req", after.txn.begins - before.txn.begins, served);
  L.AddRatio("txn.slab_miss_ratio", after.txn.slab_misses - before.txn.slab_misses,
             after.txn.begins - before.txn.begins);
  L.AddRatio("txn.abort_ratio", after.txn.aborts - before.txn.aborts,
             after.txn.begins - before.txn.begins);
  L.AddRatio("lockmgr.wait_ratio", queued, served);
  L.AddRatio("lockmgr.timeout_ratio", timeouts, queued);
  L.AddRatio("net.bytes_per_req", after.bytes_sent - before.bytes_sent, served);
  L.AddRatio("net.handler_abort_ratio", after.handler_aborts - before.handler_aborts,
             after.handler_runs - before.handler_runs);
  const uint64_t records = after.spool.records - before.spool.records;
  const uint64_t lost = after.spool.lost_total - before.spool.lost_total;
  L.AddRatio("trace.records_per_req", records, served);
  L.AddRatio("trace.bytes_per_req", after.spool.bytes - before.spool.bytes, served);
  L.AddRatio("trace.kept_ratio", records, records + lost);

  if constexpr (kTraced) {
    Reduction red;
    Reduce(main_client.log.spans(), red);
    uint64_t dropped = main_client.log.dropped();
    for (const auto& c : clients) {
      Reduce(c->log.spans(), red);
      dropped += c->log.dropped();
      run.stalls.insert(run.stalls.end(), c->stalls.begin(), c->stalls.end());
    }
    if (dropped != 0) Fail(std::to_string(dropped) + " spans did not fit their log");
    run.sum_roots += red.roots;
    run.sum_misses += red.sum_misses;
    run.max_sum_error_ns = std::max(run.max_sum_error_ns, red.max_sum_error_ns);

    auto quantile_us = [&](Layer layer, bool self, double q) {
      auto& v = self ? red.self_ns[static_cast<size_t>(layer)]
                     : red.total_ns[static_cast<size_t>(layer)];
      return Quantile(v, q) / 1e3;
    };
    auto& deliver = red.total_ns[static_cast<size_t>(Layer::kDeliver)];
    uint64_t stalls = 0, stall_ns = 0;
    for (uint32_t d : deliver) {
      if (d > kStallNs) {
        ++stalls;
        stall_ns += d;
      }
    }
    L.Add("net.deliver.stalls", static_cast<double>(stalls));
    L.Add("net.deliver.stall_ms", static_cast<double>(stall_ns) / 1e6);
    const struct {
      const char* name;
      Layer layer;
      bool self;
      double q;
    } kTimes[] = {
        {"sfi.instrument.p50_us", Layer::kInstrument, true, 0.5},
        {"sfi.sign.p50_us", Layer::kSign, true, 0.5},
        {"graft.load.p50_us", Layer::kLoad, true, 0.5},
        {"graft.load.p99_us", Layer::kLoad, true, 0.99},
        {"graft.install.p50_us", Layer::kInstall, true, 0.5},
        {"graft.register.p99_us", Layer::kRegister, true, 0.99},
        {"graft.unregister.p99_us", Layer::kUnregister, true, 0.99},
        {"graft.lookup.p50_us", Layer::kLookup, true, 0.5},
        {"graft.lookup.p99_us", Layer::kLookup, true, 0.99},
        {"graft.invoke_safe.p50_us", Layer::kInvokeSafe, true, 0.5},
        {"graft.invoke_default.p50_us", Layer::kInvokeDefault, true, 0.5},
        {"graft.invoke_abort.p50_us", Layer::kInvokeAbort, true, 0.5},
        {"graft.invoke_abort.p99_us", Layer::kInvokeAbort, true, 0.99},
        {"graft.retry.p50_us", Layer::kRetry, false, 0.5},
        {"graft.churn.p50_us", Layer::kChurn, false, 0.5},
        {"lockmgr.get.p50_us", Layer::kLockGet, true, 0.5},
        {"lockmgr.release.p50_us", Layer::kLockRelease, true, 0.5},
        {"lockmgr.wait.p99_us", Layer::kLockWait, true, 0.99},
        {"net.deliver.p50_us", Layer::kDeliver, true, 0.5},
        {"net.deliver.p99_us", Layer::kDeliver, true, 0.99},
        {"net.find.p50_us", Layer::kFind, true, 0.5},
        {"client.other.p50_us", Layer::kRequest, true, 0.5},
    };
    for (const auto& m : kTimes) L.Add(m.name, quantile_us(m.layer, m.self, m.q));
    std::printf("  spans: %" PRIu64 " roots, %" PRIu64 " outside the sum tolerance\n",
                red.roots, red.sum_misses);
  }
}

// --- Output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::vector<Metric> EndToEnd(const Run& run) {
  const Ledger& L = run.ledger;
  return {
      {"setup_s", L.MedianOf("setup_s"), "s"},
      {"req_p50_us", L.MedianOf("req_p50_us"), "us"},
      {"req_p99_us", L.MedianOf("req_p99_us"), "us"},
      {"throughput_rps", L.MedianOf("throughput_rps"), "1/s"},
      {"ok_ratio", L.RatioOf("ok_ratio").value(), "ratio"},
      {"peak_rss_mb", run.peak_rss_mib, "MiB"},
  };
}

// Printed, not gated: on the serving workloads these time the set-up's own
// onboardings, which setup_s already covers, and tenant_churn is too noisy
// on a shared VM to gate (README.md).
std::vector<Metric> Onboarding(const Run& run) {
  // Pooled over the counted trials: one trial's 1,000 leave only ten
  // beyond p99.
  std::vector<uint32_t> onboard = run.onboard_ns;
  const Summary onb = Summarize(onboard);
  return {
      {"onboard_p50_ms", onb.p50 / 1e6, "ms"},
      {"onboard_p99_ms", onb.p99 / 1e6, "ms"},
      {"onboards_per_s", run.ledger.MedianOf("onboards_per_s"), "1/s"},
  };
}

std::vector<Metric> PerLayer(const Run& run) {
  const Ledger& L = run.ledger;
  std::vector<Metric> out;
  auto median = [&](const char* name, const char* unit) {
    out.push_back({name, L.MedianOf(name), unit});
  };
  auto ratio = [&](const char* name, const char* unit) {
    out.push_back({name, L.RatioOf(name).value(), unit});
  };
  median("kernel.boot_ms", "ms");
  median("sfi.instrument.p50_us", "us");
  median("sfi.sign.p50_us", "us");
  median("graft.load.p50_us", "us");
  median("graft.load.p99_us", "us");
  ratio("graft.load.reject_ratio", "ratio");
  median("graft.install.p50_us", "us");
  median("graft.register.p99_us", "us");
  median("graft.unregister.p99_us", "us");
  median("graft.lookup.p50_us", "us");
  median("graft.lookup.p99_us", "us");
  median("graft.invoke_safe.p50_us", "us");
  median("graft.invoke_default.p50_us", "us");
  median("graft.invoke_abort.p50_us", "us");
  median("graft.invoke_abort.p99_us", "us");
  median("graft.retry.p50_us", "us");
  median("graft.churn.p50_us", "us");
  ratio("graft.abort_ratio", "ratio");
  median("graft.ejections", "count");
  ratio("txn.begins_per_req", "1/req");
  ratio("txn.slab_miss_ratio", "ratio");
  ratio("txn.abort_ratio", "ratio");
  median("txn.watchdog_fires", "count");
  median("txn.commit.p50_ns", "ns");
  median("txn.abort.p50_us", "us");
  median("lockmgr.get.p50_us", "us");
  median("lockmgr.release.p50_us", "us");
  ratio("lockmgr.wait_ratio", "ratio");
  median("lockmgr.wait.p99_us", "us");
  ratio("lockmgr.timeout_ratio", "ratio");
  median("net.deliver.p50_us", "us");
  median("net.deliver.p99_us", "us");
  median("net.deliver.stalls", "count");
  median("net.deliver.stall_ms", "ms");
  median("net.find.p50_us", "us");
  ratio("net.bytes_per_req", "B/req");
  ratio("net.handler_abort_ratio", "ratio");
  ratio("trace.records_per_req", "1/req");
  ratio("trace.bytes_per_req", "B/req");
  ratio("trace.kept_ratio", "ratio");
  median("trace.drains_per_s", "1/s");
  median("client.other.p50_us", "us");
  return out;
}

void PrintTable(const char* title, const std::vector<Metric>& metrics,
                const Ledger& L) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    auto r = L.ratios.find(m.name);
    if (r != L.ratios.end()) {
      std::printf("  %-28s %14.6g %-6s (%s)\n", m.name.c_str(), m.value, m.unit,
                  r->second.Text().c_str());
    } else {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
}

std::string JsonObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

// Connection counts at which an unordered_map keyed like NetStack's
// connection table rehashes, up to `limit` insertions.
std::vector<uint64_t> RehashPoints(uint64_t limit) {
  std::vector<uint64_t> out;
  std::unordered_map<ConnectionId, int> table;
  size_t buckets = table.bucket_count();
  for (uint64_t n = 1; n <= limit; ++n) {
    table.emplace(n, 0);
    if (table.bucket_count() != buckets) {
      out.push_back(n);
      buckets = table.bucket_count();
    }
  }
  return out;
}

void PrintStalls(const Run& run) {
  if (run.stalls.empty()) {
    std::printf("net.deliver stalls (> 1 ms): none\n");
    return;
  }
  uint64_t max_conn = 0;
  for (const Stall& s : run.stalls) max_conn = std::max(max_conn, s.conn);
  const std::vector<uint64_t> rehash = RehashPoints(max_conn + 4);
  size_t at_rehash = 0;
  for (const Stall& s : run.stalls) {
    for (uint64_t r : rehash) {
      if (s.conn + 4 >= r && s.conn <= r + 4) {
        ++at_rehash;
        break;
      }
    }
  }
  std::printf(
      "net.deliver stalls (> 1 ms): %zu over the traced trials; %zu within 4 "
      "connections of a connection-table rehash (rehash at",
      run.stalls.size(), at_rehash);
  for (size_t i = rehash.size() > 6 ? rehash.size() - 6 : 0; i < rehash.size(); ++i) {
    std::printf(" %" PRIu64, rehash[i]);
  }
  std::printf(" ...)\n");
}

template <bool kTraced>
void RunAll(Run& run) {
  const auto begin = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
        .count();
  };
  while (run.trials < kWarmupTrials + kMinTrials ||
         elapsed() < run.opt.seconds) {
    RunTrial<kTraced>(run, run.trials);
    ++run.trials;
    std::fflush(stdout);
  }
}

int Main(int argc, char** argv) {
  Run run;
  run.opt = Parse(argc, argv);
  vino::Logger::Instance().SetMinLevel(vino::LogLevel::kError);

  run.plan = MakePlan(run.opt.workload, run.opt.seed, DefaultConfig(run.opt.workload));
  run.placement = PlaceThreads(kClients);
  if (!PinThread(run.placement.kernel_cpus)) Fail("pinning the main thread");
  if (run.opt.workload == Workload::kServeHostile) {
    vino::trace::SetEnabled(true);  // The flight recorder, spooled.
  }

  const Options& opt = run.opt;
  std::printf("ledger: workload %s, seed %" PRIu64 ", %.0f s, spans %s\n",
              WorkloadName(opt.workload), opt.seed, opt.seconds,
              opt.spans ? "on" : "off");
  for (size_t c = 0; c < run.plan.streams.size(); ++c) {
    std::printf("stream client %zu: seed %" PRIu64 ", %zu ops, digest %016" PRIx64 "\n",
                c, opt.seed, run.plan.streams[c].size(), Digest(run.plan.streams[c]));
  }
  if (opt.spans) {
    RunAll<true>(run);
  } else {
    RunAll<false>(run);
  }

  std::printf(
      "host: nproc %u, allowed cpus %s; %d clients pinned to cpus %s; kernel "
      "threads (%zu) on cpus %s; build %s; max exec tier %s\n",
      std::thread::hardware_concurrency(), CpuList(run.placement.allowed).c_str(),
      kClients, CpuList(run.placement.client_cpus).c_str(),
      run.kernel_threads, CpuList(run.placement.kernel_cpus).c_str(),
      LEDGER_BUILD_TYPE, std::string(vino::ExecTierName(vino::MaxExecTier())).c_str());

  const std::vector<Metric> e2e = EndToEnd(run);
  std::vector<Metric> layers;
  char title[128];
  std::snprintf(title, sizeof(title),
                "end-to-end (median of %d trials; %zu requests, %zu onboardings "
                "pooled):",
                run.trials - kWarmupTrials, static_cast<size_t>(run.attempted),
                run.onboard_ns.size());
  PrintTable(title, e2e, run.ledger);
  PrintTable("onboarding (not gated):", Onboarding(run), run.ledger);
  std::printf("  req_p999_us (diagnostic)     %14.6g us\n",
              run.ledger.MedianOf("req_p999_us"));
  if (opt.spans) {
    layers = PerLayer(run);
    std::snprintf(title, sizeof(title), "per-layer (median of %d traced trials):",
                  run.trials - kWarmupTrials);
    PrintTable(title, layers, run.ledger);
    std::printf("sum check: %" PRIu64 " roots, %" PRIu64
                " outside %.1f%% of their span, max error %" PRIu64 " ns\n",
                run.sum_roots, run.sum_misses, kSumTolerance * 100,
                run.max_sum_error_ns);
    PrintStalls(run);
    if (run.sum_misses != 0) Fail("span self times do not add up to their requests");
  }
  std::printf("{\"correct\": true, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"end_to_end\": %s, \"per_layer\": %s}\n",
              run.attempted, run.attempted - run.ok, JsonObject(e2e).c_str(),
              JsonObject(layers).c_str());
  return 0;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) { return ledger::Main(argc, argv); }
