#include "src/fuzz/fuzz_harness.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/base/rng.h"
#include "src/base/sha256.h"
#include "src/base/trace_spool.h"
#include "src/fuzz/program_gen.h"
#include "src/graft/event_point.h"
#include "src/graft/function_point.h"
#include "src/graft/graft.h"
#include "src/graft/loader.h"
#include "src/kernel/kernel.h"
#include "src/lockmgr/lock_manager.h"
#include "src/sfi/misfit.h"
#include "src/sfi/signing.h"
#include "src/sfi/threaded_vm.h"
#include "src/sfi/verifier.h"
#include "src/sfi/vm.h"

namespace vino {
namespace fuzz {
namespace {

constexpr GraftIdentity kFuzzUser{4242, false};
constexpr uint64_t kHostSalt = 0x9e3779b97f4a7c15ull;
constexpr uint8_t kCanaryByte = 0xA5;
constexpr uint64_t kDifferentialFuel = 300'000;

// Signs like a compromised toolchain: raw HMAC, no gatekeeping. Forged and
// soup classes use this; the valid class goes through the kernel's real
// SigningAuthority.
SignedGraft ForgeSign(Program program, const std::string& key) {
  const std::vector<uint8_t> bytes = EncodeProgram(program);
  SignedGraft out;
  out.signature = HmacSha256(key, bytes.data(), bytes.size());
  out.program = std::move(program);
  return out;
}

// A host table mirroring the kernel's id layout so a program's call ids
// resolve to the same (ok / hostile) entries when run standalone for the
// tier differential. Records the ok-call argument sequence: the tiers must
// agree not just on final state but on every host interaction, in order.
class MirrorHost {
 public:
  MirrorHost(uint32_t ok_id, uint32_t hostile_id) {
    const auto pad = [](HostCallContext&) -> Result<uint64_t> { return 0; };
    for (uint32_t next = 1; next < ok_id; ++next) {
      table_.Register("pad." + std::to_string(next), pad, false);
    }
    table_.Register(
        "fuzz.ok",
        [this](HostCallContext& ctx) -> Result<uint64_t> {
          calls_.push_back(ctx.args[0]);
          return ctx.args[0] ^ kHostSalt;
        },
        /*graft_callable=*/true);
    for (uint32_t next = ok_id + 1; next < hostile_id; ++next) {
      table_.Register("pad." + std::to_string(next), pad, false);
    }
    table_.Register("fuzz.hostile", pad, /*graft_callable=*/false);
  }

  [[nodiscard]] const HostCallTable& table() const { return table_; }
  [[nodiscard]] const std::vector<uint64_t>& calls() const { return calls_; }
  void Reset() { calls_.clear(); }

 private:
  HostCallTable table_;
  std::vector<uint64_t> calls_;
};

struct TierRun {
  RunOutcome outcome;
  uint64_t regs[kNumRegisters] = {};
  std::vector<uint64_t> calls;
  std::vector<uint8_t> memory;
};

TierRun RunTier(const ExecutionEngine& engine, const VerifiedProgram& program,
                MirrorHost& host, std::span<const uint64_t> args) {
  TierRun run;
  MemoryImage image(4096, program.program().sandbox_log2);
  RunOptions options;
  options.fuel = kDifferentialFuel;
  options.final_regs = run.regs;
  host.Reset();
  run.outcome = engine.Run(program, &image, args, options,
                           CallerIdentity{kFuzzUser.uid, false});
  run.calls = host.calls();
  run.memory.assign(image.data(), image.data() + image.total_size());
  return run;
}

// Describes the first difference between two tier runs, or "" if identical.
std::string CompareTiers(const TierRun& t0, const TierRun& t1) {
  std::ostringstream why;
  if (t0.outcome.status != t1.outcome.status) {
    why << "status " << StatusName(t0.outcome.status) << " vs "
        << StatusName(t1.outcome.status);
  } else if (t0.outcome.ret != t1.outcome.ret) {
    why << "ret " << t0.outcome.ret << " vs " << t1.outcome.ret;
  } else if (t0.outcome.instructions != t1.outcome.instructions) {
    why << "instructions " << t0.outcome.instructions << " vs "
        << t1.outcome.instructions;
  } else if (std::memcmp(t0.regs, t1.regs, sizeof(t0.regs)) != 0) {
    for (int r = 0; r < kNumRegisters; ++r) {
      if (t0.regs[r] != t1.regs[r]) {
        why << "r" << r << " " << t0.regs[r] << " vs " << t1.regs[r];
        break;
      }
    }
  } else if (t0.calls != t1.calls) {
    why << "host-call sequence diverged (" << t0.calls.size() << " vs "
        << t1.calls.size() << " calls)";
  } else if (t0.memory != t1.memory) {
    why << "memory images differ";
  }
  return why.str();
}

// The PR-6 hole, reconstructed: a forgery that widens the sandbox mask and
// rebases to zero, so its "sandboxed" store lands at image offset 64 —
// inside the simulated kernel region. The real verifier rejects it; the
// injection installs it with a forged proof anyway (loader bypass).
Program MaskWriteHoleProgram() {
  Program p;
  p.name = "inject-mask-hole";
  p.instrumented = true;
  p.sandbox_log2 = 16;
  p.code.push_back({Op::kLoadImm, kSandboxMaskReg, 0, 0, 0xfff});
  p.code.push_back({Op::kLoadImm, kSandboxBaseReg, 0, 0, 0});
  p.code.push_back({Op::kLoadImm, 1, 0, 0, 64});
  p.code.push_back({Op::kSandboxAddr, kSandboxAddrReg, 1, 0, 0});
  p.code.push_back({Op::kSt64, 0, kSandboxAddrReg, 1, 0});
  p.code.push_back({Op::kHalt, 0, 0, 0, 0});
  return p;
}

void PaintCanary(MemoryImage& image) {
  std::memset(image.data(), kCanaryByte, image.kernel_size());
}

bool CanaryIntact(const MemoryImage& image) {
  const uint8_t* data = image.data();
  for (uint64_t i = 0; i < image.kernel_size(); ++i) {
    if (data[i] != kCanaryByte) {
      return false;
    }
  }
  return true;
}

// An anomaly plus everything needed to write its reproducer bundle once the
// spool has been replayed at the end of the campaign.
struct PendingAnomaly {
  Anomaly anomaly;
  TriageInput triage;
  std::vector<uint8_t> container;  // Serialized program, if one exists.
  Program program;                 // Decoded form for disassembly.
  bool has_program = false;
};

std::string RenderSpoolTail(const std::vector<trace::TaggedRecord>& replay,
                            size_t max_records) {
  std::ostringstream out;
  const size_t start = replay.size() > max_records ? replay.size() - max_records : 0;
  out << "# spool tail: " << (replay.size() - start) << " of " << replay.size()
      << " replayed records\n";
  for (size_t i = start; i < replay.size(); ++i) {
    const trace::TaggedRecord& r = replay[i];
    out << r.record.time_ns << " os=" << r.os_id << " seq=" << r.seq << " "
        << trace::EventName(static_cast<trace::Event>(r.record.event))
        << " tag=" << r.record.tag << " a32=" << r.record.a32
        << " a=" << r.record.a << " b=" << r.record.b << "\n";
  }
  return out.str();
}

// Writes the self-contained reproducer bundle; returns its directory, or ""
// when bundles are disabled or the write failed.
std::string WriteBundle(const std::string& artifacts_dir,
                        const PendingAnomaly& pending, const FuzzOptions& options,
                        const std::vector<trace::TaggedRecord>& replay) {
  if (artifacts_dir.empty()) {
    return {};
  }
  std::ostringstream name;
  name << "anomaly-" << pending.anomaly.seed << "-"
       << (pending.anomaly.program_index < 0
               ? std::string("run")
               : std::to_string(pending.anomaly.program_index));
  const std::string dir =
      (std::filesystem::path(artifacts_dir) / name.str()).string();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return {};
  }

  {
    std::ofstream repro(
        (std::filesystem::path(dir) / "repro.txt").string(), std::ios::trunc);
    repro << "anomaly:   " << AnomalyKindName(pending.anomaly.kind) << "\n";
    repro << "subsystem: " << SubsystemName(pending.anomaly.subsystem) << "\n";
    repro << "seed:      " << pending.anomaly.seed << "\n";
    repro << "program:   " << pending.anomaly.program_index << "\n";
    repro << "detail:    " << pending.anomaly.detail << "\n";
    repro << "replay:    build/tools/graftfuzz --seeds " << options.seed
          << " --programs " << options.programs;
    if (options.inject.lockmgr_ghost_waiter) {
      repro << " --inject ghost-waiter";
    }
    if (options.inject.verifier_mask_write_hole) {
      repro << " --inject mask-hole";
    }
    repro << "\n";
  }
  if (!pending.container.empty()) {
    std::ofstream bytes((std::filesystem::path(dir) / "program.graft").string(),
                        std::ios::trunc | std::ios::binary);
    bytes.write(reinterpret_cast<const char*>(pending.container.data()),
                static_cast<std::streamsize>(pending.container.size()));
  }
  if (pending.has_program) {
    DumpArtifact("program", pending.anomaly.seed,
                 std::max(pending.anomaly.program_index, 0), pending.program,
                 AnomalyKindName(pending.anomaly.kind), dir);
  }
  if (!replay.empty()) {
    std::ofstream tail((std::filesystem::path(dir) / "spool_tail.txt").string(),
                       std::ios::trunc);
    tail << RenderSpoolTail(replay, 256);
  }
  return dir;
}

}  // namespace

const char* SubsystemName(Subsystem s) {
  switch (s) {
    case Subsystem::kUnknown:
      return "unknown";
    case Subsystem::kVerifier:
      return "verifier";
    case Subsystem::kTierBackend:
      return "tier-backend";
    case Subsystem::kTxn:
      return "txn";
    case Subsystem::kLockMgr:
      return "lockmgr";
    case Subsystem::kSpool:
      return "spool";
  }
  return "unknown";
}

const char* AnomalyKindName(AnomalyKind k) {
  switch (k) {
    case AnomalyKind::kKernelCorruption:
      return "kernel-corruption";
    case AnomalyKind::kTierDivergence:
      return "tier-divergence";
    case AnomalyKind::kMissedEjection:
      return "missed-ejection";
    case AnomalyKind::kValidRejected:
      return "valid-rejected";
    case AnomalyKind::kTxnImbalance:
      return "txn-imbalance";
    case AnomalyKind::kLockNotDrained:
      return "lock-not-drained";
    case AnomalyKind::kLostEvents:
      return "lost-events";
    case AnomalyKind::kSpoolLoss:
      return "spool-loss";
    case AnomalyKind::kServingFailure:
      return "serving-failure";
  }
  return "?";
}

Subsystem Triage(const TriageInput& input,
                 const std::vector<trace::TaggedRecord>& replay) {
  const auto has_record = [&replay](trace::Event event, uint64_t a) {
    return std::any_of(replay.begin(), replay.end(),
                       [&](const trace::TaggedRecord& r) {
                         return r.record.event == static_cast<uint16_t>(event) &&
                                (a == 0 || r.record.a == a);
                       });
  };
  switch (input.kind) {
    case AnomalyKind::kKernelCorruption:
    case AnomalyKind::kValidRejected:
      // Only the load-time proof stands between an accepted program and
      // kernel memory; both over- and under-acceptance are its calls.
      return Subsystem::kVerifier;
    case AnomalyKind::kTierDivergence:
      return Subsystem::kTierBackend;
    case AnomalyKind::kMissedEjection:
      // If the tiers disagreed on the same program, the backend is the
      // likelier culprit; otherwise the eject path (txn layer) swallowed
      // the abort. A kGraftEjected record for the graft would disprove
      // "missed" outright — its absence confirms the eject never posted.
      if (input.ran_tier1 && !input.tier0_agrees) {
        return Subsystem::kTierBackend;
      }
      if (input.graft_trace_id != 0 &&
          has_record(trace::Event::kGraftEjected, input.graft_trace_id)) {
        return Subsystem::kUnknown;  // The eject DID post; not a miss.
      }
      return Subsystem::kTxn;
    case AnomalyKind::kTxnImbalance:
    case AnomalyKind::kLostEvents:
      return Subsystem::kTxn;
    case AnomalyKind::kLockNotDrained:
      // The replayed spool must show the leaked resource actually went
      // through the lock manager (kLockContend/kLockAcquire with its id);
      // otherwise the leak is unattributable from the trace.
      if (input.lock_resource != 0 &&
          (has_record(trace::Event::kLockContend, input.lock_resource) ||
           has_record(trace::Event::kLockAcquire, input.lock_resource))) {
        return Subsystem::kLockMgr;
      }
      return Subsystem::kUnknown;
    case AnomalyKind::kSpoolLoss:
      return Subsystem::kSpool;
    case AnomalyKind::kServingFailure:
      return Subsystem::kUnknown;
  }
  return Subsystem::kUnknown;
}

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  std::vector<PendingAnomaly> pending;

  const auto note = [&](AnomalyKind kind, int index, std::string detail,
                        TriageInput triage = {}) -> PendingAnomaly& {
    PendingAnomaly p;
    p.anomaly.kind = kind;
    p.anomaly.seed = options.seed;
    p.anomaly.program_index = index;
    p.anomaly.detail = std::move(detail);
    triage.kind = kind;
    p.triage = triage;
    pending.push_back(std::move(p));
    return pending.back();
  };

  // One campaign = one kernel = one deterministic record stream. Campaigns
  // own the process's flight recorder: reset it so a previous campaign's
  // ring backlog cannot masquerade as this one's spool loss. (Requires no
  // concurrent posters — the harness contract.)
  const bool trace_was_enabled = trace::Enabled();
  trace::ResetForTest();
  trace::SetEnabled(true);

  {
    VinoKernelConfig config;
    config.start_watchdog = false;  // Determinism: no ticker thread.
    config.trace_spool.path = options.spool_path;
    VinoKernel kernel(config);

    uint32_t ok_id = 0;
    uint32_t hostile_id = 0;
    ok_id = kernel.host().Register(
        "fuzz.ok",
        [](HostCallContext& ctx) -> Result<uint64_t> {
          return ctx.args[0] ^ kHostSalt;
        },
        /*graft_callable=*/true);
    hostile_id = kernel.host().Register(
        "fuzz.hostile",
        [](HostCallContext&) -> Result<uint64_t> { return 0; },
        /*graft_callable=*/false);

    MirrorHost mirror(ok_id, hostile_id);
    const Vm tier0(&mirror.table());
    const ThreadedVm tier1(&mirror.table());

    // The serving surface: a normal-fuel target, a starvation target whose
    // tiny budget guarantees fuel aborts, a never-grafted sentinel, and an
    // event point. All registered in the kernel namespace like any
    // subsystem's points.
    FunctionGraftPoint::Config normal_cfg;
    normal_cfg.fuel = 200'000;
    FunctionGraftPoint target("fuzz.target", [](std::span<const uint64_t>) {
      return uint64_t{7};
    }, normal_cfg, &kernel.txn(), &kernel.host(), &kernel.ns());

    FunctionGraftPoint::Config low_cfg;
    low_cfg.fuel = 24;  // Starves almost any generated program.
    FunctionGraftPoint low_target("fuzz.target.lowfuel",
                                  [](std::span<const uint64_t>) {
                                    return uint64_t{9};
                                  },
                                  low_cfg, &kernel.txn(), &kernel.host(),
                                  &kernel.ns());

    FunctionGraftPoint sentinel("fuzz.sentinel", [](std::span<const uint64_t>) {
      return uint64_t{42};
    }, FunctionGraftPoint::Config{}, &kernel.txn(), &kernel.host(),
                                &kernel.ns());

    EventGraftPoint::Config event_cfg;
    event_cfg.pool = &kernel.event_pool();
    EventGraftPoint events("fuzz.events", event_cfg, &kernel.txn(),
                           &kernel.host(), &kernel.ns());

    SimpleLockManager lockmgr;
    bool ghost_injected = false;
    bool lock_anomaly_noted = false;
    uint64_t handler_runs_seen = 0;

    Rng rng(options.seed);
    std::vector<uint8_t> last_container;  // Mutation base for the soup class.

    // Drives one accepted graft through install → invoke → (abort → eject)
    // at a function point, with the canary covering the image's kernel
    // region. Returns false on any anomaly (already noted).
    const auto drive = [&](const std::shared_ptr<Graft>& graft, int index,
                           const std::vector<uint8_t>& container,
                           bool hostile_class) {
      FunctionGraftPoint& point = rng.Chance(0.25) ? low_target : target;
      if (point.Replace(graft) != Status::kOk) {
        return;  // kBusy can't happen (we always remove); ignore defensively.
      }
      PaintCanary(graft->image());
      const FunctionGraftPoint::Stats before = point.stats();
      uint64_t args[kMaxArgs];
      for (uint64_t& a : args) {
        a = rng.Next();
      }
      point.Invoke(std::span<const uint64_t>(args, kMaxArgs));
      ++report.invocations;
      const FunctionGraftPoint::Stats after = point.stats();

      if (!CanaryIntact(graft->image())) {
        PendingAnomaly& p = note(
            AnomalyKind::kKernelCorruption, index,
            std::string(hostile_class ? "forged" : "valid") +
                " graft wrote into the image's kernel region",
            TriageInput{.graft_trace_id = graft->trace_id()});
        p.container = container;
        p.program = graft->program().program();
        p.has_program = true;
      }
      const bool aborted = after.graft_aborts > before.graft_aborts;
      if (aborted) {
        if (!hostile_class) {
          ++report.valid_aborted;
        }
        if (point.grafted() ||
            after.forcible_removals <= before.forcible_removals) {
          PendingAnomaly& p =
              note(AnomalyKind::kMissedEjection, index,
                   "graft aborted but was not forcibly removed",
                   TriageInput{.graft_trace_id = graft->trace_id()});
          p.container = container;
          p.program = graft->program().program();
          p.has_program = true;
        }
      }
      point.Remove();
    };

    // Differential cross-check of an accepted program on both tiers. The
    // loader compiled only up to VINO_EXEC_TIER's ceiling; the harness
    // still owes the differential, so it verifies again for Tier 1.
    const auto cross_check = [&](const Program& accepted, int index,
                                 const std::vector<uint8_t>& container) {
      const Result<VerifiedProgram> prog =
          VerifyAndCompile(accepted, kernel.host(), ExecTier::kTier1);
      if (!prog.ok() || prog->tier() != ExecTier::kTier1) {
        return;  // No computed-goto support in this build; nothing to diff.
      }
      uint64_t args[kMaxArgs];
      for (uint64_t& a : args) {
        a = rng.Next();
      }
      const std::span<const uint64_t> args_span(args, kMaxArgs);
      const TierRun t0 = RunTier(tier0, *prog, mirror, args_span);
      const TierRun t1 = RunTier(tier1, *prog, mirror, args_span);
      ++report.tier1_checked;
      const std::string diff = CompareTiers(t0, t1);
      if (!diff.empty()) {
        PendingAnomaly& p = note(
            AnomalyKind::kTierDivergence, index, "tier differential: " + diff,
            TriageInput{.ran_tier1 = true, .tier0_agrees = false});
        p.container = container;
        p.program = accepted;
        p.has_program = true;
      }
    };

    for (int i = 0; i < options.programs; ++i) {
      ++report.programs;
      const uint64_t cls = rng.Below(10);

      if (cls < 5) {
        // --- Valid: the real toolchain pipeline must accept. ------------
        GenOptions gen;
        gen.length = 4 + static_cast<int>(rng.Below(40));
        gen.ok_call_id = ok_id;
        gen.hostile_call_id = hostile_id;
        gen.hostile_call_chance = 0.15;
        Program source = RandomProgram(rng, gen);
        source.name = "valid-" + std::to_string(i);
        Result<Program> inst = Instrument(source, MisfitOptions{16});
        if (!inst.ok()) {
          note(AnomalyKind::kValidRejected, i,
               "instrumenter refused generated source: " +
                   std::string(StatusName(inst.status())));
          continue;
        }
        Result<SignedGraft> sg = kernel.toolchain().Sign(*inst);
        if (!sg.ok()) {
          note(AnomalyKind::kValidRejected, i,
               "authority refused instrumented program: " +
                   std::string(StatusName(sg.status())));
          continue;
        }
        const std::vector<uint8_t> container = SerializeSignedGraft(*sg);
        last_container = container;
        Result<std::shared_ptr<Graft>> graft =
            kernel.loader().Load(*sg, GraftLoader::LoadSpec{kFuzzUser, nullptr});
        if (!graft.ok()) {
          PendingAnomaly& p = note(
              AnomalyKind::kValidRejected, i,
              "loader refused toolchain output: " +
                  std::string(StatusName(graft.status())));
          p.container = container;
          p.program = *inst;
          p.has_program = true;
          continue;
        }
        ++report.valid_accepted;
        drive(*graft, i, container, /*hostile_class=*/false);
        cross_check((*graft)->program().program(), i, container);

        // Sometimes also route a second instance through the event point.
        if (rng.Chance(0.3)) {
          Result<std::shared_ptr<Graft>> handler = kernel.loader().Load(
              *sg, GraftLoader::LoadSpec{kFuzzUser, nullptr});
          if (handler.ok() && events.AddHandler(*handler, i) == Status::kOk) {
            uint64_t args[kMaxArgs];
            for (uint64_t& a : args) {
              a = rng.Next();
            }
            const EventGraftPoint::DispatchOutcome outcome =
                events.Dispatch(std::span<const uint64_t>(args, kMaxArgs));
            ++report.events_dispatched;
            handler_runs_seen += outcome.handlers_run;
            events.RemoveHandler((*handler)->name());  // kNotFound if ejected.
          }
        }
      } else if (cls < 8) {
        // --- Forged: the verifier decides; acceptance must be safe. -----
        ForgeOptions forge;
        Program forged = RandomForgedProgram(rng, forge);
        forged.name = "forged-" + std::to_string(i);
        const SignedGraft sg = ForgeSign(forged, config.signing_key);
        const std::vector<uint8_t> container = SerializeSignedGraft(sg);
        last_container = container;
        Result<std::shared_ptr<Graft>> graft = kernel.loader().Load(
            sg, GraftLoader::LoadSpec{kFuzzUser, nullptr});
        if (!graft.ok()) {
          ++report.forged_rejected;
          continue;
        }
        ++report.forged_accepted;
        drive(*graft, i, container, /*hostile_class=*/true);
        cross_check((*graft)->program().program(), i, container);
      } else {
        // --- Soup: container-level bytes; must reject, never crash. -----
        std::vector<uint8_t> bytes;
        if (!last_container.empty() && rng.Chance(0.5)) {
          bytes = last_container;
          FlipBits(rng, bytes, 1 + static_cast<int>(rng.Below(16)));
        } else {
          bytes = RandomBytes(rng, 0, 512);
        }
        Result<SignedGraft> sg = DeserializeSignedGraft(bytes);
        if (!sg.ok()) {
          ++report.soup_rejected;
        } else {
          Result<std::shared_ptr<Graft>> graft = kernel.loader().Load(
              *sg, GraftLoader::LoadSpec{kFuzzUser, nullptr});
          if (!graft.ok()) {
            ++report.soup_rejected;
          } else {
            // Astronomically unlikely (it re-derived a valid signature);
            // if it happens, hold it to the same survival contract.
            drive(*graft, i, bytes, /*hostile_class=*/true);
          }
        }
      }

      // --- Lock traffic: every iteration exercises contend/cancel. ------
      {
        const LockResourceId resource = 0x1000 + rng.Below(64);
        const LockHolderId a = 1, b = 2;
        if (lockmgr.GetLock(resource, a, LockMode::kExclusive) == Status::kOk) {
          const Status queued =
              lockmgr.GetLock(resource, b, LockMode::kExclusive);
          const bool inject_now = options.inject.lockmgr_ghost_waiter &&
                                  !ghost_injected && i >= options.programs / 2;
          if (queued == Status::kBusy && inject_now) {
            // PR-9 seed bug: the timed-out waiter walks away WITHOUT
            // CancelWait; releasing then promotes the ghost.
            ghost_injected = true;
            lockmgr.ReleaseLock(resource, a);
          } else {
            if (queued == Status::kBusy) {
              lockmgr.CancelWait(resource, b);
            }
            lockmgr.ReleaseLock(resource, a);
          }
          if (!lock_anomaly_noted &&
              (lockmgr.Holds(resource, a) || lockmgr.Holds(resource, b) ||
               lockmgr.WaiterCount(resource) != 0)) {
            lock_anomaly_noted = true;
            note(AnomalyKind::kLockNotDrained, i,
                 "lock state not drained after release (resource " +
                     std::to_string(resource) + ")",
                 TriageInput{.lock_resource = resource});
            // Drain the ghost so one bug yields one anomaly, not a cascade.
            lockmgr.ReleaseLock(resource, b);
            lockmgr.CancelWait(resource, b);
          }
        }
      }

      // --- Mask-write hole injection (once, mid-campaign). ---------------
      if (options.inject.verifier_mask_write_hole && i == options.programs / 3) {
        Program evil = MaskWriteHoleProgram();
        VerifierOptions vopts;
        vopts.host = &kernel.host();
        const VerifierReport rep = VerifySandbox(evil, vopts);
        if (rep.ok()) {
          // The real verifier accepting this IS the PR-6 bug resurfacing.
          note(AnomalyKind::kKernelCorruption, i,
               "verifier accepted a mask-writing program");
        }
        // The forged proof: bypasses the loader.
        auto graft = std::make_shared<Graft>(evil.name, AssumeVerified(evil),
                                             kFuzzUser,
                                             /*kernel_region_size=*/4096);
        drive(graft, i, EncodeProgram(evil), /*hostile_class=*/true);
      }

      // Keep the sentinel warm and the rings drained (a campaign posts far
      // more records than one ring holds; losing them would read as spool
      // loss, which must mean spool bugs only).
      if (i % 16 == 0) {
        uint64_t args[1] = {0};
        if (sentinel.Invoke(std::span<const uint64_t>(args, 1)) != 42) {
          note(AnomalyKind::kServingFailure, i, "sentinel stopped answering");
        }
      }
      if (kernel.spool() != nullptr && i % 32 == 31) {
        kernel.spool()->DrainNow();
      }
    }

    // --- End-of-run invariants ------------------------------------------
    events.Drain();
    {
      uint64_t args[1] = {0};
      if (sentinel.Invoke(std::span<const uint64_t>(args, 1)) != 42) {
        note(AnomalyKind::kServingFailure, -1,
             "sentinel stopped answering at end of run");
      }
    }
    {
      const TxnStats txn = kernel.txn().stats();
      if (txn.begins != txn.commits + txn.aborts) {
        note(AnomalyKind::kTxnImbalance, -1,
             "txn begins " + std::to_string(txn.begins) + " != commits " +
                 std::to_string(txn.commits) + " + aborts " +
                 std::to_string(txn.aborts));
      }
    }
    {
      const EventGraftPoint::Stats ev = events.stats();
      if (ev.events != report.events_dispatched ||
          ev.handler_runs != handler_runs_seen) {
        note(AnomalyKind::kLostEvents, -1,
             "event point counted " + std::to_string(ev.events) + " events / " +
                 std::to_string(ev.handler_runs) + " runs; harness saw " +
                 std::to_string(report.events_dispatched) + " / " +
                 std::to_string(handler_runs_seen));
      }
    }

    // --- Spool invariants + replay ---------------------------------------
    std::vector<trace::TaggedRecord> replay;
    if (kernel.spool() != nullptr) {
      kernel.spool()->DrainNow();
      const spool::SpoolDrainer::Stats st = kernel.spool()->stats();
      if (st.writer_status != Status::kOk || st.lost_total != 0) {
        note(AnomalyKind::kSpoolLoss, -1,
             "drainer: writer " + std::string(StatusName(st.writer_status)) +
                 ", lost " + std::to_string(st.lost_total));
      }
      spool::ReadStats rstats;
      const Status rs =
          spool::ReadSpoolChain(options.spool_path, replay, &rstats);
      report.spool_records = replay.size();
      if (rs != Status::kOk || rstats.seq_gaps != 0 || replay.empty() ||
          rstats.lost_total != 0) {
        note(AnomalyKind::kSpoolLoss, -1,
             "spool replay: " + std::string(StatusName(rs)) + ", " +
                 std::to_string(replay.size()) + " records, " +
                 std::to_string(rstats.seq_gaps) + " seq gaps, lost " +
                 std::to_string(rstats.lost_total));
      }
    }

    // --- Triage + bundles -------------------------------------------------
    for (PendingAnomaly& p : pending) {
      p.anomaly.subsystem = Triage(p.triage, replay);
      p.anomaly.bundle_dir = WriteBundle(options.artifacts_dir, p, options, replay);
      report.anomalies.push_back(p.anomaly);
    }
  }  // ~VinoKernel: spool close trailer, pool drain.

  trace::SetEnabled(trace_was_enabled);
  return report;
}

std::string RenderReport(const FuzzReport& report) {
  std::ostringstream out;
  out << "programs:          " << report.programs << "\n"
      << "  valid accepted:  " << report.valid_accepted << " (" << report.valid_aborted
      << " aborted+ejected)\n"
      << "  forged:          " << report.forged_accepted << " accepted, "
      << report.forged_rejected << " rejected\n"
      << "  soup rejected:   " << report.soup_rejected << "\n"
      << "invocations:       " << report.invocations << "\n"
      << "tier differentials:" << report.tier1_checked << "\n"
      << "events dispatched: " << report.events_dispatched << "\n"
      << "spool records:     " << report.spool_records << "\n"
      << "anomalies:         " << report.anomalies.size() << "\n";
  for (const Anomaly& a : report.anomalies) {
    out << "  [" << AnomalyKindName(a.kind) << " -> " << SubsystemName(a.subsystem)
        << "] seed=" << a.seed << " program=" << a.program_index << ": "
        << a.detail;
    if (!a.bundle_dir.empty()) {
      out << " (bundle: " << a.bundle_dir << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace fuzz
}  // namespace vino
