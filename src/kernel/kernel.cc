#include "src/kernel/kernel.h"

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <string>

#include "src/base/log.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"

namespace vino {
namespace {

// Resolves the kernel's spool drainer, if any. Explicit config wins; the
// VINO_SPOOL environment variable (a directory) derives a per-kernel file
// name, which is how tools/check.sh spools the whole test suite without
// touching every test; VINO_SPOOL_SEGMENT_BYTES / VINO_SPOOL_SEGMENTS turn
// the spool into a size-capped segment ring (spool::DeriveEnvSpoolOptions).
// Failure to open degrades to "no spooling" — the recorder keeps working.
std::unique_ptr<spool::SpoolDrainer> MakeSpoolDrainer(
    spool::SpoolDrainer::Options options) {
  if (!spool::DeriveEnvSpoolOptions(&options)) {
    return nullptr;
  }
  Result<std::unique_ptr<spool::SpoolDrainer>> drainer =
      spool::SpoolDrainer::Start(options);
  if (!drainer.ok()) {
    VINO_LOG_WARN << "trace spool '" << options.path
                  << "' failed to start: " << StatusName(drainer.status())
                  << "; spooling disabled";
    return nullptr;
  }
  return std::move(drainer.value());
}

}  // namespace

VinoKernel::VinoKernel(const VinoKernelConfig& config)
    : spool_(MakeSpoolDrainer(config.trace_spool)),
      txn_(config.eject_degraded),
      toolchain_(config.signing_key),
      loader_(&ns_, &host_, SigningAuthority(config.signing_key)),
      watchdog_(config.start_watchdog
                    ? std::make_unique<Watchdog>(config.watchdog_tick)
                    : nullptr),
      disk_(config.disk, &clock_),
      cache_(config.cache_buffers, config.readahead_quota, &disk_, &clock_),
      fs_(&disk_, &cache_, &txn_, &host_, &ns_),
      mem_(config.memory_frames, &txn_, &host_, &ns_),
      event_pool_(config.event_pool),
      net_(&txn_, &host_, &ns_, &event_pool_),
      sched_(config.sched, &clock_, &txn_, &host_, &ns_) {}

Result<std::shared_ptr<Graft>> VinoKernel::LoadGraftFromSource(
    std::string_view source, std::string name, GraftIdentity identity,
    ResourceAccount* sponsor) {
  Result<Program> program = Assemble(source, std::move(name), &host_);
  if (!program.ok()) {
    return program.status();
  }
  Result<Program> instrumented = Instrument(*program);
  if (!instrumented.ok()) {
    return instrumented.status();
  }
  Result<SignedGraft> signed_graft = toolchain_.Sign(*instrumented);
  if (!signed_graft.ok()) {
    return signed_graft.status();
  }
  return loader_.Load(*signed_graft, {identity, sponsor});
}

}  // namespace vino
