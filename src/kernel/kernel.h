// VinoKernel: the assembled system.
//
// Bundles every subsystem — transactions, host-call table, graft namespace,
// loader, watchdog, scheduler, virtual memory, file system, network — wired
// together in the right order, so a downstream user can stand up a whole
// kernel in one line:
//
//   vino::VinoKernel kernel;
//   auto graft = kernel.LoadGraftFromSource(src, "my-graft", {uid, false});
//   kernel.loader().InstallFunction("openfile.1.compute-ra", *graft);
//
// Each subsystem remains individually constructible (the tests and
// benchmarks build only what they need); the facade adds no behaviour of
// its own beyond construction wiring and the source->running-graft
// convenience pipeline.

#ifndef VINOLITE_SRC_KERNEL_KERNEL_H_
#define VINOLITE_SRC_KERNEL_KERNEL_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/base/clock.h"
#include "src/base/trace_spool.h"
#include "src/base/worker_pool.h"
#include "src/fs/buffer_cache.h"
#include "src/fs/disk.h"
#include "src/fs/file_system.h"
#include "src/graft/loader.h"
#include "src/graft/namespace.h"
#include "src/mem/memory_system.h"
#include "src/net/net_stack.h"
#include "src/sched/scheduler.h"
#include "src/sfi/host.h"
#include "src/sfi/signing.h"
#include "src/txn/txn_manager.h"
#include "src/txn/watchdog.h"

namespace vino {

struct VinoKernelConfig {
  // Shared secret between the MiSFIT toolchain and the loader. Real
  // deployments provision this out of band; the default suits examples.
  std::string signing_key = "vinolite-default-signing-key";

  size_t memory_frames = 4096;      // 16 MB of 4 KB frames.
  size_t cache_buffers = 1024;      // Buffer cache capacity.
  size_t readahead_quota = 64;      // Global prefetch in-flight cap.
  DiskParams disk;                  // Paper-testbed disk by default.
  Scheduler::Params sched;          // 10 ms timeslices.
  bool start_watchdog = true;       // §4.5: 10 ms clock boundaries.

  // Shared pool carrying asynchronous event-graft dispatches (§3.5 worker
  // threads, bounded). Defaults: hardware-sized workers, 256-deep queue,
  // inline-on-saturation (events degrade to synchronous, never drop).
  WorkerPool::Config event_pool;

  // Continuous trace spooling (DESIGN.md "Observability"): when
  // trace_spool.path is non-empty — or the VINO_SPOOL environment variable
  // names a directory, from which a per-kernel file name is derived — the
  // kernel owns a background drainer that spools the flight recorder to
  // disk so long traced runs survive ring wrap-around. With
  // trace_spool.rotation.segment_bytes set (or VINO_SPOOL_SEGMENT_BYTES /
  // VINO_SPOOL_SEGMENTS in the environment), the spool is a size-capped
  // segment ring instead of one unbounded file. A path that cannot be
  // opened logs a warning and disables spooling; it never fails kernel
  // construction.
  spool::SpoolDrainer::Options trace_spool;

  // Abort-cost drift (DESIGN.md "Fleet observability"): detection always
  // runs and posts kGraftDegraded events. With eject_degraded, this
  // kernel's graft points also remove degraded grafts; other kernels in
  // the process are unaffected.
  bool eject_degraded = false;
};

class VinoKernel {
 public:
  VinoKernel() : VinoKernel(VinoKernelConfig{}) {}
  explicit VinoKernel(const VinoKernelConfig& config);

  VinoKernel(const VinoKernel&) = delete;
  VinoKernel& operator=(const VinoKernel&) = delete;

  // --- Subsystems -------------------------------------------------------
  [[nodiscard]] TxnManager& txn() { return txn_; }
  [[nodiscard]] HostCallTable& host() { return host_; }
  [[nodiscard]] GraftNamespace& ns() { return ns_; }
  [[nodiscard]] GraftLoader& loader() { return loader_; }
  [[nodiscard]] ManualClock& clock() { return clock_; }
  [[nodiscard]] SimDisk& disk() { return disk_; }
  [[nodiscard]] BufferCache& cache() { return cache_; }
  [[nodiscard]] FlatFileSystem& fs() { return fs_; }
  [[nodiscard]] MemorySystem& mem() { return mem_; }
  [[nodiscard]] NetStack& net() { return net_; }
  [[nodiscard]] WorkerPool& event_pool() { return event_pool_; }
  [[nodiscard]] Scheduler& sched() { return sched_; }
  // Null when start_watchdog was false.
  [[nodiscard]] Watchdog* watchdog() { return watchdog_.get(); }
  // Null when spooling is disabled (no configured path and no VINO_SPOOL).
  [[nodiscard]] spool::SpoolDrainer* spool() { return spool_.get(); }

  // The toolchain half of code signing, for in-process graft builds.
  [[nodiscard]] const SigningAuthority& toolchain() const { return toolchain_; }

  // --- Convenience pipeline ---------------------------------------------
  // Text source -> assemble -> MiSFIT -> sign -> load. The returned graft
  // is ready to install; its resource account starts at zero limits.
  [[nodiscard]] Result<std::shared_ptr<Graft>> LoadGraftFromSource(
      std::string_view source, std::string name, GraftIdentity identity,
      ResourceAccount* sponsor = nullptr);

  // All registered graft points (introspection / the "graft namespace" a
  // user browses to find attachment points).
  [[nodiscard]] std::vector<GraftNamespace::EntryInfo> ListGraftPoints() const {
    return ns_.List();
  }

  // A point configuration pre-wired to this kernel's watchdog: grafts at
  // such points are bounded both in instructions (fuel) and in wall time.
  // Subsystem-constructed points (compute-ra, eviction, delegate) use their
  // own defaults; kernel integrators building new points should start here.
  [[nodiscard]] FunctionGraftPoint::Config DefaultPointConfig(
      Micros wall_budget = 100'000) {
    FunctionGraftPoint::Config config;
    config.watchdog = watchdog_.get();
    config.wall_budget = watchdog_ != nullptr ? wall_budget : 0;
    return config;
  }

 private:
  // Declared first so it is destroyed last: the final drain then captures
  // records the other subsystems post while tearing down (watchdog stop,
  // event-pool drain).
  std::unique_ptr<spool::SpoolDrainer> spool_;

  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  SigningAuthority toolchain_;
  GraftLoader loader_;
  std::unique_ptr<Watchdog> watchdog_;

  ManualClock clock_;
  SimDisk disk_;
  BufferCache cache_;
  FlatFileSystem fs_;
  MemorySystem mem_;
  // Declared before net_: the net stack's event points drain into the pool
  // on destruction, so the pool must be destroyed after them.
  WorkerPool event_pool_;
  NetStack net_;
  Scheduler sched_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_KERNEL_KERNEL_H_
