// Shared kernel fixture for the benchmark binaries: a transaction manager,
// host-call table (with lock/unlock/abort helpers the sample grafts use),
// namespace, signing authority, and loader — plus helpers to build the six
// measurement-path variants of a graft.

#ifndef VINOLITE_BENCH_BENCH_KERNEL_H_
#define VINOLITE_BENCH_BENCH_KERNEL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "src/base/log.h"
#include "src/graft/function_point.h"
#include "src/graft/loader.h"
#include "src/sfi/assembler.h"
#include "src/sfi/misfit.h"
#include "src/sfi/signing.h"
#include "src/txn/txn_lock.h"
#include "src/txn/txn_manager.h"

namespace vino {
namespace bench {

inline constexpr GraftIdentity kBenchUser{1001, false};
inline constexpr GraftIdentity kBenchRoot{0, true};

class BenchKernel {
 public:
  BenchKernel()
      : authority_("bench-signing-key"),
        loader_(&ns_, &host_, SigningAuthority("bench-signing-key")),
        shared_lock_("bench.shared-buffer") {
    // The abort paths intentionally abort thousands of times; keep the
    // measurement output clean.
    Logger::Instance().SetMinLevel(LogLevel::kError);
    lock_id_ = host_.Register(
        "k.lock",
        [this](HostCallContext&) -> Result<uint64_t> {
          const Status s = shared_lock_.Acquire();
          if (!IsOk(s)) {
            return s;
          }
          return 0ull;
        },
        /*graft_callable=*/true);
    unlock_id_ = host_.Register(
        "k.unlock",
        [this](HostCallContext&) -> Result<uint64_t> {
          shared_lock_.Release();  // 2PL: deferred to commit under a txn.
          return 0ull;
        },
        /*graft_callable=*/true);
    abort_id_ = host_.Register(
        "test.abort",
        [](HostCallContext&) -> Result<uint64_t> { return Status::kTxnAborted; },
        /*graft_callable=*/true);
    noop_id_ = host_.Register(
        "k.noop", [](HostCallContext&) -> Result<uint64_t> { return 0ull; },
        /*graft_callable=*/true);
  }

  [[nodiscard]] TxnManager& txn() { return txn_; }
  [[nodiscard]] HostCallTable& host() { return host_; }
  [[nodiscard]] GraftNamespace& ns() { return ns_; }
  [[nodiscard]] GraftLoader& loader() { return loader_; }
  [[nodiscard]] TxnLock& shared_lock() { return shared_lock_; }

  [[nodiscard]] uint32_t lock_id() const { return lock_id_; }
  [[nodiscard]] uint32_t unlock_id() const { return unlock_id_; }
  [[nodiscard]] uint32_t abort_id() const { return abort_id_; }
  [[nodiscard]] uint32_t noop_id() const { return noop_id_; }

  // Builds, instruments, signs, and loads a program graft through the real
  // loader pipeline. Aborts the process on any failure (benchmark setup
  // bug, not a measurable condition).
  std::shared_ptr<Graft> LoadProgram(Asm& assembler, uint32_t arena_log2 = 16) {
    Result<Program> raw = assembler.Finish();
    Require(raw.ok(), "assemble");
    Result<Program> inst = Instrument(*raw, MisfitOptions{arena_log2});
    Require(inst.ok(), "instrument");
    Result<SignedGraft> signed_graft = authority_.Sign(*inst);
    Require(signed_graft.ok(), "sign");
    Result<std::shared_ptr<Graft>> graft =
        loader_.Load(*signed_graft, {kBenchUser, nullptr});
    Require(graft.ok(), "load");
    return *graft;
  }

  // Same program, uninstrumented and never verified: the paper's
  // unprotected path. It runs on Tier 0 with no bounds check at all, so a
  // wild access is undefined behaviour, as it would be in a real kernel.
  // One of the two callers of the AssumeVerified escape hatch.
  std::shared_ptr<Graft> LoadUninstrumented(Asm& assembler) {
    Result<Program> raw = assembler.Finish();
    Require(raw.ok(), "assemble");
    raw->sandbox_log2 = 16;  // Arena sizing only; no mask is applied.
    return std::make_shared<Graft>(raw->name + ".unsafe", AssumeVerified(*raw),
                                   kBenchRoot, 4096);
  }

  std::shared_ptr<Graft> LoadNative(std::string name, Graft::NativeFn fn) {
    Result<std::shared_ptr<Graft>> graft =
        loader_.LoadNativeUnsafe(std::move(name), std::move(fn), {kBenchRoot, nullptr});
    Require(graft.ok(), "native load");
    return *graft;
  }

  static void Require(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "bench failed: %s\n", what);
      std::abort();
    }
  }

  // Called after a row is timed: a graft that aborts is removed and `point`
  // falls back to its default, which the row would then have timed, and a
  // graft whose answer fails the point's validator has the default run
  // after it. So a row's graft must still be installed with no aborts and
  // its point must have counted no bad result, except the abort row's
  // graft, which must have aborted on every invocation. Rows are checked
  // as each finishes, so the first row to count a bad result fails.
  static void RequireTimedAsLabelled(const FunctionGraftPoint& point,
                                     const Graft& graft, bool abort_row,
                                     const char* label) {
    Require(abort_row ? graft.invocations() > 0 &&
                            graft.aborts() == graft.invocations()
                      : point.current_graft().get() == &graft &&
                            graft.aborts() == 0 &&
                            point.stats().bad_results == 0,
            label);
  }

 private:
  TxnManager txn_;
  HostCallTable host_;
  GraftNamespace ns_;
  SigningAuthority authority_;
  GraftLoader loader_;
  TxnLock shared_lock_;
  uint32_t lock_id_ = 0;
  uint32_t unlock_id_ = 0;
  uint32_t abort_id_ = 0;
  uint32_t noop_id_ = 0;
};

}  // namespace bench
}  // namespace vino

#endif  // VINOLITE_BENCH_BENCH_KERNEL_H_
