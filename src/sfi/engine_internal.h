// Private to the two execution engines (src/sfi/vm.cc and
// src/sfi/threaded_vm.cc): the parts of their dispatch loops that must not
// differ between the tiers, defined once.

#ifndef VINOLITE_SRC_SFI_ENGINE_INTERNAL_H_
#define VINOLITE_SRC_SFI_ENGINE_INTERNAL_H_

#include <cstdint>
#include <cstring>

#include "src/base/status.h"
#include "src/sfi/host.h"
#include "src/sfi/isa.h"
#include "src/sfi/memory_image.h"

namespace vino {

// Copies the register file out on every exit path (RAII, so early returns
// are covered). Only armed when RunOptions::final_regs is set — the
// differential tier tests — so the hot path pays one predictable null test
// at exit. Always inlined, like CallHost below.
struct FinalRegDump {
  uint64_t* dst;
  const uint64_t* src;
  [[gnu::always_inline]] ~FinalRegDump() {
    if (dst != nullptr) {
      std::memcpy(dst, src, sizeof(uint64_t) * kNumRegisters);
    }
  }
};

// Runs host function `id` on r0..r5 and leaves its result in regs[0].
// Returns kOk, or the status that ends the run. One probe serves both the
// callable check (`checked`, for kCheckedCallR) and the dispatch: the
// entry's graft_callable bit mirrors callable-list membership. Always
// inlined, so passing `regs` does not make the engine's register file
// escape.
[[gnu::always_inline]] inline Status CallHost(const HostCallTable* host,
                                              uint32_t id, bool checked,
                                              uint64_t* regs,
                                              MemoryImage* image,
                                              CallerIdentity identity) {
  const HostCallTable::Entry* entry = host->Lookup(id);
  if (checked && (entry == nullptr || !entry->graft_callable)) {
    // Paper §3.3: "If the target function is not on the list, the graft's
    // transaction is aborted."
    return Status::kSfiBadCall;
  }
  if (entry == nullptr) {
    return Status::kSfiTrap;  // Wild call.
  }
  HostCallContext ctx;
  for (int i = 0; i < kMaxArgs; ++i) {
    ctx.args[static_cast<size_t>(i)] = regs[i];
  }
  ctx.image = image;
  ctx.identity = identity;
  Result<uint64_t> r = entry->fn(ctx);
  if (!r.ok()) {
    return r.status();
  }
  regs[0] = r.value();
  return Status::kOk;
}

}  // namespace vino

#endif  // VINOLITE_SRC_SFI_ENGINE_INTERNAL_H_
