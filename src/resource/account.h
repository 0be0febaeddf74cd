// Resource limits and accounting (paper §3.2, quantity-constrained
// resources).
//
// "Each thread in VINO has a set of resource limits associated with it.
//  ... When a graft is installed, it initially has limits of zero. The
//  installing thread may transfer arbitrary amounts from its own limits to
//  the newly installed graft, or the thread can request that all of the
//  graft's allocation requests be 'billed' against the installing thread's
//  own limits. If multiple processes wish to pool resources ... they can
//  each delegate their resource rights to the graft, in a manner analogous
//  to ticket delegation in lottery scheduling."

#ifndef VINOLITE_SRC_RESOURCE_ACCOUNT_H_
#define VINOLITE_SRC_RESOURCE_ACCOUNT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "src/base/status.h"

namespace vino {

enum class ResourceType : uint8_t {
  kMemory = 0,       // Bytes of kernel heap.
  kWiredMemory,      // Bytes of non-evictable physical memory.
  kBufferPages,      // File-cache / read-ahead pages.
  kThreads,          // Worker threads (event grafts spawn these).
  kFileHandles,      // Open kernel file objects.
  kNetBandwidth,     // Abstract network send credits.
  kCount,
};

[[nodiscard]] std::string_view ResourceTypeName(ResourceType type);

inline constexpr size_t kResourceTypeCount = static_cast<size_t>(ResourceType::kCount);

class ResourceAccount {
 public:
  explicit ResourceAccount(std::string name);

  ResourceAccount(const ResourceAccount&) = delete;
  ResourceAccount& operator=(const ResourceAccount&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // --- Limits ----------------------------------------------------------
  void SetLimit(ResourceType type, uint64_t limit);
  [[nodiscard]] uint64_t limit(ResourceType type) const;
  [[nodiscard]] uint64_t usage(ResourceType type) const;
  [[nodiscard]] uint64_t available(ResourceType type) const;

  // Moves `amount` of limit from this account to `to` (lottery-style ticket
  // delegation). Fails with kLimitExceeded if this account's uncommitted
  // limit (limit - usage) is insufficient.
  Status TransferLimit(ResourceType type, uint64_t amount, ResourceAccount& to);

  // --- Billing ---------------------------------------------------------
  // Routes all charges to `sponsor` (the installing thread's account).
  // Pass nullptr to clear. A billing cycle (a sponsoring b sponsoring a)
  // is rejected with kInvalidArgs.
  Status BillTo(ResourceAccount* sponsor);
  // Lock-free: a charge walks the billing chain by these loads and then
  // takes one mutex, its target's.
  [[nodiscard]] ResourceAccount* sponsor() const {
    return sponsor_.load(std::memory_order_acquire);
  }

  // --- Charges ---------------------------------------------------------
  // Attempts to consume `amount`; fails with kLimitExceeded if it would
  // push usage past the limit. Follows the billing chain.
  [[nodiscard]] Status Charge(ResourceType type, uint64_t amount);

  // Returns `amount`. Saturates at zero (defensive against double-release).
  void Uncharge(ResourceType type, uint64_t amount);

 private:
  [[nodiscard]] ResourceAccount* ChargeTarget();

  const std::string name_;
  mutable std::mutex mutex_;
  std::array<uint64_t, kResourceTypeCount> limits_{};
  std::array<uint64_t, kResourceTypeCount> usage_{};
  std::atomic<ResourceAccount*> sponsor_{nullptr};
};

// Charges the calling thread's current account (KernelContext), registering
// an automatic uncharge with the current transaction so aborted grafts give
// their resources back. With no account bound, the charge succeeds
// unaccounted (trusted kernel-internal work).
[[nodiscard]] Status ChargeCurrent(ResourceType type, uint64_t amount);

// Uncharges the calling thread's current account (no-op without one).
void UnchargeCurrent(ResourceType type, uint64_t amount);

}  // namespace vino

#endif  // VINOLITE_SRC_RESOURCE_ACCOUNT_H_
