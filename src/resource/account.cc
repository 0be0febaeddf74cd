#include "src/resource/account.h"

#include "src/base/context.h"
#include "src/base/trace.h"
#include "src/txn/accessor.h"

namespace vino {

std::string_view ResourceTypeName(ResourceType type) {
  switch (type) {
    case ResourceType::kMemory:
      return "memory";
    case ResourceType::kWiredMemory:
      return "wired-memory";
    case ResourceType::kBufferPages:
      return "buffer-pages";
    case ResourceType::kThreads:
      return "threads";
    case ResourceType::kFileHandles:
      return "file-handles";
    case ResourceType::kNetBandwidth:
      return "net-bandwidth";
    case ResourceType::kCount:
      break;
  }
  return "?";
}

ResourceAccount::ResourceAccount(std::string name) : name_(std::move(name)) {}

void ResourceAccount::SetLimit(ResourceType type, uint64_t limit) {
  std::lock_guard<std::mutex> guard(mutex_);
  limits_[static_cast<size_t>(type)] = limit;
}

uint64_t ResourceAccount::limit(ResourceType type) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return limits_[static_cast<size_t>(type)];
}

uint64_t ResourceAccount::usage(ResourceType type) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return usage_[static_cast<size_t>(type)];
}

uint64_t ResourceAccount::available(ResourceType type) const {
  std::lock_guard<std::mutex> guard(mutex_);
  const size_t i = static_cast<size_t>(type);
  return limits_[i] > usage_[i] ? limits_[i] - usage_[i] : 0;
}

Status ResourceAccount::TransferLimit(ResourceType type, uint64_t amount,
                                      ResourceAccount& to) {
  if (&to == this) {
    return Status::kInvalidArgs;
  }
  const size_t i = static_cast<size_t>(type);
  // Lock ordering by address avoids deadlock between concurrent transfers.
  std::mutex* first = this < &to ? &mutex_ : &to.mutex_;
  std::mutex* second = this < &to ? &to.mutex_ : &mutex_;
  std::lock_guard<std::mutex> g1(*first);
  std::lock_guard<std::mutex> g2(*second);

  const uint64_t uncommitted =
      limits_[i] > usage_[i] ? limits_[i] - usage_[i] : 0;
  if (amount > uncommitted) {
    return Status::kLimitExceeded;
  }
  limits_[i] -= amount;
  to.limits_[i] += amount;
  return Status::kOk;
}

Status ResourceAccount::BillTo(ResourceAccount* sponsor) {
  // Reject cycles: walk the proposed chain.
  for (ResourceAccount* a = sponsor; a != nullptr; a = a->sponsor()) {
    if (a == this) {
      return Status::kInvalidArgs;
    }
  }
  std::lock_guard<std::mutex> guard(mutex_);
  sponsor_.store(sponsor, std::memory_order_release);
  return Status::kOk;
}

ResourceAccount* ResourceAccount::ChargeTarget() {
  // Follow the billing chain (bounded: cycles are rejected at BillTo).
  ResourceAccount* target = this;
  while (true) {
    ResourceAccount* next = target->sponsor();
    if (next == nullptr) {
      return target;
    }
    target = next;
  }
}

Status ResourceAccount::Charge(ResourceType type, uint64_t amount) {
  ResourceAccount* target = ChargeTarget();
  const size_t i = static_cast<size_t>(type);
  // Flight recorder: snapshot the decision inputs under the lock, post
  // after it drops (no clock read or ring write inside the critical
  // section). `a` = amount, `b` = usage after the decision.
  bool denied;
  uint64_t usage_after;
  {
    std::lock_guard<std::mutex> guard(target->mutex_);
    denied = target->usage_[i] + amount > target->limits_[i];
    if (!denied) {
      target->usage_[i] += amount;
    }
    usage_after = target->usage_[i];
  }
  VINO_TRACE(denied ? trace::Event::kResourceDenied
                    : trace::Event::kResourceCharge,
             static_cast<uint16_t>(type), 0, amount, usage_after);
  return denied ? Status::kLimitExceeded : Status::kOk;
}

void ResourceAccount::Uncharge(ResourceType type, uint64_t amount) {
  ResourceAccount* target = ChargeTarget();
  const size_t i = static_cast<size_t>(type);
  std::lock_guard<std::mutex> guard(target->mutex_);
  target->usage_[i] = target->usage_[i] > amount ? target->usage_[i] - amount : 0;
}

Status ChargeCurrent(ResourceType type, uint64_t amount) {
  ResourceAccount* account = KernelContext::Current().account;
  if (account == nullptr) {
    return Status::kOk;  // Unaccounted kernel-internal work.
  }
  const Status s = account->Charge(type, amount);
  if (!IsOk(s)) {
    return s;
  }
  // Aborted grafts must not keep their allocations: undo the charge.
  TxnOnAbort([account, type, amount] { account->Uncharge(type, amount); });
  return Status::kOk;
}

void UnchargeCurrent(ResourceType type, uint64_t amount) {
  ResourceAccount* account = KernelContext::Current().account;
  if (account != nullptr) {
    account->Uncharge(type, amount);
  }
}

}  // namespace vino
