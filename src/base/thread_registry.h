// One object per calling thread, found without a lock.
//
// An owner that gives each calling thread its own object (the net stack's
// connection rings) keeps them in a ThreadRegistry. A thread finds its
// object through a small thread-local cache keyed by the registry's
// process-unique serial, so a cache entry left by a destroyed registry
// never matches a new one built at the same address. A miss takes the registration mutex and returns the object
// registered to the thread's id, or registers a new one. A thread that
// reuses an exited thread's id inherits that thread's object, which the
// exited thread will never touch again. Objects live as long as the
// registry and never move; once kMax are registered, a new thread gets
// none and the owner decides what it shares instead.

#ifndef VINOLITE_SRC_BASE_THREAD_REGISTRY_H_
#define VINOLITE_SRC_BASE_THREAD_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace vino {

namespace thread_registry_internal {

// The calling thread's objects, by registry serial. An evicted entry is
// found again under the registration mutex, never registered twice.
struct CachedIndex {
  uint64_t serial = 0;  // 0 = empty; serials start at 1.
  uint32_t index = 0;
};
inline constexpr size_t kCachedIndices = 4;
inline thread_local std::array<CachedIndex, kCachedIndices> t_cached{};
inline thread_local size_t t_next_evict = 0;
inline std::atomic<uint64_t> g_next_serial{1};

}  // namespace thread_registry_internal

template <typename T, uint32_t kMax>
class ThreadRegistry {
 public:
  ThreadRegistry()
      : serial_(thread_registry_internal::g_next_serial.fetch_add(
            1, std::memory_order_relaxed)) {}

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  // The calling thread's object, built by `make(index)` (returning a
  // std::unique_ptr<T>) on the thread's first call. Null once all kMax
  // objects belong to other threads.
  template <typename Make>
  T* Local(Make&& make) {
    for (const auto& cached : thread_registry_internal::t_cached) {
      if (cached.serial == serial_) {
        return At(cached.index);
      }
    }
    return Register(std::forward<Make>(make));
  }

  // Objects [0, size()) are published.
  [[nodiscard]] uint32_t size() const {
    return count_.load(std::memory_order_acquire);
  }
  T& operator[](uint32_t index) const { return *objects_[index]; }

 private:
  T* At(uint32_t index) const {
    return index < kMax ? objects_[index].get() : nullptr;
  }

  // Out of line, so that a cache hit stays a short loop with no frame.
  template <typename Make>
  [[gnu::noinline]] T* Register(Make&& make) {
    const std::thread::id self = std::this_thread::get_id();
    uint32_t index = kMax;  // None.
    {
      std::lock_guard<std::mutex> guard(mutex_);
      const uint32_t count = count_.load(std::memory_order_relaxed);
      for (uint32_t i = 0; i < count && index == kMax; ++i) {
        if (owners_[i] == self) {
          index = i;
        }
      }
      if (index == kMax && count < kMax) {
        objects_[count] = make(count);
        owners_[count] = self;
        index = count;
        count_.store(count + 1, std::memory_order_release);
      }
    }
    using thread_registry_internal::t_next_evict;
    thread_registry_internal::t_cached[t_next_evict++ %
                                       thread_registry_internal::kCachedIndices] =
        thread_registry_internal::CachedIndex{serial_, index};
    return At(index);
  }

  const uint64_t serial_;
  std::mutex mutex_;  // Serialises registration.
  // objects_[0, count_) are published; a slot is written once, before the
  // count that covers it.
  std::atomic<uint32_t> count_{0};
  std::array<std::unique_ptr<T>, kMax> objects_;
  std::array<std::thread::id, kMax> owners_;  // Guarded by mutex_.
};

}  // namespace vino

#endif  // VINOLITE_SRC_BASE_THREAD_REGISTRY_H_
