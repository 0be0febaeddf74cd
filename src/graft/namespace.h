// The kernel-maintained graft namespace (paper §3.4).
//
// "To install a graft, an application must first obtain a handle for the
//  graft point. This is accomplished by looking up the graft point in a
//  kernel-maintained graft namespace. The name is composed of the object to
//  be grafted (e.g., the open file) and the name of the function to be
//  replaced (e.g., 'read-ahead')."
//
// Names are dotted paths like "openfile.42.compute-ra" or
// "net.tcp.80.connection". Kernel objects register their points at
// construction; applications look them up by name.
//
// Lookup is the hottest shared read path in a multi-installer kernel —
// every install and every by-name invocation goes through it — so the
// namespace is read-mostly: lookups and visits take a shared lock on a
// shared_mutex; only registration and teardown (cold, per kernel object)
// take it exclusive. Under serving load an exclusive-only std::mutex here
// was the single hottest lock in the kernel.
//
// Behind the lock, each kind of point has one NameIndex: an open-addressed
// table with one 64-byte slot per entry, so a lookup that hits its first
// probe touches one cache line. The slot holds the name's word-at-a-time
// hash (HashBytes, src/base/hash.h: no std::hash, and a mask instead of a
// `%`), the point, and the name itself when it fits (a longer name compares
// through the point's name()). With a node-based map, the same lookup took
// a 64-bit division and then walked a bucket, a node and a heap-allocated
// name, each likely a cache miss once a thousand tenants' names are live.

#ifndef VINOLITE_SRC_GRAFT_NAMESPACE_H_
#define VINOLITE_SRC_GRAFT_NAMESPACE_H_

#include <cstdint>
#include <cstring>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/hash.h"
#include "src/base/status.h"

namespace vino {

class FunctionGraftPoint;
class EventGraftPoint;

// Name → point, by linear probing over a power-of-two array kept at most
// half full (tombstones included). Erase leaves a tombstone that a later
// Insert on the same probe path reuses, so re-registering the same names
// does not grow the table; a growth rebuilds without tombstones, doubling
// only when the live entries need it. Not synchronized: GraftNamespace
// guards it with its shared_mutex.
template <typename Point>
class NameIndex {
 public:
  NameIndex() : slots_(kMinCapacity) {}

  // The point named `name`, whose HashBytes is `hash`; null if absent.
  [[nodiscard]] Point* Find(std::string_view name, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.point == nullptr) {
        if (s.length != kTombstone) {
          return nullptr;
        }
      } else if (s.hash == hash && Holds(s, name)) {
        return s.point;
      }
    }
  }

  // Adds `point` under its name; a live entry of that name is replaced.
  void Insert(Point* point);
  // Removes the entry named `name` (hash `hash`), if any.
  void Erase(std::string_view name, uint64_t hash);

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.point != nullptr) {
        fn(*s.point);
      }
    }
  }

  [[nodiscard]] size_t size() const { return live_; }
  [[nodiscard]] size_t capacity() const { return slots_.size(); }

 private:
  static constexpr size_t kMinCapacity = 16;
  static constexpr size_t kInlineName = 47;
  // `length` values past any inline length.
  static constexpr uint8_t kLongName = 0xfe;
  static constexpr uint8_t kTombstone = 0xff;

  struct alignas(64) Slot {
    uint64_t hash = 0;
    // Null in a free slot: empty, or a tombstone if `length` says so.
    Point* point = nullptr;
    // The name's length when it fits in `name`, else kLongName.
    uint8_t length = 0;
    char name[kInlineName] = {};
  };
  static_assert(sizeof(Slot) == 64, "one cache line per entry");

  [[nodiscard]] static bool Holds(const Slot& s, std::string_view name);
  void Rebuild();

  std::vector<Slot> slots_;
  size_t live_ = 0;
  size_t used_ = 0;  // Live entries plus tombstones.
};

template <typename Point>
bool NameIndex<Point>::Holds(const Slot& s, std::string_view name) {
  if (s.length == kLongName) {
    return name.size() > kInlineName && s.point->name() == name;
  }
  return s.length == name.size() &&
         std::memcmp(s.name, name.data(), name.size()) == 0;
}

class GraftNamespace {
 public:
  GraftNamespace() = default;
  GraftNamespace(const GraftNamespace&) = delete;
  GraftNamespace& operator=(const GraftNamespace&) = delete;

  // Registration (called by graft point constructors). Re-registering a
  // name replaces the entry — kernel objects own their names.
  void RegisterFunction(FunctionGraftPoint* point);
  void RegisterEvent(EventGraftPoint* point);

  // Deregistration (kernel object teardown): removes the name's function
  // and event entries. Blocks until in-flight WithFunction/WithEvent visits
  // drain, so an owner that unregisters before destroying its point cannot
  // pull it out from under a visitor.
  void Unregister(std::string_view name);

  // Lifetime-safe lookup: runs `fn` on the named point while holding the
  // namespace's shared lock, so a concurrent Unregister (which takes the
  // lock exclusive) cannot complete — and the owner cannot legally destroy
  // the point — until the visit returns. This closes the PR-9 race where a
  // lookup returned a point that was torn down mid-invoke. kNotFound if the
  // name is absent; otherwise whatever `fn` returns. `fn` may install,
  // invoke, or remove grafts (points are internally thread-safe) but must
  // not call back into registration/teardown paths of this namespace. The
  // visitor is a template parameter, so a visit type-erases nothing and
  // allocates nothing, whatever `fn` captures.
  template <typename Fn>
  Status WithFunction(std::string_view name, Fn&& fn) const {
    return Visit(functions_, name, fn);
  }
  template <typename Fn>
  Status WithEvent(std::string_view name, Fn&& fn) const {
    return Visit(events_, name, fn);
  }

  // All registered names with a kind tag, for introspection tools.
  struct EntryInfo {
    std::string name;
    bool is_event;
    bool restricted;
    bool occupied;  // Function point grafted / event point has handlers.
  };
  [[nodiscard]] std::vector<EntryInfo> List() const;

  // Slots in the function index and the event index (tests).
  [[nodiscard]] size_t capacity() const;

 private:
  template <typename Point, typename Fn>
  Status Visit(const NameIndex<Point>& points, std::string_view name,
               Fn& fn) const {
    const uint64_t hash = HashBytes(name);
    std::shared_lock<std::shared_mutex> guard(mutex_);
    Point* const point = points.Find(name, hash);
    if (point == nullptr) {
      return Status::kNotFound;
    }
    return fn(*point);
  }

  mutable std::shared_mutex mutex_;
  NameIndex<FunctionGraftPoint> functions_;
  NameIndex<EventGraftPoint> events_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_NAMESPACE_H_
