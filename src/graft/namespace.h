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
// shared_mutex over unordered maps; only registration and teardown
// (cold, per kernel object) take it exclusive. Under PR 9's serving load
// the old exclusive-only std::mutex was the single hottest lock in the
// kernel.

#ifndef VINOLITE_SRC_GRAFT_NAMESPACE_H_
#define VINOLITE_SRC_GRAFT_NAMESPACE_H_

#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"

namespace vino {

class FunctionGraftPoint;
class EventGraftPoint;

class GraftNamespace {
 public:
  GraftNamespace() = default;
  GraftNamespace(const GraftNamespace&) = delete;
  GraftNamespace& operator=(const GraftNamespace&) = delete;

  // Registration (called by graft point constructors). Re-registering a
  // name replaces the entry — kernel objects own their names.
  void RegisterFunction(FunctionGraftPoint* point);
  void RegisterEvent(EventGraftPoint* point);

  // Deregistration (kernel object teardown). Blocks until in-flight
  // WithFunction/WithEvent visits drain, so an owner that unregisters
  // before destroying its point cannot pull it out from under a visitor.
  void Unregister(const std::string& name);

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
  Status WithFunction(const std::string& name, Fn&& fn) const {
    return Visit(functions_, name, fn);
  }
  template <typename Fn>
  Status WithEvent(const std::string& name, Fn&& fn) const {
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

 private:
  template <typename Point, typename Fn>
  Status Visit(const std::unordered_map<std::string, Point*>& points,
               const std::string& name, Fn& fn) const {
    std::shared_lock<std::shared_mutex> guard(mutex_);
    const auto it = points.find(name);
    if (it == points.end()) {
      return Status::kNotFound;
    }
    return fn(*it->second);
  }

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, FunctionGraftPoint*> functions_;
  std::unordered_map<std::string, EventGraftPoint*> events_;
};

}  // namespace vino

#endif  // VINOLITE_SRC_GRAFT_NAMESPACE_H_
