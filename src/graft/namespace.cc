#include "src/graft/namespace.h"

#include <algorithm>
#include <mutex>

#include "src/graft/event_point.h"
#include "src/graft/function_point.h"

namespace vino {

void GraftNamespace::RegisterFunction(FunctionGraftPoint* point) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  functions_[point->name()] = point;
}

void GraftNamespace::RegisterEvent(EventGraftPoint* point) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  events_[point->name()] = point;
}

void GraftNamespace::Unregister(const std::string& name) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  functions_.erase(name);
  events_.erase(name);
}

std::vector<GraftNamespace::EntryInfo> GraftNamespace::List() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  std::vector<EntryInfo> out;
  out.reserve(functions_.size() + events_.size());
  for (const auto& [name, point] : functions_) {
    out.push_back(EntryInfo{name, false, point->restricted(), point->grafted()});
  }
  for (const auto& [name, point] : events_) {
    out.push_back(
        EntryInfo{name, true, point->restricted(), point->handler_count() > 0});
  }
  std::sort(out.begin(), out.end(),
            [](const EntryInfo& a, const EntryInfo& b) { return a.name < b.name; });
  return out;
}

}  // namespace vino
