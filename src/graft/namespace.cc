#include "src/graft/namespace.h"

#include <algorithm>
#include <mutex>

#include "src/graft/event_point.h"
#include "src/graft/function_point.h"

namespace vino {

template <typename Point>
void NameIndex<Point>::Insert(Point* point) {
  const std::string_view name = point->name();
  const uint64_t hash = HashBytes(name);
  const size_t mask = slots_.size() - 1;
  size_t reuse = slots_.size();  // The first tombstone on the probe path.
  size_t i = hash & mask;
  for (;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.point == nullptr) {
      if (s.length != kTombstone) {
        break;
      }
      if (reuse == slots_.size()) {
        reuse = i;
      }
    } else if (s.hash == hash && Holds(s, name)) {
      s.point = point;
      return;
    }
  }
  if (reuse == slots_.size()) {
    if ((used_ + 1) * 2 > slots_.size()) {
      Rebuild();
      Insert(point);
      return;
    }
    reuse = i;
    ++used_;
  }
  Slot& s = slots_[reuse];
  s.hash = hash;
  s.point = point;
  if (name.size() <= kInlineName) {
    s.length = static_cast<uint8_t>(name.size());
    std::memcpy(s.name, name.data(), name.size());
  } else {
    s.length = kLongName;
  }
  ++live_;
}

template <typename Point>
void NameIndex<Point>::Erase(std::string_view name, uint64_t hash) {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.point == nullptr) {
      if (s.length != kTombstone) {
        return;
      }
    } else if (s.hash == hash && Holds(s, name)) {
      s.point = nullptr;
      s.length = kTombstone;
      --live_;
      return;
    }
  }
}

// Called when an insert would pass half load. Doubles when the live entries
// alone fill a quarter of the table; otherwise tombstones made up the load
// and the same capacity, rebuilt without them, is at most a quarter full.
template <typename Point>
void NameIndex<Point>::Rebuild() {
  const size_t capacity =
      (live_ + 1) * 4 > slots_.size() ? slots_.size() * 2 : slots_.size();
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  const size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.point != nullptr) {
      size_t i = s.hash & mask;
      while (slots_[i].point != nullptr) {
        i = (i + 1) & mask;
      }
      slots_[i] = s;
    }
  }
  used_ = live_;
}

template class NameIndex<FunctionGraftPoint>;
template class NameIndex<EventGraftPoint>;

void GraftNamespace::RegisterFunction(FunctionGraftPoint* point) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  functions_.Insert(point);
}

void GraftNamespace::RegisterEvent(EventGraftPoint* point) {
  std::unique_lock<std::shared_mutex> guard(mutex_);
  events_.Insert(point);
}

void GraftNamespace::Unregister(std::string_view name) {
  const uint64_t hash = HashBytes(name);
  std::unique_lock<std::shared_mutex> guard(mutex_);
  functions_.Erase(name, hash);
  events_.Erase(name, hash);
}

std::vector<GraftNamespace::EntryInfo> GraftNamespace::List() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  std::vector<EntryInfo> out;
  out.reserve(functions_.size() + events_.size());
  functions_.ForEach([&out](const FunctionGraftPoint& point) {
    out.push_back(
        EntryInfo{point.name(), false, point.restricted(), point.grafted()});
  });
  events_.ForEach([&out](const EventGraftPoint& point) {
    out.push_back(EntryInfo{point.name(), true, point.restricted(),
                            point.handler_count() > 0});
  });
  std::sort(out.begin(), out.end(),
            [](const EntryInfo& a, const EntryInfo& b) { return a.name < b.name; });
  return out;
}

size_t GraftNamespace::capacity() const {
  std::shared_lock<std::shared_mutex> guard(mutex_);
  return functions_.capacity() + events_.capacity();
}

}  // namespace vino
