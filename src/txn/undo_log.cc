#include "src/txn/undo_log.h"

#include <iterator>
#include <memory>

namespace vino {

void UndoLog::ReplayAndClear() {
  // LIFO: the most recent modification is undone first, so earlier undos see
  // the state they recorded against.
  for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
    (*it)();
  }
  Clear();
}

void UndoLog::MergeInto(UndoLog& parent) {
  // The child's entries are all newer than the parent's, so appending keeps
  // the stack in order. insert() grows the parent geometrically: a parent
  // that absorbs many small nested commits reallocates O(log n) times. The
  // moved-from entries own nothing.
  parent.entries_.insert(parent.entries_.end(),
                         std::make_move_iterator(entries_.begin()),
                         std::make_move_iterator(entries_.end()));
  parent.owns_ = parent.owns_ || owns_;
  owns_ = false;
  entries_.clear();
}

void UndoLog::Grow() {
  entries_.reserve(entries_.empty() ? kInitialCapacity : 2 * entries_.size());
}

void UndoLog::DestroyEntries() {
  for (UndoClosure& entry : entries_) {
    std::destroy_at(&entry);
  }
  owns_ = false;
}

}  // namespace vino
