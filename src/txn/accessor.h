// Accessor helpers for undo-logged kernel state mutation (paper §3.1).
//
// "Modifications to permanent kernel state are encapsulated in accessor
//  functions (i.e. a grafted function cannot directly manipulate kernel
//  data; it must go through data accessor functions). Each such accessor
//  function that can be called from a grafted function has an associated
//  undo function."
//
// Kernel subsystems use these templates inside their accessor functions:
// if the calling thread has an active transaction, the previous value is
// pushed onto its undo stack before the mutation.

#ifndef VINOLITE_SRC_TXN_ACCESSOR_H_
#define VINOLITE_SRC_TXN_ACCESSOR_H_

#include <type_traits>
#include <utility>

#include "src/txn/txn_manager.h"

namespace vino {

// Assigns *slot = value, recording the old value for undo if a transaction
// is active. T must be trivially copyable (raw kernel state).
template <typename T>
void TxnSet(T* slot, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  Transaction* txn = TxnManager::Current();
  if (txn != nullptr) {
    txn->undo().Push([slot, old_value = *slot] { *slot = old_value; });
  }
  *slot = value;
}

// Runs `mutate()` now; registers `undo` to reverse it if the enclosing
// transaction aborts. If there is no transaction, `undo` is discarded.
template <typename Mutate, typename Undo>
auto TxnMutate(Mutate&& mutate, Undo&& undo) {
  Transaction* txn = TxnManager::Current();
  if (txn != nullptr) {
    txn->undo().Push(std::forward<Undo>(undo));
  }
  return std::forward<Mutate>(mutate)();
}

// Registers a compensation action with the current transaction, if any.
// Used by accessors whose forward action already happened (e.g. "file
// opened" -> compensation closes it).
template <typename Undo>
void TxnOnAbort(Undo&& undo) {
  Transaction* txn = TxnManager::Current();
  if (txn != nullptr) {
    txn->undo().Push(std::forward<Undo>(undo));
  }
}

// Defers a destructive action (typically a kernel-object delete) until the
// enclosing transaction commits; an abort discards it. With no transaction
// the action runs immediately. Models the paper's §6 workaround of
// "delaying deletes until transaction abort" is resolved.
template <typename Action>
void TxnDeferDelete(Action&& action) {
  Transaction* txn = TxnManager::Current();
  if (txn != nullptr) {
    txn->DeferUntilCommit(std::forward<Action>(action));
  } else {
    std::forward<Action>(action)();
  }
}

}  // namespace vino

#endif  // VINOLITE_SRC_TXN_ACCESSOR_H_
