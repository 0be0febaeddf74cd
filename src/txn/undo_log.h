// The in-memory undo call stack (paper §3.1).
//
// "Whenever an accessor function is called, if there is a transaction
//  associated with the currently running thread, the corresponding undo
//  operation is pushed onto the transaction's undo call stack. If a
//  transaction aborts, the transaction manager invokes each undo operation
//  on the undo call stack."
//
// One entry type: every undo operation is an UndoClosure, a move-only
// callable that keeps captures of up to 32 bytes inline (an object pointer
// plus up to three words of prior state — every accessor in the tree). A
// push constructs the closure in place at the end of one vector, and a
// recycled transaction keeps the vector's capacity, so a warm push never
// allocates. Only oversized or throwing-move captures fall back to the
// heap. Replay runs newest-first. A log whose captures need no destructor
// (every kernel undo) is cleared without visiting its entries. The log is
// transient — there is no redo, no durability (paper: of ACID "we need only
// provide the first three").

#ifndef VINOLITE_SRC_TXN_UNDO_LOG_H_
#define VINOLITE_SRC_TXN_UNDO_LOG_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace vino {

// Move-only type-erased void() callable with small-buffer storage. A
// deliberately minimal std::function replacement for undo operations and
// deferred actions: no copy, no target introspection, no allocator — just
// enough surface for "capture a few words, run once".
class UndoClosure {
 public:
  // Inline capture budget. 32 bytes = four words: object pointer plus up to
  // three words of prior state, which covers every in-tree accessor undo.
  static constexpr size_t kInlineBytes = 32;

  // Leaves the buffer unwritten: an empty closure's bytes are never read.
  UndoClosure() {}  // NOLINT(modernize-use-equals-default)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UndoClosure>>>
  UndoClosure(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  UndoClosure(UndoClosure&& other) noexcept { Take(other); }

  UndoClosure& operator=(UndoClosure&& other) noexcept {
    if (this != &other) {
      Destroy();
      Take(other);
    }
    return *this;
  }

  UndoClosure(const UndoClosure&) = delete;
  UndoClosure& operator=(const UndoClosure&) = delete;

  ~UndoClosure() { Destroy(); }

  // Makes this empty closure hold `f`. A container appends an empty entry
  // and fills it in place: the capture is then written straight into the
  // entry, where constructing from `f` would copy it out of a temporary
  // whose fields were just stored one by one (a store-forwarding stall).
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (kInlineEligible<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  void operator()() { ops_->invoke(storage_); }

  // True when the target lives in the inline buffer (no heap). Exposed so
  // tests can assert the small-capture guarantee.
  [[nodiscard]] bool is_inline() const {
    return ops_ != nullptr && ops_->inline_storage;
  }

  // True when a closure holding an Fn has work to do when it is destroyed:
  // a heap target, or an inline one with a destructor.
  template <typename Fn>
  static constexpr bool NeedsDestroy() {
    return !(kInlineEligible<Fn> && std::is_trivially_destructible_v<Fn>);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs into dst from src and ends src's lifetime. noexcept by
    // construction: inline targets require nothrow move, heap targets just
    // relocate a pointer.
    void (*relocate)(void* dst, void* src);
    // Null when the target needs no destructor call.
    void (*destroy)(void* storage);
    bool inline_storage;
  };

  template <typename Fn>
  static constexpr bool kInlineEligible =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static Fn* Target(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*Target<Fn>(s))(); },
      [](void* dst, void* src) {
        Fn* from = Target<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* s) { Target<Fn>(s)->~Fn(); },
      true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**reinterpret_cast<Fn**>(s))(); },
      [](void* dst, void* src) {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](void* s) { delete *reinterpret_cast<Fn**>(s); },
      false,
  };

  void Take(UndoClosure& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Destroy() {
    if (ops_ != nullptr && ops_->destroy != nullptr) {
      ops_->destroy(storage_);
    }
    ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char storage_[kInlineBytes];
};

class UndoLog {
 public:
  UndoLog() = default;
  UndoLog(const UndoLog&) = delete;
  UndoLog& operator=(const UndoLog&) = delete;
  ~UndoLog() { Clear(); }

  // Pushes one undo operation. A warm log allocates nothing unless the
  // capture exceeds UndoClosure::kInlineBytes.
  template <typename F>
  void Push(F&& undo) {
    if (entries_.size() == entries_.capacity()) [[unlikely]] {
      Grow();
    }
    if constexpr (UndoClosure::NeedsDestroy<std::decay_t<F>>()) {
      owns_ = true;
    }
    entries_.emplace_back().Emplace(std::forward<F>(undo));
  }

  // Runs every undo operation most-recent-first and empties the log.
  void ReplayAndClear();

  // Appends this log's entries (in order) onto `parent` and empties this
  // log: a nested commit merges its undo stack with its parent's (§3.1).
  void MergeInto(UndoLog& parent);

  // Destroys every entry unrun.
  void Clear() {
    if (owns_) {
      DestroyEntries();
    }
    entries_.clear();
  }
  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

 private:
  // The vector's allocator leaves its elements' destruction to the log,
  // which destroys them in Clear only when one has work to do (owns_). So
  // replaying a log of word captures walks it once, not twice: a second
  // pass of destructor checks made a 1,024-entry replay ~1.5x as slow.
  template <typename T>
  struct KeepAllocator : std::allocator<T> {
    template <typename U>
    void destroy(U*) noexcept {}
  };

  // The common few-entry transaction grows the vector once, to
  // kInitialCapacity; a recycled transaction keeps the capacity. Growth is
  // out of line so the push inlined into every accessor stays small.
  static constexpr size_t kInitialCapacity = 16;
  void Grow();

  void DestroyEntries();

  std::vector<UndoClosure, KeepAllocator<UndoClosure>> entries_;
  bool owns_ = false;  // Some entry's closure has a destructor to run.
};

}  // namespace vino

#endif  // VINOLITE_SRC_TXN_UNDO_LOG_H_
