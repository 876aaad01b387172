// Move-only type-erased callable (std::move_only_function is C++23; we target
// C++20). Tasks capture promises and owned buffers, which are move-only, so
// std::function cannot hold them.
//
// Small-buffer storage: a callable of up to kInlineBytes whose move
// constructor cannot throw lives inside the object, so constructing, moving
// and destroying it never touches the heap. This type carries every
// scheduler task, parcel writer, send-completion callback and promise
// handler, so those hand-offs are allocation-free. Larger callables, or ones
// with a throwing move, are heap-allocated once and moved by pointer.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace common {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline capacity: `this` plus an amt::InMessage (the receive-side
  /// dispatch task) fits exactly.
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  UniqueFunction(F&& f)  // NOLINT(google-explicit-constructor)
  {
    using Fn = std::decay_t<F>;
    if constexpr (stores_inline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { take(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-constructs the callable into `dst` and destroys it in `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static Fn& inline_fn(void* storage) {
    return *std::launder(static_cast<Fn*>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* s, Args&&... args) -> R {
        return inline_fn<Fn>(s)(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        Fn& from = inline_fn<Fn>(src);
        ::new (dst) Fn(std::move(from));
        from.~Fn();
      },
      [](void* s) noexcept { inline_fn<Fn>(s).~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* s, Args&&... args) -> R {
        return (*inline_fn<Fn*>(s))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(inline_fn<Fn*>(src));
      },
      [](void* s) noexcept { delete inline_fn<Fn*>(s); }};

  void take(UniqueFunction& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(storage_, other.storage_);
    ops_ = std::exchange(other.ops_, nullptr);
  }

  void reset() noexcept {
    if (ops_ == nullptr) return;
    ops_->destroy(storage_);
    ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace common
