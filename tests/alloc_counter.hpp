// Counting replacement of the global operator new/delete, for tests that
// assert a path allocates nothing (or at most N blocks). Every form of new
// bumps one process-wide counter and allocates with malloc; every form of
// delete frees with free, so sanitizer runtimes see matched pairs.
//
// Replacement functions must be defined once per program: include this
// header in exactly one translation unit of a test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace testutil {

inline std::atomic<std::uint64_t> heap_allocation_count{0};

/// Blocks obtained through operator new so far, on any thread.
inline std::uint64_t heap_allocations() {
  return heap_allocation_count.load(std::memory_order_relaxed);
}

namespace detail {

inline void* counted_alloc(std::size_t size, std::size_t align) {
  heap_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return align <= alignof(std::max_align_t)
             ? std::malloc(size)
             : std::aligned_alloc(align, (size + align - 1) / align * align);
}

inline void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace detail
}  // namespace testutil

void* operator new(std::size_t size) {
  return testutil::detail::counted_alloc_or_throw(size, 0);
}
void* operator new[](std::size_t size) {
  return testutil::detail::counted_alloc_or_throw(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return testutil::detail::counted_alloc_or_throw(
      size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return testutil::detail::counted_alloc_or_throw(
      size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return testutil::detail::counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return testutil::detail::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return testutil::detail::counted_alloc(size,
                                         static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return testutil::detail::counted_alloc(size,
                                         static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
