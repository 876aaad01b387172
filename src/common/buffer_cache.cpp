#include "common/buffer_cache.hpp"

#include <algorithm>
#include <array>
#include <mutex>

#include "common/spinlock.hpp"

namespace common {

namespace {

using Buffer = BufferCache::Buffer;

constexpr std::size_t kBatch = BufferCache::kLocalDepth / 2;

struct SharedStack {
  SpinMutex mutex;
  std::vector<Buffer> items;

  SharedStack() { items.reserve(BufferCache::kSharedDepth); }
};

SharedStack& shared() {
  // Never destroyed: a thread may exit, and flush its stack into this one,
  // while static objects are being destroyed.
  static SharedStack& instance = *new SharedStack;
  return instance;
}

struct LocalStack {
  std::array<Buffer, BufferCache::kLocalDepth> items;
  std::size_t count = 0;

  LocalStack() = default;
  ~LocalStack() { flush(count); }
  LocalStack(const LocalStack&) = delete;
  LocalStack& operator=(const LocalStack&) = delete;

  void refill() {
    SharedStack& stack = shared();
    std::lock_guard<SpinMutex> guard(stack.mutex);
    const std::size_t n = std::min(kBatch, stack.items.size());
    for (std::size_t i = 0; i < n; ++i) {
      items[count++] = std::move(stack.items.back());
      stack.items.pop_back();
    }
  }

  /// Moves the top `n` buffers to the shared stack; those it has no room
  /// for are freed, outside its lock.
  void flush(std::size_t n) {
    SharedStack& stack = shared();
    std::size_t moved = 0;
    {
      std::lock_guard<SpinMutex> guard(stack.mutex);
      moved = std::min(n, BufferCache::kSharedDepth - stack.items.size());
      for (std::size_t i = 0; i < moved; ++i) {
        stack.items.push_back(std::move(items[--count]));
      }
    }
    for (std::size_t i = moved; i < n; ++i) items[--count] = Buffer();
  }
};

LocalStack& local() {
  thread_local LocalStack stack;
  return stack;
}

}  // namespace

Buffer BufferCache::take() {
  LocalStack& stack = local();
  if (stack.count == 0) stack.refill();
  if (stack.count == 0) return {};
  return std::move(stack.items[--stack.count]);
}

void BufferCache::give(Buffer buffer) {
  if (buffer.capacity() == 0 || buffer.capacity() > kMaxCapacity) return;
  buffer.clear();
  LocalStack& stack = local();
  if (stack.count == kLocalDepth) stack.flush(kBatch);
  stack.items[stack.count++] = std::move(buffer);
}

}  // namespace common
