// Unbounded multi-producer / single-consumer queue (Vyukov's intrusive MPSC
// adapted to owned nodes). Producers are wait-free except for one atomic
// exchange; the consumer is lock-free with the usual MPSC caveat that a
// producer suspended between exchange and link makes the queue *appear*
// momentarily empty — consumers handle this by re-polling, which all our
// progress loops do anyway.
//
// Consumed nodes are recycled through a small bounded free ring (a Vyukov
// MpmcQueue<Node*>): the consumer parks each retired node there and
// producers take one before falling back to `new`, so a queue in steady
// state allocates nothing. A full ring deletes the node, which caps the
// memory an idle queue keeps at kFreeNodes nodes — systems with many
// localities create one queue per channel.
//
// Multi-consumer use: wrap pops in the owner's try-lock (see TryMpmcQueue).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "queues/mpmc_queue.hpp"

namespace queues {

template <typename T>
class MpscQueue {
  // push() constructs into a node it already owns; a throwing move would
  // strand that node.
  static_assert(std::is_nothrow_move_constructible_v<T>);

  // The value lives in raw storage: constructed by push, destroyed by the
  // pop that moves it out, so the stub and recycled nodes hold no T.
  struct Node {
    std::atomic<Node*> next{nullptr};
    alignas(T) unsigned char storage[sizeof(T)];
    T& value() { return *std::launder(reinterpret_cast<T*>(storage)); }
  };

 public:
  /// Retired nodes kept for reuse per queue.
  static constexpr std::size_t kFreeNodes = 32;

  MpscQueue() {
    Node* stub = new Node;
    head_.value.store(stub, std::memory_order_relaxed);
    tail_.store(stub, std::memory_order_relaxed);
  }

  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  ~MpscQueue() {
    Node* node = tail_.load(std::memory_order_relaxed);
    for (Node* next; node != nullptr; node = next) {
      next = node->next.load(std::memory_order_relaxed);
      if (next != nullptr) std::destroy_at(&next->value());
      delete node;
    }
    while (auto free = free_.try_pop()) delete *free;
  }

  /// Thread-safe for any number of producers.
  void push(T value) {
    Node* node = nullptr;
    if (auto free = free_.try_pop()) {
      node = *free;
      node->next.store(nullptr, std::memory_order_relaxed);
    } else {
      node = new Node;
    }
    ::new (static_cast<void*>(node->storage)) T(std::move(value));
    Node* prev = head_.value.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// Single consumer only.
  std::optional<T> try_pop() {
    return try_pop_if([](const T&) { return true; });
  }

  /// Pops the head element only when `pred(head)` holds. Used by the fabric
  /// to gate delivery on a packet's arrival time without losing FIFO order.
  /// Single consumer only.
  template <typename Pred>
  std::optional<T> try_pop_if(Pred&& pred) {
    Node* tail = tail_.load(std::memory_order_relaxed);
    Node* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    if (!pred(static_cast<const T&>(next->value()))) return std::nullopt;
    std::optional<T> value(std::move(next->value()));
    std::destroy_at(&next->value());  // `next` becomes the new stub
    tail_.store(next, std::memory_order_release);
    // No producer touches `tail` any more: the one that linked `next`
    // already wrote tail->next, so the node is free to reuse.
    if (!free_.try_push(tail)) delete tail;
    return value;
  }

  /// May transiently report empty while a push is mid-flight (and may report
  /// non-empty before the push links its node); fine for polling loops.
  /// Callable from ANY thread: compares the two end pointers without
  /// dereferencing either — the consumer may retire the tail node at any
  /// moment, so a cross-thread `tail_->next` read would be a race.
  bool looks_empty() const {
    return head_.value.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  common::CachePadded<std::atomic<Node*>> head_;  // producers push here
  alignas(common::kCacheLineSize) std::atomic<Node*> tail_;  // consumer end
  MpmcQueue<Node*> free_{kFreeNodes};  // retired nodes for producers
};

/// MPSC queue plus a consumer-side try-lock, making it safe for multiple
/// concurrent consumers. A failed try_pop() with `contended == true` means
/// another thread is draining the queue right now — exactly the semantics the
/// LCI completion queue and the fabric receive channels need: progress
/// callers skip contended queues instead of blocking on them.
template <typename T>
class TryMpmcQueue {
 public:
  void push(T value) { queue_.push(std::move(value)); }

  std::optional<T> try_pop(bool* contended = nullptr) {
    if (!consumer_lock_.try_lock()) {
      if (contended != nullptr) *contended = true;
      return std::nullopt;
    }
    if (contended != nullptr) *contended = false;
    auto value = queue_.try_pop();
    consumer_lock_.unlock();
    return value;
  }

  /// Drains up to `max_items` under one lock acquisition; returns the number
  /// popped. Cheaper than repeated try_pop when bursts arrive.
  template <typename Fn>
  std::size_t try_drain(std::size_t max_items, Fn&& fn) {
    if (!consumer_lock_.try_lock()) return 0;
    std::size_t n = 0;
    while (n < max_items) {
      auto value = queue_.try_pop();
      if (!value) break;
      fn(std::move(*value));
      ++n;
    }
    consumer_lock_.unlock();
    return n;
  }

  /// Drains elements while `pred(head)` holds, up to `max_items`, under one
  /// try-lock acquisition. Stops at the first head element failing `pred`,
  /// preserving FIFO order. `pred` must do any resource reservation the sink
  /// needs (an element, once popped, is always handed to `fn`). Returns the
  /// number delivered.
  template <typename Pred, typename Fn>
  std::size_t try_drain_while(std::size_t max_items, Pred&& pred, Fn&& fn) {
    if (!consumer_lock_.try_lock()) return 0;
    std::size_t n = 0;
    while (n < max_items) {
      auto value = queue_.try_pop_if(pred);
      if (!value) break;
      fn(std::move(*value));
      ++n;
    }
    consumer_lock_.unlock();
    return n;
  }

  /// Peek-and-pop under the consumer lock: pops only if `pred` accepts the
  /// head element.
  template <typename Pred>
  std::optional<T> try_pop_if(Pred&& pred) {
    if (!consumer_lock_.try_lock()) return std::nullopt;
    auto value = queue_.try_pop_if(pred);
    consumer_lock_.unlock();
    return value;
  }

  bool looks_empty() const { return queue_.looks_empty(); }

 private:
  MpscQueue<T> queue_;
  common::SpinMutex consumer_lock_;
};

}  // namespace queues
