// Process-shared bounded ring for the shm backend: Vyukov's bounded MPMC
// queue laid out flat in a shared-memory segment (offsets only, no pointers;
// per-slot sequence numbers carry the full/empty state). One ring per
// directed locality pair carries fixed-size records — an eager datagram, a
// write fragment, or a write notice — each with an inline payload area sized
// for Config::srq_buffer_size.
//
// Producers and consumers may live in different processes and on any number
// of threads on each side: claim/publish (producer) and claim/release
// (consumer) are independent CAS hand-offs on the shared positions. All
// atomics are std::atomic<std::uint64_t>, which is address-free and
// lock-free on every platform we target (statically asserted below).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/cache.hpp"

namespace fabric::detail {

/// Fixed header of one ring record; the slot's payload area follows the
/// containing ShmSlot. Which fields are meaningful depends on `kind`.
struct ShmRecord {
  enum Kind : std::uint8_t {
    kEager = 1,      // post_send datagram: payload + imm
    kWriteNotice,    // CMA/direct write already landed; total_len + imm
    kWriteFrag,      // fallback write fragment into (mr_id, offset) of op_id
  };
  enum Flags : std::uint8_t {
    kFlagLast = 1,  // final fragment of its write: carries imm + total_len
  };

  std::uint8_t kind = 0;
  std::uint8_t flags = 0;
  std::uint32_t len = 0;        // payload bytes stored in this slot
  std::uint64_t imm = 0;
  std::uint64_t mr_id = 0;      // kWriteFrag
  std::uint64_t offset = 0;     // kWriteFrag: MR offset
  std::uint64_t total_len = 0;  // whole-write size
  std::uint64_t op_id = 0;      // kWriteFrag: write id (unique per sender NIC)
};

struct ShmSlot {
  std::atomic<std::uint64_t> sequence;
  ShmRecord record;
  // payload_cap bytes follow, aligned up to the ring's slot stride.
  std::byte* payload() { return reinterpret_cast<std::byte*>(this + 1); }
  const std::byte* payload() const {
    return reinterpret_cast<const std::byte*>(this + 1);
  }
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "shm rings require lock-free 64-bit atomics");

/// The ring control block, placed at a fixed offset inside a shared segment
/// with its slot array immediately after. Never constructed with `new` —
/// init() is called once by the segment's creator on zeroed memory.
struct ShmRing {
  common::CachePadded<std::atomic<std::uint64_t>> enqueue_pos;
  common::CachePadded<std::atomic<std::uint64_t>> dequeue_pos;
  std::uint64_t capacity = 0;     // slots, power of two
  std::uint64_t slot_stride = 0;  // bytes per slot, 64-aligned
  std::uint64_t payload_cap = 0;  // payload bytes per slot

  static std::uint64_t round_up_pow2(std::uint64_t v) {
    std::uint64_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  static std::size_t stride_for(std::size_t payload_cap) {
    return (sizeof(ShmSlot) + payload_cap + 63) & ~std::size_t{63};
  }

  /// Total bytes the ring occupies (control block + slots).
  static std::size_t footprint(std::size_t capacity_hint,
                               std::size_t payload_cap) {
    return sizeof(ShmRing) +
           round_up_pow2(capacity_hint) * stride_for(payload_cap);
  }

  /// Creator-side one-time initialisation on zeroed shared memory.
  void init(std::size_t capacity_hint, std::size_t payload_capacity) {
    capacity = round_up_pow2(capacity_hint);
    slot_stride = stride_for(payload_capacity);
    payload_cap = payload_capacity;
    for (std::uint64_t i = 0; i < capacity; ++i) {
      slot(i)->sequence.store(i, std::memory_order_relaxed);
    }
    enqueue_pos.value.store(0, std::memory_order_relaxed);
    dequeue_pos.value.store(0, std::memory_order_release);
  }

  ShmSlot* slot(std::uint64_t i) {
    return reinterpret_cast<ShmSlot*>(reinterpret_cast<std::byte*>(this + 1) +
                                      i * slot_stride);
  }

  /// Producer: claims a slot to fill, or nullptr when the ring is full.
  /// Fill record + payload, then call publish(slot, pos).
  ShmSlot* try_claim(std::uint64_t& pos_out) {
    std::uint64_t pos = enqueue_pos.value.load(std::memory_order_relaxed);
    for (;;) {
      ShmSlot* s = slot(pos & (capacity - 1));
      const std::uint64_t seq = s->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq - pos);
      if (diff == 0) {
        if (enqueue_pos.value.compare_exchange_weak(
                pos, pos + 1, std::memory_order_relaxed)) {
          pos_out = pos;
          return s;
        }
      } else if (diff < 0) {
        return nullptr;  // full
      } else {
        pos = enqueue_pos.value.load(std::memory_order_relaxed);
      }
    }
  }

  void publish(ShmSlot* s, std::uint64_t pos) {
    s->sequence.store(pos + 1, std::memory_order_release);
  }

  /// Consumer: claims the next filled slot, or nullptr when empty. Read the
  /// record + payload, then call release(slot, pos).
  ShmSlot* try_consume(std::uint64_t& pos_out) {
    std::uint64_t pos = dequeue_pos.value.load(std::memory_order_relaxed);
    for (;;) {
      ShmSlot* s = slot(pos & (capacity - 1));
      const std::uint64_t seq = s->sequence.load(std::memory_order_acquire);
      const auto diff = static_cast<std::int64_t>(seq - (pos + 1));
      if (diff == 0) {
        if (dequeue_pos.value.compare_exchange_weak(
                pos, pos + 1, std::memory_order_relaxed)) {
          pos_out = pos;
          return s;
        }
      } else if (diff < 0) {
        return nullptr;  // empty
      } else {
        pos = dequeue_pos.value.load(std::memory_order_relaxed);
      }
    }
  }

  void release(ShmSlot* s, std::uint64_t pos) {
    s->sequence.store(pos + capacity, std::memory_order_release);
  }

  /// Racy emptiness hint for idle checks.
  bool looks_nonempty() const {
    return enqueue_pos.value.load(std::memory_order_acquire) !=
           dequeue_pos.value.load(std::memory_order_acquire);
  }
};

}  // namespace fabric::detail
