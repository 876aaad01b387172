// ShardedIdTable — the rendezvous-state store of the progress engine.
//
// Every in-flight rendezvous operation (long send awaiting CTS, long recv
// awaiting the RDMA write) parks its state under a
// freshly allocated 32-bit id that travels in the control messages. The
// paper's multi-threaded progress analysis makes the cost model clear: with
// one global map + mutex, every CTS/FIN handled by any progress thread
// serializes against every sendl/recvl on every worker. Here the id itself
// encodes its shard — `id = (seq << shard_bits) | shard` — so the CTS/FIN
// lookup goes straight to one small open-addressed table under one fine
// spinlock, and inserts pick the caller's "home" shard (per-thread slot
// hint) so concurrent senders don't collide either.
//
// Ids are never 0 (sequences start at 1), so 0 doubles as the empty-slot
// sentinel in the probe array; ~0 marks tombstones and is skipped by the
// allocator. Each shard's table grows by rehash at 3/4 load, dropping
// tombstones.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "telemetry/metrics.hpp"

namespace minilci {

template <typename T>
class ShardedIdTable {
 public:
  /// `shards` is rounded up to a power of two (minimum 1). One shard
  /// degenerates to a single table + lock.
  explicit ShardedIdTable(std::size_t shards) {
    std::size_t n = 1;
    while (n < shards && n < kMaxShards) n <<= 1;
    shard_bits_ = 0;
    while ((std::size_t{1} << shard_bits_) < n) ++shard_bits_;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Allocates a fresh id and parks `value` under it. The shard is chosen
  /// from the calling thread's slot hint, so concurrent inserters spread
  /// out; the id encodes the shard for the later extract().
  std::uint32_t insert(T&& value) {
    const std::uint32_t shard_index =
        telemetry::shard_slot() & (num_shards() - 1);
    Shard& shard = *shards_[shard_index];
    std::lock_guard<common::SpinMutex> guard(shard.mutex);
    std::uint32_t id;
    do {
      id = (shard.next_seq++ << shard_bits_) | shard_index;
    } while (id == kEmpty || id == kTombstone);
    shard.put(id, std::move(value));
    return id;
  }

  /// Removes and returns the value parked under `id`; nullopt when the id
  /// is unknown (stale control message).
  std::optional<T> extract(std::uint32_t id) {
    Shard& shard = *shards_[id & (num_shards() - 1)];
    std::lock_guard<common::SpinMutex> guard(shard.mutex);
    return shard.take(id);
  }

  /// Diagnostics / drain checks only (takes every shard lock).
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<common::SpinMutex> guard(shard->mutex);
      n += shard->live;
    }
    return n;
  }

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

 private:
  static constexpr std::size_t kMaxShards = 256;
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kTombstone = ~std::uint32_t{0};
  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  struct Slot {
    std::uint32_t id = kEmpty;
    T value{};
  };

  struct Shard {
    mutable common::SpinMutex mutex;
    std::uint32_t next_seq = 1;
    std::size_t live = 0;      // occupied slots
    std::size_t occupied = 0;  // occupied + tombstones (probe-chain load)
    std::vector<Slot> slots = std::vector<Slot>(kInitialCapacity);

    static std::size_t probe_start(std::uint32_t id, std::size_t mask) {
      return (id * 0x9E3779B1u) & mask;
    }

    void put(std::uint32_t id, T&& value) {
      if ((occupied + 1) * 4 >= slots.size() * 3) rehash();
      const std::size_t mask = slots.size() - 1;
      std::size_t i = probe_start(id, mask);
      while (slots[i].id != kEmpty && slots[i].id != kTombstone) {
        i = (i + 1) & mask;
      }
      if (slots[i].id == kEmpty) ++occupied;
      slots[i].id = id;
      slots[i].value = std::move(value);
      ++live;
    }

    std::optional<T> take(std::uint32_t id) {
      const std::size_t mask = slots.size() - 1;
      std::size_t i = probe_start(id, mask);
      while (slots[i].id != kEmpty) {
        if (slots[i].id == id) {
          std::optional<T> out(std::move(slots[i].value));
          slots[i].id = kTombstone;
          slots[i].value = T{};
          --live;
          return out;
        }
        i = (i + 1) & mask;
      }
      return std::nullopt;
    }

    void rehash() {
      // Grow only when the live load justifies it; otherwise the rehash
      // just sweeps out tombstones at the same capacity.
      const std::size_t capacity =
          (live * 2 >= slots.size()) ? slots.size() * 2 : slots.size();
      std::vector<Slot> old = std::move(slots);
      slots = std::vector<Slot>(capacity);
      occupied = 0;
      const std::size_t mask = capacity - 1;
      for (Slot& slot : old) {
        if (slot.id == kEmpty || slot.id == kTombstone) continue;
        std::size_t i = probe_start(slot.id, mask);
        while (slots[i].id != kEmpty) i = (i + 1) & mask;
        slots[i].id = slot.id;
        slots[i].value = std::move(slot.value);
        ++occupied;
      }
    }
  };

  std::uint32_t shard_bits_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace minilci
