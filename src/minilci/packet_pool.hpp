// Send-side packet pool: a fixed arena of eager-sized, conceptually
// registered buffers handed to users for in-place message assembly ("we
// directly assemble the header message in an LCI-allocated buffer so that,
// for eager messages, we save one memory copy" — paper §3.2.1).
//
// Allocation is two-level: a small per-slot *magazine* (a cache-padded stack
// indexed by the calling thread's shard slot) absorbs the common
// alloc/release traffic, refilling from / flushing to the shared MPMC free
// list in half-magazine batches. Under concurrent senders this keeps most
// packet traffic off the shared ring (LCI's per-thread packet caches).
// Magazines are taken with a try-lock; a collision on the slot simply falls
// through to the shared list, so no path ever blocks.
//
// Exhaustion is a transient condition: try_alloc returns nullopt and the
// caller waits for a packet to come back. Packets parked in a Device's send
// backlog stay allocated, so the pool also bounds that backlog.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "queues/mpmc_queue.hpp"
#include "telemetry/metrics.hpp"

namespace minilci {

class PacketPool;

/// Owning handle to one pool packet. Movable; returns the buffer to the pool
/// on destruction unless it has been handed off to the device.
class PacketBuffer {
 public:
  PacketBuffer() = default;
  PacketBuffer(PacketPool* pool, std::byte* data) : pool_(pool), data_(data) {}

  PacketBuffer(PacketBuffer&& other) noexcept { move_from(other); }
  PacketBuffer& operator=(PacketBuffer&& other) noexcept {
    if (this != &other) {
      release();
      move_from(other);
    }
    return *this;
  }
  PacketBuffer(const PacketBuffer&) = delete;
  PacketBuffer& operator=(const PacketBuffer&) = delete;
  ~PacketBuffer() { release(); }

  std::byte* data() const { return data_; }
  std::size_t capacity() const;
  bool valid() const { return data_ != nullptr; }

  /// Number of valid bytes the user assembled; set before sending.
  void set_size(std::size_t size) { size_ = size; }
  std::size_t size() const { return size_; }

  void release();

 private:
  void move_from(PacketBuffer& other) {
    pool_ = other.pool_;
    data_ = other.data_;
    size_ = other.size_;
    other.pool_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }

  PacketPool* pool_ = nullptr;
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

class PacketPool {
 public:
  /// `cache_size` is the per-slot magazine capacity; 0 disables the
  /// magazines entirely (every alloc/release hits the shared free list).
  PacketPool(std::size_t num_packets, std::size_t packet_size,
             std::size_t cache_size = 0)
      : packet_size_(packet_size),
        cache_size_(cache_size),
        storage_(num_packets * packet_size),
        free_list_(num_packets) {
    for (std::size_t i = 0; i < num_packets; ++i) {
      const bool ok = free_list_.try_push(storage_.data() + i * packet_size);
      assert(ok);
      (void)ok;
    }
    if (cache_size_ > 0) {
      for (auto& magazine : magazines_) {
        magazine.value.items.reserve(cache_size_);
      }
    }
    PoolRegistry& reg = registry();
    std::lock_guard<common::SpinMutex> lock(reg.mutex);
    reg.live.insert(this);
  }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  ~PacketPool() {
    PoolRegistry& reg = registry();
    std::lock_guard<common::SpinMutex> lock(reg.mutex);
    reg.live.erase(this);
  }

  /// Empty optional == pool exhausted (caller should retry later).
  std::optional<PacketBuffer> try_alloc() {
    if (cache_size_ > 0) {
      Magazine& magazine = local_magazine();
      std::unique_lock<common::SpinMutex> lock(magazine.mutex,
                                               std::try_to_lock);
      if (lock.owns_lock()) {
        if (!magazine.items.empty()) {
          std::byte* data = magazine.items.back();
          magazine.items.pop_back();
          note_cache_hit();
          return PacketBuffer(this, data);
        }
        // Empty magazine: refill half its capacity from the shared list in
        // one go, keeping the first packet for this caller.
        std::byte* first = nullptr;
        for (std::size_t i = 0; i < cache_size_ / 2 + 1; ++i) {
          auto data = free_list_.try_pop();
          if (!data) break;
          if (first == nullptr) {
            first = *data;
          } else {
            magazine.items.push_back(*data);
          }
        }
        if (first != nullptr) {
          note_cache_miss();
          return PacketBuffer(this, first);
        }
        // fall through: shared list exhausted too
      }
    }
    auto data = free_list_.try_pop();
    if (data) {
      note_cache_miss();
      return PacketBuffer(this, *data);
    }
    // Last resort: the shared list is dry, so lift a packet parked in a
    // sibling slot's magazine. Releases always land in the *releasing*
    // thread's magazine, so without this a thread whose slot never sees a
    // release can starve behind a peer whose magazine holds the pool's
    // entire remaining capacity — callers looping on try_alloc() then spin
    // forever even though the pool is not actually exhausted.
    if (cache_size_ > 0) {
      if (std::byte* stolen = try_steal()) {
        note_cache_miss();
        return PacketBuffer(this, stolen);
      }
    }
    return std::nullopt;
  }

  void release(std::byte* data) {
    if (cache_size_ > 0) {
      Magazine& magazine = local_magazine();
      std::unique_lock<common::SpinMutex> lock(magazine.mutex,
                                               std::try_to_lock);
      if (lock.owns_lock()) {
        if (magazine.items.size() >= cache_size_) {
          // Full magazine: flush half back to the shared list so other
          // slots (and magazine-less callers) can make progress.
          for (std::size_t i = 0; i < cache_size_ / 2; ++i) {
            push_shared(magazine.items.back());
            magazine.items.pop_back();
          }
        }
        magazine.items.push_back(data);
        return;
      }
    }
    push_shared(data);
  }

  std::size_t packet_size() const { return packet_size_; }
  std::size_t cache_size() const { return cache_size_; }

  /// Magazine effectiveness (internal tallies; relaxed snapshots). A hit is
  /// an alloc served by a non-empty magazine without touching the shared
  /// free list.
  std::uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  /// Mirrors magazine hits into a registry counter (may be null to detach).
  void attach_cache_hit_counter(telemetry::Counter* counter) {
    hit_counter_ = counter;
  }

  /// Returns every magazine-cached packet to the shared free list. Packets
  /// cached by one thread's magazine are invisible to allocs from other
  /// slots; call this before exhaustion-style accounting (or shutdown
  /// checks) that must see the pool's full capacity.
  void flush_caches() {
    for (auto& padded : magazines_) {
      Magazine& magazine = padded.value;
      std::lock_guard<common::SpinMutex> lock(magazine.mutex);
      for (std::byte* data : magazine.items) push_shared(data);
      magazine.items.clear();
    }
  }

 private:
  struct Magazine {
    common::SpinMutex mutex;
    std::vector<std::byte*> items;
  };

  /// Pops one packet from any sibling magazine (try-lock, skip on
  /// collision). The caller may hold its own slot's mutex: that slot's
  /// try_lock simply fails and is skipped.
  std::byte* try_steal() {
    for (auto& padded : magazines_) {
      Magazine& magazine = padded.value;
      std::unique_lock<common::SpinMutex> lock(magazine.mutex,
                                               std::try_to_lock);
      if (!lock.owns_lock() || magazine.items.empty()) continue;
      std::byte* data = magazine.items.back();
      magazine.items.pop_back();
      return data;
    }
    return nullptr;
  }

  static constexpr std::size_t kNumMagazines = 16;  // power of two

  // Thread-exit accounting. shard_slot() hands out monotonically increasing
  // per-thread ids, so a short-lived thread can be the *only* thread mapping
  // to its magazine slot: packets it cached would stay invisible to every
  // other slot until someone called flush_caches() by hand. Each thread
  // therefore records the (pool, slot) pairs it touched in a thread_local
  // flusher whose destructor returns those magazines to the shared free list
  // — but only for pools still registered as alive, since the pool may be
  // destroyed before the thread exits.
  struct PoolRegistry {
    common::SpinMutex mutex;
    std::unordered_set<PacketPool*> live;
  };

  static PoolRegistry& registry() {
    // Function-static so it outlives every pool and (by construction order:
    // a pool registers itself before any thread notes a slot) every
    // main-thread flusher.
    static PoolRegistry instance;
    return instance;
  }

  struct ThreadFlusher {
    std::vector<std::pair<PacketPool*, unsigned>> used;

    void note(PacketPool* pool, unsigned slot) {
      for (const auto& entry : used) {
        if (entry.first == pool && entry.second == slot) return;
      }
      used.emplace_back(pool, slot);
    }

    ~ThreadFlusher() {
      PoolRegistry& reg = registry();
      std::lock_guard<common::SpinMutex> lock(reg.mutex);
      for (const auto& [pool, slot] : used) {
        if (reg.live.count(pool) == 0) continue;  // pool already destroyed
        pool->flush_magazine(slot);
      }
    }
  };

  void flush_magazine(unsigned slot) {
    Magazine& magazine = magazines_[slot].value;
    std::lock_guard<common::SpinMutex> lock(magazine.mutex);
    for (std::byte* data : magazine.items) push_shared(data);
    magazine.items.clear();
  }

  Magazine& local_magazine() {
    const unsigned slot = telemetry::shard_slot() & (kNumMagazines - 1);
    thread_local ThreadFlusher flusher;
    flusher.note(this, slot);
    return magazines_[slot].value;
  }

  void note_cache_hit() {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    if (hit_counter_ != nullptr) hit_counter_->add();
  }
  void note_cache_miss() {
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  void push_shared(std::byte* data) {
    const bool ok = free_list_.try_push(data);
    assert(ok);  // we only ever recycle our own packets
    (void)ok;
  }

  std::size_t packet_size_;
  std::size_t cache_size_;
  std::vector<std::byte> storage_;
  queues::MpmcQueue<std::byte*> free_list_;
  std::array<common::CachePadded<Magazine>, kNumMagazines> magazines_;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  telemetry::Counter* hit_counter_ = nullptr;
};

inline std::size_t PacketBuffer::capacity() const {
  return pool_ != nullptr ? pool_->packet_size() : 0;
}

inline void PacketBuffer::release() {
  if (pool_ != nullptr && data_ != nullptr) pool_->release(data_);
  pool_ = nullptr;
  data_ = nullptr;
  size_ = 0;
}

}  // namespace minilci
