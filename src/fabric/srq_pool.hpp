// Shared-receive-queue credit pool. Models a NIC's fixed set of pre-posted,
// registered receive buffers of buffer_size bytes each: a datagram consumes
// one credit while its payload is held, and an empty pool is the RNR
// condition. Only the count matters — the payload travels in its own vector
// (RxEvent::payload) — so the pool holds tokens, not buffer memory.
#pragma once

#include <cassert>
#include <cstddef>

#include "queues/mpmc_queue.hpp"

namespace fabric {

class SrqPool;

/// Owning handle to one SRQ credit; returns it to the pool on destruction.
class RecvBuffer {
 public:
  RecvBuffer() = default;
  explicit RecvBuffer(SrqPool* pool) : pool_(pool) {}

  RecvBuffer(RecvBuffer&& other) noexcept : pool_(other.pool_) {
    other.pool_ = nullptr;
  }
  RecvBuffer& operator=(RecvBuffer&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  RecvBuffer(const RecvBuffer&) = delete;
  RecvBuffer& operator=(const RecvBuffer&) = delete;
  ~RecvBuffer() { release(); }

  /// True while this handle holds a credit.
  bool valid() const { return pool_ != nullptr; }

  void release();

 private:
  SrqPool* pool_ = nullptr;
};

class SrqPool {
 public:
  SrqPool(std::size_t depth, std::size_t buffer_size)
      : buffer_size_(buffer_size), credits_(depth) {
    for (std::size_t i = 0; i < depth; ++i) release();
  }

  /// Takes one credit; false when the SRQ is exhausted (RNR condition).
  bool try_acquire() { return credits_.try_pop().has_value(); }

  void release() {
    const bool pushed = credits_.try_push(Credit{});
    assert(pushed);  // cannot overflow: only `depth` credits exist
    (void)pushed;
  }

  /// Largest datagram one receive buffer holds.
  std::size_t buffer_size() const { return buffer_size_; }

 private:
  struct Credit {};
  std::size_t buffer_size_;
  // A lock-free ring of tokens rather than one atomic count: the poller
  // (acquire) and the thread dropping the event (release) advance separate
  // cursor lines, where a shared counter bounced one line per datagram and
  // cost ~9% of the sim 8 B flood rate on a 4-vCPU host.
  queues::MpmcQueue<Credit> credits_;
};

inline void RecvBuffer::release() {
  if (pool_ != nullptr) pool_->release();
  pool_ = nullptr;
}

}  // namespace fabric
