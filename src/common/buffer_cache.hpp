// Recycled byte buffers for wire payloads. A sim datagram's payload vector is
// filled on the sending thread and freed on the receiving worker once its
// parcel has run, so without recycling one thread always mallocs and another
// always frees. That defeats the allocator's per-thread caches: the freeing
// thread's cache fills and the rest go back to the allocating thread's
// arena, while the allocating thread's cache never refills.
//
// Each thread keeps a stack of spare buffers (capacity only, no contents).
// An empty stack refills, and a full one flushes, in half-stack batches
// through one shared stack with a retention bound: the magazine shape of
// minilci::PacketPool. A thread reuses what it gave before it touches the
// shared stack, so a worker that both receives and sends recycles locally.
// Buffers above kMaxCapacity, and whatever the shared stack has no room
// for, are freed as usual. A thread's spares move to the shared stack when
// it exits.
#pragma once

#include <cstddef>
#include <vector>

namespace common {

class BufferCache {
 public:
  using Buffer = std::vector<std::byte>;

  static constexpr std::size_t kLocalDepth = 32;    // per-thread stack
  static constexpr std::size_t kSharedDepth = 256;  // retention bound
  static constexpr std::size_t kMaxCapacity = 16 * 1024;  // one SRQ buffer

  /// An empty buffer; it has a recycled buffer's capacity when one is spare.
  static Buffer take();

  /// Keeps `buffer`'s capacity for a later take(), or frees it.
  static void give(Buffer buffer);
};

}  // namespace common
