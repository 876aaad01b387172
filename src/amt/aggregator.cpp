#include "amt/aggregator.hpp"

#include <mutex>
#include <utility>

#include "amt/wire_header.hpp"

namespace amt {

Aggregator::Aggregator(Rank num_ranks, std::size_t max_bytes,
                       common::Nanos age_ns, FlushFn flush)
    : max_bytes_(max_bytes),
      age_ns_(age_ns),
      flush_(std::move(flush)),
      buffers_(num_ranks) {}

bool Aggregator::enqueue(Rank dst, std::int64_t queue_depth, OutMessage& msg,
                         common::UniqueFunction<void()>& done) {
  Buffer& buffer = buffers_[dst].value;
  // Unloaded fast-out: no lock, no clock read. A racing enqueuer whose
  // entry is not yet visible in `count` at worst makes this parcel travel
  // as its own frame while the other batches — harmless, delivery is
  // unordered and each frame carries its own seq.
  if (queue_depth <= 1 &&
      buffer.count.load(std::memory_order_relaxed) == 0) {
    return false;
  }
  const std::size_t cost = frame_entry_size(msg);
  const common::Nanos now = common::now_ns();
  std::vector<Entry> evicted;   // previous batch the new entry didn't fit in
  std::vector<Entry> complete;  // batch the new entry completed
  FlushReason complete_reason = FlushReason::kSize;
  {
    std::lock_guard<common::SpinMutex> guard(buffer.mutex);
    if (buffer.entries.empty() && queue_depth <= 1) return false;
    if (!buffer.entries.empty() && buffer.bytes + cost > max_bytes_) {
      evicted = std::move(buffer.entries);
      buffer.entries.clear();
      buffer.bytes = 0;
    }
    if (buffer.entries.empty()) {
      buffer.bytes = sizeof(BatchHeader);
      buffer.oldest_ns = now;
    }
    buffer.entries.push_back({std::move(msg), std::move(done), now});
    buffer.bytes += cost;
    if (buffer.bytes >= max_bytes_) {
      complete = std::move(buffer.entries);
      buffer.entries.clear();
      buffer.bytes = 0;
    } else if (queue_depth > 0 &&
               buffer.entries.size() >=
                   static_cast<std::size_t>(queue_depth)) {
      // Window stall: every outstanding parcel of the destination's
      // admission window is sitting in this buffer, so no further parcel
      // can arrive until this batch executes remotely and credits return —
      // holding it any longer is pure added latency with zero added
      // coalescing. Flush now instead of waiting for the age/idle triggers.
      complete = std::move(buffer.entries);
      buffer.entries.clear();
      buffer.bytes = 0;
      complete_reason = FlushReason::kStall;
    }
    buffer.count.store(static_cast<std::uint32_t>(buffer.entries.size()),
                       std::memory_order_relaxed);
    pending_.fetch_add(1 - static_cast<std::int64_t>(evicted.size()) -
                           static_cast<std::int64_t>(complete.size()),
                       std::memory_order_relaxed);
  }
  if (!evicted.empty()) flush_(dst, std::move(evicted), FlushReason::kSize);
  if (!complete.empty()) flush_(dst, std::move(complete), complete_reason);
  return true;
}

std::vector<Aggregator::Entry> Aggregator::steal(Buffer& buffer) {
  std::vector<Entry> batch = std::move(buffer.entries);
  buffer.entries.clear();
  buffer.bytes = 0;
  buffer.count.store(0, std::memory_order_relaxed);
  pending_.fetch_sub(static_cast<std::int64_t>(batch.size()),
                     std::memory_order_relaxed);
  return batch;
}

bool Aggregator::flush_buffers(FlushReason reason, bool aged_only,
                               common::Nanos now) {
  bool flushed = false;
  for (Rank dst = 0; dst < static_cast<Rank>(buffers_.size()); ++dst) {
    Buffer& buffer = buffers_[dst].value;
    if (buffer.count.load(std::memory_order_relaxed) == 0) continue;
    std::vector<Entry> batch;
    {
      std::lock_guard<common::SpinMutex> guard(buffer.mutex);
      if (buffer.entries.empty()) continue;
      if (aged_only && now - buffer.oldest_ns < age_ns_) continue;
      batch = steal(buffer);
    }
    flush_(dst, std::move(batch), reason);
    flushed = true;
  }
  return flushed;
}

bool Aggregator::poll(common::Nanos now) {
  return flush_buffers(FlushReason::kAge, /*aged_only=*/true, now);
}

bool Aggregator::flush_idle() {
  return flush_buffers(FlushReason::kIdle, /*aged_only=*/false, 0);
}

void Aggregator::flush_all() {
  flush_buffers(FlushReason::kFinal, /*aged_only=*/false, 0);
}

}  // namespace amt
