// minilci — a miniature Lightweight Communication Interface over the
// simulated fabric, standing in for LCI v1.7 in the paper.
//
// Feature set reproduced (paper §2.1):
//   * two-sided medium (eager) and long (rendezvous) send/receive,
//   * one-sided *dynamic put* (eager, from a pool packet): the target buffer
//     is allocated by the runtime on arrival and an entry is pushed to a
//     pre-configured completion queue on the remote side,
//   * three completion mechanisms — completion queues, synchronizers, and
//     function handlers — combinable with any primitive,
//   * explicit progress() and one send backlog per destination: a post the
//     NIC cannot take parks and is injected by progress(), so sends and puts
//     never return Status::kRetry,
//   * no ordering guarantee between messages (the fabric stripes rails).
//
// Concurrency discipline (the paper's point (a)): no global lock anywhere —
// per-bucket spin locks in the matching table, consumer try-locks on
// completion queues and fabric channels, atomics for ids and counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fabric/types.hpp"

namespace minilci {

using Rank = fabric::Rank;
using Tag = std::uint32_t;

/// Reserved tag: mediums/puts sent with it bypass matching and completion
/// queues and are delivered straight to the device's registered tag handler
/// from progress context (Device::register_tag_handler) — LCI's
/// active-message style, used by the parcelport's small-parcel fast path.
inline constexpr Tag kFastpathTag = 0xFFFFFFFFu;

/// Per-slot packet-pool magazine capacity (LCI's per-thread packet cache):
/// a slot refills and drains its magazine in halves, so most allocations
/// never touch the shared MPMC free list.
inline constexpr std::size_t kPacketCacheSize = 32;

/// Rendezvous-state table shards (rdv_table.hpp). One table measured ~10%
/// slower on 16 KiB shm floods (EXPERIMENTS.md, progress-engine verdicts).
inline constexpr std::size_t kRdvShards = 16;

struct Config {
  std::size_t eager_threshold = 8192;   // max medium-message payload
  std::size_t packet_pool_size = 4096;  // send-side packet buffers
  std::size_t progress_batch = 64;      // fabric packets per progress call
};

/// What completed. Mirrors LCI's request status fields.
enum class OpKind : std::uint8_t {
  kSendMedium,
  kRecvMedium,
  kSendLong,
  kRecvLong,
  kPutDyn,     // local completion of a dynamic put
  kRemotePut,  // remote side of a dynamic put (pushed to the device's RCQ)
};

/// Completion record delivered through a queue, synchronizer, or handler.
struct CqEntry {
  OpKind op = OpKind::kSendMedium;
  Rank rank = 0;   // peer
  Tag tag = 0;
  std::vector<std::byte> data;  // received medium / remote-put payload
  void* user_buf = nullptr;     // long-recv destination buffer
  std::size_t size = 0;         // payload byte count
  std::uint64_t user_context = 0;
};

}  // namespace minilci
