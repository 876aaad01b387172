// ReliableEndpoint: a bounded retransmit-with-timeout sublayer for two-sided
// datagrams, shared by minilci and minimpi.
//
// The simulated fabric under fault injection (fabric/fault.hpp) can drop,
// duplicate, and corrupt two-sided sends. Real RC InfiniBand hides those
// failures below verbs with link-level CRC + go-back-N; this class plays
// that role in software so the upper protocols keep their clean-network
// assumptions (minimpi's in-order reorder stage would otherwise hang
// forever on one lost datagram):
//
//   * send() appends an 8-byte trailer {seq, crc32(payload, seq, imm)} and
//     tracks the wire image until the receiver acks it.
//   * on_recv() filters incoming events: verifies and strips the trailer
//     (corrupt datagrams are dropped — equivalent to a wire drop), dedups
//     by per-source sequence number, and acks every surviving datagram with
//     a zero-payload send (needs no SRQ buffer, so acks pierce RNR storms).
//   * progress() retransmits unacked sends past their timeout with
//     exponential backoff; exhausting the bounded retry budget is an
//     unrecoverable link failure and fail-fasts via common::integrity_fail.
//
// Sequence numbers are allocated per destination only once the NIC took the
// post, so every number is eventually delivered (or the retransmit budget
// aborts the run): a gap at the receiver is always a datagram still in
// flight, however many later ones overtook it. Loss detection is
// sender-timeout based, never gap based — multi-rail delivery reorders
// freely. Timeouts are measured in progress() calls ("ticks"), which works
// identically under zero_time fabrics, plus a wall-clock floor on timed
// fabrics so retransmits don't race genuine in-flight packets.
//
// When the fabric's fault config is clean (integrity_on() == false) every
// call is a passthrough: send() forwards to Nic::post_send untouched and
// on_recv() accepts everything, so the layer is free when chaos is off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/spinlock.hpp"
#include "common/status.hpp"
#include "fabric/nic.hpp"
#include "telemetry/telemetry.hpp"

namespace fabric {

/// The immediate-kind byte ([63:56]) reserved for reliability acks. Upper
/// layers stacked on a ReliableEndpoint must never use it for data.
inline constexpr std::uint8_t kReliableAckKind = 0x7F;

class ReliableEndpoint {
 public:
  /// Enabled iff fabric.config().faults.integrity_on(). `layer` scopes the
  /// telemetry names (reliable/<layer><rank>/...).
  ReliableEndpoint(Fabric& fabric, Rank rank, const char* layer);
  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  bool enabled() const { return enabled_; }

  /// Drop-in replacement for Nic::post_send. kRetry means nothing was sent
  /// (the caller retries exactly as before); kOk means delivery is now this
  /// layer's responsibility.
  common::Status send(Rank dst, const void* data, std::size_t len,
                      std::uint64_t imm);

  /// Filters one incoming event. Returns true when the event is for the
  /// upper layer (trailer already stripped); false when it was consumed
  /// here (an ack, a duplicate, or a corrupt datagram that was dropped).
  /// Non-kRecv events (write-imm) always pass through.
  bool on_recv(RxEvent& event);

  /// Drives acks and retransmits; call from the owning layer's progress.
  /// The retransmit scan (walking every per-peer TX map under its lock) is
  /// time-gated: it runs at most once per kScanQuantum progress ticks, with
  /// one caller elected per quantum — nothing can time out between quanta,
  /// so the other progress threads skip the walk entirely.
  void progress();

  /// Unacked datagrams currently tracked (diagnostics / drain checks).
  std::size_t pending() const;

 private:
  static constexpr std::size_t kTrailerSize = 8;  // u32 seq + u32 crc
  static constexpr unsigned kMaxAttempts = 50;
  // Retransmit timeout in progress ticks, doubling per attempt. Ticks are
  // cheap (every idle worker loop calls progress), so the base is generous.
  static constexpr std::uint64_t kRtoBaseTicks = 512;
  // Progress ticks between retransmit scans: at worst a timeout is noticed
  // kRtoBaseTicks / 8 late, adding 12.5% to the base RTO.
  static constexpr std::uint64_t kScanQuantum = kRtoBaseTicks / 8;

  struct Pending {
    std::uint64_t imm = 0;
    std::vector<std::byte> wire;  // payload + trailer, reposted verbatim
    std::uint64_t post_tick = 0;
    common::Nanos post_ns = 0;
    unsigned attempts = 1;
  };

  struct TxState {
    common::SpinMutex mutex;
    std::uint32_t next_seq = 0;  // advanced only by a post the NIC took
    std::unordered_map<std::uint32_t, Pending> pending;
  };

  struct RxState {
    common::SpinMutex mutex;
    std::uint32_t base = 0;          // every seq < base already delivered
    std::set<std::uint32_t> seen;    // delivered seqs >= base
  };

  std::uint64_t rto_ticks(unsigned attempts) const {
    return kRtoBaseTicks << (attempts < 7 ? attempts - 1 : 6);
  }
  common::Nanos rto_ns(unsigned attempts) const {
    return rto_ns_base_ << (attempts < 7 ? attempts - 1 : 6);
  }
  void send_ack(Rank src, std::uint32_t seq);

  Nic& nic_;
  const Rank rank_;
  const bool enabled_;
  const bool zero_time_;
  const common::Nanos rto_ns_base_;

  std::vector<std::unique_ptr<TxState>> tx_;
  std::vector<std::unique_ptr<RxState>> rx_;

  std::atomic<std::uint64_t> tick_{0};
                                      // (0 = scan on every progress call)
  std::atomic<std::uint64_t> next_scan_tick_{0};

  common::SpinMutex ack_backlog_mutex_;
  std::vector<std::pair<Rank, std::uint32_t>> ack_backlog_;
  std::atomic<std::size_t> ack_backlog_count_{0};

  telemetry::Counter& ctr_data_sent_;
  telemetry::Counter& ctr_acked_;
  telemetry::Counter& ctr_retransmits_;
  telemetry::Counter& ctr_crc_dropped_;
  telemetry::Counter& ctr_dup_dropped_;
  telemetry::Counter& ctr_retransmit_scans_;
};

}  // namespace fabric
