// Backend #1: the simulated RDMA NIC ("sim", the default). See types.hpp
// for the modelling contract (latency, per-rail bandwidth serialisation,
// message-rate cap, TX window, SRQ/RNR, multi-rail reordering, deterministic
// fault injection).
//
// Threading: post_send / post_write_imm may be called from any thread; poll_rx
// may be called from any number of threads concurrently (each incoming
// channel is drained under a consumer try-lock, so concurrent pollers skip
// channels another poller holds — the same discipline real LCI uses for its
// receive path).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/cache.hpp"
#include "common/clock.hpp"
#include "common/spinlock.hpp"
#include "fabric/nic.hpp"
#include "queues/mpsc_queue.hpp"

namespace fabric {

namespace detail {

struct Packet {
  enum class Kind : std::uint8_t { kSend, kWrite };
  Kind kind = Kind::kSend;
  Rank src = 0;  // the sender, whose TX window this packet occupies
  std::uint64_t imm = 0;
  std::uint64_t mr_id = 0;          // kWrite
  std::size_t mr_offset = 0;        // kWrite
  common::Nanos extra_latency = 0;  // injected delay fault
  std::vector<std::byte> payload;
  common::Nanos deliver_time = 0;
};

/// One ordered rail of a directed link. busy_until carries the bandwidth
/// serialisation state for the rail and is advanced by senders with CAS.
struct Channel {
  queues::TryMpmcQueue<Packet> queue;
  common::CachePadded<std::atomic<common::Nanos>> busy_until{0};
};

}  // namespace detail

class SimNic final : public Nic {
 public:
  SimNic(Fabric& fabric, Rank rank, const Config& config);

  Rank rank() const override { return rank_; }

  common::Status post_send(Rank dst, const void* data, std::size_t len,
                           std::uint64_t imm) override;
  common::Status post_write_imm(Rank dst, const MrKey& rkey,
                                std::size_t offset, const void* data,
                                std::size_t len, std::uint64_t imm) override;

  MrKey register_memory(void* base, std::size_t len) override;
  void deregister_memory(const MrKey& key) override;

  bool rx_looks_nonempty() const override;
  NicStats stats() const override;
  std::size_t srq_buffer_size() const override { return srq_.buffer_size(); }

 protected:
  std::size_t poll_rx_sink(std::size_t max_packets, RxSink sink) override;

 private:
  struct MrEntry {
    std::byte* base = nullptr;
    std::size_t len = 0;
  };

  /// The peer's simulated NIC. Valid because the sim backend always hosts
  /// every rank in this process.
  SimNic& peer(Rank rank);

  common::Status post_packet(Rank dst, detail::Packet packet,
                             std::size_t wire_len);
  // Converts a probability to a splitmix64-comparable threshold.
  static std::uint64_t fault_threshold(double p);
  // True while poll_rx should refuse buffer-consuming deliveries, possibly
  // starting a new injected RNR storm window for this call.
  bool rnr_storm_active();
  // Resolves a registered region; nullopt when the key is stale/bogus.
  std::optional<MrEntry> lookup_mr(std::uint64_t id) const;
  // Credits the sender's TX window back when one of its packets lands here.
  void on_packet_delivered(Rank src);

  // Advances `busy` to cover [start, start+duration) and returns start,
  // where start = max(now, old busy). Lock-free CAS loop.
  static common::Nanos advance_busy(std::atomic<common::Nanos>& busy,
                                    common::Nanos now, common::Nanos duration);

  Fabric& fabric_;
  const Rank rank_;
  const Config& config_;
  const common::Nanos latency_ns_;
  const double rail_bytes_per_ns_;
  const common::Nanos pkt_gap_ns_;  // 0 when unlimited
  const common::Nanos jitter_ns_;   // 0 when chaos mode is off
  std::atomic<std::uint64_t> jitter_counter_{0};

  // Fault injection (see fabric/fault.hpp). Thresholds are precomputed so
  // the disabled case costs one branch on faults_on_.
  const bool faults_on_;
  const std::uint64_t thr_drop_;
  const std::uint64_t thr_dup_;
  const std::uint64_t thr_corrupt_;
  const std::uint64_t thr_delay_;
  const std::uint64_t thr_brownout_;
  const std::uint64_t thr_rnr_storm_;
  const common::Nanos fault_delay_ns_;
  // Post/poll indices drive both the deterministic RNG streams and the
  // brownout / RNR-storm windows (windows are measured in operations, so
  // they behave identically under zero_time fabrics).
  std::atomic<std::uint64_t> tx_post_counter_{0};
  std::atomic<std::uint64_t> brownout_until_post_{0};
  std::atomic<std::uint64_t> rx_poll_counter_{0};
  std::atomic<std::uint64_t> rnr_storm_until_poll_{0};

  SrqPool srq_;

  // Incoming channels, one per (source rank, rail); index src*rails + rail.
  std::vector<std::unique_ptr<detail::Channel>> rx_channels_;

  // Senders' NIC-level message-rate gate.
  common::CachePadded<std::atomic<common::Nanos>> tx_pkt_busy_{0};
  // In-flight window (incremented at post, decremented at delivery).
  common::CachePadded<std::atomic<std::int64_t>> tx_in_flight_{0};
  // Rail selector for outgoing packets.
  common::CachePadded<std::atomic<std::uint64_t>> tx_rail_rr_{0};
  // Rotating start index for poll fairness.
  common::CachePadded<std::atomic<std::uint64_t>> poll_rr_{0};

  mutable common::SpinMutex mr_mutex_;
  std::unordered_map<std::uint64_t, MrEntry> mr_table_;
  std::atomic<std::uint64_t> next_mr_id_{1};

  // Stats live in the Fabric's telemetry registry under fabric/nic<rank>/...
  // (sharded relaxed counters; stats() aggregates them in one pass).
  telemetry::Counter& ctr_packets_sent_;
  telemetry::Counter& ctr_bytes_sent_;
  telemetry::Counter& ctr_packets_received_;
  telemetry::Counter& ctr_tx_window_rejects_;
  telemetry::Counter& ctr_rnr_stalls_;
  telemetry::Counter& ctr_faults_dropped_;
  telemetry::Counter& ctr_faults_duplicated_;
  telemetry::Counter& ctr_faults_corrupted_;
  telemetry::Counter& ctr_faults_delayed_;
  telemetry::Counter& ctr_brownout_rejects_;
  telemetry::Counter& ctr_rnr_storms_;
  // One-way wire latency charged to a sampled packet (post ->
  // deliver_time), the per-rail send-latency distribution. Not recorded in
  // zero_time mode.
  telemetry::Histogram& hist_wire_latency_ns_;
};

}  // namespace fabric
