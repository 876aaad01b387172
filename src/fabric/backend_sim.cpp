#include "fabric/backend_sim.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "common/buffer_cache.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "telemetry/trace.hpp"

namespace fabric {

namespace {

std::string nic_metric(Rank rank, const char* leaf) {
  return "fabric/nic" + std::to_string(rank) + "/" + leaf;
}

}  // namespace

SimNic::SimNic(Fabric& fabric, Rank rank, const Config& config)
    : fabric_(fabric),
      rank_(rank),
      config_(config),
      latency_ns_(static_cast<common::Nanos>(config.latency_us * 1000.0)),
      rail_bytes_per_ns_(config.bytes_per_ns() /
                         std::max(1u, config.num_rails)),
      pkt_gap_ns_(config.pkt_rate_mpps > 0.0
                      ? static_cast<common::Nanos>(1000.0 /
                                                   config.pkt_rate_mpps)
                      : 0),
      jitter_ns_(static_cast<common::Nanos>(config.jitter_us * 1000.0)),
      faults_on_(config.faults.any()),
      thr_drop_(fault_threshold(config.faults.drop)),
      thr_dup_(fault_threshold(config.faults.duplicate)),
      thr_corrupt_(fault_threshold(config.faults.corrupt)),
      thr_delay_(fault_threshold(config.faults.delay)),
      thr_brownout_(fault_threshold(config.faults.brownout)),
      thr_rnr_storm_(fault_threshold(config.faults.rnr_storm)),
      fault_delay_ns_(
          static_cast<common::Nanos>(config.faults.delay_us * 1000.0)),
      srq_(config.srq_depth, config.srq_buffer_size),
      ctr_packets_sent_(
          fabric.telemetry().counter(nic_metric(rank, "packets_sent"))),
      ctr_bytes_sent_(
          fabric.telemetry().counter(nic_metric(rank, "bytes_sent"))),
      ctr_packets_received_(
          fabric.telemetry().counter(nic_metric(rank, "packets_received"))),
      ctr_tx_window_rejects_(
          fabric.telemetry().counter(nic_metric(rank, "tx_window_rejects"))),
      ctr_rnr_stalls_(
          fabric.telemetry().counter(nic_metric(rank, "rnr_stalls"))),
      ctr_faults_dropped_(
          fabric.telemetry().counter(nic_metric(rank, "faults_dropped"))),
      ctr_faults_duplicated_(
          fabric.telemetry().counter(nic_metric(rank, "faults_duplicated"))),
      ctr_faults_corrupted_(
          fabric.telemetry().counter(nic_metric(rank, "faults_corrupted"))),
      ctr_faults_delayed_(
          fabric.telemetry().counter(nic_metric(rank, "faults_delayed"))),
      ctr_brownout_rejects_(
          fabric.telemetry().counter(nic_metric(rank, "brownout_rejects"))),
      ctr_rnr_storms_(
          fabric.telemetry().counter(nic_metric(rank, "rnr_storms"))),
      hist_wire_latency_ns_(
          fabric.telemetry().histogram(nic_metric(rank, "wire_latency_ns"))) {
  const std::size_t n = static_cast<std::size_t>(config.num_ranks) *
                        std::max(1u, config.num_rails);
  rx_channels_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    rx_channels_.push_back(std::make_unique<detail::Channel>());
  }
}

SimNic& SimNic::peer(Rank rank) {
  // The sim backend always hosts every rank in this process.
  return static_cast<SimNic&>(fabric_.nic(rank));
}

void SimNic::on_packet_delivered(Rank src) {
  peer(src).tx_in_flight_.value.fetch_sub(1, std::memory_order_relaxed);
}

common::Nanos SimNic::advance_busy(std::atomic<common::Nanos>& busy,
                                   common::Nanos now, common::Nanos duration) {
  common::Nanos old_busy = busy.load(std::memory_order_relaxed);
  for (;;) {
    const common::Nanos start = std::max(now, old_busy);
    if (busy.compare_exchange_weak(old_busy, start + duration,
                                   std::memory_order_relaxed)) {
      return start;
    }
  }
}

common::Status SimNic::post_packet(Rank dst, detail::Packet packet,
                                   std::size_t wire_len) {
  if (dst >= config_.num_ranks) return common::Status::kError;

  // TX window back-pressure (QP send-queue depth).
  const auto in_flight =
      tx_in_flight_.value.fetch_add(1, std::memory_order_relaxed);
  if (in_flight >= static_cast<std::int64_t>(config_.tx_window)) {
    tx_in_flight_.value.fetch_sub(1, std::memory_order_relaxed);
    ctr_tx_window_rejects_.add();
    return common::Status::kRetry;
  }

  // Deterministic fault injection (fabric/fault.hpp). Each post gets an
  // index that keys its splitmix64 decision stream and positions it against
  // the brownout window, so the whole fault pattern replays from the seed.
  bool fault_duplicate = false;
  if (faults_on_) {
    const std::uint64_t post_idx =
        tx_post_counter_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t rng = config_.faults.seed ^
                        (0x9e3779b97f4a7c15ULL * (post_idx + 1)) ^
                        (static_cast<std::uint64_t>(rank_) << 48);
    if (packet.kind == detail::Packet::Kind::kSend) {
      // Brownout: the send queue refuses posts for a window, surfacing the
      // verbs "queue full" condition to software as Status::kRetry.
      if (post_idx < brownout_until_post_.load(std::memory_order_relaxed)) {
        tx_in_flight_.value.fetch_sub(1, std::memory_order_relaxed);
        ctr_brownout_rejects_.add();
        return common::Status::kRetry;
      }
      if (thr_brownout_ != 0 && common::splitmix64(rng) < thr_brownout_) {
        brownout_until_post_.store(post_idx + config_.faults.brownout_posts,
                                   std::memory_order_relaxed);
        tx_in_flight_.value.fetch_sub(1, std::memory_order_relaxed);
        ctr_brownout_rejects_.add();
        return common::Status::kRetry;
      }
      // Drop: the wire eats the datagram. The TX slot is credited back as
      // if it had been delivered; the receiver simply never sees it. Only
      // two-sided sends drop — one-sided RDMA is link-level reliable in the
      // modelled RC hardware (no software detection point exists for it).
      if (thr_drop_ != 0 && common::splitmix64(rng) < thr_drop_) {
        tx_in_flight_.value.fetch_sub(1, std::memory_order_relaxed);
        ctr_faults_dropped_.add();
        ctr_packets_sent_.add();
        ctr_bytes_sent_.add(wire_len);
        return common::Status::kOk;
      }
      if (thr_dup_ != 0 && common::splitmix64(rng) < thr_dup_) {
        fault_duplicate = true;
      }
    }
    // Corruption: a single bit flip anywhere in the payload — sends and
    // RDMA writes alike; checksums downstream must catch it.
    if (thr_corrupt_ != 0 && !packet.payload.empty() &&
        packet.payload.size() >= config_.faults.corrupt_min_size &&
        common::splitmix64(rng) < thr_corrupt_) {
      const std::uint64_t bit =
          common::splitmix64(rng) % (packet.payload.size() * 8);
      packet.payload[bit / 8] ^=
          static_cast<std::byte>(1u << (bit % 8));
      ctr_faults_corrupted_.add();
    }
    if (thr_delay_ != 0 && common::splitmix64(rng) < thr_delay_) {
      // Spike magnitudes are exponential with mean delay_us (real latency
      // spikes are heavy-tailed, not a fixed step), drawn from the same
      // counter-indexed stream so the whole pattern replays from the seed.
      packet.extra_latency += static_cast<common::Nanos>(
          common::exponential_from_bits(common::splitmix64(rng),
                                        static_cast<double>(fault_delay_ns_)));
      ctr_faults_delayed_.add();
    }
  }

  SimNic& target = peer(dst);
  const unsigned rails = std::max(1u, config_.num_rails);
  const unsigned rail = static_cast<unsigned>(
      tx_rail_rr_.value.fetch_add(1, std::memory_order_relaxed) % rails);
  detail::Channel& channel =
      *target.rx_channels_[static_cast<std::size_t>(packet.src) * rails +
                           rail];

  if (config_.zero_time) {
    packet.deliver_time = 0;
  } else {
    const common::Nanos now = common::now_ns();
    common::Nanos start = now;
    if (pkt_gap_ns_ > 0) {
      start = advance_busy(tx_pkt_busy_.value, now, pkt_gap_ns_);
    }
    const common::Nanos tx_ns = static_cast<common::Nanos>(
        static_cast<double>(wire_len) / rail_bytes_per_ns_);
    start = advance_busy(channel.busy_until.value, start, tx_ns);
    packet.deliver_time = start + tx_ns + latency_ns_ + packet.extra_latency;
    if (jitter_ns_ > 0) {
      std::uint64_t state =
          config_.jitter_seed ^
          (jitter_counter_.fetch_add(1, std::memory_order_relaxed) +
           (static_cast<std::uint64_t>(rank_) << 32));
      packet.deliver_time += static_cast<common::Nanos>(
          common::splitmix64(state) % static_cast<std::uint64_t>(jitter_ns_));
    }
    // The per-rail send latency charged to this packet: queueing behind the
    // rail's busy window + serialisation + propagation (+jitter).
    if (telemetry::sampled()) {
      hist_wire_latency_ns_.record(
          static_cast<std::uint64_t>(packet.deliver_time - now));
    }
  }

  ctr_packets_sent_.add();
  ctr_bytes_sent_.add(wire_len);
  if (fault_duplicate) {
    // Deliver a second copy on an independently chosen rail, so the twin
    // can overtake the original. Each delivered copy credits one TX slot
    // back, so the window is charged for both.
    detail::Packet copy = packet;
    tx_in_flight_.value.fetch_add(1, std::memory_order_relaxed);
    const unsigned rail2 = static_cast<unsigned>(
        tx_rail_rr_.value.fetch_add(1, std::memory_order_relaxed) % rails);
    detail::Channel& channel2 =
        *target.rx_channels_[static_cast<std::size_t>(copy.src) * rails +
                             rail2];
    ctr_faults_duplicated_.add();
    ctr_packets_sent_.add();
    ctr_bytes_sent_.add(wire_len);
    channel2.queue.push(std::move(copy));
  }
  channel.queue.push(std::move(packet));
  return common::Status::kOk;
}

std::uint64_t SimNic::fault_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ull;
  // Compare against the top 32 bits shifted up: exact for our purposes and
  // immune to double->u64 overflow near 1.0.
  return static_cast<std::uint64_t>(p * 4294967296.0) << 32;
}

bool SimNic::rnr_storm_active() {
  if (thr_rnr_storm_ == 0) return false;
  const std::uint64_t poll_idx =
      rx_poll_counter_.fetch_add(1, std::memory_order_relaxed);
  if (poll_idx < rnr_storm_until_poll_.load(std::memory_order_relaxed)) {
    return true;
  }
  std::uint64_t rng = config_.faults.seed ^ 0x2545f4914f6cdd1dULL ^
                      (0x9e3779b97f4a7c15ULL * (poll_idx + 1)) ^
                      (static_cast<std::uint64_t>(rank_) << 48);
  if (common::splitmix64(rng) < thr_rnr_storm_) {
    rnr_storm_until_poll_.store(poll_idx + config_.faults.rnr_storm_polls,
                                std::memory_order_relaxed);
    ctr_rnr_storms_.add();
    return true;
  }
  return false;
}

common::Status SimNic::post_send(Rank dst, const void* data, std::size_t len,
                                 std::uint64_t imm) {
  if (len > srq_.buffer_size()) {
    AMTNET_LOG_ERROR("post_send: payload ", len, " exceeds SRQ buffer size ",
                     srq_.buffer_size());
    return common::Status::kError;
  }
  detail::Packet packet;
  packet.kind = detail::Packet::Kind::kSend;
  packet.src = rank_;
  packet.imm = imm;
  if (len > 0) {
    // The receiver hands the payload's capacity back to the cache once it
    // is consumed, as a NIC reposts a receive buffer.
    packet.payload = common::BufferCache::take();
    packet.payload.assign(static_cast<const std::byte*>(data),
                          static_cast<const std::byte*>(data) + len);
  }
  // Headers-on-the-wire: count a small fixed framing overhead plus payload.
  return post_packet(dst, std::move(packet), len + 32);
}

common::Status SimNic::post_write_imm(Rank dst, const MrKey& rkey,
                                      std::size_t offset, const void* data,
                                      std::size_t len, std::uint64_t imm) {
  detail::Packet packet;
  packet.kind = detail::Packet::Kind::kWrite;
  packet.src = rank_;
  packet.mr_id = rkey.id;
  packet.mr_offset = offset;
  packet.imm = imm;
  packet.payload.assign(static_cast<const std::byte*>(data),
                        static_cast<const std::byte*>(data) + len);
  return post_packet(dst, std::move(packet), len + 32);
}

MrKey SimNic::register_memory(void* base, std::size_t len) {
  const std::uint64_t id =
      next_mr_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<common::SpinMutex> guard(mr_mutex_);
    mr_table_[id] = MrEntry{static_cast<std::byte*>(base), len};
  }
  return MrKey{rank_, id};
}

void SimNic::deregister_memory(const MrKey& key) {
  std::lock_guard<common::SpinMutex> guard(mr_mutex_);
  mr_table_.erase(key.id);
}

std::optional<SimNic::MrEntry> SimNic::lookup_mr(std::uint64_t id) const {
  std::lock_guard<common::SpinMutex> guard(mr_mutex_);
  const auto it = mr_table_.find(id);
  if (it == mr_table_.end()) {
    AMTNET_LOG_ERROR("RDMA write to unregistered MR id ", id, " on rank ",
                     rank_);
    return std::nullopt;
  }
  return it->second;
}

bool SimNic::rx_looks_nonempty() const {
  for (const auto& channel : rx_channels_) {
    if (!channel->queue.looks_empty()) return true;
  }
  return false;
}

std::size_t SimNic::poll_rx_sink(std::size_t max_packets, RxSink sink) {
  const std::size_t n_channels = rx_channels_.size();
  if (n_channels == 0 || max_packets == 0) return 0;
  const common::Nanos now =
      config_.zero_time ? 0 : common::now_ns();
  const std::uint64_t start =
      poll_rr_.value.fetch_add(1, std::memory_order_relaxed);
  // Injected RNR storm: refuse every buffer-consuming delivery for this
  // call, exactly as if the SRQ had drained (senders see stalled channels
  // and eventually retransmit / back off).
  const bool rnr_storm = faults_on_ && rnr_storm_active();

  std::size_t processed = 0;
  for (std::size_t i = 0; i < n_channels && processed < max_packets; ++i) {
    detail::Channel& channel =
        *rx_channels_[(start + i) % n_channels];
    bool reserved = false;  // SRQ credit pre-acquired by the predicate

    auto deliverable = [&](const detail::Packet& p) {
      if (!config_.zero_time && p.deliver_time > now) return false;
      if (p.kind == detail::Packet::Kind::kSend && !p.payload.empty() &&
          !reserved) {
        if (rnr_storm) {
          ctr_rnr_stalls_.add();
          return false;
        }
        reserved = srq_.try_acquire();
        if (!reserved) {
          // RNR: stall this channel until buffers are recycled.
          ctr_rnr_stalls_.add();
          AMTNET_TRACE_INSTANT("fabric", "rnr_stall");
          return false;
        }
      }
      return true;
    };

    auto consume = [&](detail::Packet&& p) {
      ctr_packets_received_.add();
      on_packet_delivered(p.src);
      if (p.kind == detail::Packet::Kind::kSend) {
        RxEvent event;
        event.kind = RxEvent::Kind::kRecv;
        event.src = p.src;
        event.imm = p.imm;
        event.size = p.payload.size();
        if (!p.payload.empty()) {
          event.payload = std::move(p.payload);
          event.credit = RecvBuffer(&srq_);
          reserved = false;
        }
        sink(std::move(event));
      } else {
        // RDMA write: land the data, then surface the immediate.
        const auto entry = lookup_mr(p.mr_id);
        if (entry && p.mr_offset + p.payload.size() <= entry->len) {
          std::memcpy(entry->base + p.mr_offset, p.payload.data(),
                      p.payload.size());
        }
        RxEvent event;
        event.kind = RxEvent::Kind::kWriteImm;
        event.src = p.src;
        event.imm = p.imm;
        event.size = p.payload.size();
        sink(std::move(event));
      }
    };

    processed += channel.queue.try_drain_while(max_packets - processed,
                                               deliverable, consume);
    if (reserved) srq_.release();
  }
  return processed;
}

NicStats SimNic::stats() const {
  // Single aggregation pass over the registry counters. Relaxed-read
  // semantics: each field is a coherent monotonic value sampled during this
  // call; the fields are not a cross-counter atomic cut (a concurrent send
  // may appear in bytes_sent but not yet in packets_sent, or vice versa).
  NicStats stats;
  stats.packets_sent = ctr_packets_sent_.value();
  stats.bytes_sent = ctr_bytes_sent_.value();
  stats.packets_received = ctr_packets_received_.value();
  stats.sends_rejected_tx_window = ctr_tx_window_rejects_.value();
  stats.rnr_stalls = ctr_rnr_stalls_.value();
  stats.faults_dropped = ctr_faults_dropped_.value();
  stats.faults_duplicated = ctr_faults_duplicated_.value();
  stats.faults_corrupted = ctr_faults_corrupted_.value();
  stats.faults_delayed = ctr_faults_delayed_.value();
  stats.brownout_rejects = ctr_brownout_rejects_.value();
  stats.rnr_storms = ctr_rnr_storms_.value();
  return stats;
}

}  // namespace fabric
