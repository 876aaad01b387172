#include "fabric/reliable.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <string>

#include "common/clock.hpp"
#include "common/crc32.hpp"
#include "common/integrity.hpp"
#include "common/logging.hpp"

namespace fabric {

namespace {

std::string ep_metric(const char* layer, Rank rank, const char* leaf) {
  return std::string("reliable/") + layer + std::to_string(rank) + "/" + leaf;
}

std::uint32_t trailer_crc(const void* data, std::size_t len,
                          std::uint32_t seq, std::uint64_t imm) {
  std::uint32_t c = common::crc32(data, len);
  c = common::crc32(&seq, sizeof(seq), c);
  c = common::crc32(&imm, sizeof(imm), c);
  return c;
}

}  // namespace

ReliableEndpoint::ReliableEndpoint(Fabric& fabric, Rank rank,
                                   const char* layer)
    : nic_(fabric.nic(rank)),
      rank_(rank),
      enabled_(fabric.config().faults.integrity_on()),
      zero_time_(fabric.config().zero_time),
      // Wall-clock RTO floor: comfortably above a loaded round trip so
      // retransmits don't race packets that are merely queued.
      rto_ns_base_(static_cast<common::Nanos>(
                       fabric.config().latency_us * 1000.0 * 32.0) +
                   20 * 1000),
      ctr_data_sent_(fabric.telemetry().counter(
          ep_metric(layer, rank, "data_sent"))),
      ctr_acked_(fabric.telemetry().counter(ep_metric(layer, rank, "acked"))),
      ctr_retransmits_(fabric.telemetry().counter(
          ep_metric(layer, rank, "retransmits"))),
      ctr_crc_dropped_(fabric.telemetry().counter(
          ep_metric(layer, rank, "crc_dropped"))),
      ctr_dup_dropped_(fabric.telemetry().counter(
          ep_metric(layer, rank, "dup_dropped"))),
      ctr_retransmit_scans_(fabric.telemetry().counter(
          ep_metric(layer, rank, "retransmit_scans"))) {
  if (enabled_) {
    const std::size_t n = fabric.num_ranks();
    tx_.reserve(n);
    rx_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      tx_.push_back(std::make_unique<TxState>());
      rx_.push_back(std::make_unique<RxState>());
    }
  }
}

common::Status ReliableEndpoint::send(Rank dst, const void* data,
                                      std::size_t len, std::uint64_t imm) {
  if (!enabled_) return nic_.post_send(dst, data, len, imm);
  assert((imm >> 56) != kReliableAckKind);
  // Refuse a datagram that cannot fit one receive buffer with its trailer,
  // as the NICs' post_send does; the bound is written so no `len` wraps it.
  const std::size_t capacity = nic_.srq_buffer_size();
  if (capacity < kTrailerSize || len > capacity - kTrailerSize) {
    return common::Status::kError;
  }

  std::vector<std::byte> wire(len + kTrailerSize);
  if (len > 0) std::memcpy(wire.data(), data, len);
  TxState& tx = *tx_[dst];
  {
    // The seq is taken under the lock and kept only if the NIC takes the
    // post, so a refused post (kRetry) leaves no gap the receiver would
    // wait on forever.
    std::lock_guard<common::SpinMutex> guard(tx.mutex);
    const std::uint32_t seq = tx.next_seq;
    const std::uint32_t crc = trailer_crc(data, len, seq, imm);
    std::memcpy(wire.data() + len, &seq, sizeof(seq));
    std::memcpy(wire.data() + len + sizeof(seq), &crc, sizeof(crc));
    const common::Status status =
        nic_.post_send(dst, wire.data(), wire.size(), imm);
    if (status != common::Status::kOk) return status;
    ++tx.next_seq;
    Pending& pending = tx.pending[seq];
    pending.imm = imm;
    pending.wire = std::move(wire);
    pending.post_tick = tick_.load(std::memory_order_relaxed);
    pending.post_ns = zero_time_ ? 0 : common::now_ns();
  }
  ctr_data_sent_.add();
  return common::Status::kOk;
}

void ReliableEndpoint::send_ack(Rank src, std::uint32_t seq) {
  const std::uint64_t imm =
      (static_cast<std::uint64_t>(kReliableAckKind) << 56) | seq;
  // Zero-payload sends consume no SRQ buffer at the peer, so acks still
  // flow while the peer's receive side is RNR-stalled.
  if (nic_.post_send(src, nullptr, 0, imm) == common::Status::kRetry) {
    {
      std::lock_guard<common::SpinMutex> guard(ack_backlog_mutex_);
      ack_backlog_.emplace_back(src, seq);
    }
    ack_backlog_count_.fetch_add(1, std::memory_order_release);
  }
}

bool ReliableEndpoint::on_recv(RxEvent& event) {
  if (event.kind != RxEvent::Kind::kRecv) return true;
  const std::uint8_t kind = static_cast<std::uint8_t>(event.imm >> 56);
  if (kind == kReliableAckKind) {
    const std::uint32_t seq = static_cast<std::uint32_t>(event.imm);
    if (enabled_) {
      TxState& tx = *tx_[event.src];
      std::size_t erased;
      {
        std::lock_guard<common::SpinMutex> guard(tx.mutex);
        erased = tx.pending.erase(seq);
      }
      if (erased > 0) ctr_acked_.add();
    }
    return false;
  }
  if (!enabled_) return true;

  if (event.payload.size() < kTrailerSize) {
    // A truncating corruption of the framing itself; drop like a wire loss.
    ctr_crc_dropped_.add();
    return false;
  }
  const std::size_t body = event.payload.size() - kTrailerSize;
  std::uint32_t seq = 0;
  std::uint32_t crc = 0;
  std::memcpy(&seq, event.payload.data() + body, sizeof(seq));
  std::memcpy(&crc, event.payload.data() + body + sizeof(seq), sizeof(crc));
  if (trailer_crc(event.payload.data(), body, seq, event.imm) != crc) {
    // Corrupt in flight. No ack: the sender times out and retransmits.
    ctr_crc_dropped_.add();
    AMTNET_LOG_DEBUG("reliable: dropped corrupt datagram src=", event.src,
                     " seq=", seq);
    return false;
  }

  bool duplicate = false;
  {
    RxState& rx = *rx_[event.src];
    std::lock_guard<common::SpinMutex> guard(rx.mutex);
    if (seq < rx.base || rx.seen.count(seq) != 0) {
      duplicate = true;
    } else {
      rx.seen.insert(seq);
      while (!rx.seen.empty() && *rx.seen.begin() == rx.base) {
        rx.seen.erase(rx.seen.begin());
        ++rx.base;
      }
    }
  }
  // Ack fresh arrivals AND duplicates — a duplicate usually means our
  // previous ack died on the wire.
  send_ack(event.src, seq);
  if (duplicate) {
    ctr_dup_dropped_.add();
    return false;
  }
  event.payload.resize(body);
  event.size = body;
  return true;
}

std::size_t ReliableEndpoint::pending() const {
  std::size_t n = 0;
  for (const auto& tx : tx_) {
    std::lock_guard<common::SpinMutex> guard(tx->mutex);
    n += tx->pending.size();
  }
  return n;
}

void ReliableEndpoint::progress() {
  if (!enabled_) return;
  const std::uint64_t tick =
      tick_.fetch_add(1, std::memory_order_relaxed) + 1;

  // Flush acks that hit TX back-pressure when first posted; the count keeps
  // the common (empty-backlog) case to one atomic load, no lock.
  if (ack_backlog_count_.load(std::memory_order_acquire) > 0) {
    std::vector<std::pair<Rank, std::uint32_t>> backlog;
    {
      std::lock_guard<common::SpinMutex> guard(ack_backlog_mutex_);
      backlog.swap(ack_backlog_);
    }
    ack_backlog_count_.fetch_sub(backlog.size(), std::memory_order_relaxed);
    for (const auto& [src, seq] : backlog) send_ack(src, seq);
  }

  // Time-gate the retransmit scan: nothing can newly time out within a scan
  // quantum, so at most one caller per quantum walks the TX maps; everyone
  // else returns after the two atomics above.
  std::uint64_t next = next_scan_tick_.load(std::memory_order_relaxed);
  if (tick < next) return;
  if (!next_scan_tick_.compare_exchange_strong(next, tick + kScanQuantum,
                                               std::memory_order_acq_rel)) {
    return;  // a concurrent caller won this quantum's scan
  }
  ctr_retransmit_scans_.add();

  const common::Nanos now = zero_time_ ? 0 : common::now_ns();
  for (std::size_t dst = 0; dst < tx_.size(); ++dst) {
    TxState& tx = *tx_[dst];
    std::lock_guard<common::SpinMutex> guard(tx.mutex);
    for (auto& [seq, p] : tx.pending) {
      if (tick - p.post_tick < rto_ticks(p.attempts)) continue;
      if (!zero_time_ && now - p.post_ns < rto_ns(p.attempts)) continue;
      if (p.attempts >= kMaxAttempts) {
        common::integrity_fail(
            "reliable: retransmit budget exhausted rank=", rank_,
            " dst=", dst, " seq=", seq, " imm_kind=", (p.imm >> 56),
            " size=", p.wire.size(), " attempts=", p.attempts,
            " — link presumed dead (the run's FaultConfig and seed "
            "reproduce it)");
      }
      if (nic_.post_send(static_cast<Rank>(dst), p.wire.data(),
                         p.wire.size(), p.imm) == common::Status::kOk) {
        p.post_tick = tick;
        p.post_ns = now;
        ++p.attempts;
        ctr_retransmits_.add();
      } else {
        // NIC is backed up (TX window / brownout): rearm the clock and stop
        // hammering this destination until the next timeout.
        p.post_tick = tick;
        p.post_ns = now;
        break;
      }
    }
  }
}

}  // namespace fabric
