#include "minimpi/minimpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/integrity.hpp"
#include "common/logging.hpp"

namespace minimpi {

namespace {

// Wire immediate layout: [63:56] kind | [55:32] tag (24 bits) | [31:0] arg.
// arg carries the sequence number (sequenced kinds) or a rendezvous id.
enum class MsgKind : std::uint8_t {
  kEager = 1,  // sequenced; payload = user data
  kRts = 2,    // sequenced; payload = RtsPayload
  kCts = 3,    // unsequenced; payload = CtsPayload
  kFin = 4,    // RDMA write-with-immediate; arg = receiver rendezvous id
};

struct RtsPayload {
  std::uint64_t size;
  std::uint32_t sender_id;
  // CRC-32 over the payload that will travel by RDMA write; 0 when integrity
  // mode is off. Verified by the receiver when the FIN lands.
  std::uint32_t crc;
};

struct CtsPayload {
  std::uint64_t mr_id;
  std::uint64_t max_len;
  std::uint32_t sender_id;
  std::uint32_t recv_id;
};

/// Reads a fixed-size control payload out of a peer datagram. A short one
/// is a protocol violation, not a truncated read: fail fast in every build.
template <typename T>
T from_bytes(const fabric::RxEvent& event) {
  if (event.size < sizeof(T)) {
    common::integrity_fail("minimpi: control payload from rank ", event.src,
                           " is ", event.size, " bytes, expected ", sizeof(T));
  }
  T value{};
  std::memcpy(&value, event.payload.data(), sizeof(T));
  return value;
}

std::uint64_t make_imm(MsgKind kind, Tag tag, std::uint32_t arg) {
  return (static_cast<std::uint64_t>(kind) << 56) |
         (static_cast<std::uint64_t>(tag & (kTagUpperBound - 1)) << 32) |
         arg;
}

MsgKind imm_kind(std::uint64_t imm) {
  return static_cast<MsgKind>(imm >> 56);
}
Tag imm_tag(std::uint64_t imm) {
  return static_cast<Tag>((imm >> 32) & (kTagUpperBound - 1));
}
std::uint32_t imm_arg(std::uint64_t imm) {
  return static_cast<std::uint32_t>(imm);
}

/// RAII guard that takes the coarse blocking lock only in coarse mode,
/// recording how long a sampled acquisition stalled — the paper's §4b
/// "threads convoy on the ucp_progress lock" effect, made directly
/// measurable.
class MaybeBigLock {
 public:
  MaybeBigLock(common::UcxStyleSpinMutex& mutex, LockMode mode,
               telemetry::Histogram& wait_hist) {
    if (mode == LockMode::kCoarseBlocking) {
      telemetry::ScopedTimer timer(wait_hist);
      guard_ = std::unique_lock(mutex);
    }
  }

 private:
  std::unique_lock<common::UcxStyleSpinMutex> guard_;
};

std::string comm_metric(Rank rank, const char* leaf) {
  return "minimpi/comm" + std::to_string(rank) + "/" + leaf;
}

}  // namespace

Comm::Comm(fabric::Fabric& fabric, Rank rank, Config config)
    : fabric_(fabric),
      nic_(fabric.nic(rank)),
      rank_(rank),
      config_(config),
      rel_(fabric, rank, "mpi"),
      integrity_on_(fabric.config().faults.integrity_on()),
      reorder_(fabric.num_ranks()),
      tx_seq_(fabric.num_ranks()),
      ctr_completed_(
          fabric.telemetry().counter(comm_metric(rank, "completed_ops"))),
      ctr_unexpected_(
          fabric.telemetry().counter(comm_metric(rank, "unexpected_msgs"))),
      hist_lock_wait_ns_(fabric.telemetry().histogram(
          comm_metric(rank, "progress_lock_wait_ns"))) {
  // Integrity mode appends an 8-byte trailer to every eager send.
  assert(config_.eager_threshold + (rel_.enabled() ? 8 : 0) <=
         nic_.srq_buffer_size());
}

void Comm::mark_done(const std::shared_ptr<detail::ReqState>& req) {
  req->done.store(true, std::memory_order_release);
  ctr_completed_.add();
}

Request Comm::isend(const void* buf, std::size_t len, Rank dst, Tag tag) {
  assert(tag >= 0 && tag < kTagUpperBound);
  MaybeBigLock big(big_lock_, config_.lock_mode, hist_lock_wait_ns_);

  auto req = std::make_shared<detail::ReqState>();
  const std::uint32_t seq =
      tx_seq_[dst].value.fetch_add(1, std::memory_order_relaxed);

  if (len <= config_.eager_threshold) {
    const std::uint64_t imm = make_imm(MsgKind::kEager, tag, seq);
    if (rel_.send(dst, buf, len, imm) == common::Status::kOk) {
      mark_done(req);
    } else {
      // TX window full: buffer the eager payload and retry from progress.
      std::vector<std::byte> copy(static_cast<const std::byte*>(buf),
                                  static_cast<const std::byte*>(buf) + len);
      send_ctrl(dst, imm, std::move(copy), req);
    }
  } else {
    std::uint32_t id;
    {
      std::lock_guard<common::SpinMutex> guard(rdv_mutex_);
      id = next_rdv_id_++;
      rdv_sends_[id] =
          RdvSend{static_cast<const std::byte*>(buf), len, req};
    }
    const std::uint32_t crc =
        integrity_on_ ? common::crc32(buf, len) : 0;
    RtsPayload rts{len, id, crc};
    std::vector<std::byte> payload(sizeof(rts));
    std::memcpy(payload.data(), &rts, sizeof(rts));
    send_ctrl(dst, make_imm(MsgKind::kRts, tag, seq), std::move(payload));
  }
  // Real MPI implementations opportunistically progress inside Isend — under
  // the same coarse lock, which is part of the contention the paper blames.
  progress_locked();
  return Request(req);
}

Request Comm::irecv(void* buf, std::size_t maxlen, int src, Tag tag) {
  assert(tag >= 0 && tag < kTagUpperBound);
  MaybeBigLock big(big_lock_, config_.lock_mode, hist_lock_wait_ns_);

  auto req = std::make_shared<detail::ReqState>();
  req->is_recv = true;
  req->buf = static_cast<std::byte*>(buf);
  req->maxlen = maxlen;
  req->want_src = src;
  req->want_tag = tag;

  std::lock_guard<common::SpinMutex> guard(match_mutex_);
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if ((src == kAnySource || static_cast<Rank>(src) == it->src) &&
        tag == it->tag) {
      UnexpectedMsg msg = std::move(*it);
      unexpected_.erase(it);
      if (msg.is_rts) {
        start_recv_rendezvous(req, msg.src, msg.tag, msg.rdv_size,
                              msg.rdv_sender_id, msg.rdv_crc);
      } else {
        complete_recv_eager(req, msg.src, msg.tag, msg.payload.data(),
                            msg.payload.size());
      }
      return Request(req);
    }
  }
  posted_recvs_.push_back(req);
  return Request(req);
}

bool Comm::test(Request& request) {
  assert(request.valid());
  if (request.done()) return true;
  MaybeBigLock big(big_lock_, config_.lock_mode, hist_lock_wait_ns_);
  progress_locked();
  return request.done();
}

void Comm::progress() {
  MaybeBigLock big(big_lock_, config_.lock_mode, hist_lock_wait_ns_);
  progress_locked();
}

void Comm::progress_locked() {
  // In fine-grained mode concurrent progress calls skip instead of queueing;
  // in coarse mode the big lock has already serialised us.
  if (config_.lock_mode == LockMode::kFineGrained) {
    if (!progress_mutex_.try_lock()) return;
  }
  retry_deferred();
  rel_.progress();
  constexpr std::size_t kBatch = 64;
  nic_.poll_rx(kBatch, [this](fabric::RxEvent&& event) {
    // The reliable sublayer strips its trailer, dedups, and swallows acks;
    // only fresh verified datagrams reach the protocol handlers.
    if (!rel_.on_recv(event)) return;
    handle_event(std::move(event));
  });
  if (config_.lock_mode == LockMode::kFineGrained) {
    progress_mutex_.unlock();
  }
}

void Comm::send_ctrl(Rank dst, std::uint64_t imm,
                     std::vector<std::byte> payload,
                     std::shared_ptr<detail::ReqState> complete_on_send) {
  if (rel_.send(dst, payload.data(), payload.size(), imm) ==
      common::Status::kOk) {
    if (complete_on_send) mark_done(complete_on_send);
    return;
  }
  std::lock_guard<common::SpinMutex> guard(deferred_mutex_);
  deferred_.push_back(DeferredCtrl{dst, imm, std::move(payload),
                                   std::move(complete_on_send)});
}

void Comm::retry_deferred() {
  // Retry queued control/eager messages per destination. Sequencing only
  // has to hold within one directed channel, so a rejection (TX window full
  // towards one backed-up peer) blocks further retries to THAT destination
  // only — it must not head-of-line-stall deferred traffic to everyone
  // else, which the old stop-at-first-rejection loop did.
  std::deque<DeferredCtrl> work;
  {
    std::lock_guard<common::SpinMutex> guard(deferred_mutex_);
    if (deferred_.empty()) return;
    work.swap(deferred_);
  }
  std::vector<bool> blocked(fabric_.num_ranks(), false);
  std::deque<DeferredCtrl> kept;
  for (DeferredCtrl& msg : work) {
    if (blocked[msg.dst]) {
      kept.push_back(std::move(msg));
      continue;
    }
    common::Status status;
    if (msg.is_write) {
      status = nic_.post_write_imm(msg.dst,
                                   fabric::MrKey{msg.dst, msg.write_mr_id}, 0,
                                   msg.payload.data(), msg.payload.size(),
                                   msg.imm);
    } else {
      status = rel_.send(msg.dst, msg.payload.data(), msg.payload.size(),
                         msg.imm);
    }
    if (status != common::Status::kOk) {
      blocked[msg.dst] = true;
      kept.push_back(std::move(msg));
      continue;
    }
    if (msg.complete_on_send) mark_done(msg.complete_on_send);
  }
  if (!kept.empty()) {
    // Anything enqueued while we worked is younger than every kept entry;
    // re-inserting at the front preserves per-channel FIFO order.
    std::lock_guard<common::SpinMutex> guard(deferred_mutex_);
    deferred_.insert(deferred_.begin(),
                     std::make_move_iterator(kept.begin()),
                     std::make_move_iterator(kept.end()));
  }
}

void Comm::handle_event(fabric::RxEvent&& event) {
  const MsgKind kind = imm_kind(event.imm);

  if (event.kind == fabric::RxEvent::Kind::kWriteImm) {
    assert(kind == MsgKind::kFin);
    const std::uint32_t recv_id = imm_arg(event.imm);
    std::shared_ptr<detail::ReqState> req;
    fabric::MrKey mr;
    std::size_t rdv_size = 0;
    std::uint32_t expected_crc = 0;
    {
      std::lock_guard<common::SpinMutex> guard(rdv_mutex_);
      auto it = rdv_recvs_.find(recv_id);
      if (it == rdv_recvs_.end()) {
        AMTNET_LOG_ERROR("minimpi: FIN for unknown rendezvous id ", recv_id);
        return;
      }
      req = it->second.req;
      mr = it->second.mr;
      rdv_size = it->second.size;
      expected_crc = it->second.expected_crc;
      rdv_recvs_.erase(it);
    }
    nic_.deregister_memory(mr);
    // Integrity mode: verify the sender's CRC from the RTS against the bytes
    // the RDMA write actually landed. One-sided data has no retransmit path,
    // so a mismatch fail-fasts with a diagnostic dump. Skipped when the
    // receive buffer truncated the message (sizes differ by design then).
    if (integrity_on_ && expected_crc != 0 && event.size == rdv_size) {
      const std::uint32_t actual = common::crc32(req->buf, event.size);
      if (actual != expected_crc) {
        common::integrity_fail(
            "minimpi: RDMA payload CRC mismatch rank=", rank_,
            " src=", event.src, " recv_id=", recv_id, " size=", event.size,
            " expected_crc=", expected_crc, " actual_crc=", actual,
            " — corruption past the rendezvous; no retransmit path exists");
      }
    }
    req->size = event.size;
    mark_done(req);
    return;
  }

  switch (kind) {
    case MsgKind::kEager:
    case MsgKind::kRts: {
      StashedMsg msg;
      msg.tag = imm_tag(event.imm);
      msg.is_rts = (kind == MsgKind::kRts);
      if (msg.is_rts) {
        const auto rts = from_bytes<RtsPayload>(event);
        msg.rdv_size = rts.size;
        msg.rdv_sender_id = rts.sender_id;
        msg.rdv_crc = rts.crc;
      } else if (event.size > 0) {
        msg.payload = std::move(event.payload);
      }
      const std::uint32_t seq = imm_arg(event.imm);
      std::lock_guard<common::SpinMutex> guard(match_mutex_);
      ReorderState& reorder = reorder_[event.src];
      if (seq == reorder.next_seq) {
        match_or_stash_unexpected(event.src, std::move(msg));
        ++reorder.next_seq;
        while (!reorder.stash.empty() &&
               reorder.stash.begin()->first == reorder.next_seq) {
          match_or_stash_unexpected(event.src,
                                    std::move(reorder.stash.begin()->second));
          reorder.stash.erase(reorder.stash.begin());
          ++reorder.next_seq;
        }
      } else {
        reorder.stash.emplace(seq, std::move(msg));
      }
      break;
    }
    case MsgKind::kCts: {
      const auto cts = from_bytes<CtsPayload>(event);
      std::shared_ptr<detail::ReqState> req;
      const std::byte* data = nullptr;
      std::size_t len = 0;
      {
        std::lock_guard<common::SpinMutex> guard(rdv_mutex_);
        auto it = rdv_sends_.find(cts.sender_id);
        if (it == rdv_sends_.end()) {
          AMTNET_LOG_ERROR("minimpi: CTS for unknown rendezvous id ",
                           cts.sender_id);
          return;
        }
        req = it->second.req;
        data = it->second.data;
        len = std::min<std::size_t>(it->second.len, cts.max_len);
        rdv_sends_.erase(it);
      }
      const fabric::MrKey rkey{event.src, cts.mr_id};
      // The fabric copies the payload synchronously, so a kRetry can simply
      // be retried from the deferred queue without keeping rdv state alive.
      if (nic_.post_write_imm(event.src, rkey, 0, data, len,
                              make_imm(MsgKind::kFin, 0, cts.recv_id)) ==
          common::Status::kOk) {
        mark_done(req);
      } else {
        // Rare: TX window full at CTS time. Fall back to buffering the data
        // as a deferred write by re-posting from progress.
        std::vector<std::byte> copy(data, data + len);
        std::lock_guard<common::SpinMutex> guard(deferred_mutex_);
        DeferredCtrl ctrl;
        ctrl.dst = event.src;
        ctrl.imm = make_imm(MsgKind::kFin, 0, cts.recv_id);
        ctrl.payload = std::move(copy);
        ctrl.complete_on_send = req;
        ctrl.write_mr_id = cts.mr_id;
        ctrl.is_write = true;
        deferred_.push_back(std::move(ctrl));
      }
      break;
    }
    default:
      AMTNET_LOG_ERROR("minimpi: unexpected message kind ",
                       static_cast<int>(kind));
  }
}

void Comm::match_or_stash_unexpected(Rank src, StashedMsg&& msg) {
  // Called with match_mutex_ held; delivers the message to the first
  // matching posted receive (MPI's non-overtaking rule) or stores it on the
  // unexpected list in arrival order.
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    const auto& req = *it;
    if ((req->want_src == kAnySource ||
         static_cast<Rank>(req->want_src) == src) &&
        req->want_tag == msg.tag) {
      auto matched = req;
      posted_recvs_.erase(it);
      if (msg.is_rts) {
        start_recv_rendezvous(matched, src, msg.tag, msg.rdv_size,
                              msg.rdv_sender_id, msg.rdv_crc);
      } else {
        complete_recv_eager(matched, src, msg.tag, msg.payload.data(),
                            msg.payload.size());
      }
      return;
    }
  }
  UnexpectedMsg unexpected;
  unexpected.src = src;
  unexpected.tag = msg.tag;
  unexpected.is_rts = msg.is_rts;
  unexpected.payload = std::move(msg.payload);
  unexpected.rdv_size = msg.rdv_size;
  unexpected.rdv_sender_id = msg.rdv_sender_id;
  unexpected.rdv_crc = msg.rdv_crc;
  unexpected_.push_back(std::move(unexpected));
  ctr_unexpected_.add();
}

void Comm::complete_recv_eager(const std::shared_ptr<detail::ReqState>& req,
                               Rank src, Tag tag, const std::byte* data,
                               std::size_t len) {
  if (len > req->maxlen) {
    AMTNET_LOG_WARN("minimpi: truncating ", len, "-byte message to ",
                    req->maxlen);
    len = req->maxlen;
  }
  if (len > 0) std::memcpy(req->buf, data, len);
  req->src = static_cast<int>(src);
  req->tag = tag;
  req->size = len;
  mark_done(req);
}

void Comm::start_recv_rendezvous(
    const std::shared_ptr<detail::ReqState>& req, Rank src, Tag tag,
    std::size_t size, std::uint32_t sender_id, std::uint32_t crc) {
  req->src = static_cast<int>(src);
  req->tag = tag;
  const fabric::MrKey mr = nic_.register_memory(req->buf, req->maxlen);
  std::uint32_t recv_id;
  {
    std::lock_guard<common::SpinMutex> guard(rdv_mutex_);
    recv_id = next_rdv_id_++;
    rdv_recvs_[recv_id] = RdvRecv{req, mr, size, crc};
  }
  CtsPayload cts{mr.id, req->maxlen, sender_id, recv_id};
  std::vector<std::byte> payload(sizeof(cts));
  std::memcpy(payload.data(), &cts, sizeof(cts));
  send_ctrl(src, make_imm(MsgKind::kCts, 0, sender_id), std::move(payload));
}

}  // namespace minimpi
