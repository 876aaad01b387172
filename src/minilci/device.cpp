#include "minilci/device.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <mutex>
#include <string>

#include "common/crc32.hpp"
#include "common/integrity.hpp"
#include "common/logging.hpp"

namespace minilci {

namespace {

// Wire immediate layout: [63:56] kind | [31:0] tag or rendezvous id.
enum class MsgKind : std::uint8_t {
  kMedium = 1,    // payload = user data
  kPut = 2,       // payload = user data -> remote CQ
  kRts = 3,       // payload = RdvHello
  kCts = 4,       // payload = CtsPayload
  kFin = 5,       // RDMA write-with-immediate; arg = receiver rdv id
};

struct RdvHello {
  std::uint64_t size;
  std::uint32_t sender_id;
  // CRC-32 over the full payload that will travel by RDMA write; 0 when
  // integrity mode is off. The receiver verifies it when the FIN lands —
  // the only software detection point the one-sided path has.
  std::uint32_t crc;
};

struct CtsPayload {
  std::uint64_t mr_id;
  std::uint64_t max_len;
  std::uint32_t sender_id;
  std::uint32_t recv_id;
};

std::uint64_t make_imm(MsgKind kind, std::uint32_t arg) {
  return (static_cast<std::uint64_t>(kind) << 56) | arg;
}
MsgKind imm_kind(std::uint64_t imm) { return static_cast<MsgKind>(imm >> 56); }
std::uint32_t imm_arg(std::uint64_t imm) {
  return static_cast<std::uint32_t>(imm);
}

// Decodes a fixed-size control payload from a peer. A short one is a
// protocol violation in every build type, not just under assert.
template <typename T>
T from_bytes(Rank src, const std::byte* data, std::size_t len) {
  if (len < sizeof(T)) {
    common::integrity_fail("minilci: control payload from rank ", src, " is ",
                           len, " bytes, expected ", sizeof(T));
  }
  T value{};
  std::memcpy(&value, data, sizeof(T));
  return value;
}

std::string dev_metric(Rank rank, const char* leaf) {
  return "minilci/dev" + std::to_string(rank) + "/" + leaf;
}

// The local completion record of a send-side post.
CqEntry local_entry(OpKind op, Rank dst, Tag tag, std::size_t size,
                    std::uint64_t user_context) {
  CqEntry entry;
  entry.op = op;
  entry.rank = dst;
  entry.tag = tag;
  entry.size = size;
  entry.user_context = user_context;
  return entry;
}

}  // namespace

static_assert(sizeof(CtsPayload) <= 24 && sizeof(RdvHello) <= 24,
              "control payloads must fit the inline DeferredSend buffer");


Device::Device(fabric::Fabric& fabric, Rank rank, Config config,
               CompQueue* remote_put_cq)
    : fabric_(fabric),
      nic_(fabric.nic(rank)),
      rank_(rank),
      config_(config),
      remote_put_cq_(remote_put_cq),
      rel_(fabric, rank, "lci"),
      integrity_on_(fabric.config().faults.integrity_on()),
      packet_pool_(config.packet_pool_size, config.eager_threshold,
                   kPacketCacheSize),
      deferred_lanes_(fabric.num_ranks()),
      ctr_progress_calls_(
          fabric.telemetry().counter(dev_metric(rank, "progress_calls"))),
      ctr_match_hits_(
          fabric.telemetry().counter(dev_metric(rank, "match_hits"))),
      ctr_match_misses_(
          fabric.telemetry().counter(dev_metric(rank, "match_misses"))),
      ctr_pool_exhausted_(
          fabric.telemetry().counter(dev_metric(rank, "pool_exhausted"))),
      ctr_pool_cache_hits_(
          fabric.telemetry().counter(dev_metric(rank, "pool_cache_hits"))),
      ctr_backlogged_(
          fabric.telemetry().counter(dev_metric(rank, "backlogged"))),
      gauge_backlog_depth_(
          fabric.telemetry().gauge(dev_metric(rank, "backlog_depth"))),
      hist_progress_ns_(
          fabric.telemetry().histogram(dev_metric(rank, "progress_ns"))) {
  // Integrity mode appends an 8-byte trailer to every eager send.
  assert(config_.eager_threshold + (rel_.enabled() ? 8 : 0) <=
         nic_.srq_buffer_size());
  packet_pool_.attach_cache_hit_counter(&ctr_pool_cache_hits_);
}

// ---- two-sided: medium ----------------------------------------------------

common::Status Device::sendm(Rank dst, Tag tag, const void* data,
                             std::size_t len, const Comp& local_comp,
                             std::uint64_t user_context) {
  if (len > config_.eager_threshold) return common::Status::kError;
  post_copy(dst, make_imm(MsgKind::kMedium, tag), data, len, local_comp,
            local_entry(OpKind::kSendMedium, dst, tag, len, user_context));
  return common::Status::kOk;
}

common::Status Device::sendm_packet(Rank dst, Tag tag, PacketBuffer& packet,
                                    const Comp& local_comp,
                                    std::uint64_t user_context) {
  post_packet(
      dst, make_imm(MsgKind::kMedium, tag), packet, local_comp,
      local_entry(OpKind::kSendMedium, dst, tag, packet.size(), user_context));
  return common::Status::kOk;
}

common::Status Device::recvm(Rank src, Tag tag, const Comp& comp,
                             std::uint64_t user_context) {
  PostedRecv recv;
  recv.is_long = false;
  recv.comp = comp;
  recv.user_context = user_context;
  auto arrival = matching_.insert_recv(src, tag, std::move(recv));
  (arrival ? ctr_match_hits_ : ctr_match_misses_).add();
  if (!arrival) return common::Status::kOk;  // recv stored in the table
  if (arrival->is_rts) {
    AMTNET_LOG_ERROR("minilci: recvm matched a long-protocol RTS (src=", src,
                     " tag=", tag, ")");
    return common::Status::kError;
  }
  CqEntry entry;
  entry.op = OpKind::kRecvMedium;
  entry.rank = src;
  entry.tag = tag;
  entry.size = arrival->payload.size();
  entry.data = std::move(arrival->payload);
  entry.user_context = user_context;
  signal_completion(comp, std::move(entry));
  return common::Status::kOk;
}

// ---- two-sided: long (rendezvous) -----------------------------------------

common::Status Device::sendl(Rank dst, Tag tag, const void* data,
                             std::size_t len, const Comp& local_comp,
                             std::uint64_t user_context) {
  RdvSend rdv;
  rdv.data = static_cast<const std::byte*>(data);
  rdv.len = len;
  rdv.comp = local_comp;
  rdv.user_context = user_context;
  rdv.tag = tag;
  rdv.dst = dst;
  const std::uint32_t id = rdv_sends_.insert(std::move(rdv));
  const std::uint32_t crc =
      integrity_on_ ? common::crc32(data, len) : 0;
  const RdvHello hello{len, id, crc};
  send_ctrl(dst, make_imm(MsgKind::kRts, tag), &hello, sizeof(hello));
  return common::Status::kOk;
}

common::Status Device::recvl(Rank src, Tag tag, void* buf, std::size_t maxlen,
                             const Comp& comp, std::uint64_t user_context) {
  PostedRecv recv;
  recv.is_long = true;
  recv.comp = comp;
  recv.buf = buf;
  recv.maxlen = maxlen;
  recv.user_context = user_context;
  auto arrival = matching_.insert_recv(src, tag, std::move(recv));
  (arrival ? ctr_match_hits_ : ctr_match_misses_).add();
  if (!arrival) return common::Status::kOk;  // recv stored in the table
  if (!arrival->is_rts) {
    AMTNET_LOG_ERROR("minilci: recvl matched a medium arrival (src=", src,
                     " tag=", tag, ")");
    return common::Status::kError;
  }
  start_long_recv(src, tag, arrival->rdv_size, arrival->rdv_sender_id,
                  arrival->rdv_crc, std::move(recv));
  return common::Status::kOk;
}

void Device::start_long_recv(Rank src, Tag tag, std::size_t size,
                             std::uint32_t sender_id, std::uint32_t crc,
                             PostedRecv&& recv) {
  const fabric::MrKey mr = nic_.register_memory(recv.buf, recv.maxlen);
  RdvRecv rdv;
  rdv.comp = recv.comp;
  rdv.buf = recv.buf;
  rdv.mr = mr;
  rdv.user_context = recv.user_context;
  rdv.tag = tag;
  rdv.src = src;
  rdv.expected_crc = crc;
  rdv.expected_size = size;
  const std::uint32_t recv_id = rdv_recvs_.insert(std::move(rdv));
  const CtsPayload cts{mr.id, recv.maxlen, sender_id, recv_id};
  send_ctrl(src, make_imm(MsgKind::kCts, 0), &cts, sizeof(cts));
}

void Device::handle_cts(Rank src, const std::byte* payload, std::size_t len) {
  const auto cts = from_bytes<CtsPayload>(src, payload, len);
  std::optional<RdvSend> extracted = rdv_sends_.extract(cts.sender_id);
  if (!extracted) {
    AMTNET_LOG_ERROR("minilci: CTS for unknown rendezvous id ",
                     cts.sender_id);
    return;
  }
  RdvSend& rdv = *extracted;
  const std::size_t to_write =
      std::min<std::size_t>(rdv.len, cts.max_len);
  post_copy(src, make_imm(MsgKind::kFin, cts.recv_id), rdv.data, to_write,
            rdv.comp,
            local_entry(OpKind::kSendLong, rdv.dst, rdv.tag, to_write,
                        rdv.user_context),
            cts.mr_id);
}

void Device::handle_fin(std::uint32_t recv_id, std::size_t written) {
  std::optional<RdvRecv> extracted = rdv_recvs_.extract(recv_id);
  if (!extracted) {
    AMTNET_LOG_ERROR("minilci: FIN for unknown rendezvous id ", recv_id);
    return;
  }
  RdvRecv& rdv = *extracted;
  nic_.deregister_memory(rdv.mr);
  // Integrity mode: the RTS carried the sender's CRC over the full payload;
  // a mismatch here means the RDMA write itself was corrupted — there is no
  // retransmit path for one-sided data, so fail fast with a diagnostic dump.
  if (integrity_on_ && rdv.expected_crc != 0 &&
      written == rdv.expected_size) {
    const std::uint32_t actual = common::crc32(rdv.buf, written);
    if (actual != rdv.expected_crc) {
      common::integrity_fail(
          "minilci: RDMA payload CRC mismatch (zero-copy path) rank=", rank_,
          " src=", rdv.src, " tag=", rdv.tag, " recv_id=", recv_id,
          " size=", written, " expected_crc=", rdv.expected_crc,
          " actual_crc=", actual,
          " — corruption past the rendezvous; no retransmit path exists");
    }
  }
  CqEntry entry;
  entry.op = OpKind::kRecvLong;
  entry.rank = rdv.src;
  entry.tag = rdv.tag;
  entry.user_buf = rdv.buf;
  entry.size = written;
  entry.user_context = rdv.user_context;
  signal_completion(rdv.comp, std::move(entry));
}

// ---- one-sided dynamic put --------------------------------------------------

common::Status Device::put_dyn_packet(Rank dst, Tag tag, PacketBuffer& packet,
                                      const Comp& local_comp,
                                      std::uint64_t user_context) {
  post_packet(
      dst, make_imm(MsgKind::kPut, tag), packet, local_comp,
      local_entry(OpKind::kPutDyn, dst, tag, packet.size(), user_context));
  return common::Status::kOk;
}

void Device::handle_put(Rank src, Tag tag, std::vector<std::byte>&& data) {
  if (deliver_to_handler(src, tag, OpKind::kRemotePut, std::move(data))) {
    return;
  }
  assert(remote_put_cq_ != nullptr);
  CqEntry entry;
  entry.op = OpKind::kRemotePut;
  entry.rank = src;
  entry.tag = tag;
  entry.size = data.size();
  entry.data = std::move(data);
  remote_put_cq_->push(std::move(entry));
}

// ---- progress engine ---------------------------------------------------------

common::Status Device::inject(Rank dst, std::uint64_t imm, const void* data,
                              std::size_t len,
                              std::optional<std::uint64_t> write_mr) {
  if (write_mr) {
    return nic_.post_write_imm(dst, fabric::MrKey{dst, *write_mr}, 0, data,
                               len, imm);
  }
  return rel_.send(dst, data, len, imm);
}

void Device::post_copy(Rank dst, std::uint64_t imm, const void* data,
                       std::size_t len, const Comp& comp, CqEntry&& entry,
                       std::optional<std::uint64_t> write_mr) {
  if (backlog_clear(dst) &&
      inject(dst, imm, data, len, write_mr) == common::Status::kOk) {
    signal_completion(comp, std::move(entry));
    return;
  }
  // The fabric copies at post time, so a copy posted later has identical
  // semantics.
  DeferredSend parked;
  parked.dst = dst;
  parked.imm = imm;
  const auto* bytes = static_cast<const std::byte*>(data);
  if (len <= kMaxCtrlPayload) {
    if (len > 0) std::memcpy(parked.ctrl.data(), bytes, len);
    parked.ctrl_len = len;
  } else {
    parked.payload.assign(bytes, bytes + len);
  }
  parked.write_mr = write_mr;
  parked.comp = comp;
  parked.entry = std::move(entry);
  park(std::move(parked));
}

void Device::post_packet(Rank dst, std::uint64_t imm, PacketBuffer& packet,
                         const Comp& comp, CqEntry&& entry) {
  assert(packet.valid() && packet.size() <= config_.eager_threshold);
  if (backlog_clear(dst) &&
      rel_.send(dst, packet.data(), packet.size(), imm) ==
          common::Status::kOk) {
    packet.release();  // fabric copied; recycle the pool buffer
    signal_completion(comp, std::move(entry));
    return;
  }
  DeferredSend parked;
  parked.dst = dst;
  parked.imm = imm;
  parked.packet = std::move(packet);
  parked.comp = comp;
  parked.entry = std::move(entry);
  park(std::move(parked));
}

void Device::park(DeferredSend&& parked) {
  // Count before publishing: a post or a drain that observes the element
  // must also observe nonzero counts.
  DeferredLane& lane = deferred_lanes_[parked.dst].value;
  lane.depth.fetch_add(1, std::memory_order_release);
  deferred_count_.fetch_add(1, std::memory_order_release);
  ctr_backlogged_.add();
  gauge_backlog_depth_.add();
  lane.queue.push(std::move(parked));
}

bool Device::backlog_clear(Rank dst) {
  DeferredLane& lane = deferred_lanes_[dst].value;
  if (lane.depth.load(std::memory_order_acquire) == 0) return true;
  drain_lane(lane);
  return lane.depth.load(std::memory_order_acquire) == 0;
}

void Device::drain_lane(DeferredLane& lane) {
  if (!lane.consumer.try_lock()) return;  // another thread drains it
  // Posts at most what was parked on entry. Producers may keep appending,
  // and a drain that chased them would starve its caller: a poster helping
  // here holds its own post, already stamped by the parcelport, back.
  for (std::size_t budget = lane.depth.load(std::memory_order_acquire);
       budget > 0; --budget) {
    if (!lane.head && !(lane.head = lane.queue.try_pop())) break;
    DeferredSend& msg = *lane.head;
    // Still refused: it stays at the head, so per-destination FIFO order
    // survives, and this destination is left alone until next time.
    if (inject(msg.dst, msg.imm, msg.data(), msg.size(), msg.write_mr) !=
        common::Status::kOk) {
      break;
    }
    msg.packet.release();
    lane.depth.fetch_sub(1, std::memory_order_release);
    deferred_count_.fetch_sub(1, std::memory_order_relaxed);
    gauge_backlog_depth_.sub();
    signal_completion(msg.comp, std::move(msg.entry));
    lane.head.reset();
  }
  lane.consumer.unlock();
}

void Device::drain_backlog() {
  if (deferred_count_.load(std::memory_order_acquire) == 0) return;
  for (auto& padded : deferred_lanes_) drain_lane(padded.value);
}

std::size_t Device::progress() {
  ctr_progress_calls_.add();
  telemetry::ScopedTimer timer(hist_progress_ns_);
  drain_backlog();
  rel_.progress();
  return nic_.poll_rx(config_.progress_batch, [this](fabric::RxEvent&& event) {
    // The reliable sublayer strips its trailer, dedups, and swallows acks;
    // only fresh verified datagrams reach the protocol handlers.
    if (!rel_.on_recv(event)) return;
    handle_event(std::move(event));
  });
}

bool Device::deliver_to_handler(Rank src, Tag tag, OpKind op,
                                std::vector<std::byte>&& data) {
  if (!handler_armed_ || tag != handler_tag_) return false;
  CqEntry entry;
  entry.op = op;
  entry.rank = src;
  entry.tag = tag;
  entry.size = data.size();
  entry.data = std::move(data);
  signal_completion(handler_comp_, std::move(entry));
  return true;
}

void Device::handle_medium_arrival(Rank src, Tag tag,
                                   std::vector<std::byte>&& data) {
  // Active-message fast path: the registered tag handler fires straight
  // from progress context, skipping the matching table.
  if (handler_armed_ && tag == handler_tag_) {
    deliver_to_handler(src, tag, OpKind::kRecvMedium, std::move(data));
    return;
  }
  const std::size_t len = data.size();
  Arrival arrival;
  arrival.is_rts = false;
  arrival.src = src;
  arrival.tag = tag;
  arrival.payload = std::move(data);
  auto posted = matching_.insert_arrival(src, tag, std::move(arrival));
  (posted ? ctr_match_hits_ : ctr_match_misses_).add();
  if (!posted) return;  // stored as unexpected (payload moved into table)
  if (posted->is_long) {
    AMTNET_LOG_ERROR("minilci: medium arrival matched recvl (src=", src,
                     " tag=", tag, ")");
    return;
  }
  // Matched: insert_arrival left `arrival` intact, so the payload moves
  // straight into the completion entry — no copy on the fast path.
  CqEntry entry;
  entry.op = OpKind::kRecvMedium;
  entry.rank = src;
  entry.tag = tag;
  entry.size = len;
  entry.data = std::move(arrival.payload);
  entry.user_context = posted->user_context;
  signal_completion(posted->comp, std::move(entry));
}

void Device::handle_rts(Rank src, Tag tag, std::size_t size,
                        std::uint32_t sender_id, std::uint32_t crc) {
  Arrival arrival;
  arrival.is_rts = true;
  arrival.src = src;
  arrival.tag = tag;
  arrival.rdv_size = size;
  arrival.rdv_sender_id = sender_id;
  arrival.rdv_crc = crc;
  auto posted = matching_.insert_arrival(src, tag, std::move(arrival));
  (posted ? ctr_match_hits_ : ctr_match_misses_).add();
  if (!posted) return;
  if (!posted->is_long) {
    AMTNET_LOG_ERROR("minilci: RTS matched recvm (src=", src, " tag=", tag,
                     ")");
    return;
  }
  start_long_recv(src, tag, size, sender_id, crc, std::move(*posted));
}

void Device::handle_event(fabric::RxEvent&& event) {
  const MsgKind kind = imm_kind(event.imm);
  if (event.kind == fabric::RxEvent::Kind::kWriteImm) {
    if (kind == MsgKind::kFin) {
      handle_fin(imm_arg(event.imm), event.size);
    } else {
      AMTNET_LOG_ERROR("minilci: unexpected write-imm kind ",
                       static_cast<int>(kind));
    }
    return;
  }

  const std::byte* data = event.payload.data();
  switch (kind) {
    case MsgKind::kMedium:
      handle_medium_arrival(event.src, imm_arg(event.imm),
                            std::move(event.payload));
      break;
    case MsgKind::kPut:
      handle_put(event.src, imm_arg(event.imm),
                       std::move(event.payload));
      break;
    case MsgKind::kRts: {
      const auto hello = from_bytes<RdvHello>(event.src, data, event.size);
      handle_rts(event.src, imm_arg(event.imm), hello.size, hello.sender_id,
                 hello.crc);
      break;
    }
    case MsgKind::kCts:
      handle_cts(event.src, data, event.size);
      break;
    default:
      AMTNET_LOG_ERROR("minilci: unexpected message kind ",
                       static_cast<int>(kind));
  }
}

}  // namespace minilci
