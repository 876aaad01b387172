// minilci::Device — one communication device per locality (the paper notes
// the current LCI parcelport uses exactly one device per process; replicating
// devices is its future work). Owns the fabric NIC binding, the packet pool,
// the matching table, and the rendezvous state; exposes the communication
// primitives and the explicit, thread-safe progress() function.
//
// Every send-side post (the send/put primitives and the device's own control
// messages and RDMA writes) goes through one backlog per destination, LCI's
// LCIS_post_sends_bq: it reaches the NIC at once only while that backlog is
// empty; otherwise, or when the NIC or the Reliable layer refuses it, it is
// parked and still returns kOk. progress(), and the next post to that
// destination, drain each backlog in FIFO order; a parked post's local
// completion fires when it reaches the NIC. No primitive returns kRetry.
//
// The primitives are the ones the LCI parcelport posts (paper §3.2): medium
// send/recv, long send/recv whose payload moves by one RDMA write with
// immediate, and the eager dynamic put of a pool packet. Control payloads
// (RTS, CTS) from peers are length-checked in every build type.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "common/status.hpp"
#include "fabric/nic.hpp"
#include "fabric/reliable.hpp"
#include "minilci/completion.hpp"
#include "minilci/matching_table.hpp"
#include "minilci/packet_pool.hpp"
#include "minilci/rdv_table.hpp"
#include "minilci/types.hpp"
#include "queues/mpsc_queue.hpp"

namespace minilci {

class Device {
 public:
  /// `remote_put_cq` is the pre-configured completion queue that receives
  /// the remote side of dynamic puts (the only remote completion mechanism
  /// the current LCI put supports — paper §3.2.2).
  Device(fabric::Fabric& fabric, Rank rank, Config config,
         CompQueue* remote_put_cq);
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  Rank rank() const { return rank_; }
  Rank world_size() const { return fabric_.num_ranks(); }
  const Config& config() const { return config_; }
  CompQueue* remote_put_cq() const { return remote_put_cq_; }

  // ---- buffer management -------------------------------------------------

  /// Grabs a send packet for in-place assembly; nullopt == pool exhausted.
  std::optional<PacketBuffer> try_alloc_packet() {
    auto packet = packet_pool_.try_alloc();
    if (!packet) ctr_pool_exhausted_.add();
    return packet;
  }

  std::size_t max_medium_size() const { return config_.eager_threshold; }

  // ---- two-sided ----------------------------------------------------------

  /// Medium (eager) send; len <= eager_threshold. Copies before returning.
  common::Status sendm(Rank dst, Tag tag, const void* data, std::size_t len,
                       const Comp& local_comp, std::uint64_t user_context = 0);

  /// Medium send from a pool packet assembled in place (no user-side copy).
  /// Always consumes the packet: a parked post keeps it until injection, so
  /// the packet pool bounds the backlog.
  common::Status sendm_packet(Rank dst, Tag tag, PacketBuffer& packet,
                              const Comp& local_comp,
                              std::uint64_t user_context = 0);

  /// Posts a matching receive for a medium message; the payload is delivered
  /// as an owned buffer in the CqEntry.
  common::Status recvm(Rank src, Tag tag, const Comp& comp,
                       std::uint64_t user_context = 0);

  /// Long (rendezvous) send; `data` must stay valid until local completion.
  common::Status sendl(Rank dst, Tag tag, const void* data, std::size_t len,
                       const Comp& local_comp, std::uint64_t user_context = 0);

  /// Posts a long receive into `buf` (capacity maxlen).
  common::Status recvl(Rank src, Tag tag, void* buf, std::size_t maxlen,
                       const Comp& comp, std::uint64_t user_context = 0);

  // ---- one-sided dynamic put ----------------------------------------------

  /// Dynamic put from a pool packet assembled in place (the parcelport's
  /// header message): the target buffer is allocated on arrival and a
  /// kRemotePut entry lands in the *target's* remote_put_cq (or its tag
  /// handler). Local completion is kPutDyn. Always consumes the packet.
  common::Status put_dyn_packet(Rank dst, Tag tag, PacketBuffer& packet,
                                const Comp& local_comp,
                                std::uint64_t user_context = 0);

  // ---- active-message tag handler ------------------------------------------

  /// Arms a handler completion for one reserved tag (kFastpathTag): mediums
  /// and dynamic puts arriving with that tag skip the matching table and the
  /// remote-put queue entirely and `comp` (normally Comp::handler) fires
  /// straight from progress context with the owned payload. Call once,
  /// before any progress thread runs — there is deliberately no
  /// synchronisation on the slot.
  void register_tag_handler(Tag tag, const Comp& comp) {
    handler_tag_ = tag;
    handler_comp_ = comp;
    handler_armed_ = true;
  }

  // ---- progress -----------------------------------------------------------

  /// Drives the communication engine: drains the backlogs and the NIC,
  /// matches messages, and fires completions. Thread-safe; concurrent
  /// callers cooperate through try-locks. Returns packets processed.
  std::size_t progress();

  /// Racy idle hint for schedulers: nothing to receive and no parked post.
  bool looks_idle() const {
    return deferred_count_.load(std::memory_order_relaxed) == 0 &&
           !nic_.rx_looks_nonempty();
  }

  fabric::Nic& nic() { return nic_; }

 private:
  struct RdvSend {  // two-sided long send awaiting CTS
    const std::byte* data = nullptr;
    std::size_t len = 0;
    Comp comp;
    std::uint64_t user_context = 0;
    Tag tag = 0;
    Rank dst = 0;
  };

  struct RdvRecv {  // two-sided long recv awaiting the RDMA write
    Comp comp;
    void* buf = nullptr;
    fabric::MrKey mr;
    std::uint64_t user_context = 0;
    Tag tag = 0;
    Rank src = 0;
    // Integrity mode: the sender's CRC over the full payload (from the RTS)
    // and its size, verified once the RDMA write lands (see handle_fin).
    std::uint32_t expected_crc = 0;
    std::size_t expected_size = 0;
  };

  // Largest control-message payload (CtsPayload); a parked copy this small
  // is buffered inline instead of in a heap vector.
  static constexpr std::size_t kMaxCtrlPayload = 24;

  struct DeferredSend {  // a post parked in its destination's backlog
    Rank dst = 0;
    std::uint64_t imm = 0;
    // The bytes to post: the caller's pool packet (a *_packet post, parked
    // without a copy), else a copy, inline when it fits `ctrl`.
    PacketBuffer packet;
    std::array<std::byte, kMaxCtrlPayload> ctrl{};
    std::size_t ctrl_len = 0;
    std::vector<std::byte> payload;
    std::optional<std::uint64_t> write_mr;  // see inject()
    // Local completion, fired once the post actually reaches the NIC.
    Comp comp;
    CqEntry entry;

    const std::byte* data() const {
      if (packet.valid()) return packet.data();
      return payload.empty() ? ctrl.data() : payload.data();
    }
    std::size_t size() const {
      if (packet.valid()) return packet.size();
      return payload.empty() ? ctrl_len : payload.size();
    }
  };

  void handle_event(fabric::RxEvent&& event);
  void handle_medium_arrival(Rank src, Tag tag,
                             std::vector<std::byte>&& data);
  void handle_rts(Rank src, Tag tag, std::size_t size,
                  std::uint32_t sender_id, std::uint32_t crc);
  void start_long_recv(Rank src, Tag tag, std::size_t size,
                       std::uint32_t sender_id, std::uint32_t crc,
                       PostedRecv&& recv);
  void handle_cts(Rank src, const std::byte* payload, std::size_t len);
  void handle_fin(std::uint32_t recv_id, std::size_t written);
  void handle_put(Rank src, Tag tag, std::vector<std::byte>&& data);
  /// Posts a small fixed-size control message (RTS/CTS family) from the
  /// caller's stack; a parked one is copied into the inline buffer.
  void send_ctrl(Rank dst, std::uint64_t imm, const void* payload,
                 std::size_t len) {
    post_copy(dst, imm, payload, len, Comp::none(), CqEntry{});
  }

  // ---- the backlog (see the file comment) ----
  struct DeferredLane;
  /// True when dst's backlog is empty, after helping to drain it: a post
  /// that finds a backlog first moves what it can onto the NIC, so under a
  /// flood the posting threads inject it, not progress alone.
  bool backlog_clear(Rank dst);
  /// One NIC post: an RDMA write into the peer's region `write_mr` when
  /// given, else a two-sided send.
  common::Status inject(Rank dst, std::uint64_t imm, const void* data,
                        std::size_t len, std::optional<std::uint64_t> write_mr);
  /// Posts the caller's bytes through the backlog; a parked post copies.
  void post_copy(Rank dst, std::uint64_t imm, const void* data,
                 std::size_t len, const Comp& comp, CqEntry&& entry,
                 std::optional<std::uint64_t> write_mr = std::nullopt);
  /// Two-sided post of a pool packet; consumes it either way.
  void post_packet(Rank dst, std::uint64_t imm, PacketBuffer& packet,
                   const Comp& comp, CqEntry&& entry);
  void park(DeferredSend&& parked);
  /// Posts a lane's parked posts in order until the NIC refuses one; skips
  /// a lane another thread is draining.
  void drain_lane(DeferredLane& lane);
  void drain_backlog();

  fabric::Fabric& fabric_;
  fabric::Nic& nic_;
  const Rank rank_;
  const Config config_;
  CompQueue* const remote_put_cq_;
  // Retransmit/dedup/CRC sublayer for every two-sided send (eager payloads
  // AND the RTS/CTS control plane); a passthrough when the fabric's fault
  // config is clean. One-sided RDMA integrity is handled end-to-end instead:
  // the RTS carries the payload CRC, verified when the FIN lands.
  fabric::ReliableEndpoint rel_;
  const bool integrity_on_;

  PacketPool packet_pool_;
  MatchingTable matching_;

  // Active-message slot (register_tag_handler): written once at startup,
  // read from progress context.
  Tag handler_tag_ = 0;
  Comp handler_comp_;
  bool handler_armed_ = false;

  /// True when `tag` is routed to the registered handler completion.
  bool deliver_to_handler(Rank src, Tag tag, OpKind op,
                          std::vector<std::byte>&& data);

  // Rendezvous state, sharded by id (the id encodes its shard — see
  // rdv_table.hpp). Each kind keeps its own id space: a CTS can only name a
  // rdv_sends_ id and a FIN only a rdv_recvs_ id, so the tables never alias
  // even when ids collide numerically.
  ShardedIdTable<RdvSend> rdv_sends_{kRdvShards};
  ShardedIdTable<RdvRecv> rdv_recvs_{kRdvShards};

  // The backlog: one MPSC lane per destination. Producers (any thread on
  // the injection path) push wait-free; progress and posting threads drain
  // each lane under a consumer try-lock, stopping at the first still-refused
  // post (per-destination FIFO, no cross-destination head-of-line blocking).
  // `head` keeps the element a drain popped but could not post. `depth`
  // counts parked posts until they reach the NIC (a post that sees it
  // nonzero drains or queues behind them); the global count lets an idle
  // progress call skip the whole sweep with one atomic load.
  struct DeferredLane {
    std::atomic<std::size_t> depth{0};
    queues::MpscQueue<DeferredSend> queue;
    common::SpinMutex consumer;
    std::optional<DeferredSend> head;
  };
  std::vector<common::CachePadded<DeferredLane>> deferred_lanes_;
  std::atomic<std::size_t> deferred_count_{0};

  // Metrics under minilci/dev<rank>/... in the Fabric's registry.
  telemetry::Counter& ctr_progress_calls_;
  telemetry::Counter& ctr_match_hits_;    // recv/arrival paired immediately
  telemetry::Counter& ctr_match_misses_;  // stored to wait for the other side
  telemetry::Counter& ctr_pool_exhausted_;
  telemetry::Counter& ctr_pool_cache_hits_;  // packet allocs served by the
                                             // per-slot magazine
  telemetry::Counter& ctr_backlogged_;  // posts parked in a backlog
  telemetry::Gauge& gauge_backlog_depth_;  // posts parked right now
  telemetry::Histogram& hist_progress_ns_;  // sampled progress() duration
};

}  // namespace minilci
