// The LCI parcelport (paper §3.2), implemented over minilci.
//
// Baseline (lci_psr_cq_pin, HPX's default): the header message is assembled
// directly in an LCI-allocated packet buffer and sent with the one-sided
// *dynamic put*, whose target buffer is allocated by the LCI runtime on
// arrival and signalled through a pre-configured remote completion queue.
// Follow-up messages use medium (eager) or long (rendezvous) send/receive,
// each with a *distinct* tag from an atomic counter (LCI gives no in-order
// delivery, so one tag per connection would mis-match).
//
// Follow-ups are *pipelined*: the sender posts every piece in send(), right
// after the header, and the receiver pre-posts every recv as soon as the
// header — and, for zero-copy chunk sizes, the transmission chunk — is
// decoded. Completions may land in any order, so connections
// track an atomic remaining-count and route each completion to its piece
// slot by tag instead of walking stages. Completions land in one completion
// queue; worker background work polls that queue plus the remote-put queue.
// A dedicated progress thread, created through the resource-partitioner shim
// and pinned at core 0 (the slot after the workers when amtnet_launch gives
// the process a CPU range), is the only caller of LCI_progress.
//
// The steady-state send path allocates nothing: SenderConnection /
// ReceiverConnection / Synchronizer objects are recycled through bounded
// MPMC freelists (keeping their vector capacities), the header is assembled
// in a pooled LCI packet, and the transmission chunk is encoded in place.
//
// Variants (paper §3.2.2), all runtime-selectable via ParcelportConfig:
//   * protocol   psr | sr   — dynamic-put header vs send/recv header (one
//                             always-posted header receive per peer rank),
//   * progress   pin | mt   — dedicated pinned progress thread vs all worker
//                             threads calling progress when idle,
//   * completion cq | sy    — one completion queue vs per-operation
//                             synchronizers on one pending list
//                             (the dynamic put's remote completion stays a
//                             CQ — the only mechanism LCI's put supports),
//   * send-immediate `_i`   — handled above this layer (parcel queue and
//                             connection cache bypass in amt::Locality),
//   * fast path  fpoff      — turns the small-parcel put-with-completion
//                             (below) off; it is on by default,
//   * aggregation agg       — adaptive per-destination coalescing of small
//                             parcels (below); off by default.
//
// Small-parcel frames (hpx5 `pwc` style): every sub-threshold parcel travels
// in ONE frame kind (amt::BatchHeader in wire_header.hpp) on the reserved tag
// minilci::kFastpathTag, packed into one pool packet; the receive side
// dispatches it from a handler completion fired straight out of progress
// context: no ReceiverConnection, no follow-up tag allocation, no
// completion-queue round trip. One handler verifies each frame (CRC-32 plus
// the per-channel seq shared with header messages) and delivers its parcels.
//   * Fast path (on unless the name has fpoff): a message whose frame fits
//     in one eager message is sent as a frame of one. Larger messages take
//     the unchanged header + follow-up path (counted under
//     pplci/*/fastpath_fallbacks).
//   * Adaptive aggregation (agg token, off by default):
//     fast-path-sized parcels bound for a *backpressured* destination
//     (admission credits outstanding — ParcelportContext::queue_depth) are
//     coalesced in a per-destination amt::Aggregator buffer and travel as
//     one frame of many, amortizing per-message injection overhead across
//     the batch. Frames flush when full (one eager message), after a 200 µs
//     age deadline, on idle background work, or at stop(). When the
//     destination is idle, parcels keep taking the fast path unbuffered.
//
// Resource pressure (LCI's explicit-retry contract): no post this
// parcelport makes is ever refused. One the NIC cannot take now parks in
// minilci's per-destination backlog (Device, LCIS_post_sends_bq style), and
// progress or the next post injects it later, so neither a refused header
// nor a refused piece parks the calling worker. The one wait left is for a free packet
// from the pool, which also bounds the backlog; pplci/*/send_retries counts
// those packet-wait rounds. Each header or frame is stamped with its seq
// once, at encode time.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>
#include <vector>

#include "amt/aggregator.hpp"
#include "amt/parcelport.hpp"
#include "amt/wire_header.hpp"
#include "common/cache.hpp"
#include "common/function_ref.hpp"
#include "common/spinlock.hpp"
#include "minilci/device.hpp"
#include "queues/mpmc_queue.hpp"

namespace pplci {

class LciParcelport final : public amt::Parcelport {
 public:
  explicit LciParcelport(const amt::ParcelportContext& context);
  ~LciParcelport() override;

  void start() override;
  void stop() override;
  void send(amt::Rank dst, amt::OutMessage msg,
            common::UniqueFunction<void()> done) override;
  bool background_work(unsigned worker_index) override;

  static constexpr minilci::Tag kHeaderTag = 0;  // sr-protocol headers

  std::uint64_t messages_delivered() const { return ctr_delivered_.value(); }

  /// Test hook: positions the follow-up tag counter (e.g. just below the
  /// 32-bit wrap) to exercise alloc_tags' wraparound handling.
  void set_next_tag(std::uint64_t value) {
    next_tag_.store(value, std::memory_order_relaxed);
  }

  /// Test hook: takes a packet from the device's send pool (nullopt when
  /// it is empty), so a test can hold a small pool exhausted on purpose.
  std::optional<minilci::PacketBuffer> take_pool_packet() {
    return device_.try_alloc_packet();
  }

 private:
  // user_context values in completion entries: either a Connection* or this
  // sentinel marking an sr-protocol header receive.
  static constexpr std::uint64_t kHeaderRecvCtx = 1;

  struct Connection {
    virtual ~Connection() = default;
    /// Reacts to one completion landing for this connection. Completions
    /// arrive in any order (and concurrently, from multiple pollers); the
    /// implementation recycles the connection when the last one lands.
    virtual void on_completion(LciParcelport& port,
                               minilci::CqEntry&& entry) = 0;
  };

  struct SenderConnection final : Connection {
    amt::Rank dst = 0;
    amt::OutMessage msg;
    common::UniqueFunction<void()> done;
    std::vector<std::byte> tchunk_buf;
    std::vector<std::pair<const std::byte*, std::size_t>> pieces;
    std::uint32_t tag_base = 0;
    // Live references: one per posted operation (header + every piece) plus
    // one guard held by send() while it still touches the connection.
    // Whoever drops the count to zero finishes and recycles.
    std::atomic<std::size_t> remaining{0};

    void on_completion(LciParcelport& port,
                       minilci::CqEntry&& entry) override;
    void drop_ref(LciParcelport& port);
    void reset();
  };

  struct ReceiverConnection final : Connection {
    amt::Rank src = 0;
    std::uint32_t tag_base = 0;
    amt::WireHeader fields;
    std::vector<std::byte> main;
    std::vector<std::byte> tchunk;
    std::vector<std::vector<std::byte>> zchunks;
    // Follow-up piece layout (matches the sender): [main][tchunk][zchunks].
    // -1 = piece not transferred (piggybacked or absent).
    int main_piece = -1;
    int tchunk_piece = -1;
    std::size_t zbase = 0;  // piece index of zero-copy chunk 0
    // One reference per expected piece plus a posting guard (same protocol
    // as SenderConnection::remaining).
    std::atomic<std::size_t> remaining{0};

    void on_completion(LciParcelport& port,
                       minilci::CqEntry&& entry) override;
    /// Posts all zero-copy chunk receives (sizes from the decoded tchunk).
    /// Called once: from handle_header (piggybacked tchunk) or from the
    /// tchunk piece's completion.
    void post_zchunk_recvs(LciParcelport& port);
    void drop_ref(LciParcelport& port);
    void finish(LciParcelport& port);
    void reset();
  };

  /// Builds the completion object for one operation: the shared CQ in cq
  /// mode, or a pooled synchronizer added to the pending list in sy mode.
  minilci::Comp make_comp();

  // Connection/synchronizer freelists (paper: "zero allocation on the
  // critical path"). Pop-or-new on acquire; reset-and-push (or delete, when
  // the bounded pool is full) on recycle. Every connection allocated is in
  // owned_ until it is deleted.
  template <typename C>
  C* acquire(queues::MpmcQueue<C*>& pool);
  template <typename C>
  void recycle(queues::MpmcQueue<C*>& pool, C* connection);

  std::uint32_t alloc_tags(std::size_t count);
  void handle_header(amt::Rank src, const std::byte* data, std::size_t size);
  /// The per-channel duplicate check for header messages (`frame` false)
  /// and frames (`frame` true).
  void check_seq(amt::Rank src, std::uint32_t seq, bool frame);
  /// Frame delivery: fired as a minilci handler completion from progress
  /// context when a frame arrives on kFastpathTag.
  static void frame_handler(minilci::CqEntry&& entry, void* arg);
  /// Aggregator flush callback: encodes the batch into one frame, injects
  /// it on the reserved tag, then fires every entry's done callback.
  void flush_batch(amt::Rank dst,
                   std::vector<amt::Aggregator::Entry>&& batch,
                   amt::Aggregator::FlushReason reason);
  /// Writes the message into a packet of `capacity` bytes at `out`, stamped
  /// with per-destination `seq`; returns the bytes written.
  using EncodeFn = common::FunctionRef<std::size_t(
      std::uint32_t seq, std::byte* out, std::size_t capacity)>;
  static constexpr unsigned kUnboundedAllocRounds = ~0u;
  /// Allocates a pool packet (giving up after `alloc_rounds` backoff
  /// rounds), then stamps the next per-destination seq, lets `encode` fill
  /// the packet, and injects it on `tag` (dynamic put under psr, medium
  /// send under sr). Returns false only when the allocation gave up, in
  /// which case nothing was sent.
  bool inject_packet(amt::Rank dst, minilci::Tag tag, EncodeFn encode,
                     unsigned alloc_rounds, const minilci::Comp& comp,
                     std::uint64_t ctx);
  void dispatch_entry(minilci::CqEntry&& entry);
  bool poll_completions();
  bool poll_remote_puts();
  bool poll_synchronizers();
  /// Posts one follow-up receive (medium or long, by size) for `piece`.
  void post_recv_piece(ReceiverConnection* connection, std::size_t piece,
                       std::size_t size, std::vector<std::byte>& buf);
  /// Allocates a pool packet, backing off between attempts (polling the
  /// device first in mt mode) for at most `max_rounds` rounds; counts every
  /// round in pplci/*/send_retries. nullopt when it gave up.
  std::optional<minilci::PacketBuffer> wait_for_packet(unsigned max_rounds);
  void progress_thread_loop();

  const amt::ParcelportContext context_;
  const minilci::Config device_config_;  // read by the members below
  const amt::ParcelportConfig::Protocol protocol_;
  const amt::ParcelportConfig::ProgressType progress_type_;
  const amt::ParcelportConfig::CompType completion_type_;
  const std::size_t max_header_size_;
  const std::size_t fastpath_cap_;    // one-parcel frame byte cap; 0 = off
  const std::size_t agg_cap_;         // batched frame byte cap; 0 = agg off

  minilci::CompQueue remote_put_cq_;  // pre-configured remote CQ for puts
  minilci::Device device_;
  minilci::CompQueue comp_cq_;        // cq mode: all op completions

  // Per-worker adaptive idle backoff: a worker whose progress calls keep
  // coming back empty skips (2^level - 1) subsequent background progress
  // polls while the device looks idle, so fully idle workers stay off the
  // shared NIC path. Any progress or non-idle hint resets the level.
  struct ProgressBackoff {
    unsigned defer = 0;
    unsigned level = 0;
  };
  std::vector<common::CachePadded<ProgressBackoff>> progress_backoff_;

  // sy mode: per-operation synchronizers on one pending list, polled
  // round-robin by every worker.
  common::SpinMutex sync_pending_mutex_;
  std::deque<minilci::Synchronizer*> sync_pending_;

  // sr mode: one always-posted header receive per peer (reposted by the
  // completion handler; no state needed beyond the sentinel context).

  queues::MpmcQueue<SenderConnection*> sender_pool_{1024};
  queues::MpmcQueue<ReceiverConnection*> receiver_pool_{1024};
  // Owner of every live connection, pooled or in flight: a connection whose
  // completions are still queued when the runtime stops is never recycled,
  // and the destructor frees it from here. Touched only on pool misses and
  // overflows, never on the steady-state path.
  common::SpinMutex owned_mutex_;
  std::unordered_set<Connection*> owned_;
  queues::MpmcQueue<minilci::Synchronizer*> sync_pool_{4096};

  std::atomic<std::uint64_t> next_tag_{1};  // 0 is the sr header tag

  // End-to-end integrity: per-destination generation counters stamped into
  // every header message and frame, and per-source trackers that fail fast
  // on a duplicate (which would double-deliver a parcel). The two kinds
  // share the counter but not the tracker: a frame is checked inline in
  // progress context, a header message only when a worker polls it off a
  // completion queue, and under a flood that can be more than a tracker
  // window of frames later. A duplicate always arrives as the same kind as
  // its original, so per-kind trackers lose no detection.
  std::vector<common::CachePadded<std::atomic<std::uint32_t>>> header_seq_tx_;
  struct HeaderSeqRx {
    common::SpinMutex mutex;
    amt::HeaderSeqTracker headers;
    amt::HeaderSeqTracker frames;
  };
  std::vector<common::CachePadded<HeaderSeqRx>> header_seq_rx_;

  std::thread progress_thread_;  // pin mode ("rp" resource partitioner)
  std::atomic<bool> progress_stop_{false};

  // Adaptive aggregation engine (null when agg_cap_ == 0).
  std::unique_ptr<amt::Aggregator> aggregator_;
  // Running mean batch size (parcels per flushed frame, x100 for two
  // decimal places) published through a delta-updated gauge; the atomics
  // back the exact arithmetic even when telemetry is compiled out.
  std::atomic<std::uint64_t> agg_batched_total_{0};
  std::atomic<std::uint64_t> agg_flushes_total_{0};
  std::atomic<std::int64_t> agg_mean_prev_{0};

  // Metrics under pplci/loc<rank>/... in the fabric's registry. The send
  // histogram measures send() entry (for aggregated parcels, their enqueue
  // inside send()) to done-callback firing, for telemetry::sampled() parcels.
  telemetry::Counter& ctr_delivered_;
  telemetry::Counter& ctr_send_retries_;  // packet-wait backoff rounds
  telemetry::Counter& ctr_conn_reuses_;   // connections served by the pools
  telemetry::Counter& ctr_conn_allocs_;   // connections newly heap-allocated
  telemetry::Counter& ctr_sync_reuses_;
  telemetry::Counter& ctr_sync_allocs_;
  telemetry::Counter& ctr_fastpath_hits_;       // parcels sent as one frame
  telemetry::Counter& ctr_fastpath_fallbacks_;  // fp on, but the parcel left
                                                // the fast path (over the cap
                                                // or pool exhausted)
  telemetry::Counter& ctr_agg_batched_;       // parcels sent inside batches
  telemetry::Counter& ctr_agg_flushes_size_;  // batch flushes: size cap
  telemetry::Counter& ctr_agg_flushes_stall_;  // batch flushes: the buffer
                                               // absorbed the whole window
  telemetry::Counter& ctr_agg_flushes_age_;   // batch flushes: age deadline
  telemetry::Counter& ctr_agg_flushes_idle_;  // batch flushes: idle/final
  telemetry::Gauge& gauge_agg_mean_batch_x100_;  // parcels per frame x100
  telemetry::Gauge& gauge_pieces_in_flight_;  // posted, not-yet-completed
                                              // follow-up pieces (sender)
  telemetry::Gauge& gauge_send_queue_depth_;  // messages accepted by send(),
                                              // done callback still pending
  telemetry::Histogram& hist_send_ns_;

  std::atomic<bool> started_{false};
};

}  // namespace pplci
