// minimpi — a miniature MPI-style two-sided messaging library over the
// simulated fabric. It stands in for OpenMPI 4.1.5 / UCX 1.14.0 in the paper.
//
// Semantics reproduced:
//   * tagged isend/irecv with MPI_ANY_SOURCE, FIFO (non-overtaking) matching
//     per source, request objects tested with test(),
//   * eager protocol below `eager_threshold`, rendezvous (RTS/CTS/RDMA
//     write-with-immediate) above it,
//   * MPI_THREAD_MULTIPLE: every call is thread-safe.
//
// The performance model reproduced — the paper's key finding — is the
// concurrency discipline: in LockMode::kCoarseBlocking (the default,
// modelling the `ucp_progress` blocking mutex the paper's profiles blame),
// every isend/irecv/test acquires ONE blocking mutex and drives progress
// under it. Many worker threads calling MPI_Test therefore convoy on that
// lock. LockMode::kFineGrained keeps only the internal fine-grained locks and
// exists for the lock-granularity ablation benchmark.
//
// Ordering: the fabric reorders across rails, so minimpi enforces MPI's
// non-overtaking rule itself with per-destination sequence numbers and a
// receive-side reorder stage — the same mechanism real transports use.
// (Limit: 2^32 messages per directed pair per run, far above any workload
// here.)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/spinlock.hpp"
#include "common/status.hpp"
#include "fabric/nic.hpp"
#include "fabric/reliable.hpp"

namespace minimpi {

using Rank = fabric::Rank;
using Tag = std::int32_t;

inline constexpr int kAnySource = -1;
/// Exclusive upper bound for user tags (24 bits travel in the immediate).
inline constexpr Tag kTagUpperBound = 1 << 24;

enum class LockMode {
  kCoarseBlocking,  // one blocking mutex around everything (UCX-like)
  kFineGrained,     // internal fine-grained locks only (ablation)
};

struct Config {
  std::size_t eager_threshold = 8192;  // bytes; above this use rendezvous
  LockMode lock_mode = LockMode::kCoarseBlocking;
};

namespace detail {
struct ReqState {
  std::atomic<bool> done{false};
  // Filled in on completion of receives:
  int src = -1;
  Tag tag = -1;
  std::size_t size = 0;
  // Receive posting info:
  std::byte* buf = nullptr;
  std::size_t maxlen = 0;
  int want_src = kAnySource;
  Tag want_tag = -1;
  bool is_recv = false;
};
}  // namespace detail

/// Nonblocking-operation handle (MPI_Request analogue). Copyable; all copies
/// refer to the same operation.
class Request {
 public:
  Request() = default;

  bool valid() const { return state_ != nullptr; }
  /// Completion flag only — does NOT make progress; use Comm::test().
  bool done() const {
    return state_ && state_->done.load(std::memory_order_acquire);
  }
  /// For completed receives: actual source / tag / byte count.
  int source() const { return state_->src; }
  Tag tag() const { return state_->tag; }
  std::size_t size() const { return state_->size; }

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::ReqState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::ReqState> state_;
};

/// Per-rank communicator endpoint (MPI_COMM_WORLD analogue). One per
/// simulated locality, all sharing one fabric::Fabric.
class Comm {
 public:
  Comm(fabric::Fabric& fabric, Rank rank, Config config = {});
  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  Rank rank() const { return rank_; }
  Rank world_size() const { return fabric_.num_ranks(); }
  const Config& config() const { return config_; }

  /// Nonblocking send. The eager path copies `buf` before returning; the
  /// rendezvous path requires `buf` to stay valid until test() reports done.
  Request isend(const void* buf, std::size_t len, Rank dst, Tag tag);

  /// Nonblocking receive into `buf` (capacity `maxlen`). `src` may be
  /// kAnySource. Messages longer than `maxlen` are truncated (logged).
  Request irecv(void* buf, std::size_t maxlen, int src, Tag tag);

  /// Tests one request for completion, driving progress as a side effect —
  /// this is where coarse-lock convoying shows up, as in MPI_Test.
  bool test(Request& request);

  /// Explicitly drive communication progress.
  void progress();

  /// Number of completed operations so far (tests/benchmarks).
  std::uint64_t completed_ops() const { return ctr_completed_.value(); }

 private:
  struct UnexpectedMsg {
    Rank src;
    Tag tag;
    bool is_rts = false;
    std::vector<std::byte> payload;   // eager data
    std::size_t rdv_size = 0;         // RTS only
    std::uint32_t rdv_sender_id = 0;  // RTS only
    std::uint32_t rdv_crc = 0;        // RTS only: payload CRC (integrity)
  };

  struct StashedMsg {  // out-of-order arrival awaiting its turn
    Tag tag;
    bool is_rts = false;
    std::vector<std::byte> payload;
    std::size_t rdv_size = 0;
    std::uint32_t rdv_sender_id = 0;
    std::uint32_t rdv_crc = 0;
  };

  struct RdvSend {  // sender-side pending rendezvous
    const std::byte* data;
    std::size_t len;
    std::shared_ptr<detail::ReqState> req;
  };

  struct RdvRecv {  // receiver-side pending rendezvous
    std::shared_ptr<detail::ReqState> req;
    fabric::MrKey mr;
    std::size_t size;
    std::uint32_t expected_crc = 0;  // sender's payload CRC (integrity mode)
  };

  struct DeferredCtrl {  // message that hit TX back-pressure
    Rank dst = 0;
    std::uint64_t imm = 0;
    std::vector<std::byte> payload;
    std::shared_ptr<detail::ReqState> complete_on_send;  // may be null
    bool is_write = false;          // true: retry as RDMA write-with-imm
    std::uint64_t write_mr_id = 0;  // rkey id at dst (is_write only)
  };

  void progress_locked();
  void handle_event(fabric::RxEvent&& event);
  void deliver_in_order(Rank src, StashedMsg&& msg);
  void match_or_stash_unexpected(Rank src, StashedMsg&& msg);
  void complete_recv_eager(const std::shared_ptr<detail::ReqState>& req,
                           Rank src, Tag tag, const std::byte* data,
                           std::size_t len);
  void start_recv_rendezvous(const std::shared_ptr<detail::ReqState>& req,
                             Rank src, Tag tag, std::size_t size,
                             std::uint32_t sender_id, std::uint32_t crc);
  void send_ctrl(Rank dst, std::uint64_t imm, std::vector<std::byte> payload,
                 std::shared_ptr<detail::ReqState> complete_on_send = nullptr);
  void retry_deferred();
  void mark_done(const std::shared_ptr<detail::ReqState>& req);

  fabric::Fabric& fabric_;
  fabric::Nic& nic_;
  const Rank rank_;
  const Config config_;
  // Retransmit/dedup/CRC sublayer for every two-sided datagram (eager AND
  // the RTS/CTS control plane); passthrough when the fault config is clean.
  // The one-sided FIN write is covered end-to-end instead: the RTS carries
  // the payload CRC, verified when the write lands.
  fabric::ReliableEndpoint rel_;
  const bool integrity_on_;

  // The coarse blocking lock (LockMode::kCoarseBlocking): a UCX-style pure
  // spin lock, matching the ucp_progress lock the paper's profiles blame.
  // In fine-grained mode it is bypassed and the members below rely on their
  // own locks.
  common::UcxStyleSpinMutex big_lock_;

  // Matching state. One spin mutex models the (comparatively cheap) matching
  // lock inside real transports; in coarse mode it is uncontended.
  common::SpinMutex match_mutex_;
  std::list<std::shared_ptr<detail::ReqState>> posted_recvs_;
  std::list<UnexpectedMsg> unexpected_;

  // Per-source reorder stage (guarded by match_mutex_).
  struct ReorderState {
    std::uint32_t next_seq = 0;
    std::map<std::uint32_t, StashedMsg> stash;
  };
  std::vector<ReorderState> reorder_;

  // Per-destination send sequence numbers.
  std::vector<common::CachePadded<std::atomic<std::uint32_t>>> tx_seq_;

  // Rendezvous tracking (guarded by rdv_mutex_).
  common::SpinMutex rdv_mutex_;
  std::uint32_t next_rdv_id_ = 1;
  std::map<std::uint32_t, RdvSend> rdv_sends_;
  std::map<std::uint32_t, RdvRecv> rdv_recvs_;

  // Control messages awaiting TX credit (guarded by deferred_mutex_).
  common::SpinMutex deferred_mutex_;
  std::deque<DeferredCtrl> deferred_;

  // Progress serialisation for fine-grained mode: overlapping progress calls
  // skip instead of queueing (the try-lock discipline).
  common::SpinMutex progress_mutex_;

  // Metrics under minimpi/comm<rank>/... in the Fabric's registry. The lock
  // wait histogram measures time spent acquiring big_lock_ — the paper §4b
  // convoy — from sampled isend/irecv/test/progress calls in coarse mode.
  telemetry::Counter& ctr_completed_;
  telemetry::Counter& ctr_unexpected_;  // arrivals stashed with no recv posted
  telemetry::Histogram& hist_lock_wait_ns_;
};

/// Convenience bundle: a fabric plus one Comm per rank, for tests/benches.
class World {
 public:
  explicit World(const fabric::Config& fabric_config, Config comm_config = {})
      : fabric_(fabric_config) {
    for (Rank r = 0; r < fabric_.num_ranks(); ++r) {
      comms_.push_back(std::make_unique<Comm>(fabric_, r, comm_config));
    }
  }

  fabric::Fabric& fabric() { return fabric_; }
  Comm& comm(Rank rank) { return *comms_[rank]; }
  Rank size() const { return fabric_.num_ranks(); }

 private:
  fabric::Fabric fabric_;
  std::vector<std::unique_ptr<Comm>> comms_;
};

}  // namespace minimpi
