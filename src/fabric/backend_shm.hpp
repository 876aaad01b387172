// Backend #2: the real POSIX shared-memory fabric ("shm"). One process per
// rank (amtnet_launch), or every rank in one process for conformance tests
// (Config::local_rank == -1); either way the wire is real memory, so the
// sim's latency/bandwidth/window modelling does not apply.
//
// Topology:
//   * one shm segment per unordered locality pair, holding two directed
//     ShmRings (shm_ring.hpp) for eager datagrams and control records;
//   * one shm segment per rank, holding its pid, a CMA probe address, and
//     the MR slot table that peers consult for one-sided access.
//
// One-sided data paths, fastest applicable chosen per peer at first use:
//   * direct   — peer is this process (single-process mode): plain memcpy;
//   * CMA      — cross-memory attach (process_vm_readv/writev): true
//                zero-copy between private address spaces;
//   * fallback — no CMA (blocked or unsupported): writes are segmented
//                into ring records that the TARGET's poll loop lands in its
//                registered region. AMTNET_SHM_FORCE_FALLBACK=1 forces this
//                path for testing.
//
// Every ring record is peer input: poll_rx rejects a record whose payload
// length exceeds the slot, and a write fragment outside its MR, through
// common::integrity_fail.
//
// Fault injection on shm is limited to the software-visible subset — drop,
// duplicate, corrupt, applied to eager datagrams at post time with the same
// counter-indexed splitmix64 streams as the sim backend. Latency faults
// (delay/brownout/RNR storm) model NIC hardware and are sim-only; their
// probabilities are ignored here.
//
// Rendezvous: segment names derive from Config::shm_session; the lower rank
// of a pair creates each pair segment, the other attaches with a bounded
// retry (Config::shm_bootstrap_timeout_s). amtnet_launch generates the
// session name and exports it as AMTNET_SHM_SESSION.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "fabric/nic.hpp"
#include "fabric/shm_ring.hpp"
#include "queues/mpsc_queue.hpp"

namespace fabric {

/// True when POSIX shared memory is usable on this system (probed once by
/// creating and unlinking a tiny segment). Tests use this to skip the shm
/// conformance rows gracefully.
bool shm_available();

namespace detail {

/// MR slot table entry in a rank segment. `vaddr` is the region's address
/// in the OWNER's address space (meaningful to peers only via CMA).
struct ShmMrSlot {
  std::atomic<std::uint64_t> id;
  std::atomic<std::uint64_t> vaddr;
  std::atomic<std::uint64_t> len;
};

struct ShmRankHeader {
  std::atomic<std::uint64_t> magic;  // kShmReadyMagic once initialised
  std::atomic<std::int64_t> pid;
  std::atomic<std::uint64_t> probe_addr;   // &probe word in the owner
  std::atomic<std::uint64_t> probe_value;  // expected contents of that word
  std::uint64_t mr_slots = 0;              // power of two
  ShmMrSlot* table() { return reinterpret_cast<ShmMrSlot*>(this + 1); }
};

struct ShmPairHeader {
  std::atomic<std::uint64_t> magic;
  std::uint64_t ring_offset[2];  // [0]: lo->hi, [1]: hi->lo
};

/// Owns every shared segment this fabric maps: creation/attachment,
/// rendezvous waits, the CMA capability probe, and unlinking the segments
/// this process created: right after mapping for a generated session,
/// which no other process can name, and at teardown for an explicit one.
class ShmDomain {
 public:
  enum class PeerMode : std::uint8_t { kUnknown, kDirect, kCma, kFallback };

  explicit ShmDomain(const Config& config);
  ~ShmDomain();
  ShmDomain(const ShmDomain&) = delete;
  ShmDomain& operator=(const ShmDomain&) = delete;

  const Config& config() const { return config_; }

  /// The directed ring carrying records from `from` to `to`. Both segments
  /// of every relevant pair are mapped during construction.
  ShmRing* ring(Rank from, Rank to);

  /// The rank segment of `r`, attaching (with a bounded wait) on first use.
  ShmRankHeader* rank_header(Rank r);

  /// How one-sided data moves to/from `r` (cached probe; never kUnknown).
  PeerMode peer_mode(Rank r);

  /// Resolves MR `id` in `r`'s slot table. Returns false for a stale or
  /// unknown key. `vaddr` is in the owner's address space.
  bool lookup_mr(Rank r, std::uint64_t id, std::uint64_t& vaddr,
                 std::uint64_t& len);

 private:
  struct Segment {
    std::string name;
    void* base = nullptr;
    std::size_t size = 0;
    bool linked = false;  // created here and still named in /dev/shm
  };

  Segment open_segment(const std::string& name, std::size_t size, bool create);
  void map_pair(Rank lo, Rank hi);

  Config config_;
  std::string session_;
  bool force_fallback_ = false;
  std::uint64_t probe_word_ = 0;  // peers CMA-read this to prove access

  std::size_t ring_bytes_ = 0;      // one directed ring's footprint
  std::size_t pair_bytes_ = 0;      // whole pair segment
  std::size_t rank_bytes_ = 0;      // whole rank segment

  std::vector<Segment> pair_segments_;      // indexed by pair_index()
  std::vector<ShmPairHeader*> pair_bases_;  // null until mapped
  std::vector<Segment> rank_segments_;      // indexed by rank
  std::unique_ptr<std::atomic<ShmRankHeader*>[]> rank_bases_;
  common::SpinMutex attach_mutex_;  // serialises lazy rank attaches
  std::unique_ptr<std::atomic<std::uint8_t>[]> peer_modes_;

  std::size_t pair_index(Rank a, Rank b) const;
};

}  // namespace detail

class ShmNic final : public Nic {
 public:
  ShmNic(Fabric& fabric, Rank rank, const Config& config,
         detail::ShmDomain& domain);
  ~ShmNic() override;

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
  std::size_t srq_buffer_size() const override {
    return config_.srq_buffer_size;
  }

 protected:
  std::size_t poll_rx_sink(std::size_t max_packets, RxSink sink) override;

 private:
  /// One outgoing ring record, staged in private memory when its ring is
  /// momentarily full (mid-write fragments and write notices must not be
  /// dropped once their operation is committed).
  struct OutRecord {
    detail::ShmRecord header;
    std::vector<std::byte> payload;
  };

  /// Per-peer TX state. All pushes to one peer's ring serialise on `mutex`
  /// so staged records keep FIFO order with fresh ones.
  struct PeerTx {
    common::SpinMutex mutex;
    std::deque<OutRecord> pending;  // guarded by `mutex`
    /// `pending` is non-empty. Written under `mutex`, read without it by
    /// every poll, so it sits on its own line, away from the mutex that
    /// every send locks.
    alignas(common::kCacheLineSize) std::atomic<bool> staged{false};
  };

  /// Target-side state of one in-flight fallback write (keyed by sender rank
  /// + the sender-allocated write id). poll_rx may run on several threads, so
  /// fragments of one write can be consumed concurrently; tracking received
  /// bytes here keeps the kWriteImm completion from being surfaced before
  /// every fragment has actually landed in the MR.
  struct PendingWrite {
    std::uint64_t imm = 0;
    std::size_t total = 0;
    std::size_t received = 0;
    bool got_last = false;
  };

  /// Pushes under the peer lock; false when the ring is full AND `stash` is
  /// false (caller sees kRetry). With `stash`, a full ring queues the
  /// record in `pending` and the push always succeeds logically.
  bool push_record(Rank dst, OutRecord&& rec, bool stash);
  bool push_now_locked(detail::ShmRing& ring, const OutRecord& rec);
  /// Pushes staged records, oldest first, until the ring is full.
  void flush_pending_locked(PeerTx& peer, detail::ShmRing& ring);
  void flush_pending(Rank dst);

  void deliver_self(RxEvent&& event);
  void handle_record(Rank src, const detail::ShmRecord& rec,
                     const std::byte* payload, RxSink& sink);

  // Eager-path fault injection (drop/dup/corrupt only; see file comment).
  // Returns true when the datagram should be dropped; may flip a payload
  // bit in place and/or request duplication.
  bool inject_faults(std::vector<std::byte>& payload, bool& duplicate);
  // Converts a probability to a splitmix64-comparable threshold.
  static std::uint64_t fault_threshold(double p);

  Fabric& fabric_;
  const Rank rank_;
  const Config& config_;
  detail::ShmDomain& domain_;

  const bool faults_on_;
  const std::uint64_t thr_drop_;
  const std::uint64_t thr_dup_;
  const std::uint64_t thr_corrupt_;
  std::atomic<std::uint64_t> tx_post_counter_{0};

  std::vector<std::unique_ptr<PeerTx>> peers_;

  // Completions that never touch a ring: self-sends and self-writes
  // (surfaced at this NIC's next poll, like the sim).
  queues::TryMpmcQueue<RxEvent> self_events_;

  common::SpinMutex writes_mutex_;
  std::unordered_map<std::uint64_t, PendingWrite> pending_writes_;
  std::atomic<std::uint64_t> next_write_id_{1};
  std::atomic<std::uint64_t> next_mr_id_{1};
  std::atomic<std::uint64_t> poll_rr_{0};

  telemetry::Counter& ctr_packets_sent_;
  telemetry::Counter& ctr_bytes_sent_;
  telemetry::Counter& ctr_packets_received_;
  telemetry::Counter& ctr_tx_window_rejects_;
  telemetry::Counter& ctr_faults_dropped_;
  telemetry::Counter& ctr_faults_duplicated_;
  telemetry::Counter& ctr_faults_corrupted_;
};

}  // namespace fabric
