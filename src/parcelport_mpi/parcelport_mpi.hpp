// The MPI parcelport (paper §3.1), implemented over minimpi.
//
// Faithful behaviours:
//   * one sender/receiver *connection* object per HPX message, each with at
//     most one outstanding send/receive at any time,
//   * a header message on MPI tag 0 (one receive always posted with the
//     maximum header size and ANY_SOURCE), carrying follow-up tag + sizes
//     and piggybacking the transmission and non-zero-copy chunks when they
//     fit under the zero-copy serialization threshold,
//   * follow-up messages (non-zero-copy chunk, transmission chunk, zero-copy
//     chunks) all on one tag drawn from an atomic counter,
//   * a spinlock-guarded pending-connection list checked round-robin by the
//     worker threads' background work; no dedicated progress thread,
//   * MPI initialized THREAD_MULTIPLE: any worker may start connections.
//
// The "original" variant (config token `orig`) reverts the paper's two
// optimisations: a fixed 512-byte stack header that can only piggyback the
// non-zero-copy chunk, and a tag provider with tag-release messages and a
// lock-protected free-tag list.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "amt/parcelport.hpp"
#include "amt/wire_header.hpp"
#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "minimpi/minimpi.hpp"

namespace ppmpi {

class MpiParcelport final : public amt::Parcelport {
 public:
  explicit MpiParcelport(const amt::ParcelportContext& context);
  ~MpiParcelport() override;

  void start() override;
  void stop() override;
  void send(amt::Rank dst, amt::OutMessage msg,
            common::UniqueFunction<void()> done) override;
  bool background_work(unsigned worker_index) override;

  /// Tags used by protocol messages. Follow-up tags start at kFirstDataTag.
  static constexpr minimpi::Tag kHeaderTag = 0;
  static constexpr minimpi::Tag kTagReleaseTag = 1;  // original variant only
  static constexpr minimpi::Tag kFirstDataTag = 2;

  std::uint64_t messages_delivered() const { return ctr_delivered_.value(); }

 private:
  struct Connection {
    virtual ~Connection() = default;
    /// Drives the connection's send/receive chain one step.
    /// Returns true when the connection has finished all work.
    virtual bool advance(MpiParcelport& port) = 0;
  };

  struct SenderConnection final : Connection {
    amt::Rank dst = 0;
    amt::OutMessage msg;
    common::UniqueFunction<void()> done;
    minimpi::Tag tag = 0;
    std::vector<std::byte> header_buf;
    std::vector<std::byte> tchunk_buf;
    // Follow-up payload views, in wire order (buffers owned by msg /
    // tchunk_buf and kept alive until completion).
    std::vector<std::pair<const std::byte*, std::size_t>> pieces;
    std::size_t pieces_posted = 0;
    minimpi::Request current;

    bool advance(MpiParcelport& port) override;
  };

  struct ReceiverConnection final : Connection {
    amt::Rank src = 0;
    minimpi::Tag tag = 0;
    amt::WireHeader fields;
    std::vector<std::byte> main;
    std::vector<std::byte> tchunk;
    std::vector<std::uint64_t> zsizes;
    std::vector<std::vector<std::byte>> zchunks;
    enum class Stage : std::uint8_t { kMain, kTchunk, kZchunks, kDone };
    Stage stage = Stage::kMain;
    std::size_t zindex = 0;
    minimpi::Request current;  // invalid until the first recv is posted

    void post_next(MpiParcelport& port);
    bool advance(MpiParcelport& port) override;
    void finish(MpiParcelport& port);
  };

  minimpi::Tag alloc_tag();
  void release_tag(minimpi::Tag tag);  // original variant: free-tag list
  void enqueue_pending(std::unique_ptr<Connection> connection);
  bool check_header_receive();
  bool check_tag_release_receive();
  bool advance_pending(unsigned max_connections);
  void handle_header(amt::Rank src, const std::byte* data, std::size_t size);

  const amt::ParcelportContext context_;
  const bool original_;
  const std::size_t max_header_size_;
  minimpi::Comm comm_;

  // Always-posted header receive (and its buffer), guarded by a try-lock so
  // a single worker at a time checks/reposts it.
  common::SpinMutex header_mutex_;
  std::vector<std::byte> header_recv_buf_;
  minimpi::Request header_req_;

  // Original variant: always-posted tag-release receive + free-tag list.
  common::SpinMutex tag_release_mutex_;
  std::uint32_t tag_release_buf_ = 0;
  minimpi::Request tag_release_req_;
  common::SpinMutex tag_provider_mutex_;
  std::vector<minimpi::Tag> free_tags_;

  std::atomic<std::uint64_t> next_tag_{0};

  // End-to-end header integrity: per-destination generation counters stamped
  // into every WireHeader, and per-source trackers that fail fast on a
  // duplicated header (which would double-deliver a parcel).
  std::vector<common::CachePadded<std::atomic<std::uint32_t>>> header_seq_tx_;
  struct HeaderSeqRx {
    common::SpinMutex mutex;
    amt::HeaderSeqTracker tracker;
  };
  std::vector<common::CachePadded<HeaderSeqRx>> header_seq_rx_;

  common::SpinMutex pending_mutex_;
  std::deque<std::unique_ptr<Connection>> pending_;

  // Metrics under ppmpi/loc<rank>/... in the fabric's registry; send_ns
  // spans send() entry to done-callback firing of sampled sends.
  telemetry::Counter& ctr_delivered_;
  telemetry::Histogram& hist_send_ns_;
  telemetry::Gauge& gauge_send_queue_depth_;  // messages accepted by send(),
                                              // done callback still pending

  std::atomic<bool> started_{false};
};

}  // namespace ppmpi
