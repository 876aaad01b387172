// The TCP parcelport — HPX's original backend (paper §1: "Prior to this
// project, it had two communication backends (parcelports): TCP and MPI"),
// rebuilt over the ministream byte-stream layer.
//
// Per destination there is one ordered byte stream; HPX messages travel as
// length-prefixed frames:
//
//   [u64 main_size][u32 num_zchunks][u64 zsize...][main bytes][zchunk bytes...]
//
// No tags, no matching, no rendezvous: ordering comes from the stream, and
// large payloads are simply streamed through the bounded send buffer. This
// is exactly why stream transports underperform for AMTs — every byte of a
// large message funnels through one ordered pipe per peer, head-of-line
// blocking included — and it serves as the below-MPI baseline in the
// extra comparison benchmark.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "amt/parcelport.hpp"
#include "common/spinlock.hpp"
#include "ministream/stream_mux.hpp"
#include "telemetry/telemetry.hpp"

namespace pptcp {

class TcpParcelport final : public amt::Parcelport {
 public:
  explicit TcpParcelport(const amt::ParcelportContext& context);

  void start() override;
  void stop() override;
  void send(amt::Rank dst, amt::OutMessage msg,
            common::UniqueFunction<void()> done) override;
  bool background_work(unsigned worker_index) override;

  std::uint64_t messages_delivered() const { return ctr_delivered_.value(); }

 private:
  struct OutFrame {
    amt::OutMessage msg;
    common::UniqueFunction<void()> done;
    std::vector<std::byte> header;  // the frame prefix
    // Flat piece list over header/main/zchunks, streamed in order.
    std::vector<std::pair<const std::byte*, std::size_t>> pieces;
    std::size_t piece_index = 0;
    std::size_t piece_offset = 0;

    bool finished() const { return piece_index >= pieces.size(); }
  };

  /// Incremental frame parser, one per source stream.
  struct RxState {
    enum class Stage : std::uint8_t { kPrefix, kZSizes, kMain, kZChunks };
    Stage stage = Stage::kPrefix;
    std::vector<std::byte> scratch;  // bytes of the current fixed section
    std::uint64_t main_size = 0;
    std::uint32_t num_zchunks = 0;
    // Frame integrity (prefix fields): strict per-stream frame counter and
    // CRC-32 over everything after the prefix (0 = sender sent unchecked).
    std::uint32_t frame_seq = 0;
    std::uint32_t frame_crc = 0;
    std::uint32_t next_seq = 0;  // expected frame_seq; survives frame resets
    std::vector<std::uint64_t> zsizes;
    std::vector<std::byte> main;
    std::size_t filled = 0;  // bytes of the current variable section
    std::vector<std::vector<std::byte>> zchunks;
    std::size_t zindex = 0;
  };

  bool pump_tx(amt::Rank dst);
  bool pump_rx(amt::Rank src);
  void finish_frame(amt::Rank src, RxState& rx);

  const amt::ParcelportContext context_;
  const bool integrity_on_;
  ministream::StreamMux mux_;

  struct TxQueue {
    common::SpinMutex mutex;
    std::deque<OutFrame> frames;
    // Stamped into the frame prefix under `mutex`, so the sequence matches
    // the order frames actually enter the (ordered) stream.
    std::uint32_t next_seq = 0;
  };
  std::vector<std::unique_ptr<TxQueue>> tx_queues_;   // per destination
  std::vector<std::unique_ptr<RxState>> rx_states_;   // per source
  std::vector<std::unique_ptr<common::SpinMutex>> rx_mutexes_;

  // Metrics under pptcp/loc<rank>/... in the fabric's registry; send_ns
  // spans send() entry to done-callback firing of sampled sends.
  telemetry::Counter& ctr_delivered_;
  telemetry::Histogram& hist_send_ns_;
  telemetry::Gauge& gauge_send_queue_depth_;  // frames queued or streaming,
                                              // done callback still pending

  std::atomic<bool> started_{false};
};

}  // namespace pptcp
