#include "parcelport_tcp/parcelport_tcp.hpp"

#include <cassert>
#include <cstring>
#include <mutex>
#include <string>

#include "common/clock.hpp"
#include "common/crc32.hpp"
#include "common/integrity.hpp"
#include "common/logging.hpp"

namespace pptcp {

namespace {
// Frame prefix: [u64 main_size][u32 num_zchunks][u32 frame_seq][u32 crc].
// frame_seq is a strict per-stream counter; crc is CRC-32 over everything
// after the prefix (zsizes + main + zchunks), 0 when the sender runs with
// integrity checking off.
constexpr std::size_t kPrefixSize =
    sizeof(std::uint64_t) + 3 * sizeof(std::uint32_t);
constexpr std::size_t kSeqOffset =
    sizeof(std::uint64_t) + sizeof(std::uint32_t);
constexpr std::size_t kCrcOffset = kSeqOffset + sizeof(std::uint32_t);

std::string pp_metric(amt::Rank rank, const char* leaf) {
  return "pptcp/loc" + std::to_string(rank) + "/" + leaf;
}
}  // namespace

TcpParcelport::TcpParcelport(const amt::ParcelportContext& context)
    : context_(context),
      integrity_on_(context.fabric->config().faults.integrity_on()),
      mux_(*context.fabric, context.rank),
      ctr_delivered_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "messages_delivered"))),
      hist_send_ns_(context.fabric->telemetry().histogram(
          pp_metric(context.rank, "send_ns"))),
      gauge_send_queue_depth_(context.fabric->telemetry().gauge(
          pp_metric(context.rank, "send_queue_depth"))) {
  const amt::Rank n = context.fabric->num_ranks();
  for (amt::Rank r = 0; r < n; ++r) {
    tx_queues_.push_back(std::make_unique<TxQueue>());
    rx_states_.push_back(std::make_unique<RxState>());
    rx_mutexes_.push_back(std::make_unique<common::SpinMutex>());
  }
}

void TcpParcelport::start() { started_.store(true); }
void TcpParcelport::stop() { started_.store(false); }

void TcpParcelport::send(amt::Rank dst, amt::OutMessage msg,
                         common::UniqueFunction<void()> done) {
  AMTNET_TRACE_SCOPE("pptcp", "send");
  gauge_send_queue_depth_.add();  // balanced when the frame fully streams
  telemetry::time_completion(hist_send_ns_, telemetry::sample_start(), done);
  OutFrame frame;
  frame.done = std::move(done);

  // Frame prefix: main size, zchunk count, zchunk sizes.
  frame.header.resize(kPrefixSize +
                      msg.zchunks.size() * sizeof(std::uint64_t));
  const std::uint64_t main_size = msg.main_chunk.size();
  const std::uint32_t num_z = static_cast<std::uint32_t>(msg.zchunks.size());
  std::memcpy(frame.header.data(), &main_size, sizeof(main_size));
  std::memcpy(frame.header.data() + sizeof(main_size), &num_z,
              sizeof(num_z));
  for (std::size_t i = 0; i < msg.zchunks.size(); ++i) {
    const std::uint64_t zsize = msg.zchunks[i].size;
    std::memcpy(frame.header.data() + kPrefixSize +
                    i * sizeof(std::uint64_t),
                &zsize, sizeof(zsize));
  }
  if (integrity_on_) {
    // CRC everything after the prefix: the zsize array just encoded plus
    // every payload byte. One extra pass over the data, only in fault mode.
    std::uint32_t crc = common::crc32(frame.header.data() + kPrefixSize,
                                      frame.header.size() - kPrefixSize);
    crc = common::crc32(msg.main_chunk.data(), msg.main_chunk.size(), crc);
    for (const amt::ZChunk& chunk : msg.zchunks) {
      crc = common::crc32(chunk.data, chunk.size, crc);
    }
    std::memcpy(frame.header.data() + kCrcOffset, &crc, sizeof(crc));
  }

  frame.pieces.emplace_back(frame.header.data(), frame.header.size());
  frame.pieces.emplace_back(msg.main_chunk.data(), msg.main_chunk.size());
  for (const amt::ZChunk& chunk : msg.zchunks) {
    frame.pieces.emplace_back(chunk.data, chunk.size);
  }
  frame.msg = std::move(msg);

  {
    TxQueue& queue = *tx_queues_[dst];
    std::lock_guard<common::SpinMutex> guard(queue.mutex);
    // Stamp the sequence under the queue lock so it matches the order the
    // frame enters the stream.
    const std::uint32_t seq = queue.next_seq++;
    std::memcpy(frame.header.data() + kSeqOffset, &seq, sizeof(seq));
    queue.frames.push_back(std::move(frame));
  }
  pump_tx(dst);
}

bool TcpParcelport::pump_tx(amt::Rank dst) {
  TxQueue& queue = *tx_queues_[dst];
  std::lock_guard<common::SpinMutex> guard(queue.mutex);
  bool moved = false;
  while (!queue.frames.empty()) {
    OutFrame& frame = queue.frames.front();
    while (!frame.finished()) {
      auto [data, size] = frame.pieces[frame.piece_index];
      const std::size_t accepted = mux_.send_some(
          dst, data + frame.piece_offset, size - frame.piece_offset);
      if (accepted == 0) return moved;  // stream send buffer full
      moved = true;
      frame.piece_offset += accepted;
      if (frame.piece_offset == size) {
        ++frame.piece_index;
        frame.piece_offset = 0;
      }
    }
    gauge_send_queue_depth_.sub();
    frame.done();
    queue.frames.pop_front();
  }
  return moved;
}

void TcpParcelport::finish_frame(amt::Rank src, RxState& rx) {
  if (rx.frame_crc != 0) {
    // Recompute the CRC over everything after the prefix, exactly as the
    // sender did: zsize array bytes, main chunk, then each zchunk.
    std::uint32_t crc = common::crc32(
        rx.zsizes.data(), rx.zsizes.size() * sizeof(std::uint64_t));
    crc = common::crc32(rx.main.data(), rx.main.size(), crc);
    for (const auto& chunk : rx.zchunks) {
      crc = common::crc32(chunk.data(), chunk.size(), crc);
    }
    if (crc != rx.frame_crc) {
      common::integrity_fail(
          "pptcp: frame CRC mismatch rank=", context_.rank, " src=", src,
          " seq=", rx.frame_seq, " main_size=", rx.main.size(),
          " num_zchunks=", rx.zchunks.size(), " stored=", rx.frame_crc,
          " computed=", crc, " — corrupted bytes survived the stream layer");
    }
  }
  amt::InMessage in;
  in.source = src;
  in.main_chunk = std::move(rx.main);
  in.zchunks = std::move(rx.zchunks);
  ctr_delivered_.add();
  RxState fresh;  // reset for the next frame; the seq expectation survives
  fresh.next_seq = rx.frame_seq + 1;
  rx = std::move(fresh);
  context_.deliver(std::move(in));
}

bool TcpParcelport::pump_rx(amt::Rank src) {
  // One worker at a time parses a given source stream.
  if (!rx_mutexes_[src]->try_lock()) return false;
  std::lock_guard<common::SpinMutex> guard(*rx_mutexes_[src],
                                           std::adopt_lock);
  RxState& rx = *rx_states_[src];
  bool moved = false;
  for (;;) {
    switch (rx.stage) {
      case RxState::Stage::kPrefix: {
        if (rx.scratch.size() < kPrefixSize) rx.scratch.resize(kPrefixSize);
        const std::size_t got =
            mux_.recv_some(src, rx.scratch.data() + rx.filled,
                           kPrefixSize - rx.filled);
        rx.filled += got;
        moved |= got > 0;
        if (rx.filled < kPrefixSize) return moved;
        std::memcpy(&rx.main_size, rx.scratch.data(), sizeof(rx.main_size));
        std::memcpy(&rx.num_zchunks,
                    rx.scratch.data() + sizeof(rx.main_size),
                    sizeof(rx.num_zchunks));
        std::memcpy(&rx.frame_seq, rx.scratch.data() + kSeqOffset,
                    sizeof(rx.frame_seq));
        std::memcpy(&rx.frame_crc, rx.scratch.data() + kCrcOffset,
                    sizeof(rx.frame_crc));
        if (integrity_on_ && rx.frame_seq != rx.next_seq) {
          // The stream is ordered, so the frame counter must advance in
          // lockstep; a gap means frame desync or corrupted framing.
          common::integrity_fail("pptcp: frame sequence mismatch rank=",
                                 context_.rank, " src=", src,
                                 " expected=", rx.next_seq,
                                 " got=", rx.frame_seq,
                                 " — stream framing desynchronised");
        }
        rx.filled = 0;
        rx.stage = rx.num_zchunks > 0 ? RxState::Stage::kZSizes
                                      : RxState::Stage::kMain;
        break;
      }
      case RxState::Stage::kZSizes: {
        const std::size_t want = rx.num_zchunks * sizeof(std::uint64_t);
        if (rx.scratch.size() < want) rx.scratch.resize(want);
        const std::size_t got = mux_.recv_some(
            src, rx.scratch.data() + rx.filled, want - rx.filled);
        rx.filled += got;
        moved |= got > 0;
        if (rx.filled < want) return moved;
        rx.zsizes.resize(rx.num_zchunks);
        std::memcpy(rx.zsizes.data(), rx.scratch.data(), want);
        rx.filled = 0;
        rx.stage = RxState::Stage::kMain;
        break;
      }
      case RxState::Stage::kMain: {
        rx.main.resize(rx.main_size);
        const std::size_t got = mux_.recv_some(
            src, rx.main.data() + rx.filled, rx.main_size - rx.filled);
        rx.filled += got;
        moved |= got > 0;
        if (rx.filled < rx.main_size) return moved;
        rx.filled = 0;
        if (rx.num_zchunks == 0) {
          finish_frame(src, rx);
          break;
        }
        rx.stage = RxState::Stage::kZChunks;
        rx.zchunks.clear();
        rx.zindex = 0;
        break;
      }
      case RxState::Stage::kZChunks: {
        if (rx.zchunks.size() <= rx.zindex) {
          rx.zchunks.emplace_back(rx.zsizes[rx.zindex]);
        }
        auto& chunk = rx.zchunks[rx.zindex];
        const std::size_t got = mux_.recv_some(
            src, chunk.data() + rx.filled, chunk.size() - rx.filled);
        rx.filled += got;
        moved |= got > 0;
        if (rx.filled < chunk.size()) return moved;
        rx.filled = 0;
        ++rx.zindex;
        if (rx.zindex == rx.num_zchunks) finish_frame(src, rx);
        break;
      }
    }
  }
}

bool TcpParcelport::background_work(unsigned /*worker_index*/) {
  if (!started_.load(std::memory_order_relaxed)) return false;
  bool moved = mux_.progress();
  for (amt::Rank dst = 0; dst < tx_queues_.size(); ++dst) {
    bool nonempty;
    {
      TxQueue& queue = *tx_queues_[dst];
      std::lock_guard<common::SpinMutex> guard(queue.mutex);
      nonempty = !queue.frames.empty();
    }
    if (nonempty) moved |= pump_tx(dst);
  }
  for (amt::Rank src = 0; src < rx_states_.size(); ++src) {
    if (mux_.available(src) > 0) moved |= pump_rx(src);
  }
  return moved;
}

}  // namespace pptcp
