#include "parcelport_mpi/parcelport_mpi.hpp"

#include <algorithm>
#include <mutex>
#include <string>

#include "common/clock.hpp"
#include "common/integrity.hpp"
#include "common/logging.hpp"

namespace ppmpi {

namespace {
minimpi::Config make_comm_config(const amt::ParcelportContext& context) {
  minimpi::Config config;
  config.lock_mode = context.config.mpi_coarse_lock
                         ? minimpi::LockMode::kCoarseBlocking
                         : minimpi::LockMode::kFineGrained;
  return config;
}

std::string pp_metric(amt::Rank rank, const char* leaf) {
  return "ppmpi/loc" + std::to_string(rank) + "/" + leaf;
}
}  // namespace

MpiParcelport::MpiParcelport(const amt::ParcelportContext& context)
    : context_(context),
      original_(context.config.mpi_original),
      max_header_size_(original_
                           ? 512
                           : std::max(context.zero_copy_threshold,
                                      sizeof(amt::WireHeader))),
      comm_(*context.fabric, context.rank, make_comm_config(context)),
      header_seq_tx_(context.fabric->num_ranks()),
      header_seq_rx_(context.fabric->num_ranks()),
      ctr_delivered_(context.fabric->telemetry().counter(
          pp_metric(context.rank, "messages_delivered"))),
      hist_send_ns_(context.fabric->telemetry().histogram(
          pp_metric(context.rank, "send_ns"))),
      gauge_send_queue_depth_(context.fabric->telemetry().gauge(
          pp_metric(context.rank, "send_queue_depth"))) {}

MpiParcelport::~MpiParcelport() = default;

void MpiParcelport::start() {
  started_.store(true);
  header_recv_buf_.resize(max_header_size_);
  header_req_ = comm_.irecv(header_recv_buf_.data(), header_recv_buf_.size(),
                            minimpi::kAnySource, kHeaderTag);
  if (original_) {
    tag_release_req_ = comm_.irecv(&tag_release_buf_, sizeof(tag_release_buf_),
                                   minimpi::kAnySource, kTagReleaseTag);
  }
}

void MpiParcelport::stop() { started_.store(false); }

minimpi::Tag MpiParcelport::alloc_tag() {
  if (original_) {
    // Tag provider: reuse released tags before minting new ones.
    std::lock_guard<common::SpinMutex> guard(tag_provider_mutex_);
    if (!free_tags_.empty()) {
      const minimpi::Tag tag = free_tags_.back();
      free_tags_.pop_back();
      return tag;
    }
  }
  // Wrap-around atomic counter; assumes a connection pair with the same tag
  // value completes before the value is reused (paper §3.1's caveat).
  const std::uint64_t raw = next_tag_.fetch_add(1, std::memory_order_relaxed);
  return kFirstDataTag +
         static_cast<minimpi::Tag>(
             raw % (minimpi::kTagUpperBound - kFirstDataTag));
}

void MpiParcelport::release_tag(minimpi::Tag tag) {
  std::lock_guard<common::SpinMutex> guard(tag_provider_mutex_);
  free_tags_.push_back(tag);
}

void MpiParcelport::send(amt::Rank dst, amt::OutMessage msg,
                         common::UniqueFunction<void()> done) {
  AMTNET_TRACE_SCOPE("ppmpi", "send");
  gauge_send_queue_depth_.add();
  done = [this, inner = std::move(done)]() mutable {
    gauge_send_queue_depth_.sub();
    inner();
  };
  telemetry::time_completion(hist_send_ns_, telemetry::sample_start(), done);
  const amt::HeaderPlan plan =
      original_ ? amt::HeaderPlan::decide_original(msg)
                : amt::HeaderPlan::decide(msg, max_header_size_);

  auto connection = std::make_unique<SenderConnection>();
  connection->dst = dst;
  connection->done = std::move(done);
  connection->tag =
      plan.num_followups(msg) > 0 ? alloc_tag() : 0;
  const std::uint32_t header_seq =
      header_seq_tx_[dst].value.fetch_add(1, std::memory_order_relaxed);
  amt::encode_header(msg, plan, static_cast<std::uint32_t>(connection->tag),
                     header_seq, connection->header_buf);

  // Follow-up pieces in wire order (paper §3.1): non-zero-copy chunk,
  // transmission chunk, zero-copy chunks.
  if (!plan.piggy_main) {
    connection->pieces.emplace_back(msg.main_chunk.data(),
                                    msg.main_chunk.size());
  }
  if (msg.has_zchunks() && !plan.piggy_tchunk) {
    connection->tchunk_buf = msg.make_tchunk();
    connection->pieces.emplace_back(connection->tchunk_buf.data(),
                                    connection->tchunk_buf.size());
  }
  for (const amt::ZChunk& chunk : msg.zchunks) {
    connection->pieces.emplace_back(chunk.data, chunk.size);
  }
  connection->msg = std::move(msg);

  // The header message goes out on tag 0 from the calling worker thread.
  connection->current =
      comm_.isend(connection->header_buf.data(), connection->header_buf.size(),
                  dst, kHeaderTag);
  if (connection->pieces.empty()) {
    // Whole message piggybacked: the connection finishes as soon as the
    // header send completes (usually immediately — eager path).
    if (connection->current.done()) {
      connection->done();
      return;
    }
  }
  enqueue_pending(std::move(connection));
}

bool MpiParcelport::SenderConnection::advance(MpiParcelport& port) {
  if (current.valid() && !port.comm_.test(current)) return false;
  if (pieces_posted < pieces.size()) {
    const auto [data, size] = pieces[pieces_posted];
    ++pieces_posted;
    current = port.comm_.isend(data, size, dst, tag);
    return false;
  }
  done();
  return true;
}

void MpiParcelport::ReceiverConnection::post_next(MpiParcelport& port) {
  for (;;) {
    switch (stage) {
      case Stage::kMain:
        stage = Stage::kTchunk;
        if (!fields.piggy_main && fields.main_size > 0) {
          main.resize(fields.main_size);
          current = port.comm_.irecv(main.data(), main.size(),
                                     static_cast<int>(src), tag);
          return;
        }
        break;
      case Stage::kTchunk:
        stage = Stage::kZchunks;
        if (fields.num_zchunks > 0 && !fields.piggy_tchunk) {
          tchunk.resize(fields.num_zchunks * sizeof(std::uint64_t));
          current = port.comm_.irecv(tchunk.data(), tchunk.size(),
                                     static_cast<int>(src), tag);
          return;
        }
        break;
      case Stage::kZchunks:
        if (zsizes.empty() && fields.num_zchunks > 0) {
          zsizes = amt::parse_tchunk(tchunk.data(), tchunk.size(),
                                     fields.num_zchunks);
        }
        if (zindex < fields.num_zchunks) {
          zchunks.emplace_back(zsizes[zindex]);
          current = port.comm_.irecv(zchunks.back().data(),
                                     zchunks.back().size(),
                                     static_cast<int>(src), tag);
          ++zindex;
          return;
        }
        stage = Stage::kDone;
        return;
      case Stage::kDone:
        return;
    }
  }
}

bool MpiParcelport::ReceiverConnection::advance(MpiParcelport& port) {
  if (current.valid() && !port.comm_.test(current)) return false;
  post_next(port);
  if (stage == Stage::kDone) {
    finish(port);
    return true;
  }
  return false;
}

void MpiParcelport::ReceiverConnection::finish(MpiParcelport& port) {
  amt::InMessage in;
  in.source = src;
  in.main_chunk = std::move(main);
  in.zchunks = std::move(zchunks);
  port.ctr_delivered_.add();
  port.context_.deliver(std::move(in));
  if (port.original_ && tag != 0) {
    // Tag-release protocol: hand the tag back to the sender's provider.
    const std::uint32_t released = static_cast<std::uint32_t>(tag);
    port.comm_.isend(&released, sizeof(released), src, kTagReleaseTag);
  }
}

void MpiParcelport::handle_header(amt::Rank src, const std::byte* data,
                                  std::size_t size) {
  amt::DecodedHeader decoded = amt::decode_header(data, size);
  {
    // A duplicated header would double-deliver a parcel: fail fast.
    HeaderSeqRx& rx = header_seq_rx_[src].value;
    std::lock_guard<common::SpinMutex> guard(rx.mutex);
    if (!rx.tracker.accept(decoded.fields.seq)) {
      common::integrity_fail("ppmpi: duplicated wire header rank=",
                             context_.rank, " src=", src,
                             " seq=", decoded.fields.seq,
                             " tag=", decoded.fields.tag,
                             " — a duplicate would double-deliver a parcel");
    }
  }

  auto connection = std::make_unique<ReceiverConnection>();
  connection->src = src;
  connection->tag = static_cast<minimpi::Tag>(decoded.fields.tag);
  connection->fields = decoded.fields;
  connection->main = std::move(decoded.piggy_main);
  connection->tchunk = std::move(decoded.piggy_tchunk);

  connection->post_next(*this);
  if (connection->stage == ReceiverConnection::Stage::kDone) {
    connection->finish(*this);  // fully piggybacked message
    return;
  }
  enqueue_pending(std::move(connection));
}

void MpiParcelport::enqueue_pending(std::unique_ptr<Connection> connection) {
  std::lock_guard<common::SpinMutex> guard(pending_mutex_);
  pending_.push_back(std::move(connection));
}

bool MpiParcelport::check_header_receive() {
  if (!header_mutex_.try_lock()) return false;
  bool did_work = false;
  if (header_req_.valid() && comm_.test(header_req_)) {
    const amt::Rank src = static_cast<amt::Rank>(header_req_.source());
    // Decode before reposting: the buffer is reused for the next header.
    handle_header(src, header_recv_buf_.data(), header_req_.size());
    header_req_ = comm_.irecv(header_recv_buf_.data(),
                              header_recv_buf_.size(), minimpi::kAnySource,
                              kHeaderTag);
    did_work = true;
  }
  header_mutex_.unlock();
  return did_work;
}

bool MpiParcelport::check_tag_release_receive() {
  if (!tag_release_mutex_.try_lock()) return false;
  bool did_work = false;
  if (tag_release_req_.valid() && comm_.test(tag_release_req_)) {
    release_tag(static_cast<minimpi::Tag>(tag_release_buf_));
    tag_release_req_ = comm_.irecv(&tag_release_buf_,
                                   sizeof(tag_release_buf_),
                                   minimpi::kAnySource, kTagReleaseTag);
    did_work = true;
  }
  tag_release_mutex_.unlock();
  return did_work;
}

bool MpiParcelport::advance_pending(unsigned max_connections) {
  bool finished_any = false;
  for (unsigned i = 0; i < max_connections; ++i) {
    std::unique_ptr<Connection> connection;
    {
      std::lock_guard<common::SpinMutex> guard(pending_mutex_);
      if (pending_.empty()) break;
      connection = std::move(pending_.front());
      pending_.pop_front();
    }
    if (connection->advance(*this)) {
      finished_any = true;  // connection completed and is destroyed
    } else {
      std::lock_guard<common::SpinMutex> guard(pending_mutex_);
      pending_.push_back(std::move(connection));
    }
  }
  return finished_any;
}

bool MpiParcelport::background_work(unsigned /*worker_index*/) {
  if (!started_.load(std::memory_order_relaxed)) return false;
  bool did_work = check_header_receive();
  if (original_) did_work |= check_tag_release_receive();
  did_work |= advance_pending(8);
  return did_work;
}

}  // namespace ppmpi
