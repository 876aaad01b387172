#include "amt/runtime.hpp"

#include <mutex>
#include <stdexcept>
#include <string>

#include "common/buffer_cache.hpp"
#include "common/logging.hpp"

namespace amt {

namespace {
thread_local Locality* tls_here = nullptr;

std::string loc_metric(Rank rank, const char* leaf) {
  return "amt/loc" + std::to_string(rank) + "/" + leaf;
}
}  // namespace

Locality& here() {
  assert(tls_here != nullptr && "here() outside a locality task");
  return *tls_here;
}

bool has_here() { return tls_here != nullptr; }

namespace detail {
ScopedHere::ScopedHere(Locality* locality) : previous(tls_here) {
  tls_here = locality;
}
ScopedHere::~ScopedHere() { tls_here = previous; }
}  // namespace detail

// ---- Locality ---------------------------------------------------------------

Locality::Locality(Runtime& runtime, Rank rank, const RuntimeConfig& config)
    : runtime_(runtime),
      rank_(rank),
      zero_copy_threshold_(config.zero_copy_threshold),
      send_immediate_(config.parcelport.send_immediate),
      admission_(config.parcelport.admission),
      admission_on_(config.parcelport.admission.on()),
      scheduler_(config.threads_per_locality, "loc" + std::to_string(rank),
                 &runtime.telemetry()),
      connection_cache_(config.max_connections),
      ctr_parcels_sent_(
          runtime.telemetry().counter(loc_metric(rank, "parcels_sent"))),
      ctr_messages_sent_(
          runtime.telemetry().counter(loc_metric(rank, "messages_sent"))),
      ctr_messages_received_(
          runtime.telemetry().counter(loc_metric(rank, "messages_received"))),
      ctr_actions_executed_(
          runtime.telemetry().counter(loc_metric(rank, "actions_executed"))),
      hist_serialize_ns_(
          runtime.telemetry().histogram(loc_metric(rank, "serialize_ns"))),
      hist_aggregate_batch_(runtime.telemetry().histogram(
          loc_metric(rank, "aggregate_batch"))),
      gauge_parcel_queue_depth_(runtime.telemetry().gauge(
          loc_metric(rank, "parcel_queue_depth"))),
      ctr_admit_accepted_(
          runtime.telemetry().counter(loc_metric(rank, "admit_accepted"))) {
  connection_cache_.attach_counters(
      &runtime.telemetry().counter(loc_metric(rank, "conncache_hits")),
      &runtime.telemetry().counter(loc_metric(rank, "conncache_failures")));
  parcel_queues_.reserve(config.num_localities);
  for (Rank r = 0; r < config.num_localities; ++r) {
    parcel_queues_.push_back(std::make_unique<DestQueue>());
  }
}

Locality::~Locality() = default;

Rank Locality::num_localities() const { return runtime_.num_localities(); }

void Locality::spawn(common::UniqueFunction<void()> fn) {
  scheduler_.spawn([this, fn = std::move(fn)]() mutable {
    detail::ScopedHere scope(this);
    fn();
  });
}

void Locality::put_parcel(Rank dst, ParcelWriter writer, bool admissible) {
  // Admission window (remote destinations only: local delivery never
  // queues on the network). The whole block compiles down to one branch on
  // admission_on_ for the historical configurations.
  if (admission_on_ && dst != rank_) {
    DestQueue& queue = *parcel_queues_[dst];
    const auto bound = static_cast<std::int64_t>(admission_.window);
    // Every accepted parcel — admissible or exempt — occupies a window slot
    // until it executes at the destination; exempt traffic fills the window
    // but never waits on it. Admissible traffic claims its slot with one
    // CAS, so concurrent senders can never both pass the bound check on the
    // last free slot.
    std::int64_t depth = 0;
    const auto try_reserve = [&queue, bound, &depth] {
      std::int64_t cur = queue.outstanding.load(std::memory_order_relaxed);
      while (cur < bound) {
        if (queue.outstanding.compare_exchange_weak(
                cur, cur + 1, std::memory_order_relaxed)) {
          depth = cur + 1;
          return true;
        }
      }
      return false;
    };
    if (!admissible) {
      depth = queue.outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
    } else {
      if (!try_reserve()) {
        admit_block_waits_.fetch_add(1, std::memory_order_relaxed);
        // Runs tasks + parcelport progress while waiting, so send
        // completions keep draining even when every worker blocks here.
        scheduler_.wait_until(try_reserve);
      }
      admit_accepted_.fetch_add(1, std::memory_order_relaxed);
      ctr_admit_accepted_.add();
    }
    gauge_parcel_queue_depth_.add();
    std::int64_t peak = admit_peak_depth_.load(std::memory_order_relaxed);
    while (depth > peak && !admit_peak_depth_.compare_exchange_weak(
                               peak, depth, std::memory_order_relaxed)) {
    }
  }
  ctr_parcels_sent_.add();

  if (send_immediate_) {
    // Bypass the parcel queue and the connection cache entirely (paper
    // §3.2.2, the "_i" configurations).
    OutputArchive ar(zero_copy_threshold_);
    const std::uint32_t count = 1;
    ar << count;
    OutMessage msg = [&] {
      telemetry::ScopedTimer timer(hist_serialize_ns_);
      writer(ar);
      return ar.finish();
    }();
    ctr_messages_sent_.add();
    if (dst == rank_) {
      deliver_local(std::move(msg));
    } else {
      parcelport_->send(dst, std::move(msg), [] {});
    }
    return;
  }

  {
    DestQueue& queue = *parcel_queues_[dst];
    std::lock_guard<common::SpinMutex> guard(queue.mutex);
    queue.parcels.push_back(std::move(writer));
  }
  try_flush(dst);
}

void Locality::admission_release(Rank dst, std::int64_t parcels) {
  if (!admission_on_ || parcels == 0) return;
  parcel_queues_[dst]->outstanding.fetch_sub(parcels,
                                             std::memory_order_relaxed);
  gauge_parcel_queue_depth_.sub(parcels);
}

void Locality::try_flush(Rank dst) {
  for (;;) {
    if (!connection_cache_.try_acquire()) return;  // parcels stay queued
    std::vector<ParcelWriter> pending;
    {
      DestQueue& queue = *parcel_queues_[dst];
      std::lock_guard<common::SpinMutex> guard(queue.mutex);
      pending.swap(queue.parcels);
    }
    if (pending.empty()) {
      connection_cache_.release();
      return;
    }
    // Aggregate everything queued for this destination into one HPX message.
    hist_aggregate_batch_.record(pending.size());
    OutputArchive ar(zero_copy_threshold_);
    ar << static_cast<std::uint32_t>(pending.size());
    OutMessage msg = [&] {
      telemetry::ScopedTimer timer(hist_serialize_ns_);
      for (auto& writer : pending) writer(ar);
      return ar.finish();
    }();
    ctr_messages_sent_.add();

    if (dst == rank_) {
      deliver_local(std::move(msg));
      connection_cache_.release();
      continue;  // more parcels may have queued meanwhile
    }
    parcelport_->send(dst, std::move(msg), [this, dst] {
      connection_cache_.release();
      // The freed connection may unblock queued parcels — this or others.
      try_flush(dst);
      flush_all();
    });
    return;
  }
}

void Locality::flush_all() {
  for (Rank dst = 0; dst < parcel_queues_.size(); ++dst) {
    bool nonempty;
    {
      DestQueue& queue = *parcel_queues_[dst];
      std::lock_guard<common::SpinMutex> guard(queue.mutex);
      nonempty = !queue.parcels.empty();
    }
    if (nonempty) try_flush(dst);
  }
}

void Locality::deliver_local(OutMessage&& msg) {
  // Local-destination parcels skip the parcelport (as in HPX) but take the
  // same serialize/deserialize path, so local and remote semantics match.
  InMessage in;
  in.source = rank_;
  in.main_chunk = std::move(msg.main_chunk);
  in.zchunks.reserve(msg.zchunks.size());
  for (const ZChunk& chunk : msg.zchunks) {
    in.zchunks.emplace_back(chunk.data, chunk.data + chunk.size);
  }
  on_message(std::move(in));
}

void Locality::on_message(InMessage&& msg) {
  ctr_messages_received_.add();
  scheduler_.spawn([this, msg = std::move(msg)]() mutable {
    detail::ScopedHere scope(this);
    const std::uint32_t parcels = handle_message(msg);
    // The consumed main chunk's capacity goes back to the cache, from which
    // the sim backend takes its datagram vectors, instead of being freed on
    // this thread after the sender's thread allocated it.
    common::BufferCache::give(std::move(msg.main_chunk));
    // Credit return for the sender's admission window: a slot frees only
    // once its parcel has *executed* here, so `outstanding` spans the whole
    // path (sender queue, wire, destination scheduler) — send-side
    // completions fire at injection and would hide the downstream backlog.
    // The return is an in-process shortcut, so it only works when the
    // sender's locality object lives here; multi-process (shm) runs reject
    // admission-on configs at construction.
    if (msg.source != rank_ && runtime_.locality_is_local(msg.source)) {
      runtime_.locality(msg.source).admission_release(rank_, parcels);
    }
  });
}

std::uint32_t Locality::handle_message(const InMessage& msg) {
  InputArchive ar(msg);
  std::uint32_t count = 0;
  ar >> count;
  for (std::uint32_t i = 0; i < count; ++i) {
    ActionId action = 0;
    std::uint64_t promise_id = 0;
    ar >> action >> promise_id;
    if (action == kResponseAction) {
      common::UniqueFunction<void(InputArchive&)> handler;
      {
        std::lock_guard<common::SpinMutex> guard(promise_mutex_);
        auto it = promises_.find(promise_id);
        if (it == promises_.end()) {
          AMTNET_LOG_ERROR("response for unknown promise ", promise_id);
          // Cannot resynchronise the archive; drop the rest (the credits
          // still return in full — a leaked slot would wedge admission).
          return count;
        }
        handler = std::move(it->second);
        promises_.erase(it);
      }
      handler(ar);
    } else {
      const ActionVTable vtable = ActionRegistry::instance().get(action);
      assert(vtable.invoke != nullptr);
      vtable.invoke(*this, msg.source, promise_id, ar);
    }
    ctr_actions_executed_.add();
  }
  return count;
}

std::uint64_t Locality::register_promise(
    common::UniqueFunction<void(InputArchive&)> handler) {
  std::lock_guard<common::SpinMutex> guard(promise_mutex_);
  const std::uint64_t id = next_promise_id_++;
  promises_.emplace(id, std::move(handler));
  return id;
}

void Locality::send_response(Rank dst, std::uint64_t promise_id,
                             ParcelWriter payload) {
  put_parcel(dst, [promise_id,
                   payload = std::move(payload)](OutputArchive& ar) mutable {
    ar << kResponseAction << promise_id;
    payload(ar);
  });
}

AdmissionStats Locality::admission_stats() const {
  AdmissionStats stats;
  stats.accepted = admit_accepted_.load(std::memory_order_relaxed);
  stats.block_waits = admit_block_waits_.load(std::memory_order_relaxed);
  stats.peak_queue_depth = admit_peak_depth_.load(std::memory_order_relaxed);
  return stats;
}

LocalityStats Locality::stats() const {
  // Single aggregation pass over the registry counters; relaxed-read
  // semantics as documented in telemetry/metrics.hpp (each field coherent
  // and monotonic, the set not a cross-counter atomic cut).
  LocalityStats stats;
  stats.parcels_sent = ctr_parcels_sent_.value();
  stats.messages_sent = ctr_messages_sent_.value();
  stats.messages_received = ctr_messages_received_.value();
  stats.actions_executed = ctr_actions_executed_.value();
  return stats;
}

// ---- Runtime ----------------------------------------------------------------

Runtime::Runtime(RuntimeConfig config, ParcelportFactory factory)
    : config_([&] {
        config.fabric.num_ranks = config.num_localities;
        return config;
      }()),
      factory_(std::move(factory)),
      fabric_(config_.fabric) {
  if (!config_.fabric.single_process() && config_.parcelport.admission.on()) {
    // Admission credits return through the sender's in-process locality
    // object, which does not exist across process boundaries.
    throw std::invalid_argument(
        "the admission window (block<N>) is not supported in "
        "multi-process shm mode");
  }
  localities_.resize(config_.num_localities);
  for (Rank r = 0; r < config_.num_localities; ++r) {
    if (!config_.fabric.rank_is_local(r)) continue;  // another process hosts it
    localities_[r] = std::make_unique<Locality>(*this, r, config_);
  }
}

Runtime::~Runtime() { stop(); }

void Runtime::start() {
  if (started_) return;
  started_ = true;
  for (Rank r = 0; r < config_.num_localities; ++r) {
    if (localities_[r] == nullptr) continue;
    Locality& locality = *localities_[r];
    ParcelportContext context;
    context.fabric = &fabric_;
    context.rank = r;
    context.zero_copy_threshold = config_.zero_copy_threshold;
    context.num_workers = config_.threads_per_locality;
    context.config = config_.parcelport;
    context.deliver = [&locality](InMessage&& msg) {
      locality.on_message(std::move(msg));
    };
    context.queue_depth = [&locality](Rank dst) -> std::uint64_t {
      const std::int64_t depth =
          locality.parcel_queues_[dst]->outstanding.load(
              std::memory_order_relaxed);
      return depth > 0 ? static_cast<std::uint64_t>(depth) : 0;
    };
    locality.parcelport_ = factory_(*this, context);
    Parcelport* port = locality.parcelport_.get();
    locality.scheduler_.set_background(
        [port](unsigned worker) { return port->background_work(worker); });
    port->start();
  }
  for (auto& locality : localities_) {
    if (locality) locality->scheduler_.start();
  }
}

void Runtime::stop() {
  if (!started_) return;
  started_ = false;
  for (auto& locality : localities_) {
    if (locality) locality->scheduler_.stop();
  }
  for (auto& locality : localities_) {
    if (locality && locality->parcelport_) locality->parcelport_->stop();
  }
}

}  // namespace amt
