// The AMT runtime: localities, the parcel layer (parcel queues + connection
// cache + send-immediate path), the promise table for remote results, and
// the typed action front end (apply / async).
//
// One process hosts all simulated localities (each the analogue of an MPI
// rank running an HPX runtime): every locality has its own worker pool,
// parcelport instance, and NIC; they share only the simulated fabric — the
// same sharing a real cluster has through its switch.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "amt/action.hpp"
#include "amt/future.hpp"
#include "amt/message.hpp"
#include "amt/parcelport.hpp"
#include "amt/scheduler.hpp"
#include "amt/serialization.hpp"
#include "common/spinlock.hpp"
#include "fabric/nic.hpp"

namespace amt {

class Runtime;
class Locality;

/// The locality whose task the calling thread is currently executing.
/// Valid inside action handlers and tasks spawned via Locality::spawn.
Locality& here();
bool has_here();

namespace detail {

struct ScopedHere {
  explicit ScopedHere(Locality* locality);
  ~ScopedHere();
  Locality* previous;
};

template <typename Fn>
struct FnTraits;

template <typename R, typename... As>
struct FnTraits<R (*)(As...)> {
  using Result = R;
  using ArgsTuple = std::tuple<std::decay_t<As>...>;
};

}  // namespace detail

/// HPX's connection cache, reduced to its contention-relevant essentials: a
/// counter of live connections with a configurable cap (8192 by default).
/// Acquire fails when the cap is reached, leaving parcels queued — which is
/// exactly when the parcel queue provides aggregation.
///
/// Lock-free: acquire reserves a slot with a CAS loop that never pushes the
/// counter past the cap. (An earlier fetch_add/fetch_sub scheme overshot
/// transiently, which let N concurrent losers read in_use() up to cap+N and
/// — with a cap of 1 — let two acquirers both fail even though a slot was
/// free the whole time.)
class ConnectionCache {
 public:
  explicit ConnectionCache(std::size_t max_connections)
      : max_(max_connections) {}

  /// Mirrors acquire outcomes into registry counters (either may be null).
  /// The internal tallies keep working regardless, so standalone caches
  /// (tests) need no registry.
  void attach_counters(telemetry::Counter* hits, telemetry::Counter* failures) {
    hit_counter_ = hits;
    failure_counter_ = failures;
  }

  bool try_acquire() {
    std::size_t current = in_use_.load(std::memory_order_relaxed);
    for (;;) {
      if (current >= max_) {
        acquire_failures_.fetch_add(1, std::memory_order_relaxed);
        if (failure_counter_ != nullptr) failure_counter_->add();
        return false;
      }
      if (in_use_.compare_exchange_weak(current, current + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        if (hit_counter_ != nullptr) hit_counter_->add();
        return true;
      }
    }
  }

  void release() {
    const std::size_t prev = in_use_.fetch_sub(1, std::memory_order_acq_rel);
    assert(prev > 0);
    (void)prev;
  }

  std::size_t in_use() const {
    return in_use_.load(std::memory_order_acquire);
  }

  std::uint64_t acquire_failures() const {
    return acquire_failures_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t max_;
  std::atomic<std::size_t> in_use_{0};
  std::atomic<std::uint64_t> acquire_failures_{0};
  telemetry::Counter* hit_counter_ = nullptr;
  telemetry::Counter* failure_counter_ = nullptr;
};

struct RuntimeConfig {
  Rank num_localities = 2;
  unsigned threads_per_locality = 2;
  std::size_t zero_copy_threshold = kDefaultZeroCopyThreshold;
  std::size_t max_connections = 8192;  // HPX default connection cap
  ParcelportConfig parcelport;         // backend + variant knobs
  fabric::Config fabric;               // num_ranks is overridden
};

/// Per-locality statistics (racy snapshots, for tests and benches).
struct LocalityStats {
  std::uint64_t parcels_sent = 0;
  std::uint64_t messages_sent = 0;  // HPX messages handed to the parcelport
  std::uint64_t messages_received = 0;
  std::uint64_t actions_executed = 0;
};

/// Admission-window tallies of one locality (all destinations summed).
/// Kept in plain atomics — not the telemetry registry — so the conservation
/// invariant (accepted == executed at quiescence) holds exactly even in
/// AMTNET_TELEMETRY_DISABLED builds.
struct AdmissionStats {
  std::uint64_t accepted = 0;        // fire-and-forget parcels admitted
  std::uint64_t block_waits = 0;     // put_parcel calls that had to wait
  std::int64_t peak_queue_depth = 0; // max in-flight parcels to any one dest
};

class Locality {
 public:
  Locality(Runtime& runtime, Rank rank, const RuntimeConfig& config);
  Locality(const Locality&) = delete;
  Locality& operator=(const Locality&) = delete;
  ~Locality();

  Rank rank() const { return rank_; }
  Rank num_localities() const;
  Scheduler& scheduler() { return scheduler_; }
  Runtime& runtime() { return runtime_; }

  /// Spawns a task on this locality's workers; inside it, here() works.
  void spawn(common::UniqueFunction<void()> fn);

  /// Fire-and-forget remote (or local) action invocation. Under an
  /// admission window it waits while the destination's window is full.
  template <auto Fn, typename... Args>
  void apply(Rank dst, Args&&... args) {
    put_parcel_typed<Fn>(dst, 0, std::forward<Args>(args)...);
  }

  /// Action invocation returning a future for the result.
  template <auto Fn, typename... Args>
  auto async(Rank dst, Args&&... args)
      -> Future<typename detail::FnTraits<decltype(Fn)>::Result> {
    using Result = typename detail::FnTraits<decltype(Fn)>::Result;
    Promise<Result> promise(&scheduler_);
    auto future = promise.get_future();
    const std::uint64_t promise_id = register_promise(
        [promise = std::move(promise)](InputArchive& ar) mutable {
          if constexpr (std::is_void_v<Result>) {
            (void)ar;
            promise.set_value();
          } else {
            Result value{};
            ar >> value;
            promise.set_value(std::move(value));
          }
        });
    put_parcel_typed<Fn>(dst, promise_id, std::forward<Args>(args)...);
    return future;
  }

  LocalityStats stats() const;
  /// Relaxed snapshot of the admission tallies (exact at quiescence).
  AdmissionStats admission_stats() const;
  const ConnectionCache& connection_cache() const {
    return connection_cache_;
  }
  /// The installed parcelport (null before Runtime::start). Tests use this
  /// to reach backend-specific hooks (e.g. the LCI tag-counter positioner).
  Parcelport* parcelport() { return parcelport_.get(); }

  // ---- internal plumbing (used by Runtime, parcelports, action glue) ----

  using ParcelWriter = common::UniqueFunction<void(OutputArchive&)>;

  /// Queues one parcel for `dst` (or serializes immediately when the
  /// send-immediate optimisation is on). Thread-safe. `admissible` marks
  /// fire-and-forget parcels that wait for a free admission-window slot;
  /// responses and promise-bearing requests pass false and never wait.
  void put_parcel(Rank dst, ParcelWriter writer, bool admissible = false);

  /// Registers a one-shot handler for a response parcel; returns its id.
  std::uint64_t register_promise(
      common::UniqueFunction<void(InputArchive&)> handler);

  /// Sends a response parcel fulfilling `promise_id` at `dst`.
  void send_response(Rank dst, std::uint64_t promise_id, ParcelWriter payload);

  /// Entry point for the parcelport: a complete HPX message arrived.
  void on_message(InMessage&& msg);

 private:
  friend class Runtime;

  template <auto Fn, typename... Args>
  void put_parcel_typed(Rank dst, std::uint64_t promise_id, Args&&... args);

  void try_flush(Rank dst);
  void flush_all();
  void deliver_local(OutMessage&& msg);
  /// Executes every parcel in `msg`; returns the parcel count (the credits
  /// on_message hands back to the sender's admission window).
  std::uint32_t handle_message(const InMessage& msg);

  struct DestQueue {
    common::SpinMutex mutex;
    std::vector<ParcelWriter> parcels;
    /// Credit window: parcels accepted for this destination that have not
    /// yet *executed* there. Send-side completion callbacks fire at
    /// injection — long before the NIC drains — so credits return from the
    /// destination's handler instead, making `outstanding` cover the whole
    /// path (sender queue, wire, destination scheduler). Only maintained
    /// while admission is on.
    std::atomic<std::int64_t> outstanding{0};
  };

  /// Returns `parcels` credits for destination `dst`: called by the
  /// destination locality once a message's parcels executed. No-op while
  /// admission is off.
  void admission_release(Rank dst, std::int64_t parcels);

  Runtime& runtime_;
  const Rank rank_;
  const std::size_t zero_copy_threshold_;
  const bool send_immediate_;
  const AdmissionConfig admission_;
  const bool admission_on_;  // admission_.on(): zero-cost path when false
  Scheduler scheduler_;
  std::unique_ptr<Parcelport> parcelport_;  // installed by Runtime::start

  std::vector<std::unique_ptr<DestQueue>> parcel_queues_;
  ConnectionCache connection_cache_;

  // Admission tallies (plain atomics: exact under TELEMETRY_DISABLED too).
  std::atomic<std::uint64_t> admit_accepted_{0};
  std::atomic<std::uint64_t> admit_block_waits_{0};
  std::atomic<std::int64_t> admit_peak_depth_{0};

  common::SpinMutex promise_mutex_;
  std::uint64_t next_promise_id_ = 1;
  std::unordered_map<std::uint64_t,
                     common::UniqueFunction<void(InputArchive&)>>
      promises_;

  // Metrics under amt/loc<rank>/... in the Runtime's (= Fabric's) registry.
  telemetry::Counter& ctr_parcels_sent_;
  telemetry::Counter& ctr_messages_sent_;
  telemetry::Counter& ctr_messages_received_;
  telemetry::Counter& ctr_actions_executed_;
  telemetry::Histogram& hist_serialize_ns_;    // sampled serialize time
  telemetry::Histogram& hist_aggregate_batch_; // parcels per flushed message
  telemetry::Gauge& gauge_parcel_queue_depth_; // in-flight parcels, all dests
  telemetry::Counter& ctr_admit_accepted_;
};

class Runtime {
 public:
  using ParcelportFactory = std::function<std::unique_ptr<Parcelport>(
      Runtime& runtime, const ParcelportContext& context)>;

  Runtime(RuntimeConfig config, ParcelportFactory factory);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  void start();
  void stop();

  Rank num_localities() const { return config_.num_localities; }
  /// The locality object of `rank`. In multi-process (shm) mode only
  /// AMTNET_SHM_RANK's locality exists in this process; asking for another
  /// rank's aborts — check locality_is_local() first on generic paths.
  Locality& locality(Rank rank) {
    assert(rank < localities_.size() && localities_[rank] != nullptr &&
           "locality() for a rank hosted by another process");
    return *localities_[rank];
  }
  /// True when `rank`'s locality object lives in this process.
  bool locality_is_local(Rank rank) const {
    return rank < localities_.size() && localities_[rank] != nullptr;
  }
  /// The locality this process hosts in multi-process mode (rank 0 in
  /// single-process mode, where every locality is local).
  Locality& local_locality() {
    return locality(config_.fabric.single_process()
                        ? 0
                        : static_cast<Rank>(config_.fabric.local_rank));
  }
  fabric::Fabric& fabric() { return fabric_; }
  const RuntimeConfig& config() const { return config_; }

  /// The registry every layer of this runtime reports into (owned by the
  /// fabric). Snapshot it for a full per-layer breakdown.
  telemetry::Registry& telemetry() const { return fabric_.telemetry(); }

  /// Runs `fn` as a task on locality 0 and waits for `latch_count` latch
  /// decrements signalled via the passed Latch. Convenience for mains.
  template <typename F>
  void run_on_root(F&& fn) {
    Latch done(1);
    locality(0).spawn([&] {
      fn();
      done.count_down();
    });
    done.wait(locality(0).scheduler());
  }

 private:
  RuntimeConfig config_;
  ParcelportFactory factory_;
  fabric::Fabric fabric_;
  std::vector<std::unique_ptr<Locality>> localities_;
  bool started_ = false;
};

// ---- typed action glue ------------------------------------------------------

namespace detail {

template <auto Fn>
void invoke_action(Locality& here_locality, Rank source,
                   std::uint64_t promise_id, InputArchive& ar) {
  using Traits = FnTraits<decltype(Fn)>;
  using Result = typename Traits::Result;
  typename Traits::ArgsTuple args{};
  // Element-wise, mirroring the element-wise writes in put_parcel_typed
  // (never as one tuple blob: tuple layout/padding is not wire format).
  std::apply([&ar](auto&... elements) { ((ar >> elements), ...); }, args);
  if constexpr (std::is_void_v<Result>) {
    std::apply(Fn, std::move(args));
    if (promise_id != 0) {
      here_locality.send_response(source, promise_id,
                                  [](OutputArchive&) {});
    }
  } else {
    Result result = std::apply(Fn, std::move(args));
    if (promise_id != 0) {
      here_locality.send_response(
          source, promise_id,
          [result = std::move(result)](OutputArchive& out) mutable {
            out << std::move(result);
          });
    }
  }
}

}  // namespace detail

/// Process-wide id of the action wrapping function pointer `Fn`. The id is
/// assigned on first use; since all localities share the process, ids are
/// trivially consistent.
template <auto Fn>
ActionId action_id() {
  static const ActionId id = ActionRegistry::instance().add(
      ActionVTable{&detail::invoke_action<Fn>, "amt::action"});
  return id;
}

template <auto Fn, typename... Args>
void Locality::put_parcel_typed(Rank dst, std::uint64_t promise_id,
                                Args&&... args) {
  using Traits = detail::FnTraits<decltype(Fn)>;
  const ActionId action = action_id<Fn>();
  typename Traits::ArgsTuple tuple(std::forward<Args>(args)...);
  // Only fire-and-forget parcels wait on the admission window: a
  // promise-bearing request's caller is already throttled by its future.
  put_parcel(
      dst,
      [action, promise_id,
       tuple = std::move(tuple)](OutputArchive& ar) mutable {
        ar << action << promise_id;
        // Move each argument out so large vectors transfer into zero-copy
        // keepalives instead of being copied again.
        std::apply(
            [&ar](auto&... elements) { ((ar << std::move(elements)), ...); },
            tuple);
      },
      /*admissible=*/promise_id == 0);
}

}  // namespace amt
