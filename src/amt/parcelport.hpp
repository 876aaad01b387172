// The parcelport interface — the boundary between the AMT runtime's parcel
// layer and a communication backend (paper §2.2/§3), plus the configuration
// naming scheme of Table 1 (mpi, lci, sr/psr, cq/sy, pin/mt, _i).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "amt/message.hpp"
#include "amt/serialization.hpp"
#include "common/unique_function.hpp"
#include "fabric/nic.hpp"

namespace amt {

/// Admission control for the parcel send path (the serving-side analogue of
/// the fabric's TX-window back-pressure): a bound on per-destination
/// in-flight parcels plus a policy for what happens to new *admissible*
/// parcels — fire-and-forget applies — once the bound is hit. Responses and
/// promise-bearing requests are always exempt: shedding them would strand
/// promises (and futures) on the caller, so only best-effort traffic is
/// ever refused. Configured by name tokens (shed<N> / block<N> / dl<N>);
/// the deadline comes from AMTNET_ADMIT_DEADLINE_US (apply_admission_env).
struct AdmissionConfig {
  enum class Policy {
    kNone,      // unbounded queues (the historical behaviour)
    kShed,      // reject new admissible parcels while the bound is hit
    kBlock,     // back-pressure the caller (runs scheduler + progress work)
    kDeadline,  // shed at the bound AND drop queued parcels older than
                // deadline_us at flush time (no effect on "_i" configs,
                // which never queue)
  };
  Policy policy = Policy::kNone;
  std::size_t queue_bound = 0;  // per-destination in-flight parcel cap
  double deadline_us = 1000.0;  // kDeadline: max queue age before drop

  bool on() const { return policy != Policy::kNone && queue_bound > 0; }
};

/// Overrides deadline_us from AMTNET_ADMIT_DEADLINE_US, the queue-age drop
/// threshold of the deadline policy (unset leaves it untouched).
void apply_admission_env(AdmissionConfig& config);

/// Which backend and which design-variant knobs to use. Parsed from the
/// paper's configuration names, e.g. "lci_psr_cq_pin_i", "mpi_i".
struct ParcelportConfig {
  enum class Kind { kMpi, kLci };
  /// LCI header-message protocol: one-sided dynamic put vs two-sided.
  enum class Protocol { kPutSendRecv, kSendRecv };  // psr | sr
  /// Who calls the progress function: a dedicated pinned thread or all
  /// worker threads when idle.
  enum class ProgressType { kPinned, kWorker };  // pin (a.k.a rp) | mt
  /// Completion mechanism for sends/receives.
  enum class CompType { kQueue, kSync };  // cq | sy

  Kind kind = Kind::kLci;
  Protocol protocol = Protocol::kPutSendRecv;
  ProgressType progress = ProgressType::kPinned;
  CompType completion = CompType::kQueue;
  bool send_immediate = false;  // "_i": bypass parcel queue + connection cache

  /// LCI small-parcel fast path (put-with-completion): parcels whose whole
  /// frame fits under a byte cap travel as ONE self-contained message and
  /// dispatch from a remote handler. -1 = unset in the name (on, capped at
  /// the eager threshold — the default); "fpoff" = 0 (disabled),
  /// "fp" = 1 (on, capped at the eager threshold), "fp<N>" = N (on, capped
  /// at min(N, eager threshold) bytes).
  long lci_fastpath = -1;

  /// LCI adaptive aggregation: per-destination coalescing of fast-path-sized
  /// parcels into multi-parcel batch frames, activated only while the
  /// destination's admission window is backpressured. -1 = unset in the name
  /// (off, the default); "aggoff" = 0 (disabled);
  /// "agg<BYTES>" = batch-frame byte cap (capped at the eager threshold;
  /// values below the minimum frame overhead are rejected at parse).
  long lci_agg = -1;
  /// Age deadline in microseconds for a partially filled batch ("aggt<N>";
  /// -1 = unset, 200 µs). 0 disables the age trigger (size/idle flushes
  /// still apply).
  long lci_agg_age_us = -1;

  // MPI-parcelport ablation knobs (beyond Table 1):
  bool mpi_coarse_lock = true;  // "fine" clears it (lock-granularity ablation)
  bool mpi_original = false;    // "orig": pre-optimisation MPI parcelport
                                // (static 512B header, tag-release protocol)

  /// Send-path admission control, from shed<N> / block<N> / dl<N> tokens
  /// (N = per-destination bound). Applies to every backend.
  AdmissionConfig admission;

  /// Collective algorithm family, from a coll<ALGO> token: "central",
  /// "tree", "rd", or "ring" force that family where the op has a member
  /// of it (see amt::select_algorithm); "" = auto (payload size x locality
  /// count selection, the default — omitted from name()). Applies to every
  /// backend.
  std::string coll;

  /// Fabric transport backend, from a backendsim / backendshm token: "sim"
  /// (the simulated fabric, the default — omitted from name()) or "shm"
  /// (the real POSIX shared-memory fabric). Orthogonal to `kind`: every
  /// parcelport runs over either transport. StackOptions::backend and
  /// AMTNET_BACKEND override it (see amtnet::make_runtime_config).
  std::string fabric_backend = "sim";

  /// Parses a Table-1 style name. Unknown tokens throw std::invalid_argument.
  static ParcelportConfig parse(const std::string& name);
  /// Canonical Table-1 style name for this configuration.
  std::string name() const;
};

/// Everything a parcelport implementation receives from its hosting
/// locality.
struct ParcelportContext {
  fabric::Fabric* fabric = nullptr;
  Rank rank = 0;
  std::size_t zero_copy_threshold = kDefaultZeroCopyThreshold;
  unsigned num_workers = 1;
  ParcelportConfig config;
  /// Delivers a fully received HPX message to the runtime. Thread-safe;
  /// callable from any progress context.
  std::function<void(InMessage&&)> deliver;
  /// Parcels accepted for `dst` whose admission credits have not yet
  /// returned (DestQueue::outstanding) — the aggregator's backpressure
  /// signal. Exact even under AMTNET_TELEMETRY_DISABLED, but only
  /// maintained while admission control is on; reads 0 otherwise. Null when
  /// the hosting runtime provides no admission window at all.
  std::function<std::uint64_t(Rank dst)> queue_depth;
};

class Parcelport {
 public:
  virtual ~Parcelport() = default;

  virtual void start() {}
  virtual void stop() {}

  /// Transfers one serialized HPX message. `done` fires exactly once, when
  /// all of the message's buffers (including zero-copy keepalives) may be
  /// released; it may fire before send() returns.
  virtual void send(Rank dst, OutMessage msg,
                    common::UniqueFunction<void()> done) = 0;

  /// Invoked by idle worker threads (HPX background work). Returns whether
  /// any progress was made.
  virtual bool background_work(unsigned worker_index) = 0;
};

}  // namespace amt
