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

/// Admission control for the parcel send path (the runtime-level analogue
/// of the fabric's TX-window back-pressure), from a block<N> token: at most
/// N fire-and-forget parcels per destination may be accepted and not yet
/// executed there; a sender that finds the window full waits, running
/// scheduler and progress work meanwhile. Responses and promise-bearing
/// requests occupy the window but never wait on it: their callers are
/// already throttled by the futures they hold. The window's depth is the
/// LCI aggregator's backpressure signal (ParcelportContext::queue_depth).
struct AdmissionConfig {
  std::size_t window = 0;  // per-destination in-flight parcel cap; 0 = off

  bool on() const { return window > 0; }
};

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

  /// LCI small-parcel fast path (put-with-completion): a parcel whose whole
  /// frame fits in one eager (medium) message travels as ONE self-contained
  /// message and dispatches from a remote handler. On by default; the
  /// "fpoff" token turns it off.
  bool lci_fastpath = true;

  /// LCI adaptive aggregation ("agg" token, off by default): per-destination
  /// coalescing of fast-path-sized parcels into multi-parcel batch frames of
  /// at most one eager message, activated only while the destination's
  /// admission window is backpressured.
  bool lci_agg = false;

  // MPI-parcelport ablation knobs (beyond Table 1):
  bool mpi_coarse_lock = true;  // "fine" clears it (lock-granularity ablation)
  bool mpi_original = false;    // "orig": pre-optimisation MPI parcelport
                                // (static 512B header, tag-release protocol)

  /// Send-path admission window, from a block<N> token (N = per-destination
  /// bound). Applies to every backend.
  AdmissionConfig admission;

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
  /// maintained while the admission window is on; reads 0 otherwise. Null
  /// when the hosting runtime provides no admission window at all.
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
