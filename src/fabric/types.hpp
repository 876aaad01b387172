// Core types of the simulated RDMA fabric.
//
// The fabric stands in for the InfiniBand networks of the paper's testbeds
// (SDSC Expanse: HDR, Rostam: FDR). It models, per NIC:
//   - wire latency (constant, per packet),
//   - bandwidth serialisation per rail (a packet occupies the link for
//     size/bandwidth before the next can start),
//   - an optional packet-rate cap (models the NIC's message-rate limit),
//   - a bounded in-flight window (models QP/SQ depth; exceeding it returns
//     Status::kRetry, the verbs "queue full" condition),
//   - shared receive queues (SRQ) of pre-posted buffers; exhaustion stalls
//     the channel like an RC RNR NAK until buffers are recycled,
//   - multiple rails per directed pair: packets are in-order within one rail
//     and unordered across rails (like multi-QP striping on real NICs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "fabric/fault.hpp"

namespace fabric {

using Rank = std::uint32_t;

/// Remote-key for a registered memory region, exchanged out of band (in our
/// stack: inside rendezvous control messages).
struct MrKey {
  Rank rank = 0;
  std::uint64_t id = 0;
};

struct Config {
  /// Transport backend: "sim" (the in-process simulated fabric, the default
  /// — all modelling knobs below apply) or "shm" (the real multi-process
  /// POSIX shared-memory fabric; latency/bandwidth/fault-window modelling
  /// does not apply, the wire is real hardware).
  std::string backend = "sim";
  /// shm backend: the rank hosted by THIS process. -1 = single-process mode
  /// (every rank's endpoint is constructed in this process — the mode the
  /// conformance tests use). Ranks other than local_rank have no NIC here;
  /// amtnet_launch sets AMTNET_SHM_RANK per process.
  int local_rank = -1;
  /// shm backend: rendezvous namespace shared by all processes of one run
  /// (segment names and bootstrap files derive from it). "" = a per-fabric
  /// unique session, which is what single-process mode wants.
  std::string shm_session;
  /// shm backend: slots per directed per-pair ring (rounded up to a power
  /// of two). Each slot holds one eager datagram of up to srq_buffer_size.
  std::size_t shm_ring_depth = 256;
  /// shm backend: seconds to wait for peer processes during bootstrap.
  double shm_bootstrap_timeout_s = 20.0;

  Rank num_ranks = 2;
  double latency_us = 1.1;       // one-way wire latency per packet
  double bandwidth_gbps = 100.0; // per-NIC line rate, split across rails
  double pkt_rate_mpps = 0.0;    // NIC message-rate cap; 0 = unlimited
  unsigned num_rails = 2;        // parallel ordered channels per direction
  std::size_t srq_buffer_size = 16 * 1024;  // max datagram payload
  std::size_t srq_depth = 4096;  // pre-posted receive buffers per NIC
  std::size_t tx_window = 4096;  // max in-flight packets per NIC
  bool zero_time = false;        // tests: disable latency/bandwidth gating
  // Chaos testing: adds a seeded-random extra delay in [0, jitter_us] to
  // every packet. Within a rail FIFO order is preserved (delays only defer
  // the head), but cross-rail interleavings become highly irregular.
  double jitter_us = 0.0;
  std::uint64_t jitter_seed = 0x7b9f1d3a5c8e2461ULL;
  // Deterministic fault injection (drops/dups/corruption/brownouts/RNR
  // storms); see fabric/fault.hpp. All-zero probabilities = polite network.
  FaultConfig faults;

  double bytes_per_ns() const { return bandwidth_gbps / 8.0; }

  bool is_shm() const { return backend == "shm"; }
  /// True when every rank's endpoint lives in this process.
  bool single_process() const { return !is_shm() || local_rank < 0; }
  /// True when `rank`'s endpoint lives in this process.
  bool rank_is_local(Rank rank) const {
    return single_process() || rank == static_cast<Rank>(local_rank);
  }
};

/// Overrides backend-selection fields from the environment (unset variables
/// leave the passed-in value untouched):
///   AMTNET_BACKEND          sim | shm
///   AMTNET_SHM_RANK         rank hosted by this process (multi-process mode)
///   AMTNET_SHM_SESSION      rendezvous namespace (set by amtnet_launch)
///   AMTNET_SHM_RING_DEPTH   slots per directed per-pair ring
/// (AMTNET_SHM_RANKS is consumed one level up, by
/// amtnet::make_runtime_config, because it overrides the locality count, not
/// a fabric field.) Only make_runtime_config calls this: a Fabric built
/// straight from a Config uses Config::backend as given.
void apply_backend_env(Config& config);

/// Throws std::invalid_argument unless name is "sim" or "shm".
void validate_backend_name(const std::string& name);

/// Named platform profiles mirroring the paper's Table 2 and Table 3.
struct Profile {
  /// SDSC Expanse: ConnectX-6, HDR InfiniBand (2x50 Gbps).
  static Config expanse(Rank num_ranks);
  /// Rostam: ConnectX-3, FDR InfiniBand (4x14 Gbps).
  static Config rostam(Rank num_ranks);
  /// Zero-latency loopback for unit tests.
  static Config loopback(Rank num_ranks);

  static std::string describe(const Config& config, const std::string& name);
};

/// Counters exposed for tests and benchmark sanity checks. All monotonic.
struct NicStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t sends_rejected_tx_window = 0;  // post returned kRetry
  std::uint64_t rnr_stalls = 0;  // delivery deferred: SRQ empty
  // Injected-fault tallies (all zero unless Config::faults enables chaos).
  std::uint64_t faults_dropped = 0;     // datagrams eaten by the wire
  std::uint64_t faults_duplicated = 0;  // datagrams delivered twice
  std::uint64_t faults_corrupted = 0;   // payloads with a flipped bit
  std::uint64_t faults_delayed = 0;     // packets given a latency spike
  std::uint64_t brownout_rejects = 0;   // posts refused during a brownout
  std::uint64_t rnr_storms = 0;         // injected RNR storm windows
};

}  // namespace fabric
