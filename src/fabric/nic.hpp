// The fabric's NIC/endpoint surface, as an explicit backend interface.
//
// A `Nic` is one locality's network endpoint; which transport sits behind it
// is a per-fabric choice (Config::backend):
//   * "sim"  — the in-process simulated RDMA fabric (backend_sim.hpp): wire
//              latency / bandwidth / rails / SRQ / fault modelling, every
//              rank's NIC in this process. The default; all modelling
//              semantics documented in types.hpp apply.
//   * "shm"  — the real POSIX shared-memory fabric (backend_shm.hpp):
//              per-pair shm ring buffers + an MR window table, one process
//              per rank (or all ranks in-process for conformance tests).
//
// The surface is what the parcelports post and nothing more: two-sided
// datagrams (post_send) and RDMA write-with-immediate (post_write_imm) into
// registered memory. There is no RDMA read and no write without an
// immediate.
//
// Threading contract (all backends): post_send / post_write_imm may be
// called from any thread; poll_rx may be called from any number of threads
// concurrently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/function_ref.hpp"
#include "common/status.hpp"
#include "fabric/srq_pool.hpp"
#include "fabric/types.hpp"
#include "telemetry/telemetry.hpp"

namespace fabric {

/// An event produced by poll_rx.
struct RxEvent {
  enum class Kind : std::uint8_t {
    kRecv,      // a post_send arrived; payload in `payload` (if size > 0)
    kWriteImm,  // an RDMA write-with-immediate landed; data already in place
  };
  Kind kind = Kind::kRecv;
  Rank src = 0;
  std::uint64_t imm = 0;
  std::size_t size = 0;
  /// kRecv: the datagram contents, moved (not copied) off the wire. The
  /// consumer owns it and may move it onward.
  std::vector<std::byte> payload;
  /// The SRQ slot this datagram consumed; held until the event (or whoever
  /// the consumer hands it to) is destroyed, so receive-buffer back-pressure
  /// (RNR) behaves exactly as if the payload had been copied into the slot.
  /// Backends without SRQ modelling (shm) leave it empty.
  RecvBuffer credit;

  const std::byte* data() const { return payload.data(); }
};

/// The backend interface: one locality's network endpoint. poll_rx is the
/// only templated entry point; it forwards through a non-owning FunctionRef
/// so implementations stay virtual (one indirect call per event).
class Nic {
 public:
  using RxSink = common::FunctionRef<void(RxEvent&&)>;

  Nic() = default;
  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;
  virtual ~Nic() = default;

  virtual Rank rank() const = 0;

  /// Two-sided-style datagram: `len` bytes (<= srq_buffer_size) plus a 64-bit
  /// immediate. The payload is copied before return; the caller's buffer is
  /// immediately reusable. Returns kRetry when the TX window is full.
  virtual common::Status post_send(Rank dst, const void* data, std::size_t len,
                                   std::uint64_t imm) = 0;

  /// RDMA write with immediate: one-sided write of `len` bytes into
  /// (rkey, offset) at the target, which sees a kWriteImm event carrying
  /// `imm` once the data has landed.
  virtual common::Status post_write_imm(Rank dst, const MrKey& rkey,
                                        std::size_t offset, const void* data,
                                        std::size_t len,
                                        std::uint64_t imm) = 0;

  /// Registers [base, base+len) for one-sided access by peers. Cheap; never
  /// fails on the simulator, may abort on the shm backend when its window
  /// is exhausted (see backend_shm.hpp).
  virtual MrKey register_memory(void* base, std::size_t len) = 0;
  virtual void deregister_memory(const MrKey& key) = 0;

  /// Drains deliverable packets, invoking `sink(RxEvent&&)` for each visible
  /// event. Returns the number of packets processed (including fallback write
  /// fragments short of their last, which produce no event).
  template <typename Sink>
  std::size_t poll_rx(std::size_t max_packets, Sink&& sink) {
    return poll_rx_sink(max_packets, RxSink(sink));
  }

  /// True if anything looks deliverable (racy; for idle checks).
  virtual bool rx_looks_nonempty() const = 0;

  virtual NicStats stats() const = 0;

  /// Max datagram payload of post_send on this backend.
  virtual std::size_t srq_buffer_size() const = 0;

 protected:
  virtual std::size_t poll_rx_sink(std::size_t max_packets, RxSink sink) = 0;
};

namespace detail {
class ShmDomain;  // backend_shm-internal bootstrap/segment state
}

/// The collection of NICs for the simulated/real ranks (localities) hosted
/// by this process, plus the shared configuration. With the "sim" backend
/// every rank's NIC lives here; with the "shm" backend in multi-process
/// mode only Config::local_rank's does (nic() aborts for the others).
class Fabric {
 public:
  /// `registry` scopes all metrics for this fabric and every layer stacked on
  /// it. Null (the default) gives the Fabric a private registry, so each
  /// Fabric's counters start at zero — tests and sequential bench runs in one
  /// process stay independent.
  explicit Fabric(const Config& config,
                  telemetry::Registry* registry = nullptr);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  /// The endpoint of `rank`. Aborts (with a pointer at AMTNET_SHM_RANK)
  /// when that rank is hosted by another process.
  Nic& nic(Rank rank);
  const Nic& nic(Rank rank) const;

  /// True when `rank`'s endpoint lives in this process.
  bool nic_is_local(Rank rank) const {
    return rank < nics_.size() && nics_[rank] != nullptr;
  }

  Rank num_ranks() const { return config_.num_ranks; }
  const Config& config() const { return config_; }

  /// The metrics registry for this fabric and the layers built on it.
  telemetry::Registry& telemetry() const { return *registry_; }

 private:
  std::unique_ptr<telemetry::Registry> owned_registry_;  // when not injected
  telemetry::Registry* registry_;
  Config config_;
  std::unique_ptr<detail::ShmDomain> shm_domain_;  // shm backend only
  std::vector<std::unique_ptr<Nic>> nics_;  // null for non-local ranks
};

}  // namespace fabric
