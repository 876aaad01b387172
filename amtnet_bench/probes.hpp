// Isolated per-layer probes, run outside timing on the message shapes of the
// workload being traced. Each returns the median per-operation time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace amtbench {

struct ProbeResult {
  double median_ns = 0.0;
  std::uint64_t n = 0;  // operations timed
};

/// amt::OutputArchive encode of one benchmark parcel with a payload of
/// `payload_bytes`, framed as Locality::put_parcel frames it.
ProbeResult probe_serialize(std::size_t payload_bytes);

/// Two minilci::Devices on a fabric of `backend`, one thread driving both:
/// an 8-byte sendm/recvm round trip, progress included.
ProbeResult probe_minilci_eager_rt(const std::string& backend);

/// fabric::Nic::post_send of `bytes` plus the poll_rx that receives it.
ProbeResult probe_fabric_post_poll(const std::string& backend,
                                   std::size_t bytes);

}  // namespace amtbench
