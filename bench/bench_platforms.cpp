// Tables 2 and 3: the simulated platform profiles standing in for SDSC
// Expanse (HDR InfiniBand, ConnectX-6) and Rostam (FDR InfiniBand,
// ConnectX-3), plus a raw-fabric sanity measurement of each profile's
// latency/bandwidth gating.
#include <cstdio>
#include <vector>

#include "common/clock.hpp"
#include "fabric/nic.hpp"
#include "harness.hpp"

namespace {

// Measures raw fabric one-way latency and streaming bandwidth for a profile.
void measure_profile(const char* name, fabric::Config config) {
  config.num_ranks = 2;
  fabric::Fabric fab(config);

  // One-way latency: post, poll until delivered.
  const int kLatencyRounds = 200;
  std::uint64_t payload = 0;
  common::Timer timer;
  for (int i = 0; i < kLatencyRounds; ++i) {
    while (fab.nic(0).post_send(1, &payload, sizeof(payload), 0) !=
           common::Status::kOk) {
    }
    bool got = false;
    while (!got) {
      fab.nic(1).poll_rx(4, [&](fabric::RxEvent&&) { got = true; });
    }
  }
  const double latency_us = timer.elapsed_us() / kLatencyRounds;

  // Streaming bandwidth: 64 KiB chunks via RDMA write.
  const std::size_t kChunk = 64 * 1024, kChunks = 200;
  std::vector<std::byte> src(kChunk), dst(kChunk);
  const auto mr = fab.nic(1).register_memory(dst.data(), dst.size());
  std::size_t delivered = 0;
  timer.reset();
  for (std::size_t i = 0; i < kChunks; ++i) {
    while (fab.nic(0).post_write_imm(1, mr, 0, src.data(), src.size(), i) !=
           common::Status::kOk) {
      fab.nic(1).poll_rx(16, [&](fabric::RxEvent&&) { ++delivered; });
    }
  }
  while (delivered < kChunks) {
    fab.nic(1).poll_rx(16, [&](fabric::RxEvent&&) { ++delivered; });
  }
  const double seconds = timer.elapsed_s();
  const double gbps =
      static_cast<double>(kChunk * kChunks) * 8.0 / seconds / 1e9;

  std::printf("%s\n", fabric::Profile::describe(config, name).c_str());
  std::printf("  measured one-way latency : %8.2f us (configured %.2f)\n",
              latency_us, config.latency_us);
  std::printf("  measured stream bandwidth: %8.2f Gbps (configured %.1f)\n",
              gbps, config.bandwidth_gbps);
}

}  // namespace

int main() {
  const auto env = expdriver::run_env_from_environment();
  bench::print_header(
      "Tables 2 & 3: simulated platform profiles (SDSC Expanse / Rostam)",
      "Expanse: HDR 100Gbps-class, ~1.1us; Rostam: FDR 56Gbps-class, "
      "~1.6us; measured values should approach the configured model",
      env);
  std::printf(
      "# Table 2 (SDSC Expanse): AMD EPYC 7742 128c, ConnectX-6, HDR "
      "(2x50Gbps), GCC 10.2, OpenMPI 4.1.5/UCX 1.14 -> simulated below\n");
  measure_profile("expanse", fabric::Profile::expanse(2));
  std::printf(
      "# Table 3 (Rostam): Xeon Gold 6148 40c, ConnectX-3, FDR (4x14Gbps), "
      "GCC 10.3, OpenMPI 4.1.5/UCX 1.14 -> simulated below\n");
  measure_profile("rostam", fabric::Profile::rostam(2));
  return 0;
}
