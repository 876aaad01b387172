#include "probes.hpp"

#include <array>
#include <stdexcept>
#include <vector>

#include "amt/action.hpp"
#include "amt/serialization.hpp"
#include "common/clock.hpp"
#include "fabric/nic.hpp"
#include "minilci/device.hpp"
#include "trace.hpp"

namespace amtbench {

namespace {

constexpr int kWarmupOps = 200;
constexpr int kTimedOps = 2000;
// A probe that cannot complete one operation in this many polls is wedged.
constexpr std::uint64_t kMaxPolls = 100'000'000;

fabric::Config probe_fabric_config(const std::string& backend) {
  fabric::Config config = fabric::Profile::loopback(2);
  config.backend = backend;
  return config;
}

/// Runs `op` kWarmupOps + kTimedOps times; median of the timed ones.
template <typename Op>
ProbeResult time_ops(Op&& op) {
  std::vector<double> samples;
  samples.reserve(kTimedOps);
  for (int i = 0; i < kWarmupOps + kTimedOps; ++i) {
    const Nanos begin = common::now_ns();
    op(i);
    const Nanos end = common::now_ns();
    if (i >= kWarmupOps) samples.push_back(static_cast<double>(end - begin));
  }
  return {percentile(std::move(samples), 0.5), kTimedOps};
}

}  // namespace

ProbeResult probe_serialize(std::size_t payload_bytes) {
  // Batches amortise the clock reads; the payloads are built outside timing
  // and the messages freed after it, as the runtime hands them onward.
  constexpr int kBatches = 101;
  constexpr int kBatch = 64;
  std::vector<double> per_op;
  std::vector<amt::OutMessage> messages;
  messages.reserve(kBatch);
  std::size_t bytes = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<std::vector<std::uint8_t>> payloads(
        kBatch, std::vector<std::uint8_t>(payload_bytes, 0x5a));
    const Nanos begin = common::now_ns();
    for (int i = 0; i < kBatch; ++i) {
      amt::OutputArchive ar;
      ar << std::uint32_t{1} << amt::ActionId{1} << std::uint64_t{0}
         << static_cast<std::uint64_t>(i) << begin
         << std::move(payloads[static_cast<std::size_t>(i)]);
      messages.push_back(ar.finish());
    }
    const Nanos end = common::now_ns();
    per_op.push_back(static_cast<double>(end - begin) / kBatch);
    for (const amt::OutMessage& msg : messages) bytes += msg.main_chunk.size();
    messages.clear();
  }
  if (bytes == 0) throw std::runtime_error("serialize probe produced nothing");
  return {percentile(std::move(per_op), 0.5),
          static_cast<std::uint64_t>(kBatches) * kBatch};
}

ProbeResult probe_minilci_eager_rt(const std::string& backend) {
  constexpr minilci::Tag kTag = 7;
  fabric::Fabric fabric(probe_fabric_config(backend));
  minilci::CompQueue remote_put[2], done[2];
  minilci::Device dev0(fabric, 0, minilci::Config{}, &remote_put[0]);
  minilci::Device dev1(fabric, 1, minilci::Config{}, &remote_put[1]);
  minilci::Device* devices[2] = {&dev0, &dev1};
  const std::array<std::byte, 8> payload{};

  auto one_way = [&](int from, int to) {
    if (devices[to]->recvm(static_cast<minilci::Rank>(from), kTag,
                           minilci::Comp::queue(&done[to])) !=
        common::Status::kOk) {
      throw std::runtime_error("minilci probe: recvm refused");
    }
    for (std::uint64_t polls = 0;; ++polls) {
      const common::Status status =
          devices[from]->sendm(static_cast<minilci::Rank>(to), kTag,
                               payload.data(), payload.size(),
                               minilci::Comp::none());
      if (status == common::Status::kOk) break;
      if (status == common::Status::kError || polls > kMaxPolls) {
        throw std::runtime_error("minilci probe: sendm failed");
      }
      dev0.progress();
      dev1.progress();
    }
    for (std::uint64_t polls = 0; !done[to].poll(); ++polls) {
      if (polls > kMaxPolls) throw std::runtime_error("minilci probe wedged");
      dev0.progress();
      dev1.progress();
    }
  };
  return time_ops([&](int) {
    one_way(0, 1);
    one_way(1, 0);
  });
}

ProbeResult probe_fabric_post_poll(const std::string& backend,
                                   std::size_t bytes) {
  fabric::Fabric fabric(probe_fabric_config(backend));
  fabric::Nic& tx = fabric.nic(0);
  fabric::Nic& rx = fabric.nic(1);
  const std::vector<std::byte> payload(bytes);
  auto drop = [](fabric::RxEvent&&) {};
  return time_ops([&](int i) {
    for (std::uint64_t polls = 0;; ++polls) {
      const common::Status status = tx.post_send(
          1, payload.data(), payload.size(), static_cast<std::uint64_t>(i));
      if (status == common::Status::kOk) break;
      if (status == common::Status::kError || polls > kMaxPolls) {
        throw std::runtime_error("fabric probe: post_send failed");
      }
      rx.poll_rx(16, drop);
    }
    for (std::uint64_t polls = 0; rx.poll_rx(1, drop) == 0; ++polls) {
      if (polls > kMaxPolls) throw std::runtime_error("fabric probe wedged");
    }
  });
}

}  // namespace amtbench
