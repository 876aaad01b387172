// Stress and failure-injection tests across the full stack:
//   * starved fabrics (tiny TX windows, tiny SRQs) must degrade to retries
//     and back-pressure, never to loss, for both parcelports,
//   * all-to-all bursts across many localities,
//   * randomized action-argument round trips (property-style, seeded),
//   * mixed small/large traffic under concurrent senders.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "stack/stack.hpp"
#include "test_util.hpp"

using amt::Latch;
using amtnet::StackOptions;

namespace stress {

std::atomic<std::uint64_t> payload_checksum{0};
std::atomic<std::uint64_t> arrivals{0};

void sink(std::vector<std::uint8_t> data, std::uint64_t expected_sum) {
  std::uint64_t sum = 0;
  for (auto b : data) sum += b;
  EXPECT_EQ(sum, expected_sum);
  payload_checksum.fetch_add(sum);
  arrivals.fetch_add(1);
}

// Echo used by the randomized property test: returns a transformation the
// caller can verify.
std::vector<std::uint64_t> transform(std::vector<std::uint64_t> values,
                                     std::uint64_t mult,
                                     std::string tag) {
  for (auto& v : values) v = v * mult + tag.size();
  return values;
}

}  // namespace stress

namespace {

struct StarvedCase {
  const char* parcelport;
  std::size_t tx_window;
  std::size_t srq_depth;
};

class StarvedFabric : public ::testing::TestWithParam<StarvedCase> {};

TEST_P(StarvedFabric, BackpressureNeverLosesMessages) {
  const auto param = GetParam();
  amt::RuntimeConfig config;
  config.num_localities = 2;
  config.threads_per_locality = 2;
  config.parcelport = amt::ParcelportConfig::parse(param.parcelport);
  config.fabric = fabric::Profile::loopback(2);
  config.fabric.tx_window = param.tx_window;
  config.fabric.srq_depth = param.srq_depth;
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();

  stress::payload_checksum.store(0);
  stress::arrivals.store(0);
  constexpr int kMessages = 150;
  std::uint64_t expected_total = 0;
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kMessages; ++i) {
      // Mix sizes: some eager, some rendezvous (> 8 KiB threshold).
      const std::size_t size = (i % 5 == 0) ? 12000 : 64;
      std::vector<std::uint8_t> data(size,
                                     static_cast<std::uint8_t>(i & 0x7f));
      const std::uint64_t sum =
          static_cast<std::uint64_t>(size) * (i & 0x7f);
      amt::here().apply<&stress::sink>(1, std::move(data), sum);
    }
  });
  for (int i = 0; i < kMessages; ++i) {
    const std::size_t size = (i % 5 == 0) ? 12000 : 64;
    expected_total += static_cast<std::uint64_t>(size) * (i & 0x7f);
  }
  ASSERT_TRUE(testutil::spin_until(
      [&] { return stress::arrivals.load() == kMessages; },
      std::chrono::milliseconds(30000)))
      << "only " << stress::arrivals.load() << "/" << kMessages;
  EXPECT_EQ(stress::payload_checksum.load(), expected_total);
  runtime.stop();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StarvedFabric,
    ::testing::Values(StarvedCase{"mpi_i", 4, 8},
                      StarvedCase{"mpi", 8, 4},
                      StarvedCase{"lci_psr_cq_pin_i", 4, 8},
                      StarvedCase{"lci_psr_cq_pin_i", 16, 4},
                      StarvedCase{"lci_sr_sy_mt_i", 8, 8},
                      StarvedCase{"lci_psr_sy_pin", 4, 16}),
    [](const ::testing::TestParamInfo<StarvedCase>& info) {
      return std::string(info.param.parcelport) + "_w" +
             std::to_string(info.param.tx_window) + "_s" +
             std::to_string(info.param.srq_depth);
    });

TEST(AllToAll, SixLocalitiesBurst) {
  for (const char* name : {"mpi_i", "lci_psr_cq_pin_i", "lci_sr_cq_mt_i"}) {
    StackOptions options;
    options.parcelport = name;
    options.num_localities = 6;
    options.threads_per_locality = 1;
    auto runtime = amtnet::make_runtime(options);
    stress::arrivals.store(0);
    stress::payload_checksum.store(0);
    constexpr int kPerPair = 20;
    for (amt::Rank src = 0; src < 6; ++src) {
      runtime->locality(src).spawn([&] {
        for (amt::Rank dst = 0; dst < 6; ++dst) {
          for (int i = 0; i < kPerPair; ++i) {
            std::vector<std::uint8_t> data(100, 1);
            amt::here().apply<&stress::sink>(dst, std::move(data), 100);
          }
        }
      });
    }
    const std::uint64_t total = 6ull * 6 * kPerPair;
    ASSERT_TRUE(testutil::spin_until(
        [&] { return stress::arrivals.load() == total; },
        std::chrono::milliseconds(30000)))
        << name << ": " << stress::arrivals.load() << "/" << total;
    EXPECT_EQ(stress::payload_checksum.load(), total * 100);
    runtime->stop();
  }
}

class RandomizedArgs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedArgs, TransformRoundTripsExactly) {
  common::Xoshiro256 rng(GetParam());
  StackOptions options;
  options.parcelport =
      (GetParam() % 2 == 0) ? "lci_psr_cq_pin_i" : "mpi_i";
  options.num_localities = 2;
  auto runtime = amtnet::make_runtime(options);

  constexpr int kCalls = 25;
  Latch done(kCalls);
  std::atomic<int> mismatches{0};
  runtime->locality(0).spawn([&] {
    for (int call = 0; call < kCalls; ++call) {
      // Random length crossing the zero-copy threshold both ways.
      const std::size_t len = 1 + rng.next_below(4000);
      const std::uint64_t mult = 1 + rng.next_below(1000);
      std::string tag(rng.next_below(40), 'x');
      std::vector<std::uint64_t> values(len);
      for (auto& v : values) v = rng.next_below(1u << 20);

      auto expected = values;
      for (auto& v : expected) v = v * mult + tag.size();

      auto future =
          amt::here().async<&stress::transform>(1, values, mult, tag);
      future.then([future, expected = std::move(expected), &mismatches,
                   &done] {
        if (future.value() != expected) mismatches.fetch_add(1);
        done.count_down();
      });
    }
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_EQ(mismatches.load(), 0);
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedArgs,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(ChaosFabric, RandomJitterNeverBreaksProtocols) {
  // Per-packet random delays up to 300us scramble cross-rail interleavings;
  // every protocol (rendezvous handshakes included) must still deliver
  // everything, for both backends.
  for (const char* name : {"mpi_i", "lci_psr_cq_pin_i"}) {
    amt::RuntimeConfig config;
    config.num_localities = 2;
    config.threads_per_locality = 2;
    config.parcelport = amt::ParcelportConfig::parse(name);
    config.fabric = fabric::Profile::loopback(2);
    config.fabric.zero_time = false;
    config.fabric.latency_us = 1.0;
    config.fabric.jitter_us = 300.0;
    config.fabric.num_rails = 4;
    amt::Runtime runtime(config, amtnet::default_parcelport_factory());
    runtime.start();

    stress::arrivals.store(0);
    stress::payload_checksum.store(0);
    constexpr int kMessages = 60;
    std::uint64_t expected_total = 0;
    runtime.locality(0).spawn([&] {
      for (int i = 0; i < kMessages; ++i) {
        const std::size_t size = (i % 3 == 0) ? 20000 : 128;
        amt::here().apply<&stress::sink>(
            1, std::vector<std::uint8_t>(size, 3),
            static_cast<std::uint64_t>(size) * 3);
      }
    });
    for (int i = 0; i < kMessages; ++i) {
      expected_total += ((i % 3 == 0) ? 20000ull : 128ull) * 3;
    }
    ASSERT_TRUE(testutil::spin_until(
        [&] { return stress::arrivals.load() == kMessages; },
        std::chrono::milliseconds(30000)))
        << name;
    EXPECT_EQ(stress::payload_checksum.load(), expected_total);
    runtime.stop();
  }
}

TEST(HighThreadCount, OversubscribedWorkersStillCorrect) {
  // More workers than hardware threads on both sides: the regime the paper
  // says MPI handles badly; correctness must be unaffected for everyone.
  for (const char* name : {"mpi", "lci_psr_cq_pin_i", "lci_psr_cq_mt_i"}) {
    StackOptions options;
    options.parcelport = name;
    options.num_localities = 2;
    options.threads_per_locality = 8;
    auto runtime = amtnet::make_runtime(options);
    stress::arrivals.store(0);
    constexpr int kMessages = 300;
    for (int i = 0; i < kMessages; ++i) {
      runtime->locality(0).spawn([] {
        amt::here().apply<&stress::sink>(
            1, std::vector<std::uint8_t>(8, 2), 16);
      });
    }
    ASSERT_TRUE(testutil::spin_until(
        [&] { return stress::arrivals.load() == kMessages; },
        std::chrono::milliseconds(30000)))
        << name;
    runtime->stop();
  }
}

}  // namespace
