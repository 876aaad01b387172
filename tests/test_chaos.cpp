// Chaos harness: end-to-end parcel traffic over a misbehaving fabric.
//
// Sweeps (parcelport variant) x (fault mix) x (seed): every run injects
// deterministic drops / duplicates / corruption / brownouts / RNR storms
// (fabric/fault.hpp) and asserts the acceptance contract of the integrity
// layer — every parcel is delivered exactly once with intact bytes, the
// retransmit machinery visibly engaged whenever datagrams were dropped, and
// detected-but-unrecoverable corruption (a corrupted zero-copy RDMA payload)
// fail-fasts loudly instead of delivering garbage.
//
// Seeds come from AMTNET_CHAOS_SEEDS (comma-separated, default "1,2") so CI
// can sweep a wider set; any failure reproduces by exporting the seed it
// names. Runs are a pure function of (variant, mix, seed).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "amt/collectives.hpp"
#include "stack/stack.hpp"
#include "test_util.hpp"

using amt::Latch;
using amtnet::StackOptions;

namespace {

std::vector<std::uint64_t> chaos_seeds() {
  std::vector<std::uint64_t> seeds;
  const char* env = std::getenv("AMTNET_CHAOS_SEEDS");
  std::string spec = env != nullptr ? env : "1,2";
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (seeds.empty()) seeds = {1, 2};
  return seeds;
}

/// A named fault cocktail plus the traffic shape safe to run under it.
/// Mixes with corruption keep payloads below the zero-copy threshold: eager
/// corruption is recoverable (CRC trailer + retransmit), while a corrupted
/// zero-copy RDMA payload is *detected* but unrecoverable by design — that
/// path has its own death test below.
struct FaultMix {
  const char* name;
  fabric::FaultConfig faults;
  bool large_traffic;  // also exercise the zero-copy/rendezvous path
};

std::vector<FaultMix> fault_mixes() {
  std::vector<FaultMix> mixes;
  {
    FaultMix mix{"drop_dup", {}, true};
    mix.faults.drop = 0.03;
    mix.faults.duplicate = 0.03;
    mixes.push_back(mix);
  }
  {
    FaultMix mix{"brownout_rnr", {}, true};
    mix.faults.brownout = 0.02;
    mix.faults.brownout_posts = 8;
    mix.faults.rnr_storm = 0.02;
    mix.faults.rnr_storm_polls = 8;
    mixes.push_back(mix);
  }
  {
    FaultMix mix{"corrupt_eager", {}, false};
    mix.faults.corrupt = 0.03;
    mixes.push_back(mix);
  }
  {
    FaultMix mix{"storm", {}, false};
    mix.faults.drop = 0.02;
    mix.faults.duplicate = 0.02;
    mix.faults.corrupt = 0.02;
    mix.faults.delay = 0.05;
    mix.faults.delay_us = 30.0;
    mix.faults.brownout = 0.01;
    mix.faults.brownout_posts = 8;
    mix.faults.rnr_storm = 0.01;
    mix.faults.rnr_storm_polls = 8;
    mixes.push_back(mix);
  }
  return mixes;
}

std::atomic<std::uint64_t> small_sum{0};
std::atomic<std::uint64_t> small_count{0};
std::atomic<std::uint64_t> large_sum{0};

void take_small(std::uint64_t value) {
  small_sum.fetch_add(value);
  small_count.fetch_add(1);
}

void take_large(std::vector<std::uint64_t> values) {
  std::uint64_t sum = 0;
  for (std::uint64_t v : values) sum += v;
  large_sum.fetch_add(sum);
}

/// One chaos run: bidirectional small parcels (+ optional zero-copy rounds),
/// then exact-delivery and integrity-counter assertions.
void run_chaos(const char* variant, const FaultMix& mix, std::uint64_t seed) {
  SCOPED_TRACE(std::string(variant) + " mix=" + mix.name +
               " seed=" + std::to_string(seed));
  StackOptions options;
  options.parcelport = variant;
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.faults = mix.faults;
  options.faults.seed = seed;
  auto runtime = amtnet::make_runtime(options);

  small_sum.store(0);
  small_count.store(0);
  large_sum.store(0);

  constexpr std::uint64_t kSmallPerSide = 60;
  constexpr std::uint64_t kLargeRounds = 4;
  constexpr std::size_t kLargeLen = 3000;  // 24 KiB: over the 8 KiB threshold
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (std::uint64_t i = 1; i <= kSmallPerSide; ++i) {
        amt::here().apply<&take_small>(1 - r, i);
      }
      if (mix.large_traffic) {
        for (std::uint64_t round = 0; round < kLargeRounds; ++round) {
          std::vector<std::uint64_t> values(kLargeLen);
          std::iota(values.begin(), values.end(), round * kLargeLen);
          amt::here().apply<&take_large>(1 - r, values);
        }
      }
    });
  }

  const std::uint64_t expected_small =
      2 * kSmallPerSide * (kSmallPerSide + 1) / 2;
  std::uint64_t expected_large = 0;
  if (mix.large_traffic) {
    for (std::uint64_t round = 0; round < kLargeRounds; ++round) {
      for (std::size_t i = 0; i < kLargeLen; ++i) {
        expected_large += 2 * (round * kLargeLen + i);
      }
    }
  }
  // No hang, no loss: everything arrives despite the chaos.
  ASSERT_TRUE(testutil::spin_until(
      [&] {
        return small_count.load() == 2 * kSmallPerSide &&
               small_sum.load() == expected_small &&
               large_sum.load() == expected_large;
      },
      std::chrono::milliseconds(60000)))
      << "delivered " << small_count.load() << "/" << 2 * kSmallPerSide
      << " small parcels, small_sum=" << small_sum.load() << "/"
      << expected_small << ", large_sum=" << large_sum.load() << "/"
      << expected_large;
  // Exactly once: nothing else trickles in afterwards.
  EXPECT_EQ(small_count.load(), 2 * kSmallPerSide);
  EXPECT_EQ(small_sum.load(), expected_small);
  EXPECT_EQ(large_sum.load(), expected_large);

#ifndef AMTNET_TELEMETRY_DISABLED
  const auto sum_leaf = [&runtime](const char* leaf) {
    const auto snap = runtime->telemetry().snapshot();
    std::uint64_t total = 0;
    const std::string suffix = std::string("/") + leaf;
    for (const auto& [name, value] : snap.counters) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += value;
      }
    }
    return total;
  };
  // Repairs may trail delivery: a lost ack is only retransmitted once its
  // timeout fires, and a corrupted copy held back by a delay spike reaches
  // its CRC check after the clean retransmit has landed. So poll (bounded)
  // rather than read the counters once.
  if (mix.faults.drop > 0.0 && sum_leaf("faults_dropped") > 0) {
    EXPECT_TRUE(testutil::spin_until([&] { return sum_leaf("retransmits") > 0; }))
        << "datagrams were dropped but nothing was retransmitted";
  }
  if (mix.faults.corrupt > 0.0 && sum_leaf("faults_corrupted") > 0) {
    EXPECT_TRUE(testutil::spin_until([&] { return sum_leaf("crc_dropped") > 0; }))
        << "payloads were corrupted but no CRC check fired";
  }
#endif
  runtime->stop();
}

}  // namespace

class ChaosSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ChaosSweep, AllParcelsDeliveredIntactUnderEveryMix) {
  const auto seeds = chaos_seeds();
  for (const FaultMix& mix : fault_mixes()) {
    for (std::uint64_t seed : seeds) {
      run_chaos(GetParam(), mix, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, ChaosSweep,
    ::testing::Values(
        // All 8 LCI variant combinations, small-parcel fast path on (the
        // default): drop/dup/corrupt land on single-parcel frames too, and
        // the seq dedup must never let a duplicated frame dispatch a parcel
        // twice (the exact-sum check above catches any double dispatch).
        "lci_psr_cq_pin_i", "lci_psr_cq_mt_i", "lci_psr_sy_pin_i",
        "lci_psr_sy_mt_i", "lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
        "lci_sr_sy_pin_i", "lci_sr_sy_mt_i",
        // Adaptive aggregation under a blocking admission window: faults
        // must land on multi-parcel batch frames too — dropping one loses
        // (and retransmits) several parcels at once, and a duplicated batch
        // must not re-dispatch any of its sub-parcels.
        "lci_psr_cq_mt_agg_i_block32",
        // The MPI parcelport.
        "mpi_i"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---------------- tree collectives over a lossy wire ----------------------

// The log-depth collectives relay payloads through intermediate ranks
// (binomial forwarding, the recursive-doubling fold), so one dropped
// datagram stalls a whole subtree until the retransmit machinery recovers
// it. Rounds under 1% drop + duplicates must still complete byte-exactly:
// duplicates must not double-apply a reduction contribution, and recovery
// must not hand a relayed payload to the wrong round. Five ranks exercise
// the non-power-of-two fold; the rotating root moves the tree.
TEST(ChaosCollectives, TreeRoundsCompleteExactlyUnderDrops) {
  for (const std::uint64_t seed : chaos_seeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    StackOptions options;
    options.parcelport = "lci_psr_cq_pin_i";
    options.num_localities = 5;
    options.threads_per_locality = 2;
    options.platform = "loopback";
    options.faults.drop = 0.01;
    options.faults.duplicate = 0.01;
    options.faults.seed = seed;
    auto runtime = amtnet::make_runtime(options);
    amt::CollectiveGroup group(*runtime);

    std::atomic<int> wrong{0};
    Latch done(5);
    for (amt::Rank r = 0; r < 5; ++r) {
      runtime->locality(r).spawn([&, r] {
        for (std::uint32_t round = 0; round < 20; ++round) {
          std::vector<std::uint8_t> data(64);
          for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<std::uint8_t>(r + i + round);
          }
          group.allreduce(
              data, +[](std::uint8_t* acc, const std::uint8_t* in,
                        std::size_t bytes) {
                for (std::size_t i = 0; i < bytes; ++i) acc[i] += in[i];
              });
          for (std::size_t i = 0; i < data.size(); ++i) {
            // Sum over ranks 0..4 of (rank + i + round), mod 256.
            const std::uint8_t expect = static_cast<std::uint8_t>(
                10 + 5 * (i + round));
            if (data[i] != expect) {
              wrong.fetch_add(1);
              break;
            }
          }
          const amt::Rank root = round % 5;
          std::vector<std::uint8_t> bcast;
          if (r == root) bcast.assign(48, static_cast<std::uint8_t>(round));
          group.broadcast(root, bcast);
          if (bcast != std::vector<std::uint8_t>(
                           48, static_cast<std::uint8_t>(round))) {
            wrong.fetch_add(1);
          }
        }
        done.count_down();
      });
    }
    done.wait(runtime->locality(0).scheduler());
    EXPECT_EQ(wrong.load(), 0);
    runtime->stop();
  }
}

// ---------------- unrecoverable corruption fail-fasts loudly --------------

TEST(ChaosDeathTest, CorruptedRdmaPayloadAbortsWithDiagnostics) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // corrupt_min_size spares every eager datagram and control message; only
  // the 24 KiB zero-copy RDMA payload is hit. There is no retransmit path
  // for one-sided transfers, so the end-to-end CRC carried by the
  // rendezvous handshake must abort with a diagnostic dump — silent
  // delivery of the flipped bit would be a correctness disaster.
  EXPECT_DEATH(
      {
        StackOptions options;
        options.parcelport = "lci_psr_cq_mt_i";
        options.num_localities = 2;
        options.threads_per_locality = 2;
        options.faults.corrupt = 1.0;
        options.faults.corrupt_min_size = 4096;
        auto runtime = amtnet::make_runtime(options);
        runtime->locality(0).spawn([] {
          std::vector<std::uint64_t> values(3000, 7);
          amt::here().apply<&take_large>(1, values);
        });
        testutil::spin_until([] { return false; },
                             std::chrono::milliseconds(20000));
      },
      "INTEGRITY FAILURE");
}
