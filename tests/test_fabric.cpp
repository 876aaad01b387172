// Tests for the simulated RDMA fabric: delivery, latency gating, bandwidth
// serialisation, rail ordering, SRQ back-pressure (RNR), TX-window retry,
// memory registration, and RDMA writes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "fabric/nic.hpp"
#include "test_util.hpp"

using fabric::Config;
using fabric::Fabric;
using fabric::Nic;
using fabric::Profile;
using fabric::RxEvent;

namespace {

std::vector<RxEvent> poll_all(Nic& nic, std::size_t expected,
                              std::chrono::milliseconds timeout =
                                  std::chrono::milliseconds(5000)) {
  std::vector<RxEvent> events;
  testutil::pump_until(
      [&] { return events.size() >= expected; },
      [&] {
        nic.poll_rx(64, [&](RxEvent&& e) { events.push_back(std::move(e)); });
      },
      timeout);
  return events;
}

/// Resident set size of this process in KiB (VmRSS from /proc/self/status),
/// or 0 where it cannot be read.
std::size_t resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::size_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(1024, '\n');
  }
  return 0;
}

}  // namespace

TEST(FabricProfiles, MatchPaperTables) {
  const auto expanse = Profile::expanse(2);
  EXPECT_DOUBLE_EQ(expanse.bandwidth_gbps, 100.0);  // HDR 2x50Gbps (Table 2)
  const auto rostam = Profile::rostam(2);
  EXPECT_DOUBLE_EQ(rostam.bandwidth_gbps, 56.0);  // FDR 4x14Gbps (Table 3)
  EXPECT_GT(rostam.latency_us, expanse.latency_us);
  const auto description = Profile::describe(expanse, "expanse");
  EXPECT_NE(description.find("bandwidth_gbps=100"), std::string::npos);
}

TEST(Fabric, SendDeliversPayloadAndImm) {
  Fabric fabric(Profile::loopback(2));
  const auto data = testutil::make_pattern(1, 100);
  ASSERT_EQ(fabric.nic(0).post_send(1, data.data(), data.size(), 0xabcd),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, RxEvent::Kind::kRecv);
  EXPECT_EQ(events[0].src, 0u);
  EXPECT_EQ(events[0].imm, 0xabcdu);
  EXPECT_EQ(events[0].size, 100u);
  EXPECT_TRUE(testutil::check_pattern(events[0].data(), 1, 100));
  EXPECT_TRUE(events[0].credit.valid());  // the SRQ slot is held
}

TEST(Fabric, ZeroLengthSendHasNoBuffer) {
  Fabric fabric(Profile::loopback(2));
  ASSERT_EQ(fabric.nic(0).post_send(1, nullptr, 0, 7), common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].size, 0u);
  EXPECT_TRUE(events[0].payload.empty());
  EXPECT_FALSE(events[0].credit.valid());  // no SRQ slot consumed
}

TEST(Fabric, SendToInvalidRankErrors) {
  Fabric fabric(Profile::loopback(2));
  int x = 0;
  EXPECT_EQ(fabric.nic(0).post_send(7, &x, sizeof(x), 0),
            common::Status::kError);
}

TEST(Fabric, OversizedSendErrors) {
  Fabric fabric(Profile::loopback(2));
  std::vector<std::byte> big(fabric.nic(0).srq_buffer_size() + 1);
  EXPECT_EQ(fabric.nic(0).post_send(1, big.data(), big.size(), 0),
            common::Status::kError);
}

TEST(Fabric, SingleRailPreservesOrder) {
  Config config = Profile::loopback(2);
  config.num_rails = 1;
  Fabric fabric(config);
  constexpr std::uint64_t kCount = 500;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(fabric.nic(0).post_send(1, &i, sizeof(i), i),
              common::Status::kOk);
  }
  auto events = poll_all(fabric.nic(1), kCount);
  ASSERT_EQ(events.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(events[i].imm, i);
  }
}

TEST(Fabric, LatencyGatesDelivery) {
  Config config;
  config.num_ranks = 2;
  config.latency_us = 20000.0;  // 20 ms: far above scheduling noise
  config.num_rails = 1;
  Fabric fabric(config);
  int x = 42;
  const auto t0 = common::now_ns();
  ASSERT_EQ(fabric.nic(0).post_send(1, &x, sizeof(x), 0),
            common::Status::kOk);
  // Immediately after posting, nothing must be deliverable.
  std::size_t early = fabric.nic(1).poll_rx(8, [](RxEvent&&) {});
  EXPECT_EQ(early, 0u);
  auto events = poll_all(fabric.nic(1), 1);
  const auto elapsed = common::now_ns() - t0;
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(elapsed, 20'000'000);  // at least the configured latency
}

TEST(Fabric, BandwidthSerialisesBackToBackPackets) {
  Config config;
  config.num_ranks = 2;
  config.latency_us = 0.0;
  config.bandwidth_gbps = 0.008;  // 1 KiB/ms: transmission time dominates
  config.num_rails = 1;
  Fabric fabric(config);
  std::vector<std::byte> payload(10240);  // ~10 ms of wire time each
  const auto t0 = common::now_ns();
  ASSERT_EQ(fabric.nic(0).post_send(1, payload.data(), payload.size(), 1),
            common::Status::kOk);
  ASSERT_EQ(fabric.nic(0).post_send(1, payload.data(), payload.size(), 2),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 2);
  const auto elapsed = common::now_ns() - t0;
  ASSERT_EQ(events.size(), 2u);
  // Two ~10 ms packets on one serial link: >= ~20 ms total.
  EXPECT_GE(elapsed, 18'000'000);
}

TEST(Fabric, PacketRateCapThrottles) {
  Config config;
  config.num_ranks = 2;
  config.latency_us = 0.0;
  config.pkt_rate_mpps = 0.0001;  // 100 packets/s -> 10 ms per packet
  config.num_rails = 1;
  Fabric fabric(config);
  int x = 0;
  const auto t0 = common::now_ns();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(fabric.nic(0).post_send(1, &x, sizeof(x), 0),
              common::Status::kOk);
  }
  auto events = poll_all(fabric.nic(1), 3);
  const auto elapsed = common::now_ns() - t0;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_GE(elapsed, 20'000'000);  // 3 packets at 10 ms spacing
}

TEST(Fabric, TxWindowRejectsWhenFull) {
  Config config = Profile::loopback(2);
  config.tx_window = 8;
  Fabric fabric(config);
  int x = 0;
  int accepted = 0;
  common::Status status = common::Status::kOk;
  for (int i = 0; i < 100 && status == common::Status::kOk; ++i) {
    status = fabric.nic(0).post_send(1, &x, sizeof(x), 0);
    if (status == common::Status::kOk) ++accepted;
  }
  EXPECT_EQ(status, common::Status::kRetry);
  EXPECT_EQ(accepted, 8);
  EXPECT_GE(fabric.nic(0).stats().sends_rejected_tx_window, 1u);

  // Draining the receiver restores credit.
  auto events = poll_all(fabric.nic(1), 8);
  ASSERT_EQ(events.size(), 8u);
  events.clear();  // release SRQ buffers
  EXPECT_EQ(fabric.nic(0).post_send(1, &x, sizeof(x), 0),
            common::Status::kOk);
}

TEST(Fabric, SrqExhaustionStallsThenRecovers) {
  Config config = Profile::loopback(2);
  config.srq_depth = 4;
  config.tx_window = 64;
  Fabric fabric(config);
  int x = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fabric.nic(0).post_send(1, &x, sizeof(x), i),
              common::Status::kOk);
  }
  // Hold the first four buffers: the rest must stall (RNR), not drop.
  std::vector<RxEvent> held;
  fabric.nic(1).poll_rx(64,
                        [&](RxEvent&& e) { held.push_back(std::move(e)); });
  EXPECT_EQ(held.size(), 4u);
  std::size_t more = fabric.nic(1).poll_rx(64, [](RxEvent&&) {});
  EXPECT_EQ(more, 0u);
  EXPECT_GE(fabric.nic(1).stats().rnr_stalls, 1u);

  held.clear();  // recycle SRQ buffers
  auto rest = poll_all(fabric.nic(1), 4);
  EXPECT_EQ(rest.size(), 4u);
}

TEST(Fabric, SrqCreditsCostNoBufferMemory) {
  // The SRQ models 4096 x 16 KiB receive buffers per NIC by count alone;
  // backing them with memory would make every NIC resident for 64 MiB.
  const std::size_t before = resident_kib();
  if (before == 0) GTEST_SKIP() << "no /proc/self/status VmRSS";
  Fabric fabric(Profile::loopback(2));
  EXPECT_LT(resident_kib() - before, 32u * 1024);
}

TEST(Fabric, RdmaWriteLandsInRegisteredMemory) {
  Fabric fabric(Profile::loopback(2));
  std::vector<std::byte> target(256, std::byte{0});
  const auto mr = fabric.nic(1).register_memory(target.data(), target.size());
  EXPECT_EQ(mr.rank, 1u);

  const auto data = testutil::make_pattern(9, 64);
  ASSERT_EQ(fabric.nic(0).post_write_imm(1, mr, 32, data.data(), data.size(),
                                         5),
            common::Status::kOk);
  // The data is in place by the time the immediate surfaces.
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, RxEvent::Kind::kWriteImm);
  EXPECT_EQ(events[0].size, 64u);
  EXPECT_TRUE(testutil::check_pattern(target.data() + 32, 9, 64));
  // Bytes around the window are untouched.
  EXPECT_EQ(target[31], std::byte{0});
  EXPECT_EQ(target[96], std::byte{0});
}

TEST(Fabric, RdmaWriteImmSignalsTarget) {
  Fabric fabric(Profile::loopback(2));
  std::vector<std::byte> target(128);
  const auto mr = fabric.nic(1).register_memory(target.data(), target.size());
  const auto data = testutil::make_pattern(3, 128);
  ASSERT_EQ(fabric.nic(0).post_write_imm(1, mr, 0, data.data(), data.size(),
                                         0xfeed),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, RxEvent::Kind::kWriteImm);
  EXPECT_EQ(events[0].imm, 0xfeedu);
  EXPECT_EQ(events[0].size, 128u);
  EXPECT_TRUE(testutil::check_pattern(target.data(), 3, 128));
}

TEST(Fabric, WriteToDeregisteredMrIsDroppedSafely) {
  Fabric fabric(Profile::loopback(2));
  std::vector<std::byte> target(64, std::byte{7});
  const auto mr = fabric.nic(1).register_memory(target.data(), target.size());
  fabric.nic(1).deregister_memory(mr);
  const auto data = testutil::make_pattern(4, 64);
  ASSERT_EQ(fabric.nic(0).post_write_imm(1, mr, 0, data.data(), data.size(),
                                         1),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);  // the immediate still arrives...
  EXPECT_EQ(target[0], std::byte{7});  // ...but memory is untouched
}

TEST(Fabric, OutOfBoundsWriteIsDropped) {
  Fabric fabric(Profile::loopback(2));
  std::vector<std::byte> target(64, std::byte{7});
  const auto mr = fabric.nic(1).register_memory(target.data(), target.size());
  const auto data = testutil::make_pattern(4, 64);
  // offset 32 + 64 bytes overruns the 64-byte region.
  ASSERT_EQ(fabric.nic(0).post_write_imm(1, mr, 32, data.data(), data.size(),
                                         1),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(target[32], std::byte{7});  // nothing was written
}

TEST(Fabric, StatsCountTraffic) {
  Fabric fabric(Profile::loopback(2));
  int x = 0;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(fabric.nic(0).post_send(1, &x, sizeof(x), 0),
              common::Status::kOk);
  }
  poll_all(fabric.nic(1), 5);
  const auto tx = fabric.nic(0).stats();
  const auto rx = fabric.nic(1).stats();
  EXPECT_EQ(tx.packets_sent, 5u);
  EXPECT_GT(tx.bytes_sent, 5 * sizeof(x));  // includes framing overhead
  EXPECT_EQ(rx.packets_received, 5u);
}

TEST(Fabric, ConcurrentSendersAndPollersDeliverEverything) {
  Config config = Profile::loopback(2);
  config.srq_depth = 256;
  config.tx_window = 1024;
  Fabric fabric(config);
  constexpr int kSenders = 4;
  constexpr int kPollers = 3;
  constexpr std::uint64_t kPerSender = 5000;
  constexpr std::uint64_t kTotal = kSenders * kPerSender;

  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> checksum{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        const std::uint64_t imm = static_cast<std::uint64_t>(s) << 32 | i;
        while (fabric.nic(0).post_send(1, &imm, sizeof(imm), imm) !=
               common::Status::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < kPollers; ++c) {
    threads.emplace_back([&] {
      while (received.load() < kTotal) {
        const std::size_t n = fabric.nic(1).poll_rx(32, [&](RxEvent&& e) {
          std::uint64_t value = 0;
          std::memcpy(&value, e.data(), sizeof(value));
          EXPECT_EQ(value, e.imm);
          checksum.fetch_add(e.imm + 1);
        });
        received.fetch_add(n);
        if (n == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::uint64_t expected = 0;
  for (int s = 0; s < kSenders; ++s) {
    for (std::uint64_t i = 0; i < kPerSender; ++i) {
      expected += (static_cast<std::uint64_t>(s) << 32 | i) + 1;
    }
  }
  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(checksum.load(), expected);
}

// ---------------- deterministic fault injection ----------------

#include <set>

#include "fabric/reliable.hpp"

namespace {

fabric::Config chaos_config(fabric::Rank num_ranks) {
  fabric::Config config = Profile::loopback(num_ranks);
  config.num_rails = 1;
  return config;
}

/// Posts `count` 8-byte datagrams 0 -> 1, spinning through kRetry, and
/// returns the imm sequence the receiver observed once the fabric drained.
std::vector<std::uint64_t> run_lossy_exchange(const fabric::Config& config,
                                              std::uint64_t count) {
  Fabric fabric(config);
  for (std::uint64_t i = 0; i < count; ++i) {
    while (fabric.nic(0).post_send(1, &i, sizeof(i), i) !=
           common::Status::kOk) {
      fabric.nic(1).poll_rx(64, [](RxEvent&&) {});
    }
  }
  const auto sender = fabric.nic(0).stats();
  const std::uint64_t expected =
      count - sender.faults_dropped + sender.faults_duplicated;
  std::vector<std::uint64_t> received;
  testutil::pump_until(
      [&] { return received.size() >= expected; },
      [&] {
        fabric.nic(1).poll_rx(64,
                              [&](RxEvent&& e) { received.push_back(e.imm); });
      });
  return received;
}

}  // namespace

TEST(FaultInjection, ZeroProbabilitiesInjectNothing) {
  Fabric fabric(chaos_config(2));
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(fabric.nic(0).post_send(1, &i, sizeof(i), i),
              common::Status::kOk);
  }
  auto events = poll_all(fabric.nic(1), 100);
  EXPECT_EQ(events.size(), 100u);
  const auto stats = fabric.nic(0).stats();
  EXPECT_EQ(stats.faults_dropped, 0u);
  EXPECT_EQ(stats.faults_duplicated, 0u);
  EXPECT_EQ(stats.faults_corrupted, 0u);
  EXPECT_EQ(stats.faults_delayed, 0u);
  EXPECT_EQ(stats.brownout_rejects, 0u);
  EXPECT_EQ(stats.rnr_storms, 0u);
}

TEST(FaultInjection, DropAndDupPatternReplaysFromSeed) {
  fabric::Config config = chaos_config(2);
  config.faults.drop = 0.2;
  config.faults.duplicate = 0.1;
  config.faults.seed = 0xfeedULL;
  const auto first = run_lossy_exchange(config, 300);
  const auto second = run_lossy_exchange(config, 300);
  EXPECT_EQ(first, second) << "same seed must replay the same fault pattern";
  EXPECT_LT(first.size(), 330u);  // some datagrams really were dropped

  config.faults.seed = 0xbeefULL;
  const auto other = run_lossy_exchange(config, 300);
  EXPECT_NE(first, other) << "a different seed should reshuffle the faults";
}

TEST(FaultInjection, BrownoutSurfacesAsRetry) {
  fabric::Config config = chaos_config(2);
  config.faults.brownout = 1.0;
  config.faults.brownout_posts = 8;
  Fabric fabric(config);
  std::uint64_t value = 7;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fabric.nic(0).post_send(1, &value, sizeof(value), 0),
              common::Status::kRetry);
  }
  EXPECT_EQ(fabric.nic(0).stats().brownout_rejects, 10u);
}

TEST(FaultInjection, CorruptionFlipsOneBit) {
  fabric::Config config = chaos_config(2);
  config.faults.corrupt = 1.0;
  Fabric fabric(config);
  const auto data = testutil::make_pattern(3, 64);
  ASSERT_EQ(fabric.nic(0).post_send(1, data.data(), data.size(), 0),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].size, 64u);
  EXPECT_FALSE(testutil::check_pattern(events[0].data(), 3, 64));
  int flipped_bits = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    flipped_bits += __builtin_popcount(
        static_cast<unsigned>(events[0].data()[i] ^ data[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(fabric.nic(0).stats().faults_corrupted, 1u);
}

TEST(FaultInjection, CorruptMinSizeSparesSmallPayloads) {
  fabric::Config config = chaos_config(2);
  config.faults.corrupt = 1.0;
  config.faults.corrupt_min_size = 1024;
  Fabric fabric(config);
  const auto data = testutil::make_pattern(4, 64);  // below the floor
  ASSERT_EQ(fabric.nic(0).post_send(1, data.data(), data.size(), 0),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(testutil::check_pattern(events[0].data(), 4, 64));
  EXPECT_EQ(fabric.nic(0).stats().faults_corrupted, 0u);
}

TEST(FaultInjection, DelaySpikesAreCountedAndStillDelivered) {
  fabric::Config config = chaos_config(2);
  config.faults.delay = 1.0;
  config.faults.delay_us = 100.0;
  Fabric fabric(config);
  std::uint64_t value = 9;
  ASSERT_EQ(fabric.nic(0).post_send(1, &value, sizeof(value), 9),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].imm, 9u);
  EXPECT_EQ(fabric.nic(0).stats().faults_delayed, 1u);
}

TEST(FaultInjection, RnrStormRefusesBufferedDeliveries) {
  fabric::Config config = chaos_config(2);
  config.faults.rnr_storm = 0.5;
  config.faults.rnr_storm_polls = 4;
  Fabric fabric(config);
  // Burn poll indices until a storm has statistically certainly triggered.
  for (int i = 0; i < 64; ++i) fabric.nic(1).poll_rx(8, [](RxEvent&&) {});
  EXPECT_GE(fabric.nic(1).stats().rnr_storms, 1u);
  // A buffered datagram still gets through once a storm-free poll lands.
  std::uint64_t value = 5;
  ASSERT_EQ(fabric.nic(0).post_send(1, &value, sizeof(value), 5),
            common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].imm, 5u);
}

// ---------------- the reliability sublayer over a lossy fabric ----------

namespace {

/// Drives two ReliableEndpoints until `expected` distinct datagrams arrived
/// at rank 1 and the sender has nothing outstanding.
struct ReliablePair {
  Fabric fabric;
  fabric::ReliableEndpoint tx;
  fabric::ReliableEndpoint rx;
  std::vector<std::uint64_t> received;

  explicit ReliablePair(const fabric::Config& config)
      : fabric(config),
        tx(fabric, 0, "test"),
        rx(fabric, 1, "test") {}

  void pump() {
    tx.progress();
    rx.progress();
    fabric.nic(1).poll_rx(64, [&](RxEvent&& event) {
      if (!rx.on_recv(event)) return;
      EXPECT_TRUE(
          testutil::check_pattern(event.data(), event.imm, event.size));
      received.push_back(event.imm);
    });
    fabric.nic(0).poll_rx(64, [&](RxEvent&& event) {
      EXPECT_FALSE(tx.on_recv(event)) << "sender expects only acks";
    });
  }

  bool run(std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const auto data = testutil::make_pattern(i, 32);
      while (tx.send(1, data.data(), data.size(), i) !=
             common::Status::kOk) {
        pump();
      }
    }
    return testutil::pump_until(
        [&] { return received.size() >= count && tx.pending() == 0; },
        [&] { pump(); }, std::chrono::milliseconds(20000));
  }
};

}  // namespace

TEST(ReliableEndpoint, RetransmitsThroughDrops) {
  fabric::Config config = chaos_config(2);
  config.faults.drop = 0.25;
  config.faults.seed = 41;
  ReliablePair pair(config);
  ASSERT_TRUE(pair.tx.enabled());
  constexpr std::uint64_t kCount = 60;
  ASSERT_TRUE(pair.run(kCount));
  std::set<std::uint64_t> unique(pair.received.begin(), pair.received.end());
  EXPECT_EQ(pair.received.size(), kCount) << "no duplicate deliveries";
  EXPECT_EQ(unique.size(), kCount) << "every message delivered exactly once";
  const auto snap = pair.fabric.telemetry().snapshot();
  EXPECT_GT(snap.counter("reliable/test0/retransmits"), 0u);
}

TEST(ReliableEndpoint, DedupsDuplicatedDatagrams) {
  fabric::Config config = chaos_config(2);
  config.faults.duplicate = 0.5;
  config.faults.seed = 42;
  ReliablePair pair(config);
  constexpr std::uint64_t kCount = 60;
  ASSERT_TRUE(pair.run(kCount));
  EXPECT_EQ(pair.received.size(), kCount);
  const auto snap = pair.fabric.telemetry().snapshot();
  EXPECT_GT(snap.counter("reliable/test1/dup_dropped"), 0u);
}

TEST(ReliableEndpoint, DropsCorruptDatagramsAndRecovers) {
  fabric::Config config = chaos_config(2);
  config.faults.corrupt = 0.3;
  config.faults.seed = 43;
  ReliablePair pair(config);
  constexpr std::uint64_t kCount = 60;
  ASSERT_TRUE(pair.run(kCount));
  EXPECT_EQ(pair.received.size(), kCount);
  const auto snap = pair.fabric.telemetry().snapshot();
  EXPECT_GT(snap.counter("reliable/test1/crc_dropped"), 0u);
}

TEST(ReliableEndpoint, RetransmitBehindThousandsOfLaterArrivalsIsDelivered) {
  // Under a fast flood a dropped datagram's retransmit (exponential
  // backoff) can land after thousands of later datagrams. The receiver must
  // deliver it: a sequence gap is a datagram still in flight, not a number
  // it may presume delivered. The flood runs with no sender progress, so
  // no retransmit fires until every first attempt has landed or dropped.
  fabric::Config config = chaos_config(2);
  config.faults.drop = 0.01;
  config.faults.seed = 44;
  ReliablePair pair(config);
  const auto drain = [&] {
    pair.fabric.nic(1).poll_rx(64, [&](RxEvent&& event) {
      if (pair.rx.on_recv(event)) pair.received.push_back(event.imm);
    });
    pair.fabric.nic(0).poll_rx(64, [&](RxEvent&& event) {
      EXPECT_FALSE(pair.tx.on_recv(event));
    });
  };
  constexpr std::uint64_t kCount = 6000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const auto data = testutil::make_pattern(i, 32);
    while (pair.tx.send(1, data.data(), data.size(), i) !=
           common::Status::kOk) {
      drain();
    }
  }
  for (int i = 0; i < 1000; ++i) drain();
  ASSERT_GT(kCount - pair.received.size(), 0u) << "no first attempt dropped";
  ASSERT_TRUE(testutil::pump_until(
      [&] { return pair.received.size() >= kCount && pair.tx.pending() == 0; },
      [&] { pair.pump(); }, std::chrono::milliseconds(20000)))
      << "delivered " << pair.received.size() << " of " << kCount;
  const std::set<std::uint64_t> unique(pair.received.begin(),
                                       pair.received.end());
  EXPECT_EQ(pair.received.size(), kCount);
  EXPECT_EQ(unique.size(), kCount);
}

TEST(ReliableEndpoint, RefusesOversizedDatagramWithoutWrapping) {
  fabric::Config config = chaos_config(2);
  config.faults.integrity = true;
  Fabric fabric(config);
  fabric::ReliableEndpoint tx(fabric, 0, "test");
  ASSERT_TRUE(tx.enabled());
  // SIZE_MAX - 4 plus the 8-byte trailer wraps to a tiny wire size; the
  // bound must refuse it before anything is copied or posted.
  std::uint64_t value = 11;
  EXPECT_EQ(tx.send(1, &value, SIZE_MAX - 4, 11), common::Status::kError);
  EXPECT_EQ(fabric.nic(0).stats().packets_sent, 0u);
  EXPECT_EQ(tx.pending(), 0u);
}

TEST(ReliableEndpoint, PassthroughWhenFaultsOff) {
  Fabric fabric(chaos_config(2));
  fabric::ReliableEndpoint tx(fabric, 0, "test");
  EXPECT_FALSE(tx.enabled());
  std::uint64_t value = 11;
  ASSERT_EQ(tx.send(1, &value, sizeof(value), 11), common::Status::kOk);
  auto events = poll_all(fabric.nic(1), 1);
  ASSERT_EQ(events.size(), 1u);
  // Passthrough: no trailer appended, payload arrives byte-identical.
  EXPECT_EQ(events[0].size, sizeof(value));
  EXPECT_EQ(tx.pending(), 0u);
}
