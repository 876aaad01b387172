// Tests for minimpi: matching semantics (FIFO, ANY_SOURCE, tags), eager and
// rendezvous protocols, ordering across the reordering fabric, truncation,
// multithreaded stress under both lock modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "minimpi/minimpi.hpp"
#include "test_util.hpp"

using minimpi::Comm;
using minimpi::Config;
using minimpi::kAnySource;
using minimpi::LockMode;
using minimpi::Request;
using minimpi::World;

namespace {

fabric::Config loopback(fabric::Rank ranks = 2) {
  return fabric::Profile::loopback(ranks);
}

/// Drives both sides until the request completes.
bool wait_req(World& world, Request& request,
              std::chrono::milliseconds timeout =
                  std::chrono::milliseconds(5000)) {
  return testutil::pump_until([&] { return request.done(); },
                              [&] {
                                for (fabric::Rank r = 0; r < world.size();
                                     ++r) {
                                  world.comm(r).progress();
                                }
                              },
                              timeout);
}

}  // namespace

TEST(MiniMpi, EagerSendRecvRoundtrip) {
  World world(loopback());
  const auto data = testutil::make_pattern(1, 64);
  std::vector<std::byte> recv(64);

  auto rreq = world.comm(1).irecv(recv.data(), recv.size(), 0, 5);
  auto sreq = world.comm(0).isend(data.data(), data.size(), 1, 5);
  ASSERT_TRUE(wait_req(world, rreq));
  ASSERT_TRUE(wait_req(world, sreq));
  EXPECT_EQ(rreq.source(), 0);
  EXPECT_EQ(rreq.tag(), 5);
  EXPECT_EQ(rreq.size(), 64u);
  EXPECT_TRUE(testutil::check_pattern(recv.data(), 1, 64));
}

TEST(MiniMpi, EagerSendCompletesImmediately) {
  World world(loopback());
  int x = 7;
  auto sreq = world.comm(0).isend(&x, sizeof(x), 1, 0);
  EXPECT_TRUE(sreq.done());  // fabric copies: eager send is done at post
}

TEST(MiniMpi, UnexpectedMessageMatchesLaterRecv) {
  World world(loopback());
  const auto data = testutil::make_pattern(2, 32);
  auto sreq = world.comm(0).isend(data.data(), data.size(), 1, 9);
  // Let the message arrive unexpected.
  ASSERT_TRUE(testutil::pump_until(
      [&] { return world.comm(1).completed_ops() > 0 || true; },
      [&] { world.comm(1).progress(); }, std::chrono::milliseconds(50)));
  std::vector<std::byte> recv(32);
  auto rreq = world.comm(1).irecv(recv.data(), recv.size(), kAnySource, 9);
  ASSERT_TRUE(wait_req(world, rreq));
  EXPECT_TRUE(testutil::check_pattern(recv.data(), 2, 32));
  EXPECT_TRUE(wait_req(world, sreq));
}

TEST(MiniMpi, AnySourceReportsActualSender) {
  World world(loopback(3));
  int payload = 123;
  std::vector<int> recv(1);
  auto rreq = world.comm(0).irecv(recv.data(), sizeof(int), kAnySource, 4);
  auto sreq = world.comm(2).isend(&payload, sizeof(payload), 0, 4);
  ASSERT_TRUE(wait_req(world, rreq));
  EXPECT_EQ(rreq.source(), 2);
  EXPECT_EQ(recv[0], 123);
  (void)sreq;
}

TEST(MiniMpi, TagsSegregateMessages) {
  World world(loopback());
  int a = 1, b = 2;
  int recv_a = 0, recv_b = 0;
  auto rb = world.comm(1).irecv(&recv_b, sizeof(int), 0, 20);
  auto ra = world.comm(1).irecv(&recv_a, sizeof(int), 0, 10);
  world.comm(0).isend(&a, sizeof(a), 1, 10);
  world.comm(0).isend(&b, sizeof(b), 1, 20);
  ASSERT_TRUE(wait_req(world, ra));
  ASSERT_TRUE(wait_req(world, rb));
  EXPECT_EQ(recv_a, 1);
  EXPECT_EQ(recv_b, 2);
}

TEST(MiniMpi, FifoOrderWithinSameTag) {
  // MPI non-overtaking: two sends with the same (src, tag) must match the
  // two receives in posting order, even across a multi-rail fabric.
  fabric::Config config = loopback();
  config.num_rails = 4;  // encourage reordering pressure
  World world(config);
  constexpr int kCount = 200;
  std::vector<std::uint32_t> recv(kCount, 0);
  std::vector<Request> rreqs;
  for (int i = 0; i < kCount; ++i) {
    rreqs.push_back(
        world.comm(1).irecv(&recv[static_cast<size_t>(i)],
                            sizeof(std::uint32_t), 0, 3));
  }
  for (std::uint32_t i = 0; i < kCount; ++i) {
    world.comm(0).isend(&i, sizeof(i), 1, 3);
  }
  for (auto& request : rreqs) ASSERT_TRUE(wait_req(world, request));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(recv[static_cast<size_t>(i)], static_cast<std::uint32_t>(i));
  }
}

TEST(MiniMpi, RendezvousLargeMessage) {
  World world(loopback());
  const std::size_t size = 100 * 1024;  // far above the eager threshold
  const auto data = testutil::make_pattern(7, size);
  std::vector<std::byte> recv(size);
  auto rreq = world.comm(1).irecv(recv.data(), recv.size(), 0, 2);
  auto sreq = world.comm(0).isend(data.data(), data.size(), 1, 2);
  EXPECT_FALSE(sreq.done());  // rendezvous cannot complete at post time
  ASSERT_TRUE(wait_req(world, rreq));
  ASSERT_TRUE(wait_req(world, sreq));
  EXPECT_EQ(rreq.size(), size);
  EXPECT_TRUE(testutil::check_pattern(recv.data(), 7, size));
}

TEST(MiniMpi, RendezvousUnexpectedRts) {
  World world(loopback());
  const std::size_t size = 64 * 1024;
  const auto data = testutil::make_pattern(8, size);
  auto sreq = world.comm(0).isend(data.data(), data.size(), 1, 6);
  // Deliver the RTS before any recv is posted.
  for (int i = 0; i < 10; ++i) world.comm(1).progress();
  std::vector<std::byte> recv(size);
  auto rreq = world.comm(1).irecv(recv.data(), recv.size(), 0, 6);
  ASSERT_TRUE(wait_req(world, rreq));
  ASSERT_TRUE(wait_req(world, sreq));
  EXPECT_TRUE(testutil::check_pattern(recv.data(), 8, size));
}

TEST(MiniMpi, TruncationClampsToBuffer) {
  World world(loopback());
  const auto data = testutil::make_pattern(3, 128);
  std::vector<std::byte> recv(64);
  auto rreq = world.comm(1).irecv(recv.data(), recv.size(), 0, 1);
  world.comm(0).isend(data.data(), data.size(), 1, 1);
  ASSERT_TRUE(wait_req(world, rreq));
  EXPECT_EQ(rreq.size(), 64u);
  EXPECT_TRUE(testutil::check_pattern(recv.data(), 3, 64));
}

TEST(MiniMpi, EagerThresholdBoundary) {
  Config comm_config;
  comm_config.eager_threshold = 256;
  World world(loopback(), comm_config);
  for (const std::size_t size : {255u, 256u, 257u}) {
    const auto data = testutil::make_pattern(size, size);
    std::vector<std::byte> recv(size);
    auto rreq = world.comm(1).irecv(recv.data(), recv.size(), 0, 11);
    auto sreq = world.comm(0).isend(data.data(), data.size(), 1, 11);
    ASSERT_TRUE(wait_req(world, rreq)) << "size=" << size;
    ASSERT_TRUE(wait_req(world, sreq)) << "size=" << size;
    EXPECT_TRUE(testutil::check_pattern(recv.data(), size, size));
  }
}

TEST(MiniMpi, ZeroByteMessage) {
  World world(loopback());
  auto rreq = world.comm(1).irecv(nullptr, 0, 0, 15);
  auto sreq = world.comm(0).isend(nullptr, 0, 1, 15);
  ASSERT_TRUE(wait_req(world, rreq));
  ASSERT_TRUE(wait_req(world, sreq));
  EXPECT_EQ(rreq.size(), 0u);
}

TEST(MiniMpi, ManyConcurrentRendezvous) {
  World world(loopback());
  constexpr int kCount = 32;
  const std::size_t size = 32 * 1024;
  std::vector<std::vector<std::byte>> recvs(kCount);
  std::vector<std::vector<std::byte>> sends(kCount);
  std::vector<Request> rreqs, sreqs;
  for (int i = 0; i < kCount; ++i) {
    recvs[static_cast<size_t>(i)].resize(size);
    sends[static_cast<size_t>(i)] =
        testutil::make_pattern(static_cast<std::uint64_t>(i), size);
    rreqs.push_back(world.comm(1).irecv(recvs[static_cast<size_t>(i)].data(),
                                        size, 0, 100 + i));
  }
  for (int i = 0; i < kCount; ++i) {
    sreqs.push_back(world.comm(0).isend(sends[static_cast<size_t>(i)].data(),
                                        size, 1, 100 + i));
  }
  for (auto& request : rreqs) ASSERT_TRUE(wait_req(world, request));
  for (auto& request : sreqs) ASSERT_TRUE(wait_req(world, request));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_TRUE(testutil::check_pattern(recvs[static_cast<size_t>(i)].data(),
                                        static_cast<std::uint64_t>(i), size));
  }
}

class MiniMpiLockModes : public ::testing::TestWithParam<LockMode> {};

TEST_P(MiniMpiLockModes, MultithreadedStressAllMessagesArrive) {
  Config comm_config;
  comm_config.lock_mode = GetParam();
  fabric::Config fab = loopback();
  fab.srq_depth = 512;
  World world(fab, comm_config);

  constexpr int kSenderThreads = 3;
  constexpr int kPerThread = 300;
  constexpr int kTotal = kSenderThreads * kPerThread;

  std::vector<std::vector<std::byte>> recvs(kTotal);
  std::vector<Request> rreqs(kTotal);
  for (int i = 0; i < kTotal; ++i) {
    recvs[static_cast<size_t>(i)].resize(512);
    rreqs[static_cast<size_t>(i)] = world.comm(1).irecv(
        recvs[static_cast<size_t>(i)].data(), 512, kAnySource, i);
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kSenderThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int tag = t * kPerThread + i;
        const auto data =
            testutil::make_pattern(static_cast<std::uint64_t>(tag), 512);
        auto req = world.comm(0).isend(data.data(), data.size(), 1, tag);
        while (!world.comm(0).test(req)) std::this_thread::yield();
      }
    });
  }
  // A receiver-side progress thread, as HPX worker threads would do.
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load()) world.comm(1).progress();
  });

  for (auto& thread : threads) thread.join();
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(wait_req(world, rreqs[static_cast<size_t>(i)]))
        << "message " << i << " lost";
    EXPECT_TRUE(testutil::check_pattern(recvs[static_cast<size_t>(i)].data(),
                                        static_cast<std::uint64_t>(i), 512));
  }
  stop.store(true);
  pump.join();
}

INSTANTIATE_TEST_SUITE_P(LockModes, MiniMpiLockModes,
                         ::testing::Values(LockMode::kCoarseBlocking,
                                           LockMode::kFineGrained));

TEST(MiniMpi, TxWindowBackpressureIsAbsorbed) {
  // A tiny TX window forces the deferred-send path; nothing may be lost.
  fabric::Config fab = loopback();
  fab.tx_window = 4;
  World world(fab);
  constexpr int kCount = 64;
  std::vector<std::uint32_t> recv(kCount);
  std::vector<Request> rreqs, sreqs;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    rreqs.push_back(world.comm(1).irecv(&recv[i], sizeof(std::uint32_t), 0,
                                        static_cast<int>(i)));
  }
  for (std::uint32_t i = 0; i < kCount; ++i) {
    sreqs.push_back(
        world.comm(0).isend(&i, sizeof(i), 1, static_cast<int>(i)));
  }
  for (auto& request : rreqs) ASSERT_TRUE(wait_req(world, request));
  for (auto& request : sreqs) ASSERT_TRUE(wait_req(world, request));
  for (std::uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(recv[i], i);
}

namespace {

// A peer's control datagram shorter than its payload struct must abort in
// every build type rather than be over-read. The wire immediate is
// [63:56] message kind | [55:32] tag | [31:0] seq or rendezvous id.
void post_short_control(World& world, std::uint64_t kind) {
  const std::uint32_t short_payload = 64;
  ASSERT_EQ(world.fabric().nic(0).post_send(1, &short_payload,
                                            sizeof(short_payload),
                                            (kind << 56) | 1),
            common::Status::kOk);
}

}  // namespace

TEST(MinimpiDeathTest, ShortRtsPayloadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  World world(loopback());
  post_short_control(world, 2);  // RTS
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100; ++i) world.comm(1).progress();
      },
      "INTEGRITY FAILURE.*control payload");
}

TEST(MinimpiDeathTest, ShortCtsPayloadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  World world(loopback());
  post_short_control(world, 3);  // CTS
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100; ++i) world.comm(1).progress();
      },
      "INTEGRITY FAILURE.*control payload");
}
