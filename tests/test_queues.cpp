// Unit + property tests for the lock-free queues: FIFO per producer, no
// loss, no duplication, capacity behaviour, predicate-gated pops, and MPSC
// node recycling. Thread-count sweeps use parameterized tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "queues/mpmc_queue.hpp"
#include "queues/mpsc_queue.hpp"
#include "queues/spsc_ring.hpp"

namespace {

// Encode (producer, sequence) in one value so consumers can verify
// per-producer FIFO order.
std::uint64_t encode(std::uint32_t producer, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(producer) << 32) | seq;
}
std::uint32_t producer_of(std::uint64_t v) {
  return static_cast<std::uint32_t>(v >> 32);
}
std::uint32_t seq_of(std::uint64_t v) {
  return static_cast<std::uint32_t>(v);
}

}  // namespace

// ---------------- SpscRing ----------------

TEST(SpscRing, PushPopSingleThread) {
  queues::SpscRing<int> ring(8);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.empty());
  for (int i = 0; i < 8; ++i) {
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRejectsPush) {
  queues::SpscRing<int> ring(4);
  int pushed = 0;
  while (ring.try_push(pushed)) ++pushed;
  EXPECT_GE(pushed, 4);  // capacity is rounded up to a power of two
  EXPECT_FALSE(ring.try_push(999));
  ASSERT_TRUE(ring.try_pop().has_value());
  EXPECT_TRUE(ring.try_push(999));  // slot freed
}

TEST(SpscRing, WrapsAroundManyTimes) {
  queues::SpscRing<int> ring(4);
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(ring.try_push(round));
    auto v = ring.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, round);
  }
}

TEST(SpscRing, TwoThreadsPreserveFifoAndLoseNothing) {
  queues::SpscRing<std::uint64_t> ring(64);
  constexpr std::uint32_t kCount = 200000;
  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint32_t expected = 0;
  while (expected < kCount) {
    auto v = ring.try_pop();
    if (!v) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(*v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ---------------- MpscQueue ----------------

TEST(MpscQueue, PushPopSingleThread) {
  queues::MpscQueue<int> queue;
  EXPECT_TRUE(queue.looks_empty());
  queue.push(1);
  queue.push(2);
  EXPECT_FALSE(queue.looks_empty());
  EXPECT_EQ(queue.try_pop().value(), 1);
  EXPECT_EQ(queue.try_pop().value(), 2);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(MpscQueue, TryPopIfGatesOnPredicate) {
  queues::MpscQueue<int> queue;
  queue.push(5);
  EXPECT_FALSE(queue.try_pop_if([](const int& v) { return v > 10; }));
  auto v = queue.try_pop_if([](const int& v) { return v == 5; });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 5);
}

TEST(MpscQueue, SteadyStatePushPopAllocatesNothing) {
  using Queue = queues::MpscQueue<std::vector<int>>;
  Queue queue;
  const auto burst = [&queue](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) queue.push({});
    for (std::size_t i = 0; i < n; ++i) ASSERT_TRUE(queue.try_pop());
  };
  burst(Queue::kFreeNodes);  // warm-up: fills the free ring
  const std::uint64_t before = testutil::heap_allocations();
  for (int round = 0; round < 1000; ++round) {
    burst(1);
    burst(Queue::kFreeNodes);
  }
  EXPECT_EQ(testutil::heap_allocations() - before, 0u)
      << "a push allocated a node although retired ones were free";
  // A burst past the ring allocates, and afterwards the queue is back to
  // reuse only.
  burst(4 * Queue::kFreeNodes);
  const std::uint64_t after_burst = testutil::heap_allocations();
  burst(Queue::kFreeNodes);
  EXPECT_EQ(testutil::heap_allocations() - after_burst, 0u);
}

TEST(MpscQueue, DestructionReleasesQueuedValuesOnce) {
  auto token = std::make_shared<int>(0);
  {
    queues::MpscQueue<std::shared_ptr<int>> queue;
    for (int i = 0; i < 3; ++i) queue.push(token);
    EXPECT_TRUE(queue.try_pop());  // its node is now in the free ring
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

struct MpscParam {
  int producers;
  std::uint32_t per_producer;
  // Most items in flight at once; 0 lets producers run ahead freely.
  std::int64_t window;
};

class MpscQueueProperty : public ::testing::TestWithParam<MpscParam> {};

TEST_P(MpscQueueProperty, NoLossNoDupPerProducerFifo) {
  const auto param = GetParam();
  queues::MpscQueue<std::uint64_t> queue;
  std::atomic<std::int64_t> in_flight{0};
  const std::uint64_t allocs_before = testutil::heap_allocations();
  std::vector<std::thread> producers;
  for (int p = 0; p < param.producers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint32_t i = 0; i < param.per_producer; ++i) {
        while (param.window > 0 &&
               in_flight.load(std::memory_order_relaxed) >= param.window) {
          std::this_thread::yield();
        }
        in_flight.fetch_add(1, std::memory_order_relaxed);
        queue.push(encode(static_cast<std::uint32_t>(p), i));
      }
    });
  }
  std::map<std::uint32_t, std::uint32_t> next_seq;
  std::uint64_t received = 0;
  const std::uint64_t total =
      static_cast<std::uint64_t>(param.producers) * param.per_producer;
  while (received < total) {
    auto v = queue.try_pop();
    if (!v) {
      std::this_thread::yield();
      continue;
    }
    in_flight.fetch_sub(1, std::memory_order_relaxed);
    const auto producer = producer_of(*v);
    ASSERT_EQ(seq_of(*v), next_seq[producer]) << "per-producer FIFO violated";
    ++next_seq[producer];
    ++received;
  }
  for (auto& thread : producers) thread.join();
  EXPECT_FALSE(queue.try_pop().has_value());
  if (param.window > 0) {
    // Within the window (plus one overshoot per producer) every node the
    // consumer thread retires fits the free ring, so the producer threads
    // reuse nodes instead of allocating: the hand-off TSan checks.
    EXPECT_LT(testutil::heap_allocations() - allocs_before, total / 10)
        << "producers allocated nodes instead of reusing retired ones";
  }
}

constexpr std::int64_t kReuseWindow =
    queues::MpscQueue<std::uint64_t>::kFreeNodes / 2;

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpscQueueProperty,
    ::testing::Values(MpscParam{1, 50000, 0}, MpscParam{2, 25000, 0},
                      MpscParam{4, 10000, 0}, MpscParam{8, 5000, 0},
                      MpscParam{1, 50000, kReuseWindow},
                      MpscParam{4, 10000, kReuseWindow},
                      MpscParam{8, 5000, kReuseWindow}));

// ---------------- TryMpmcQueue ----------------

TEST(TryMpmcQueue, BasicPushPop) {
  queues::TryMpmcQueue<int> queue;
  queue.push(7);
  bool contended = true;
  auto v = queue.try_pop(&contended);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(contended);
}

TEST(TryMpmcQueue, DrainBatches) {
  queues::TryMpmcQueue<int> queue;
  for (int i = 0; i < 10; ++i) queue.push(i);
  std::vector<int> got;
  EXPECT_EQ(queue.try_drain(4, [&](int v) { got.push_back(v); }), 4u);
  EXPECT_EQ(queue.try_drain(100, [&](int v) { got.push_back(v); }), 6u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(TryMpmcQueue, DrainWhileStopsAtPredicate) {
  queues::TryMpmcQueue<int> queue;
  for (int i = 0; i < 6; ++i) queue.push(i);
  std::vector<int> got;
  const auto n = queue.try_drain_while(
      100, [](const int& v) { return v < 3; },
      [&](int v) { got.push_back(v); });
  EXPECT_EQ(n, 3u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2], 2);
  // Head now fails the predicate; remaining elements stay queued in order.
  auto v = queue.try_pop_if([](const int&) { return true; });
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 3);
}

TEST(TryMpmcQueue, MultiConsumerExactlyOnce) {
  queues::TryMpmcQueue<std::uint64_t> queue;
  constexpr std::uint32_t kCount = 100000;
  constexpr int kConsumers = 4;
  for (std::uint32_t i = 0; i < kCount; ++i) queue.push(i);

  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> popped{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (popped.load() < kCount) {
        auto v = queue.try_pop();
        if (v) {
          sum.fetch_add(*v);
          popped.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : consumers) thread.join();
  EXPECT_EQ(popped.load(), kCount);
  EXPECT_EQ(sum.load(),
            static_cast<std::uint64_t>(kCount - 1) * kCount / 2);
}

// ---------------- MpmcQueue ----------------

TEST(MpmcQueue, PushPopSingleThread) {
  queues::MpmcQueue<int> queue(8);
  EXPECT_EQ(queue.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(8));  // full
  for (int i = 0; i < 8; ++i) EXPECT_EQ(queue.try_pop().value(), i);
  EXPECT_FALSE(queue.try_pop().has_value());
}

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  queues::MpmcQueue<int> queue(5);
  EXPECT_EQ(queue.capacity(), 8u);
}

struct MpmcParam {
  int producers;
  int consumers;
  std::uint32_t per_producer;
};

class MpmcQueueProperty : public ::testing::TestWithParam<MpmcParam> {};

TEST_P(MpmcQueueProperty, NoLossNoDupUnderThreads) {
  const auto param = GetParam();
  queues::MpmcQueue<std::uint64_t> queue(128);
  const std::uint64_t total =
      static_cast<std::uint64_t>(param.producers) * param.per_producer;

  std::vector<std::thread> threads;
  for (int p = 0; p < param.producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint32_t i = 0; i < param.per_producer; ++i) {
        while (!queue.try_push(encode(static_cast<std::uint32_t>(p), i))) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> checksum{0};
  for (int c = 0; c < param.consumers; ++c) {
    threads.emplace_back([&] {
      while (received.load() < total) {
        auto v = queue.try_pop();
        if (v) {
          checksum.fetch_add(*v + 1);  // +1 so value 0 still counts
          received.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::uint64_t expected = 0;
  for (int p = 0; p < param.producers; ++p) {
    for (std::uint32_t i = 0; i < param.per_producer; ++i) {
      expected += encode(static_cast<std::uint32_t>(p), i) + 1;
    }
  }
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(checksum.load(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpmcQueueProperty,
    ::testing::Values(MpmcParam{1, 1, 30000}, MpmcParam{2, 2, 15000},
                      MpmcParam{4, 2, 8000}, MpmcParam{2, 4, 8000},
                      MpmcParam{4, 4, 5000}));
