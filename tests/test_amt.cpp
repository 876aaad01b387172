// Tests for the AMT runtime: serialization (incl. zero-copy thresholds and
// the transmission chunk), scheduler, futures/continuations/latches, the
// typed action layer over the loopback parcelport, parcel aggregation, the
// connection cache, and the send-immediate path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "amt/aggregator.hpp"
#include "amt/loopback_parcelport.hpp"
#include "amt/runtime.hpp"
#include "amt/serialization.hpp"
#include "amt/wire_header.hpp"
#include "test_util.hpp"

using amt::ConnectionCache;
using amt::Future;
using amt::InMessage;
using amt::InputArchive;
using amt::Latch;
using amt::Locality;
using amt::OutMessage;
using amt::OutputArchive;
using amt::Promise;
using amt::Runtime;
using amt::RuntimeConfig;
using amt::Scheduler;

// ---------------- serialization ----------------

namespace {

InMessage to_inmessage(OutMessage&& out, amt::Rank source = 0) {
  InMessage in;
  in.source = source;
  in.main_chunk = std::move(out.main_chunk);
  for (const auto& chunk : out.zchunks) {
    in.zchunks.emplace_back(chunk.data, chunk.data + chunk.size);
  }
  return in;
}

}  // namespace

TEST(Serialization, ScalarsRoundTrip) {
  OutputArchive out;
  out << 42 << 3.5 << std::uint8_t{7} << std::int64_t{-9};
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  int a = 0;
  double b = 0;
  std::uint8_t c = 0;
  std::int64_t d = 0;
  in >> a >> b >> c >> d;
  EXPECT_EQ(a, 42);
  EXPECT_DOUBLE_EQ(b, 3.5);
  EXPECT_EQ(c, 7);
  EXPECT_EQ(d, -9);
  EXPECT_TRUE(in.exhausted());
}

TEST(Serialization, StringsRoundTrip) {
  OutputArchive out;
  out << std::string("hello") << std::string("") << std::string("worlds");
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::string a, b, c;
  in >> a >> b >> c;
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, "worlds");
}

TEST(Serialization, SmallVectorStaysInline) {
  OutputArchive out(/*zero_copy_threshold=*/64);
  std::vector<std::uint32_t> v(8);
  std::iota(v.begin(), v.end(), 0u);  // 32 bytes < 64
  out << v;
  EXPECT_EQ(out.num_zchunks(), 0u);
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::vector<std::uint32_t> got;
  in >> got;
  EXPECT_EQ(got, v);
}

TEST(Serialization, LargeVectorBecomesZeroCopyChunk) {
  OutputArchive out(/*zero_copy_threshold=*/64);
  std::vector<std::uint32_t> v(100);
  std::iota(v.begin(), v.end(), 5u);  // 400 bytes > 64
  out << v;
  EXPECT_EQ(out.num_zchunks(), 1u);
  const auto msg = to_inmessage(out.finish());
  ASSERT_EQ(msg.zchunks.size(), 1u);
  EXPECT_EQ(msg.zchunks[0].size(), 400u);
  InputArchive in(msg);
  std::vector<std::uint32_t> got;
  in >> got;
  EXPECT_EQ(got, v);
}

TEST(Serialization, ThresholdBoundaryIsExclusive) {
  // Exactly threshold bytes stays inline; threshold+1 goes zero-copy.
  OutputArchive out(/*zero_copy_threshold=*/16);
  std::vector<std::uint8_t> at(16), over(17);
  out << at << over;
  EXPECT_EQ(out.num_zchunks(), 1u);
}

TEST(Serialization, RvalueVectorMovesIntoKeepalive) {
  OutputArchive out(/*zero_copy_threshold=*/8);
  std::vector<double> v(100, 1.5);
  const double* storage = v.data();
  out << std::move(v);
  auto msg = out.finish();
  ASSERT_EQ(msg.zchunks.size(), 1u);
  // Zero-copy: the chunk points at the original storage.
  EXPECT_EQ(static_cast<const void*>(msg.zchunks[0].data),
            static_cast<const void*>(storage));
}

TEST(Serialization, MixedPayloadWithMultipleChunks) {
  OutputArchive out(/*zero_copy_threshold=*/32);
  std::vector<float> big1(64, 2.0f);
  std::vector<float> big2(64, 3.0f);
  std::vector<float> small(2, 4.0f);
  out << 7 << big1 << std::string("mid") << small << big2;
  EXPECT_EQ(out.num_zchunks(), 2u);
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  int x;
  std::vector<float> a, b, c;
  std::string s;
  in >> x >> a >> s >> b >> c;
  EXPECT_EQ(x, 7);
  EXPECT_EQ(a, big1);
  EXPECT_EQ(s, "mid");
  EXPECT_EQ(b, small);
  EXPECT_EQ(c, big2);
}

TEST(Serialization, NestedContainers) {
  OutputArchive out;
  std::vector<std::string> names{"a", "bb", "ccc"};
  std::vector<std::vector<int>> nested{{1, 2}, {}, {3}};
  out << names << nested;
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::vector<std::string> got_names;
  std::vector<std::vector<int>> got_nested;
  in >> got_names >> got_nested;
  EXPECT_EQ(got_names, names);
  EXPECT_EQ(got_nested, nested);
}

TEST(Serialization, TransmissionChunkEncodesSizes) {
  OutputArchive out(/*zero_copy_threshold=*/8);
  out << std::vector<std::uint8_t>(100) << std::vector<std::uint8_t>(200);
  const auto msg = out.finish();
  const auto tchunk = msg.make_tchunk();
  const auto sizes =
      amt::parse_tchunk(tchunk.data(), tchunk.size(), msg.zchunks.size());
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], 100u);
  EXPECT_EQ(sizes[1], 200u);
}

TEST(Serialization, OptionalRoundTrip) {
  OutputArchive out;
  std::optional<std::string> some("abc"), none;
  out << some << none;
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::optional<std::string> a, b("junk");
  in >> a >> b;
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, "abc");
  EXPECT_FALSE(b.has_value());
}

TEST(Serialization, MapsRoundTrip) {
  OutputArchive out;
  std::map<std::string, int> ordered{{"a", 1}, {"b", 2}};
  std::unordered_map<int, std::vector<int>> unordered{{1, {2, 3}}, {4, {}}};
  out << ordered << unordered;
  const auto msg = to_inmessage(out.finish());
  InputArchive in(msg);
  std::map<std::string, int> got_ordered;
  std::unordered_map<int, std::vector<int>> got_unordered;
  in >> got_ordered >> got_unordered;
  EXPECT_EQ(got_ordered, ordered);
  EXPECT_EQ(got_unordered, unordered);
  EXPECT_TRUE(in.exhausted());
}

// A peer's main chunk is untrusted even when its CRC checks out: declared
// counts and zero-copy chunk references must be bounded by what arrived.
TEST(SerializationDeathTest, OverdeclaredVectorCountFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OutputArchive out;
  out << std::vector<int>{1, 2};
  auto msg = to_inmessage(out.finish());
  // Inline layout: u8 marker, u64 count, elements. Claim 64 elements while
  // only two arrived.
  const std::uint64_t count = 64;
  std::memcpy(msg.main_chunk.data() + 1, &count, sizeof(count));
  EXPECT_DEATH(
      {
        InputArchive in(msg);
        std::vector<int> got;
        in >> got;
      },
      "INTEGRITY FAILURE: archive underflow: inline vector declares 64");
}

TEST(SerializationDeathTest, OutOfRangeZchunkIndexFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OutputArchive out(/*zero_copy_threshold=*/8);
  out << std::vector<std::uint8_t>(100, 7);
  auto msg = to_inmessage(out.finish());
  ASSERT_EQ(msg.zchunks.size(), 1u);
  // Zero-copy layout: u8 marker, u64 count, u32 chunk index.
  const std::uint32_t index = 5;
  std::memcpy(msg.main_chunk.data() + 9, &index, sizeof(index));
  EXPECT_DEATH(
      {
        InputArchive in(msg);
        std::vector<std::uint8_t> got;
        in >> got;
      },
      "INTEGRITY FAILURE: archive: zchunk index 5 out of range");
}

// ---------------- scheduler ----------------

TEST(SchedulerTest, ExecutesSpawnedTasks) {
  Scheduler scheduler(2, "t");
  scheduler.start();
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    scheduler.spawn([&] { count.fetch_add(1); });
  }
  ASSERT_TRUE(testutil::spin_until([&] { return count.load() == 100; }));
  scheduler.stop();
}

TEST(SchedulerTest, TasksSpawnTasks) {
  Scheduler scheduler(2, "t");
  scheduler.start();
  std::atomic<int> count{0};
  scheduler.spawn([&] {
    for (int i = 0; i < 50; ++i) {
      scheduler.spawn([&] { count.fetch_add(1); });
    }
  });
  ASSERT_TRUE(testutil::spin_until([&] { return count.load() == 50; }));
  scheduler.stop();
}

TEST(SchedulerTest, BackgroundHookRunsWhenIdle) {
  Scheduler scheduler(1, "t");
  std::atomic<int> background_calls{0};
  scheduler.set_background([&](unsigned) {
    background_calls.fetch_add(1);
    return false;
  });
  scheduler.start();
  ASSERT_TRUE(
      testutil::spin_until([&] { return background_calls.load() > 10; }));
  scheduler.stop();
}

TEST(SchedulerTest, WaitUntilHelpsExecuteTasks) {
  Scheduler scheduler(1, "t");
  scheduler.start();
  std::atomic<bool> flag{false};
  Latch done(1);
  scheduler.spawn([&] {
    // This task waits for a later task: wait_until must run it nested.
    scheduler.spawn([&] { flag.store(true); });
    scheduler.wait_until([&] { return flag.load(); });
    done.count_down();
  });
  done.wait(scheduler);
  EXPECT_TRUE(flag.load());
  scheduler.stop();
}

TEST(SchedulerTest, StealingBalancesAcrossWorkers) {
  Scheduler scheduler(4, "t");
  scheduler.start();
  std::atomic<int> count{0};
  Latch latch(1);
  // One task fans out 200 subtasks from a single worker queue; the others
  // must steal to finish quickly.
  scheduler.spawn([&] {
    for (int i = 0; i < 200; ++i) {
      scheduler.spawn([&] { count.fetch_add(1); });
    }
    latch.count_down();
  });
  latch.wait(scheduler);
  ASSERT_TRUE(testutil::spin_until([&] { return count.load() == 200; }));
  EXPECT_GE(scheduler.tasks_executed(), 201u);
  scheduler.stop();
}

// ---------------- futures ----------------

TEST(FutureTest, SetThenGet) {
  Promise<int> promise;
  auto future = promise.get_future();
  EXPECT_FALSE(future.ready());
  promise.set_value(5);
  EXPECT_TRUE(future.ready());
  EXPECT_EQ(future.get(), 5);
  EXPECT_EQ(future.value(), 5);
}

TEST(FutureTest, VoidFuture) {
  Promise<void> promise;
  auto future = promise.get_future();
  EXPECT_FALSE(future.ready());
  promise.set_value();
  future.get();
  EXPECT_TRUE(future.ready());
}

TEST(FutureTest, ContinuationAfterAndBeforeReady) {
  Promise<int> promise;
  auto future = promise.get_future();
  std::atomic<int> fired{0};
  future.then([&] { fired.fetch_add(1); });
  promise.set_value(1);
  future.then([&] { fired.fetch_add(1); });  // already ready: runs inline
  EXPECT_EQ(fired.load(), 2);
}

TEST(FutureTest, GetBlocksUntilOtherThreadSets) {
  Promise<std::string> promise;
  auto future = promise.get_future();
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    promise.set_value("done");
  });
  EXPECT_EQ(future.get(), "done");
  setter.join();
}

TEST(FutureTest, ContinuationRunsOnScheduler) {
  Scheduler scheduler(1, "t");
  scheduler.start();
  Promise<int> promise(&scheduler);
  auto future = promise.get_future();
  std::atomic<bool> ran_on_worker{false};
  future.then([&] { ran_on_worker.store(scheduler.on_worker()); });
  promise.set_value(3);
  ASSERT_TRUE(testutil::spin_until([&] { return future.ready(); }));
  ASSERT_TRUE(testutil::spin_until([&] { return ran_on_worker.load(); }));
  scheduler.stop();
}

TEST(FutureTest, WhenAllWaitsForEveryInput) {
  std::vector<Promise<int>> promises;
  std::vector<Future<int>> futures;
  for (int i = 0; i < 5; ++i) {
    promises.emplace_back();
    futures.push_back(promises.back().get_future());
  }
  auto all = amt::when_all(futures);
  for (int i = 0; i < 4; ++i) {
    promises[static_cast<size_t>(i)].set_value(i);
    EXPECT_FALSE(all.ready());
  }
  promises[4].set_value(4);
  EXPECT_TRUE(all.ready());
  // Inputs stay readable after when_all fires.
  EXPECT_EQ(futures[2].value(), 2);
}

TEST(FutureTest, WhenAllOfNothingIsReady) {
  std::vector<Future<int>> futures;
  EXPECT_TRUE(amt::when_all(futures).ready());
}

// ---------------- connection cache ----------------

TEST(ConnectionCacheTest, CapsConcurrentConnections) {
  ConnectionCache cache(2);
  EXPECT_TRUE(cache.try_acquire());
  EXPECT_TRUE(cache.try_acquire());
  EXPECT_FALSE(cache.try_acquire());
  EXPECT_EQ(cache.acquire_failures(), 1u);
  cache.release();
  EXPECT_TRUE(cache.try_acquire());
  EXPECT_EQ(cache.in_use(), 2u);
  cache.release();
  cache.release();
  EXPECT_EQ(cache.in_use(), 0u);
}

TEST(ConnectionCacheTest, ContendedAcquireNeverOvershootsOrStarves) {
  // Regression for the optimistic fetch_add reserve: N concurrent losers
  // could push in_use() past the cap transiently, and with a cap of 1 two
  // acquirers could both fail even though a slot was free the whole time.
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 20000;
  ConnectionCache cache(1);
  std::atomic<std::size_t> max_observed{0};
  std::atomic<std::uint64_t> acquired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        if (cache.try_acquire()) {
          const std::size_t seen = cache.in_use();
          std::size_t prev = max_observed.load();
          while (seen > prev && !max_observed.compare_exchange_weak(prev, seen)) {
          }
          acquired.fetch_add(1);
          cache.release();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.in_use(), 0u);
  EXPECT_LE(max_observed.load(), 1u) << "in_use() overshot the cap";
  EXPECT_GT(acquired.load(), 0u);
}

TEST(ConnectionCacheTest, CapOneTwoThreadsOneMustWin) {
  // The sharpest form of the race: with a free slot and exactly two
  // acquirers, at least one must succeed on every round.
  ConnectionCache cache(1);
  for (int round = 0; round < 5000; ++round) {
    std::atomic<int> wins{0};
    std::thread a([&] {
      if (cache.try_acquire()) wins.fetch_add(1);
    });
    std::thread b([&] {
      if (cache.try_acquire()) wins.fetch_add(1);
    });
    a.join();
    b.join();
    ASSERT_GE(wins.load(), 1) << "both acquirers failed with a free slot";
    ASSERT_LE(wins.load(), 1) << "cap of one admitted two connections";
    for (int i = 0; i < wins.load(); ++i) cache.release();
  }
}

// ---------------- actions over the loopback parcelport ----------------

namespace actions {

std::atomic<int> ping_count{0};
std::atomic<std::uint64_t> sum_received{0};

void ping() { ping_count.fetch_add(1); }

// Deliberately slow handler: holds the admission window open long enough
// that an unpaced sender reliably overruns a small bound.
void slow_ping() {
  std::this_thread::sleep_for(std::chrono::microseconds(100));
  ping_count.fetch_add(1);
}

int add(int a, int b) { return a + b; }

double vector_sum(std::vector<double> values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

std::string greet(std::string name, int times) {
  std::string out;
  for (int i = 0; i < times; ++i) out += name;
  return out;
}

void consume_large(std::vector<std::uint64_t> values) {
  std::uint64_t sum = 0;
  for (auto v : values) sum += v;
  sum_received.fetch_add(sum);
}

amt::Rank where_am_i() { return amt::here().rank(); }

}  // namespace actions

namespace {

RuntimeConfig loopback_config(amt::Rank localities = 2,
                              bool send_immediate = false) {
  RuntimeConfig config;
  config.num_localities = localities;
  config.threads_per_locality = 2;
  config.fabric = fabric::Profile::loopback(localities);
  config.parcelport.send_immediate = send_immediate;
  return config;
}

}  // namespace

class RuntimeActions : public ::testing::TestWithParam<bool> {};

TEST_P(RuntimeActions, FireAndForgetAction) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  runtime.locality(0).spawn(
      [&] { amt::here().apply<&actions::ping>(1); });
  ASSERT_TRUE(
      testutil::spin_until([&] { return actions::ping_count.load() == 1; }));
  runtime.stop();
}

TEST_P(RuntimeActions, AsyncActionReturnsValue) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  std::atomic<int> result{0};
  Latch done(1);
  runtime.locality(0).spawn([&] {
    auto future = amt::here().async<&actions::add>(1, 20, 22);
    result.store(future.get());
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(result.load(), 42);
  runtime.stop();
}

TEST_P(RuntimeActions, StringsAndMultipleArgs) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  std::string result;
  Latch done(1);
  runtime.locality(0).spawn([&] {
    result = amt::here().async<&actions::greet>(1, std::string("ab"), 3).get();
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(result, "ababab");
  runtime.stop();
}

TEST_P(RuntimeActions, LargeVectorArgumentGoesZeroCopy) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  std::vector<double> values(4096, 0.5);  // 32 KiB > 8 KiB threshold
  double result = 0;
  Latch done(1);
  runtime.locality(0).spawn([&] {
    result = amt::here().async<&actions::vector_sum>(1, values).get();
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_DOUBLE_EQ(result, 2048.0);
  runtime.stop();
}

TEST_P(RuntimeActions, SelfSendWorks) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  int result = 0;
  Latch done(1);
  runtime.locality(1).spawn([&] {
    result = amt::here().async<&actions::add>(1, 1, 2).get();
    done.count_down();
  });
  done.wait(runtime.locality(1).scheduler());
  EXPECT_EQ(result, 3);
  runtime.stop();
}

TEST_P(RuntimeActions, HereReportsDestination) {
  Runtime runtime(loopback_config(3, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  amt::Rank result = 99;
  Latch done(1);
  runtime.locality(0).spawn([&] {
    result = amt::here().async<&actions::where_am_i>(2).get();
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(result, 2u);
  runtime.stop();
}

TEST_P(RuntimeActions, ManyConcurrentAsyncs) {
  Runtime runtime(loopback_config(2, GetParam()),
                  amt::loopback_parcelport_factory());
  runtime.start();
  constexpr int kCount = 500;
  std::atomic<std::int64_t> total{0};
  Latch done(kCount);
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kCount; ++i) {
      auto future = amt::here().async<&actions::add>(1, i, 1);
      future.then([&, future] {
        total.fetch_add(future.value());
        done.count_down();
      });
    }
  });
  done.wait(runtime.locality(0).scheduler());
  // sum of (i + 1) for i in [0, kCount)
  EXPECT_EQ(total.load(), static_cast<std::int64_t>(kCount) * (kCount + 1) / 2);
  runtime.stop();
}

INSTANTIATE_TEST_SUITE_P(SendModes, RuntimeActions,
                         ::testing::Values(false, true));

namespace {

// Loopback delivery whose send completions wait for the test: every `done`
// is held until release() fires it, so the connection a message took stays
// in use until then — the window in which HPX's parcel queue aggregates.
class HeldDoneParcelport final : public amt::Parcelport {
 public:
  HeldDoneParcelport(Runtime& runtime, const amt::ParcelportContext& context)
      : loopback_(runtime, context) {}

  void send(amt::Rank dst, OutMessage msg,
            common::UniqueFunction<void()> done) override {
    loopback_.send(dst, std::move(msg), [] {});
    std::lock_guard<std::mutex> guard(mutex_);
    held_.push_back(std::move(done));
  }

  bool background_work(unsigned) override { return false; }

  /// Fires every held completion (outside the lock: a completion may flush
  /// queued parcels and so send again); returns how many fired.
  std::size_t release() {
    std::vector<common::UniqueFunction<void()>> ready;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      ready.swap(held_);
    }
    for (auto& done : ready) done();
    return ready.size();
  }

 private:
  amt::LoopbackParcelport loopback_;
  std::mutex mutex_;
  std::vector<common::UniqueFunction<void()>> held_;
};

}  // namespace

TEST(RuntimeAggregation, QueuedParcelsLeaveAsOneMessageWhenTheConnectionFrees) {
  // The paper's aggregation (§3.2.2, no "_i"): with one connection allowed
  // and its send still in flight, every further parcel waits in the parcel
  // queue; the completion that frees the connection flushes them all as one
  // message. So N parcels travel in exactly two messages: 1, then N-1.
  RuntimeConfig config = loopback_config(2, /*send_immediate=*/false);
  config.max_connections = 1;
  Runtime runtime(config, [](Runtime& rt,
                             const amt::ParcelportContext& context) {
    return std::make_unique<HeldDoneParcelport>(rt, context);
  });
  runtime.start();
  auto& port =
      static_cast<HeldDoneParcelport&>(*runtime.locality(0).parcelport());
  actions::ping_count.store(0);
  constexpr int kParcels = 200;
  std::atomic<bool> sender_done{false};
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
    sender_done.store(true);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return sender_done.load() && actions::ping_count.load() == 1; }));
  EXPECT_EQ(runtime.locality(0).stats().messages_sent, 1u);
  EXPECT_EQ(runtime.locality(0).connection_cache().in_use(), 1u);

  EXPECT_EQ(port.release(), 1u);  // frees the connection: the queue flushes
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; }));
  EXPECT_EQ(port.release(), 1u);  // the aggregate's send; nothing is queued

  const auto stats = runtime.locality(0).stats();
  EXPECT_EQ(stats.parcels_sent, static_cast<std::uint64_t>(kParcels));
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(runtime.locality(1).stats().messages_received, 2u);
  EXPECT_EQ(runtime.locality(1).stats().actions_executed,
            static_cast<std::uint64_t>(kParcels));
  EXPECT_EQ(runtime.locality(0).connection_cache().in_use(), 0u);
  EXPECT_EQ(port.release(), 0u);
  runtime.stop();
}

TEST(RuntimeSendImmediate, OneMessagePerParcel) {
  Runtime runtime(loopback_config(2, /*send_immediate=*/true),
                  amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 50;
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; }));
  const auto stats = runtime.locality(0).stats();
  EXPECT_EQ(stats.messages_sent, stats.parcels_sent);
  runtime.stop();
}

TEST(RuntimeLargeArgs, SumArrivesIntact) {
  Runtime runtime(loopback_config(2), amt::loopback_parcelport_factory());
  runtime.start();
  actions::sum_received.store(0);
  std::vector<std::uint64_t> values(10000);
  std::iota(values.begin(), values.end(), 1ull);
  const std::uint64_t expected =
      std::accumulate(values.begin(), values.end(), 0ull);
  runtime.locality(0).spawn(
      [&] { amt::here().apply<&actions::consume_large>(1, values); });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::sum_received.load() == expected; }));
  runtime.stop();
}

// ---------------- parcelport config names (Table 1) ----------------

TEST(ParcelportConfigTest, ParsesPaperNames) {
  using amt::ParcelportConfig;
  const auto baseline = ParcelportConfig::parse("lci_psr_cq_pin_i");
  EXPECT_EQ(baseline.kind, ParcelportConfig::Kind::kLci);
  EXPECT_EQ(baseline.protocol, ParcelportConfig::Protocol::kPutSendRecv);
  EXPECT_EQ(baseline.completion, ParcelportConfig::CompType::kQueue);
  EXPECT_EQ(baseline.progress, ParcelportConfig::ProgressType::kPinned);
  EXPECT_TRUE(baseline.send_immediate);
  EXPECT_EQ(baseline.name(), "lci_psr_cq_pin_i");

  const auto mpi = ParcelportConfig::parse("mpi");
  EXPECT_EQ(mpi.kind, ParcelportConfig::Kind::kMpi);
  EXPECT_FALSE(mpi.send_immediate);
  EXPECT_EQ(mpi.name(), "mpi");

  const auto variant = ParcelportConfig::parse("lci_sr_sy_mt");
  EXPECT_EQ(variant.protocol, ParcelportConfig::Protocol::kSendRecv);
  EXPECT_EQ(variant.completion, ParcelportConfig::CompType::kSync);
  EXPECT_EQ(variant.progress, ParcelportConfig::ProgressType::kWorker);
  EXPECT_EQ(variant.name(), "lci_sr_sy_mt");

  // rp is the paper's alias for the pinned progress thread.
  EXPECT_EQ(ParcelportConfig::parse("lci_psr_cq_rp_i").name(),
            "lci_psr_cq_pin_i");
}

TEST(ParcelportConfigTest, RemovedEngineTokensRejected) {
  // The follow-up pipeline depth (pd), progress tickets (pt) and rendezvous
  // shards (rs) are not configurable: every piece is posted at once, every
  // caller polls the device, and there is one rendezvous table. Admission
  // has one policy (block<N>), so shed<N> and dl<N> name nothing, and
  // aggregation is off unless agg is given, so aggoff names nothing.
  // Each collective has one algorithm, so no coll<ALGO> family exists. The
  // fast path and the aggregator are on/off switches with no byte cap or
  // age, so the old cap and age tokens name nothing either.
  for (const char* token :
       {"pd4", "pdinf", "pt2", "ptinf", "rs1", "shed8", "dl512", "aggoff",
        "collcentral", "colltree", "collrd", "collring", "collauto", "fp",
        "fp512", "agg2048", "aggt100"}) {
    try {
      amt::ParcelportConfig::parse(std::string("lci_psr_cq_pin_") + token);
      ADD_FAILURE() << token << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what())
                    .find("unknown parcelport config token"),
                std::string::npos)
          << token << ": " << error.what();
    }
  }
}

TEST(ParcelportConfigTest, TcpTokenRejected) {
  // There are two parcelports, MPI and LCI; "tcp" names no backend.
  for (const char* suffix : {"", "_i", "_backendshm"}) {
    const std::string name = std::string("tcp") + suffix;
    try {
      amt::ParcelportConfig::parse(name);
      ADD_FAILURE() << name << " was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_STREQ(error.what(), "unknown parcelport config token: tcp")
          << name;
    }
  }
  try {
    amt::ParcelportConfig::parse("psr_cq");
    ADD_FAILURE() << "a name without a backend was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("must name mpi or lci"),
              std::string::npos)
        << error.what();
  }
}

TEST(ParcelportConfigTest, AblationNames) {
  using amt::ParcelportConfig;
  const auto fine = ParcelportConfig::parse("mpi_fine_i");
  EXPECT_FALSE(fine.mpi_coarse_lock);
  EXPECT_TRUE(fine.send_immediate);
  const auto orig = ParcelportConfig::parse("mpi_orig");
  EXPECT_TRUE(orig.mpi_original);
}

TEST(ParcelportConfigTest, RejectsUnknownTokens) {
  EXPECT_THROW(amt::ParcelportConfig::parse("lci_bogus"),
               std::invalid_argument);
  EXPECT_THROW(amt::ParcelportConfig::parse("psr_cq"),
               std::invalid_argument);
}

TEST(ParcelportConfigTest, AdmissionTokens) {
  using amt::ParcelportConfig;
  const auto block = ParcelportConfig::parse("lci_psr_cq_pin_i_block16");
  EXPECT_EQ(block.admission.window, 16u);
  EXPECT_TRUE(block.admission.on());
  EXPECT_EQ(block.name(), "lci_psr_cq_pin_i_block16");

  // The token composes with every parcelport kind, not just lci.
  EXPECT_EQ(ParcelportConfig::parse("mpi_i_block8").admission.window, 8u);
  EXPECT_EQ(ParcelportConfig::parse("mpi_i_block8").name(), "mpi_i_block8");

  // Admission off is the default and stays out of the canonical name.
  EXPECT_FALSE(ParcelportConfig::parse("lci_psr_cq_pin_i").admission.on());

  // A zero window would admit nothing and wedge forever: reject it loudly.
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_i_block0"),
               std::invalid_argument);
  EXPECT_THROW(ParcelportConfig::parse("lci_psr_cq_pin_i_blockx"),
               std::invalid_argument);
}

TEST(ParcelportConfigTest, FastPathAndAggregationSwitches) {
  using amt::ParcelportConfig;
  // The fast path is on and aggregation off unless the name says
  // otherwise; neither default shows in the canonical name.
  const auto plain = ParcelportConfig::parse("lci_psr_cq_pin_i");
  EXPECT_TRUE(plain.lci_fastpath);
  EXPECT_FALSE(plain.lci_agg);
  EXPECT_EQ(plain.name(), "lci_psr_cq_pin_i");

  const auto agg = ParcelportConfig::parse("lci_psr_cq_mt_agg_i_block8");
  EXPECT_TRUE(agg.lci_fastpath);
  EXPECT_TRUE(agg.lci_agg);
  EXPECT_EQ(agg.name(), "lci_psr_cq_mt_agg_i_block8");

  const auto off = ParcelportConfig::parse("lci_sr_sy_mt_fpoff_i");
  EXPECT_FALSE(off.lci_fastpath);
  EXPECT_FALSE(off.lci_agg);
  EXPECT_EQ(off.name(), "lci_sr_sy_mt_fpoff_i");
}

// ---------------- admission control over the loopback parcelport ----------

namespace {

RuntimeConfig admission_config(std::uint32_t window,
                               amt::Rank localities = 2) {
  RuntimeConfig config = loopback_config(localities);
  config.parcelport.admission.window = window;
  return config;
}

}  // namespace

TEST(AdmissionTest, BlockPolicyDelaysButDeliversEverything) {
  Runtime runtime(admission_config(2), amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 100;
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; }));
  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kParcels));
  EXPECT_LE(stats.peak_queue_depth, 2);
  runtime.stop();
}

TEST(AdmissionTest, ResponseTrafficIsExemptFromTheWindow) {
  // async actions carry a promise: they are request/response pairs the
  // caller is already throttling, so the admission window counts them but
  // never makes them wait — under a one-slot window, a waiting request
  // would hold up the very responses that free slots.
  Runtime runtime(admission_config(1), amt::loopback_parcelport_factory());
  runtime.start();
  std::atomic<std::int64_t> total{0};
  constexpr int kCount = 50;
  Latch done(kCount);
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kCount; ++i) {
      auto future = amt::here().async<&actions::add>(1, i, 1);
      future.then([&, future] {
        total.fetch_add(future.value());
        done.count_down();
      });
    }
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_EQ(total.load(),
            static_cast<std::int64_t>(kCount) * (kCount + 1) / 2);
  for (amt::Rank loc = 0; loc < 2; ++loc) {
    const auto stats = runtime.locality(loc).admission_stats();
    EXPECT_EQ(stats.accepted, 0u) << "loc" << loc;  // nothing admissible
    EXPECT_EQ(stats.block_waits, 0u) << "loc" << loc;
  }
  runtime.stop();
}

TEST(AdmissionTest, MultiThreadedBoundedQueueStress) {
  // TSan target: concurrent senders on every locality hammer overlapping
  // destinations through tight block windows. The per-destination window
  // bookkeeping (outstanding counters, peak CAS, credit release from the
  // destination's handler task) must stay exact under contention: every
  // parcel is accepted, accepted == executed at quiescence, and no window
  // ever holds more than its bound.
  constexpr amt::Rank kLocalities = 3;
  constexpr int kSenders = 4;     // spawned tasks per locality
  constexpr int kPerSender = 150;
  constexpr int kTotal = kLocalities * kSenders * kPerSender;
  Runtime runtime(admission_config(8, kLocalities),
                  amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  std::atomic<int> senders_done{0};
  for (amt::Rank loc = 0; loc < kLocalities; ++loc) {
    for (int s = 0; s < kSenders; ++s) {
      runtime.locality(loc).spawn([&, loc, s] {
        for (int i = 0; i < kPerSender; ++i) {
          const amt::Rank dst =
              (loc + 1 + static_cast<amt::Rank>((s + i) % (kLocalities - 1))) %
              kLocalities;
          amt::here().apply<&actions::ping>(dst);
        }
        senders_done.fetch_add(1);
      });
    }
  }
  ASSERT_TRUE(testutil::spin_until([&] {
    return senders_done.load() == kLocalities * kSenders &&
           actions::ping_count.load() == kTotal;
  }));
  std::uint64_t total_accepted = 0;
  for (amt::Rank loc = 0; loc < kLocalities; ++loc) {
    const auto stats = runtime.locality(loc).admission_stats();
    total_accepted += stats.accepted;
    EXPECT_LE(stats.peak_queue_depth, 8);
  }
  EXPECT_EQ(total_accepted, static_cast<std::uint64_t>(kTotal));
  runtime.stop();
}

TEST(AdmissionTest, ConcurrentSendersNeverOvershootTheWindow) {
  // Many sender tasks push their quota at one destination through a
  // two-credit block window. Every credit that returns is raced for by all
  // waiting senders at once; the slot must go to exactly one. A
  // check-then-increment reservation lets two racers both see "one slot
  // free" and both take it, which shows as a peak depth above the bound.
  constexpr int kSenders = 8;
  constexpr int kPerSender = 200;
  constexpr std::uint32_t kBound = 2;
  RuntimeConfig config = admission_config(kBound);
  config.threads_per_locality = 4;
  config.parcelport.send_immediate = true;
  Runtime runtime(config, amt::loopback_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  std::atomic<int> senders_done{0};
  for (int s = 0; s < kSenders; ++s) {
    runtime.locality(0).spawn([&] {
      for (int i = 0; i < kPerSender; ++i) {
        amt::here().apply<&actions::ping>(1);
      }
      senders_done.fetch_add(1);
    });
  }
  ASSERT_TRUE(testutil::spin_until(
      [&] {
        return senders_done.load() == kSenders &&
               actions::ping_count.load() == kSenders * kPerSender;
      },
      std::chrono::milliseconds(60000)));
  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kSenders * kPerSender));
  EXPECT_GT(stats.block_waits, 0u);
  EXPECT_LE(stats.peak_queue_depth, static_cast<std::int64_t>(kBound));
  runtime.stop();
}

// -------- LCI small-parcel fast path: credit return + TSan flood ----------
//
// These run over the REAL network stack (fabric -> minilci -> LCI
// parcelport), not the loopback: the fast path delivers parcels from a
// handler completion fired in progress context, and both the admission
// window bookkeeping and the handler delivery itself must stay exact under
// concurrency (the LciFastpath* filter is part of the CI tsan job).

#include "parcelport_lci/parcelport_lci.hpp"
#include "stack/stack.hpp"

namespace {

amt::RuntimeConfig lci_fastpath_config(const char* parcelport,
                                       amt::Rank localities,
                                       unsigned workers) {
  amtnet::StackOptions options;
  options.parcelport = parcelport;
  options.num_localities = localities;
  options.threads_per_locality = workers;
  options.platform = "loopback";
  return amtnet::make_runtime_config(options);
}

std::uint64_t fastpath_hits(amt::Runtime& runtime, amt::Rank localities) {
  std::uint64_t hits = 0;
  const auto snap = runtime.telemetry().snapshot();
  for (amt::Rank r = 0; r < localities; ++r) {
    hits += snap.counter("pplci/loc" + std::to_string(r) + "/fastpath_hits");
  }
  return hits;
}

}  // namespace

TEST(AdmissionTest, FastpathParcelsReturnCreditsAndConserve) {
  // Fast-path parcels never touch a ReceiverConnection, so the admission
  // credit must come back from the destination's handler task — the same
  // on_message -> admission_release path as every other parcel. A tight
  // block window with a slow handler: if fast-path delivery leaked credits
  // the window would wedge and the sender could never finish; conservation
  // must hold exactly at quiescence.
  amt::RuntimeConfig config = lci_fastpath_config("lci_psr_cq_mt_i", 2, 2);
  config.parcelport.admission.window = 4;
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  constexpr int kParcels = 300;
  std::atomic<bool> sender_done{false};
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) {
      amt::here().apply<&actions::slow_ping>(1);
    }
    sender_done.store(true);
  });
  ASSERT_TRUE(testutil::spin_until([&] {
    return sender_done.load() && actions::ping_count.load() == kParcels;
  }));

  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kParcels));
  EXPECT_LE(stats.peak_queue_depth, 4);
#ifndef AMTNET_TELEMETRY_DISABLED
  // Every ping is tiny and must have travelled the fast path.
  EXPECT_GE(fastpath_hits(runtime, 2), static_cast<std::uint64_t>(kParcels));
#endif
  runtime.stop();
}

TEST(LciFastpathFlood, MultiThreadedSendersTsanClean) {
  // TSan target: concurrent sender tasks on both localities flood small
  // parcels through the fast path while mt-mode workers race over the
  // progress engine — the handler completion (and the per-source seq
  // tracker behind it) fires from whichever thread holds the NIC. Every
  // parcel must be dispatched exactly once.
  constexpr int kSenders = 3;
  constexpr int kPerSender = 120;
  amt::RuntimeConfig config = lci_fastpath_config("lci_psr_cq_mt_i", 2, 4);
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  for (amt::Rank loc = 0; loc < 2; ++loc) {
    for (int s = 0; s < kSenders; ++s) {
      runtime.locality(loc).spawn([&, loc] {
        for (int i = 0; i < kPerSender; ++i) {
          amt::here().apply<&actions::ping>(1 - loc);
        }
      });
    }
  }
  constexpr int kTotal = 2 * kSenders * kPerSender;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kTotal; },
      std::chrono::milliseconds(20000)));
#ifndef AMTNET_TELEMETRY_DISABLED
  EXPECT_EQ(fastpath_hits(runtime, 2), static_cast<std::uint64_t>(kTotal));
#endif
  runtime.stop();
}

TEST(AdmissionTest, PoolExhaustedFastpathFallsBackAndConserves) {
  // Pool exhaustion (a one-packet pool) under a concurrent small-parcel
  // flood: fast-path sends whose bounded alloc loop comes up empty must fall
  // back to the connection path with exactly one fallback count and NO
  // credit skew — pre-fix, the exhausted branch could double-count the
  // parcel against the admission window, so `accepted == executed` never
  // converged. The test holds the pool's only packet itself until the first
  // fallback is counted, so the senders find the pool empty in every run
  // instead of only when they happen to overlap.
  setenv("AMTNET_LCI_PACKET_POOL", "1", 1);
  amt::RuntimeConfig config = lci_fastpath_config("lci_psr_cq_mt_i", 2, 4);
  config.parcelport.admission.window = 64;
  // A tiny TX window under a 64-deep flood: once the packet is back, posts
  // that find the NIC full park in the destination's backlog holding it,
  // so later senders keep meeting an empty pool too.
  config.fabric.tx_window = 8;
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  unsetenv("AMTNET_LCI_PACKET_POOL");
  auto* port =
      dynamic_cast<pplci::LciParcelport*>(runtime.locality(0).parcelport());
  ASSERT_NE(port, nullptr);
  std::optional<minilci::PacketBuffer> held;
  ASSERT_TRUE(testutil::spin_until([&] {
    held = port->take_pool_packet();
    return held.has_value();
  })) << "the one-packet pool's packet never came free";
  actions::ping_count.store(0);
  constexpr int kSenders = 4;
  constexpr int kPerSender = 200;
  std::atomic<int> senders_done{0};
  for (int s = 0; s < kSenders; ++s) {
    runtime.locality(0).spawn([&] {
      for (int i = 0; i < kPerSender; ++i) {
        amt::here().apply<&actions::ping>(1);
      }
      senders_done.fetch_add(1);
    });
  }
#ifndef AMTNET_TELEMETRY_DISABLED
  // Hand the packet back once a sender has fallen back: the connection
  // path's header message needs a packet to make progress.
  ASSERT_TRUE(testutil::spin_until(
      [&] {
        return runtime.telemetry().snapshot().counter(
                   "pplci/loc0/fastpath_fallbacks") > 0;
      },
      std::chrono::milliseconds(20000)));
#endif
  held.reset();
  constexpr int kTotal = kSenders * kPerSender;
  ASSERT_TRUE(testutil::spin_until(
      [&] {
        return senders_done.load() == kSenders &&
               actions::ping_count.load() == kTotal;
      },
      std::chrono::milliseconds(20000)))
      << "senders_done=" << senders_done.load()
      << " ping_count=" << actions::ping_count.load() << " accepted="
      << runtime.locality(0).admission_stats().accepted;
  const auto stats = runtime.locality(0).admission_stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kTotal));
#ifndef AMTNET_TELEMETRY_DISABLED
  const auto snap = runtime.telemetry().snapshot();
  const std::uint64_t hits = snap.counter("pplci/loc0/fastpath_hits");
  const std::uint64_t fallbacks =
      snap.counter("pplci/loc0/fastpath_fallbacks");
  EXPECT_GT(fallbacks, 0u)
      << "a one-packet pool never exhausted under a 4-thread flood";
  // Single-count: every small parcel left the send path exactly once,
  // either as a fast-path frame or as one counted fallback.
  EXPECT_EQ(hits + fallbacks, static_cast<std::uint64_t>(kTotal));
#endif
  runtime.stop();
}

TEST(LciFastpathFlood, SendRecvVariantDeliversThroughHandler) {
  // Same flood over the sr protocol (fast-path frames ride tag-reserved
  // medium sends instead of dynamic puts) with the sy completion flavour.
  constexpr int kParcels = 200;
  amt::RuntimeConfig config = lci_fastpath_config("lci_sr_sy_mt_i", 2, 2);
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  runtime.locality(0).spawn([&] {
    for (int i = 0; i < kParcels; ++i) amt::here().apply<&actions::ping>(1);
  });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kParcels; },
      std::chrono::milliseconds(20000)));
#ifndef AMTNET_TELEMETRY_DISABLED
  EXPECT_GE(fastpath_hits(runtime, 2), static_cast<std::uint64_t>(kParcels));
#endif
  runtime.stop();
}

// -------- LCI adaptive aggregation: flush-race TSan stress ----------------
//
// The aggregator's lifecycle has three racing flush triggers: a sender whose
// enqueue tips the buffer over the size cap, idle workers running
// background_work (age poll + idle drain), and stop()'s final flush_all.
// This flood makes all three fire concurrently from different threads (the
// CI tsan job runs it); the exact dispatch count catches any lost,
// duplicated, or double-flushed sub-parcel.

TEST(LciAggregationFlood, MultiThreadedSendersTsanClean) {
  constexpr int kSenders = 3;
  constexpr int kPerSender = 150;
  amt::RuntimeConfig config =
      lci_fastpath_config("lci_psr_cq_mt_agg_i_block8", 2, 4);
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  actions::ping_count.store(0);
  for (amt::Rank loc = 0; loc < 2; ++loc) {
    for (int s = 0; s < kSenders; ++s) {
      runtime.locality(loc).spawn([&, loc] {
        for (int i = 0; i < kPerSender; ++i) {
          amt::here().apply<&actions::ping>(1 - loc);
        }
      });
    }
  }
  constexpr int kTotal = 2 * kSenders * kPerSender;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return actions::ping_count.load() == kTotal; },
      std::chrono::milliseconds(20000)));
  runtime.stop();
}

// -------- amt::Aggregator, driven directly --------------------------------
//
// Small caps and ages make each flush trigger fire deterministically, with
// no runtime, fabric or wall-clock wait in the loop. A parcel of n main
// bytes costs an 8 + n byte entry record in a frame with a 16 B header.

namespace {

using amt::Aggregator;
using Reason = Aggregator::FlushReason;

OutMessage agg_parcel(std::size_t bytes, std::uint32_t id = 0) {
  OutMessage msg;
  msg.main_chunk.resize(bytes);
  std::memcpy(msg.main_chunk.data(), &id, std::min(bytes, sizeof(id)));
  return msg;
}

/// An aggregator for 2 ranks whose flushes are logged as (entries, reason).
struct LoggedAggregator {
  std::vector<std::pair<std::size_t, Reason>> flushes;
  Aggregator agg;

  LoggedAggregator(std::size_t max_bytes, common::Nanos age_ns)
      : agg(2, max_bytes, age_ns,
            [this](amt::Rank, std::vector<Aggregator::Entry>&& batch,
                   Reason reason) {
              for (auto& entry : batch) entry.done();
              flushes.emplace_back(batch.size(), reason);
            }) {}

  /// Offers one parcel to rank 1 under `depth` outstanding credits.
  bool offer(std::size_t bytes, std::int64_t depth = 100) {
    OutMessage msg = agg_parcel(bytes);
    common::UniqueFunction<void()> done = [] {};
    return agg.enqueue(1, depth, msg, done);
  }
};

using FlushLog = std::vector<std::pair<std::size_t, Reason>>;

}  // namespace

TEST(AggregatorTest, IdleDestinationBypassesTheBuffer) {
  LoggedAggregator logged(48, 1000);
  OutMessage msg = agg_parcel(8);
  common::UniqueFunction<void()> done = [] {};
  // Only this parcel outstanding and nothing buffered: send it directly.
  EXPECT_FALSE(logged.agg.enqueue(1, /*queue_depth=*/1, msg, done));
  EXPECT_EQ(msg.main_chunk.size(), 8u);  // left to the caller
  EXPECT_TRUE(static_cast<bool>(done));
  EXPECT_TRUE(logged.agg.empty());
  EXPECT_TRUE(logged.flushes.empty());
}

TEST(AggregatorTest, SizeCapFlushesFullAndEvictedBatches) {
  LoggedAggregator logged(/*max_bytes=*/48, /*age_ns=*/1'000'000'000);
  // Two 8 B parcels fill the 48 B frame exactly: one size flush of two.
  EXPECT_TRUE(logged.offer(8));
  EXPECT_TRUE(logged.offer(8));
  EXPECT_EQ(logged.flushes, (FlushLog{{2, Reason::kSize}}));
  // A 16 B parcel does not fit beside an 8 B one (16 + 16 + 24 > 48): the
  // buffered parcel leaves alone and the new one starts the next batch.
  EXPECT_TRUE(logged.offer(8));
  EXPECT_TRUE(logged.offer(16));
  EXPECT_FALSE(logged.agg.empty());
  logged.agg.flush_all();
  EXPECT_EQ(logged.flushes, (FlushLog{{2, Reason::kSize},
                                      {1, Reason::kSize},
                                      {1, Reason::kFinal}}));
  EXPECT_TRUE(logged.agg.empty());
}

TEST(AggregatorTest, WindowStallFlushesEveryOutstandingParcel) {
  LoggedAggregator logged(8192, 1'000'000'000);
  // Three credits outstanding: the third buffered parcel holds all of them.
  EXPECT_TRUE(logged.offer(8, 3));
  EXPECT_TRUE(logged.offer(8, 3));
  EXPECT_TRUE(logged.flushes.empty());
  EXPECT_TRUE(logged.offer(8, 3));
  EXPECT_EQ(logged.flushes, (FlushLog{{3, Reason::kStall}}));
}

TEST(AggregatorTest, AgeFlushFiresAtTheDeadlineAndNotBefore) {
  constexpr common::Nanos kAge = 50'000;
  LoggedAggregator logged(8192, kAge);
  const common::Nanos before = common::now_ns();
  EXPECT_TRUE(logged.offer(8));
  EXPECT_TRUE(logged.offer(8));
  const common::Nanos after = common::now_ns();
  // The oldest entry was stamped in [before, after].
  EXPECT_FALSE(logged.agg.poll(before + kAge - 1));
  EXPECT_TRUE(logged.flushes.empty());
  EXPECT_TRUE(logged.agg.poll(after + kAge));
  EXPECT_EQ(logged.flushes, (FlushLog{{2, Reason::kAge}}));
  EXPECT_FALSE(logged.agg.poll(after + 2 * kAge));  // nothing left
}

TEST(AggregatorTest, EvictionChurnFromThreeThreadsDeliversEachParcelOnce) {
  // TSan target. A 40 B cap holds one 8 B parcel (32 B frame), so every
  // enqueue onto a non-empty buffer evicts its occupant, and the flushes
  // run outside the lock on whichever thread tipped the buffer, racing
  // idle flushes from the other senders.
  constexpr std::uint32_t kThreads = 3;
  constexpr std::uint32_t kPerThread = 2000;
  std::vector<std::atomic<int>> seen(kThreads * kPerThread);
  std::atomic<std::uint32_t> done_calls{0};
  Aggregator agg(2, /*max_bytes=*/40, /*age_ns=*/1'000'000'000,
                 [&](amt::Rank, std::vector<Aggregator::Entry>&& batch,
                     Reason) {
                   for (auto& entry : batch) {
                     std::uint32_t id = 0;
                     std::memcpy(&id, entry.msg.main_chunk.data(), sizeof(id));
                     seen[id].fetch_add(1, std::memory_order_relaxed);
                     entry.done();
                   }
                 });
  std::vector<std::thread> senders;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    senders.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        OutMessage msg = agg_parcel(8, t * kPerThread + i);
        common::UniqueFunction<void()> done = [&done_calls] {
          done_calls.fetch_add(1, std::memory_order_relaxed);
        };
        EXPECT_TRUE(agg.enqueue(1, /*queue_depth=*/100, msg, done));
        if (i % 16 == 0) agg.flush_idle();
      }
    });
  }
  for (auto& sender : senders) sender.join();
  agg.flush_all();
  EXPECT_TRUE(agg.empty());
  EXPECT_EQ(done_calls.load(), kThreads * kPerThread);
  for (std::size_t id = 0; id < seen.size(); ++id) {
    ASSERT_EQ(seen[id].load(), 1) << "parcel " << id;
  }
}
