// Unit tests for src/common: config parsing, RNG determinism, spin locks,
// clock, cache-padding invariants, the inline-storage callable and the
// recycled wire-buffer cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "common/affinity.hpp"
#include "common/buffer_cache.hpp"
#include "common/cache.hpp"
#include "common/clock.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/spinlock.hpp"
#include "common/status.hpp"

TEST(KvConfig, ParsesKeyValuePairs) {
  const auto config = common::KvConfig::parse("a=1, b = two ,c=3.5");
  EXPECT_EQ(config.get_int_or("a", -1), 1);
  EXPECT_EQ(config.get_or("b", ""), "two");
  EXPECT_DOUBLE_EQ(config.get_double_or("c", 0.0), 3.5);
}

TEST(KvConfig, MissingKeysFallBack) {
  const auto config = common::KvConfig::parse("x=1");
  EXPECT_EQ(config.get_int_or("y", 42), 42);
  EXPECT_EQ(config.get_or("z", "dflt"), "dflt");
  EXPECT_FALSE(config.get("y").has_value());
}

TEST(KvConfig, BareKeyIsBooleanFlag) {
  const auto config = common::KvConfig::parse("verbose,count=2");
  EXPECT_TRUE(config.get_bool_or("verbose", false));
  EXPECT_FALSE(config.get_bool_or("quiet", false));
  EXPECT_EQ(config.get_int_or("count", 0), 2);
}

TEST(KvConfig, BoolSpellings) {
  const auto config =
      common::KvConfig::parse("a=true,b=yes,c=on,d=1,e=0,f=false");
  EXPECT_TRUE(config.get_bool_or("a", false));
  EXPECT_TRUE(config.get_bool_or("b", false));
  EXPECT_TRUE(config.get_bool_or("c", false));
  EXPECT_TRUE(config.get_bool_or("d", false));
  EXPECT_FALSE(config.get_bool_or("e", true));
  EXPECT_FALSE(config.get_bool_or("f", true));
}

TEST(KvConfig, EmptyString) {
  const auto config = common::KvConfig::parse("");
  EXPECT_TRUE(config.entries().empty());
}

TEST(KvConfig, SetOverridesParsed) {
  auto config = common::KvConfig::parse("a=1");
  config.set("a", "2");
  EXPECT_EQ(config.get_int_or("a", 0), 2);
}

TEST(SplitTrim, SplitsAndTrims) {
  const auto parts = common::split_trim(" a , b,c ", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Rng, DeterministicFromSeed) {
  common::Xoshiro256 a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowRespectsBound) {
  common::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  common::Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ExponentialDeterministicFromSeed) {
  common::Xoshiro256 a(2026), b(2026);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.next_exponential(50.0), b.next_exponential(50.0));
  }
}

TEST(Rng, ExponentialFromBitsIsPure) {
  // The free function carries no state: same bits + same mean -> same value,
  // which is what lets counter-indexed fault streams replay from a seed.
  std::uint64_t s1 = 7, s2 = 7;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t bits1 = common::splitmix64(s1);
    const std::uint64_t bits2 = common::splitmix64(s2);
    EXPECT_EQ(bits1, bits2);
    EXPECT_EQ(common::exponential_from_bits(bits1, 123.0),
              common::exponential_from_bits(bits2, 123.0));
  }
}

TEST(Rng, ExponentialMomentsMatchMean) {
  common::Xoshiro256 rng(11);
  const double mean = 250.0;
  double sum = 0.0;
  double min = 1e300, max = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.next_exponential(mean);
    ASSERT_GE(x, 0.0);
    sum += x;
    min = std::min(min, x);
    max = std::max(max, x);
  }
  // Sample mean of 200k exponentials: stderr = mean/sqrt(n) ~ 0.56; 5 sigma.
  EXPECT_NEAR(sum / kSamples, mean, 5.0 * mean / std::sqrt(double(kSamples)));
  EXPECT_LT(min, mean * 0.01);  // the distribution reaches near zero
  EXPECT_GT(max, mean * 5.0);   // ... and has a heavy tail
  EXPECT_EQ(rng.next_exponential(0.0), 0.0);
  EXPECT_EQ(common::exponential_from_bits(42, -1.0), 0.0);
}

TEST(Rng, PoissonDeterministicAndMatchesMoments) {
  common::Xoshiro256 a(77), b(77);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(a.next_poisson(3.5), b.next_poisson(3.5));
  }
  common::Xoshiro256 rng(78);
  const double mean = 4.0;
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = static_cast<double>(rng.next_poisson(mean));
    sum += x;
    sum_sq += x * x;
  }
  const double sample_mean = sum / kSamples;
  const double sample_var = sum_sq / kSamples - sample_mean * sample_mean;
  // Poisson: mean == variance == lambda. stderr(mean) = sqrt(l/n) ~ 0.0063.
  EXPECT_NEAR(sample_mean, mean, 0.05);
  EXPECT_NEAR(sample_var, mean, 0.15);
  EXPECT_EQ(rng.next_poisson(0.0), 0u);
}

TEST(SpinMutex, MutualExclusionUnderContention) {
  common::SpinMutex mutex;
  int counter = 0;  // intentionally non-atomic: the lock must protect it
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::lock_guard<common::SpinMutex> guard(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(SpinMutex, TryLockFailsWhenHeld) {
  common::SpinMutex mutex;
  mutex.lock();
  EXPECT_FALSE(mutex.try_lock());
  mutex.unlock();
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(Clock, MonotonicAndTimerSane) {
  const auto t0 = common::now_ns();
  const auto t1 = common::now_ns();
  EXPECT_GE(t1, t0);
  common::Timer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(timer.elapsed_ns(), 1'000'000);
  EXPECT_DOUBLE_EQ(common::ns_to_us(2000), 2.0);
  EXPECT_DOUBLE_EQ(common::ns_to_s(2'000'000'000), 2.0);
}

TEST(CachePadded, OccupiesFullLines) {
  static_assert(sizeof(common::CachePadded<int>) >= common::kCacheLineSize);
  static_assert(alignof(common::CachePadded<int>) == common::kCacheLineSize);
  common::CachePadded<int> x(7);
  EXPECT_EQ(*x, 7);
}

TEST(Status, ToStringCoversAll) {
  EXPECT_STREQ(common::to_string(common::Status::kOk), "ok");
  EXPECT_STREQ(common::to_string(common::Status::kRetry), "retry");
  EXPECT_STREQ(common::to_string(common::Status::kError), "error");
}

// ---------------- UniqueFunction ----------------

#include "common/unique_function.hpp"

TEST(UniqueFunction, HoldsMoveOnlyCaptures) {
  auto data = std::make_unique<int>(41);
  common::UniqueFunction<int()> fn =
      [data = std::move(data)] { return *data + 1; };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(), 42);
}

TEST(UniqueFunction, MoveTransfersOwnership) {
  int calls = 0;
  common::UniqueFunction<void()> a = [&calls] { ++calls; };
  common::UniqueFunction<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
}

TEST(UniqueFunction, ForwardsArgumentsAndReturns) {
  common::UniqueFunction<std::string(std::string, int)> fn =
      [](std::string s, int n) {
        std::string out;
        for (int i = 0; i < n; ++i) out += s;
        return out;
      };
  EXPECT_EQ(fn("ab", 2), "abab");
}

TEST(UniqueFunction, DefaultIsEmpty) {
  common::UniqueFunction<void()> fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

namespace {

using Fn = common::UniqueFunction<int()>;

/// A callable of exactly `Bytes` bytes that counts how often an owning
/// instance (one not moved from) is destroyed.
template <std::size_t Bytes, bool kNothrowMove = true>
struct Tracked {
  static_assert(Bytes >= 2 * sizeof(int*));
  int* released;
  int* live;
  unsigned char pad[Bytes - 2 * sizeof(int*)] = {};

  Tracked(int* released_count, int* live_count)
      : released(released_count), live(live_count) {
    ++*live;
  }
  Tracked(Tracked&& other) noexcept(kNothrowMove)
      : released(std::exchange(other.released, nullptr)), live(other.live) {
    ++*live;
  }
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    --*live;
    if (released != nullptr) ++*released;
  }
  int operator()() const { return static_cast<int>(sizeof(Tracked)); }
};

using InlineMax = Tracked<Fn::kInlineBytes>;
using OverInline = Tracked<Fn::kInlineBytes + 8>;
using ThrowingMove = Tracked<32, false>;

static_assert(sizeof(InlineMax) == Fn::kInlineBytes);
static_assert(Fn::stores_inline<InlineMax>);
static_assert(!Fn::stores_inline<OverInline>);
static_assert(!Fn::stores_inline<ThrowingMove>);

/// Allocations made by `body`, on any thread.
template <typename Body>
std::uint64_t allocations_in(Body&& body) {
  const std::uint64_t before = testutil::heap_allocations();
  body();
  return testutil::heap_allocations() - before;
}

}  // namespace

TEST(UniqueFunction, CallableUpToInlineBytesNeverAllocates) {
  int released = 0;
  int live = 0;
  int result = 0;
  const std::uint64_t allocs = allocations_in([&] {
    Fn a = InlineMax(&released, &live);
    Fn b = std::move(a);
    Fn c = [] { return 1; };
    c = std::move(b);
    result = c();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(result, static_cast<int>(Fn::kInlineBytes));
  EXPECT_EQ(released, 1);
  EXPECT_EQ(live, 0);
}

TEST(UniqueFunction, OversizedOrThrowingMoveCallableGoesToTheHeap) {
  int released = 0;
  int live = 0;
  std::uint64_t moves = 0;
  int big_result = 0;
  int throwing_result = 0;
  const std::uint64_t allocs = allocations_in([&] {
    Fn big = OverInline(&released, &live);
    Fn throwing = ThrowingMove(&released, &live);
    moves = allocations_in([&] {
      Fn moved_big = std::move(big);
      Fn moved_throwing = std::move(throwing);
      big_result = moved_big();
      throwing_result = moved_throwing();
    });
  });
  EXPECT_EQ(allocs, 2u) << "one heap block per out-of-line callable";
  EXPECT_EQ(moves, 0u) << "moving an out-of-line callable moves the pointer";
  EXPECT_EQ(big_result, static_cast<int>(sizeof(OverInline)));
  EXPECT_EQ(throwing_result, static_cast<int>(sizeof(ThrowingMove)));
  EXPECT_EQ(released, 2);
  EXPECT_EQ(live, 0);
}

template <typename T>
class UniqueFunctionLifetime : public ::testing::Test {};
using StorageModes = ::testing::Types<InlineMax, OverInline, ThrowingMove>;
TYPED_TEST_SUITE(UniqueFunctionLifetime, StorageModes);

TYPED_TEST(UniqueFunctionLifetime, EachCallableIsDestroyedExactlyOnce) {
  int released = 0;
  int live = 0;
  {
    Fn a = TypeParam(&released, &live);
    Fn b = std::move(a);  // move construction
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(released, 0);

    Fn c = TypeParam(&released, &live);
    c = std::move(b);  // move-assign over a non-empty function
    EXPECT_EQ(released, 1) << "the overwritten callable is destroyed once";
    EXPECT_EQ(c(), static_cast<int>(sizeof(TypeParam)));
  }
  EXPECT_EQ(released, 2) << "destruction releases the survivor once";
  EXPECT_EQ(live, 0) << "a moved-from callable leaked or was destroyed twice";
}

// ---------------- BufferCache ----------------
//
// The cache is process-wide, so each case starts by draining the shared
// stack and does its gives and takes on threads of its own: a fresh thread
// starts with an empty local stack, and its spares reach the shared stack
// when it exits.

namespace {

using common::BufferCache;

template <typename Body>
void on_fresh_thread(Body&& body) {
  std::thread thread(std::forward<Body>(body));
  thread.join();
}

BufferCache::Buffer with_capacity(std::size_t capacity) {
  BufferCache::Buffer buffer;
  buffer.reserve(capacity);
  return buffer;
}

/// Takes every spare the shared stack holds; returns their capacities.
std::vector<std::size_t> drain_shared() {
  std::vector<std::size_t> capacities;
  on_fresh_thread([&] {
    for (;;) {
      const BufferCache::Buffer buffer = BufferCache::take();
      if (buffer.capacity() == 0) break;
      capacities.push_back(buffer.capacity());
    }
  });
  return capacities;
}

}  // namespace

TEST(BufferCache, GivenOnOneThreadTakenOnAnotherWithoutAllocating) {
  drain_shared();
  constexpr std::size_t kCapacity = 200;
  on_fresh_thread([] {
    BufferCache::Buffer buffer = with_capacity(kCapacity);
    buffer.assign(kCapacity, std::byte{1});
    BufferCache::give(std::move(buffer));
  });
  std::size_t capacity = 0;
  bool came_back_empty = false;
  std::uint64_t allocs = ~0ull;
  on_fresh_thread([&] {
    allocs = allocations_in([&] {
      BufferCache::Buffer buffer = BufferCache::take();
      capacity = buffer.capacity();
      came_back_empty = buffer.empty();
      buffer.assign(kCapacity, std::byte{2});
      BufferCache::give(std::move(buffer));
    });
  });
  EXPECT_EQ(capacity, kCapacity);
  EXPECT_TRUE(came_back_empty);
  EXPECT_EQ(allocs, 0u);
}

TEST(BufferCache, FullLocalStackFlushesHalfToTheSharedStack) {
  drain_shared();
  std::atomic<bool> given{false};
  std::atomic<bool> drained{false};
  std::thread giver([&] {
    for (std::size_t i = 0; i <= BufferCache::kLocalDepth; ++i) {
      BufferCache::give(with_capacity(300));
    }
    given.store(true);
    while (!drained.load()) std::this_thread::yield();
  });
  while (!given.load()) std::this_thread::yield();
  // The giver is still alive, so only its overflow flush is visible.
  const std::vector<std::size_t> shared = drain_shared();
  drained.store(true);
  giver.join();
  EXPECT_EQ(shared.size(), BufferCache::kLocalDepth / 2);
  for (const std::size_t capacity : shared) EXPECT_EQ(capacity, 300u);
}

TEST(BufferCache, ReusesItsOwnSparesBeforeTheSharedStack) {
  drain_shared();
  on_fresh_thread([] { BufferCache::give(with_capacity(500)); });
  std::size_t capacity = 0;
  on_fresh_thread([&] {
    BufferCache::give(with_capacity(77));
    capacity = BufferCache::take().capacity();
  });
  EXPECT_EQ(capacity, 77u);
  EXPECT_EQ(drain_shared(), std::vector<std::size_t>{500});
}

TEST(BufferCache, SharedStackKeepsAtMostItsRetentionBound) {
  drain_shared();
  on_fresh_thread([] {
    for (std::size_t i = 0; i < 4 * BufferCache::kSharedDepth; ++i) {
      BufferCache::give(with_capacity(64));
    }
  });
  // The rest were freed (the ASan job checks that nothing leaked).
  EXPECT_EQ(drain_shared().size(), BufferCache::kSharedDepth);
}

TEST(BufferCache, KeepsNoBufferAboveTheCapacityCap) {
  drain_shared();
  on_fresh_thread([] {
    BufferCache::give(with_capacity(BufferCache::kMaxCapacity + 1));
    BufferCache::give(with_capacity(BufferCache::kMaxCapacity));
    BufferCache::give(BufferCache::Buffer{});  // no capacity to keep
  });
  EXPECT_EQ(drain_shared(),
            std::vector<std::size_t>{BufferCache::kMaxCapacity});
}

TEST(BufferCache, ExitingThreadHandsItsSparesToTheSharedStack) {
  // Every spare of an exiting thread either reaches the shared stack or is
  // freed; none is lost (run leak-checked under ASan).
  drain_shared();
  on_fresh_thread([] {
    for (std::size_t i = 0; i < BufferCache::kLocalDepth; ++i) {
      BufferCache::give(with_capacity(128 + i));
    }
  });
  std::vector<std::size_t> shared = drain_shared();
  std::sort(shared.begin(), shared.end());
  ASSERT_EQ(shared.size(), BufferCache::kLocalDepth);
  for (std::size_t i = 0; i < shared.size(); ++i) {
    EXPECT_EQ(shared[i], 128 + i);
  }
}

TEST(BasicSpinMutex, UcxStyleVariantStillMutuallyExcludes) {
  common::UcxStyleSpinMutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        std::lock_guard<common::UcxStyleSpinMutex> guard(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 15000);
}

TEST(Affinity, BestEffortNeverCrashes) {
  EXPECT_GE(common::hardware_core_count(), 1u);
  common::pin_current_thread(0);  // result is advisory
  common::set_current_thread_name("amtnet-test");
}
