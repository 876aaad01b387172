// Tests for the action-based collectives: barrier ordering, allreduce
// correctness, broadcast, repeated rounds, and operation over every
// parcelport kind; the log-depth algorithms against locally computed
// references on non-power-of-two locality counts and zero-copy payloads,
// the bounded round window under out-of-order epoch arrival, the
// fail-fast group invariants, and TSan-targetable stress floods.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "amt/collectives.hpp"
#include "stack/stack.hpp"
#include "test_util.hpp"

using amt::CollectiveGroup;
using amt::Latch;

namespace {

/// Runs `fn` as a task on every locality and waits for all to finish.
template <typename Fn>
void on_all(amt::Runtime& runtime, Fn&& fn) {
  const amt::Rank n = runtime.num_localities();
  Latch done(n);
  for (amt::Rank r = 0; r < n; ++r) {
    runtime.locality(r).spawn([&fn, &done] {
      fn();
      done.count_down();
    });
  }
  done.wait(runtime.locality(0).scheduler());
}

/// Element-wise u32 sum — commutative and associative, exact under any
/// combine order (unlike floating point), so every algorithm family must
/// produce identical bytes.
void add_u32(std::uint8_t* acc, const std::uint8_t* in, std::size_t bytes) {
  for (std::size_t off = 0; off + 4 <= bytes; off += 4) {
    std::uint32_t a, b;
    std::memcpy(&a, acc + off, 4);
    std::memcpy(&b, in + off, 4);
    a += b;
    std::memcpy(acc + off, &a, 4);
  }
}

/// Rank r's deterministic contribution: `words` u32 values seeded by rank.
CollectiveGroup::Bytes u32_pattern(std::uint32_t rank, std::size_t words,
                                   std::uint32_t salt = 0) {
  CollectiveGroup::Bytes data(words * 4);
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint32_t v =
        (rank + 1) * 2654435761u + static_cast<std::uint32_t>(i) * 40503u +
        salt;
    std::memcpy(data.data() + i * 4, &v, 4);
  }
  return data;
}

/// Runs one round of every byte-span collective on every rank and checks
/// the results against locally computed references. The broadcast uses a
/// non-zero root so the binomial tree's root-relative rotation runs.
void exercise_all_ops(amt::Runtime& runtime, CollectiveGroup& group,
                      std::size_t words, std::atomic<int>& wrong) {
  const amt::Rank n = runtime.num_localities();
  // References, identical on every rank.
  CollectiveGroup::Bytes sum_ref = u32_pattern(0, words);
  for (amt::Rank r = 1; r < n; ++r) {
    const auto contrib = u32_pattern(r, words);
    add_u32(sum_ref.data(), contrib.data(), sum_ref.size());
  }
  on_all(runtime, [&] {
    const amt::Rank rank = amt::here().rank();
    const amt::Rank n_ranks = group.size();
    const std::size_t bytes = words * 4;

    auto mine = u32_pattern(rank, words);
    group.allreduce(mine, &add_u32);
    if (mine != sum_ref) wrong.fetch_add(1);

    const amt::Rank root = 1 % n_ranks;
    auto bc = rank == root ? u32_pattern(7, words) : CollectiveGroup::Bytes{};
    group.broadcast(root, bc);
    if (bc != u32_pattern(7, words)) wrong.fetch_add(1);

    group.barrier();

    // all_to_all: rank r sends block salted by destination; block i of the
    // result must be rank i's block salted by *this* rank.
    CollectiveGroup::Bytes send;
    for (amt::Rank dst = 0; dst < n_ranks; ++dst) {
      const auto block = u32_pattern(rank, words, 1000 + dst);
      send.insert(send.end(), block.begin(), block.end());
    }
    const auto recv = group.all_to_all(send, bytes);
    for (amt::Rank src = 0; src < n_ranks; ++src) {
      const auto expect = u32_pattern(src, words, 1000 + rank);
      if (std::memcmp(recv.data() + src * bytes, expect.data(), bytes) != 0) {
        wrong.fetch_add(1);
      }
    }
  });
}

}  // namespace

class Collectives : public ::testing::TestWithParam<const char*> {};

TEST_P(Collectives, AllreduceSumsContributions) {
  amtnet::StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 4;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);

  std::atomic<int> wrong{0};
  on_all(*runtime, [&] {
    const double mine = static_cast<double>(amt::here().rank() + 1);
    const double sum = group.allreduce_sum(mine);
    if (sum != 1.0 + 2.0 + 3.0 + 4.0) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

TEST_P(Collectives, BarrierSeparatesPhases) {
  amtnet::StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 3;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);

  std::atomic<int> phase1{0};
  std::atomic<int> violations{0};
  on_all(*runtime, [&] {
    phase1.fetch_add(1);
    group.barrier();
    // After the barrier, every rank must observe all phase-1 increments.
    if (phase1.load() != 3) violations.fetch_add(1);
  });
  EXPECT_EQ(violations.load(), 0);
  runtime->stop();
}

TEST_P(Collectives, BroadcastDistributesRootValue) {
  amtnet::StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 4;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);

  std::atomic<int> wrong{0};
  on_all(*runtime, [&] {
    const double got = group.broadcast_from_root(
        amt::here().rank() == 0 ? 12.5 : -1.0);
    if (got != 12.5) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

TEST_P(Collectives, ManyBackToBackRounds) {
  amtnet::StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 3;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);

  std::atomic<int> wrong{0};
  on_all(*runtime, [&] {
    for (int round = 1; round <= 30; ++round) {
      const double sum = group.allreduce_sum(static_cast<double>(round));
      if (sum != 3.0 * round) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(Backends, Collectives,
                         ::testing::Values("lci_psr_cq_pin_i", "mpi_i",
                                           "lci_sr_sy_mt"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// Non-power-of-two locality counts on every parcelport variant: the
// recursive-doubling fold of the 2*rem ranks, the binomial tree's vrank
// rotation and partial subtrees, and the ring-shift all-to-all.
TEST_P(Collectives, NonPowerOfTwoLocalityCounts) {
  for (const amt::Rank n : {amt::Rank{3}, amt::Rank{5}, amt::Rank{9}}) {
    amtnet::StackOptions options;
    options.parcelport = GetParam();
    options.num_localities = n;
    options.threads_per_locality = 1;
    SCOPED_TRACE(options.parcelport + " n=" + std::to_string(n));
    auto runtime = amtnet::make_runtime(options);
    CollectiveGroup group(*runtime);
    std::atomic<int> wrong{0};
    exercise_all_ops(*runtime, group, 16, wrong);
    EXPECT_EQ(wrong.load(), 0);
    runtime->stop();
  }
}

// 33 localities (past the 32-rank binomial span boundary, non power of
// two): the algorithms must agree with the references at a width no
// earlier test reaches.
TEST(CollectivesWide, ThirtyThreeLocalities) {
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 33;
  options.threads_per_locality = 1;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);
  std::atomic<int> wrong{0};
  exercise_all_ops(*runtime, group, 8, wrong);
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

// Payloads above the zero-copy threshold: every collective message travels
// as a zero-copy chunk, relayed through the binomial tree and combined
// through the recursive-doubling fold at n=5. Byte-exact against the same
// references.
TEST(CollectivesLargePayload, ZeroCopyPayloadsAtFiveLocalities) {
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 5;
  options.threads_per_locality = 2;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);
  std::atomic<int> wrong{0};
  // 5000 words = 20000 B per payload and per all-to-all block.
  ASSERT_GT(5000u * 4, runtime->config().zero_copy_threshold);
  exercise_all_ops(*runtime, group, 5000, wrong);
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

// The bounded round window under out-of-order epoch arrival: a 4-rail
// fabric reorders packets across rails, and one leaf rank is held back
// before its first round, so no slot can recycle. The root runs
// kRoundWindow broadcasts ahead, then releases the leaf just before the
// next one; that broadcast's epoch maps onto the slot still holding the
// leaf's first round, so the root MUST park until the leaf leaves it. If
// recycling or the epoch tagging were wrong, a stale arrival would corrupt
// a later round or fail the recycle check. Distinct payloads per epoch
// catch cross-epoch mixups byte-exactly.
TEST(CollectivesWindow, OutOfOrderEpochArrivalUnderRailReordering) {
  constexpr std::uint32_t kWindow = CollectiveGroup::kRoundWindow;
  constexpr amt::Rank kLeaf = 3;  // vrank 3 of root 0: child of rank 2
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 4;
  options.threads_per_locality = 2;
  options.fabric_rails = 4;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);
  std::atomic<bool> release{false};
  std::atomic<bool> root_past_window{false};
  std::atomic<int> wrong{0};
  std::atomic<int> overran{0};
  on_all(*runtime, [&] {
    const amt::Rank rank = amt::here().rank();
    if (rank == kLeaf) {
      amt::here().scheduler().wait_until([&] { return release.load(); });
      // The root's (kWindow+1)-th round reuses the slot of the leaf's first
      // round, so it cannot finish before the leaf has even started.
      if (root_past_window.load()) overran.fetch_add(1);
    }
    for (std::uint32_t round = 0; round < 60; ++round) {
      if (rank == 0 && round == kWindow) release.store(true);
      auto data = rank == 0 ? u32_pattern(99, 12, round)
                            : CollectiveGroup::Bytes{};
      group.broadcast(0, data);
      if (data != u32_pattern(99, 12, round)) wrong.fetch_add(1);
      if (rank == 0 && round == kWindow) root_past_window.store(true);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(overran.load(), 0);
  runtime->stop();
}

// ---- group invariants fail fast in every build --------------------------

TEST(CollectiveGroupLimits, MoreThanSixtyFourLocalitiesRejected) {
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = CollectiveGroup::kMaxRanks + 1;
  options.threads_per_locality = 1;
  // Never started: the group only reads the locality count, so no worker
  // or progress thread is spawned for the 65 localities.
  amt::Runtime runtime(amtnet::make_runtime_config(options),
                       amtnet::default_parcelport_factory());
  EXPECT_THROW(CollectiveGroup group(runtime), std::invalid_argument);
}

TEST(CollectiveGroupLimits, SecondLiveGroupRejected) {
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 2;
  options.threads_per_locality = 1;
  auto runtime = amtnet::make_runtime(options);
  {
    CollectiveGroup first(*runtime);
    EXPECT_THROW(CollectiveGroup second(*runtime), std::invalid_argument);
  }
  // The rejected constructor left the slots alone; once the first group is
  // gone a new one registers and works.
  CollectiveGroup again(*runtime);
  std::atomic<int> wrong{0};
  on_all(*runtime, [&] {
    if (again.allreduce_sum(1.0) != 2.0) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

// A message for an epoch whose slot already serves a newer epoch can never
// be delivered; waiting for the slot would hang, so it aborts instead.
TEST(CollectiveGroupDeathTest, StaleEpochArrivalFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        amtnet::StackOptions options;
        options.parcelport = "lci_psr_cq_pin_i";
        options.num_localities = 2;
        options.threads_per_locality = 1;
        auto runtime = amtnet::make_runtime(options);
        CollectiveGroup group(*runtime);
        on_all(*runtime, [&] {
          if (amt::here().rank() != 0) return;
          const std::uint64_t newer = 1 + CollectiveGroup::kRoundWindow;
          group.on_msg(newer, 0, 1, CollectiveGroup::Bytes{});
          group.on_msg(1, 0, 1, CollectiveGroup::Bytes{});
        });
      },
      "INTEGRITY FAILURE: collective epoch 1 arrived after its slot was "
      "recycled for epoch 17");
}

// A round whose slot still holds a message when every rank has left broke
// receipt-completeness; recycling it would hand the message to a later
// round.
TEST(CollectiveGroupDeathTest, UnconsumedMessageAtRecycleFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        amtnet::StackOptions options;
        options.parcelport = "lci_psr_cq_pin_i";
        options.num_localities = 2;
        options.threads_per_locality = 1;
        auto runtime = amtnet::make_runtime(options);
        CollectiveGroup group(*runtime);
        runtime->locality(0).spawn([&] {
          group.on_msg(1, 12345, 1, CollectiveGroup::Bytes{});
        });
        on_all(*runtime, [&] { group.barrier(); });
      },
      "INTEGRITY FAILURE: collective epoch 1 recycled with 1 unconsumed");
}

// ---- TSan-targetable stress floods (CI runs --gtest_filter=CollectiveStress.*)

// Mixed collective ops back to back on an mt-progress parcelport with four
// worker threads per locality: the round-slot sharding, inbox hand-off and
// counter updates all race with concurrent action delivery here, which is
// exactly what TSan needs to observe.
TEST(CollectiveStress, MixedOpsFloodManyWorkers) {
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_mt_i";
  options.num_localities = 4;
  options.threads_per_locality = 4;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);
  std::atomic<int> wrong{0};
  on_all(*runtime, [&] {
    const amt::Rank rank = amt::here().rank();
    for (std::uint32_t round = 0; round < 40; ++round) {
      auto data = u32_pattern(rank, 8, round);
      group.allreduce(data, &add_u32);
      CollectiveGroup::Bytes expect = u32_pattern(0, 8, round);
      for (amt::Rank r = 1; r < 4; ++r) {
        const auto c = u32_pattern(r, 8, round);
        add_u32(expect.data(), c.data(), expect.size());
      }
      if (data != expect) wrong.fetch_add(1);
      group.barrier();
      auto bc = rank == round % 4 ? u32_pattern(5, 4, round)
                                  : CollectiveGroup::Bytes{};
      group.broadcast(round % 4, bc);
      if (bc != u32_pattern(5, 4, round)) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

// Zero-copy payloads under the same concurrency: 12000 B cross the
// zero-copy threshold, so the recursive-doubling hand-off also races with
// the rendezvous machinery.
TEST(CollectiveStress, LargePayloadFlood) {
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_mt_i";
  options.num_localities = 3;
  options.threads_per_locality = 4;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);
  std::atomic<int> wrong{0};
  on_all(*runtime, [&] {
    const amt::Rank rank = amt::here().rank();
    for (std::uint32_t round = 0; round < 10; ++round) {
      auto data = u32_pattern(rank, 3000, round);
      group.allreduce(data, &add_u32);
      CollectiveGroup::Bytes expect = u32_pattern(0, 3000, round);
      for (amt::Rank r = 1; r < 3; ++r) {
        const auto c = u32_pattern(r, 3000, round);
        add_u32(expect.data(), c.data(), expect.size());
      }
      if (data != expect) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}
