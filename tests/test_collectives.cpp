// Tests for the action-based collectives: barrier ordering, allreduce
// correctness, broadcast, repeated rounds, and operation over every
// parcelport kind; plus the log-depth algorithm families (binomial tree,
// recursive doubling, ring, pairwise) against centralised references on
// non-power-of-two locality counts, the bounded round window under
// out-of-order epoch arrival, the pipelined large-payload paths, the
// selection-model-vs-docs cross-check, and TSan-targetable stress floods.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
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

/// RAII environment override that restores the previous value on scope exit
/// (the tests mutate AMTNET_COLL_* knobs between runtime spins only).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (had_prev_) {
      ::setenv(name_, prev_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_prev_ = false;
  std::string prev_;
};

/// Runs one round of every byte-span collective on every rank and checks
/// the results against locally computed references. Exercises whatever
/// algorithm family the group's tuning selects.
void exercise_all_ops(amt::Runtime& runtime, CollectiveGroup& group,
                      std::size_t words, std::atomic<int>& wrong) {
  const amt::Rank n = runtime.num_localities();
  // References, identical on every rank.
  CollectiveGroup::Bytes sum_ref = u32_pattern(0, words);
  for (amt::Rank r = 1; r < n; ++r) {
    const auto contrib = u32_pattern(r, words);
    add_u32(sum_ref.data(), contrib.data(), sum_ref.size());
  }
  CollectiveGroup::Bytes gather_ref;
  for (amt::Rank r = 0; r < n; ++r) {
    const auto part = u32_pattern(r, words);
    gather_ref.insert(gather_ref.end(), part.begin(), part.end());
  }
  on_all(runtime, [&] {
    const amt::Rank rank = amt::here().rank();
    const amt::Rank n_ranks = group.size();
    const std::size_t bytes = words * 4;

    auto mine = u32_pattern(rank, words);
    group.allreduce(mine, 4, &add_u32);
    if (mine != sum_ref) wrong.fetch_add(1);

    auto red = u32_pattern(rank, words);
    group.reduce(1 % n_ranks, red, 4, &add_u32);
    if (rank == 1 % n_ranks && red != sum_ref) wrong.fetch_add(1);

    auto bc = rank == 0 ? u32_pattern(7, words) : CollectiveGroup::Bytes{};
    group.broadcast(0, bc);
    if (bc != u32_pattern(7, words)) wrong.fetch_add(1);

    const auto mine_block =
        group.scatter(0, rank == 0 ? gather_ref : CollectiveGroup::Bytes{},
                      bytes);
    if (mine_block != u32_pattern(rank, words)) wrong.fetch_add(1);

    const auto gathered = group.gather(0, u32_pattern(rank, words));
    if (rank == 0 && gathered != gather_ref) wrong.fetch_add(1);

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

// Every algorithm family against the centralised references on
// non-power-of-two locality counts (the binomial/rd/ring non-pow2 special
// cases: vrank rotation, the pre/post fold of the 2*rem ranks, uneven ring
// chunks), across every parcelport variant. The family is forced through
// the same coll<ALGO> config token users would write, one runtime each.
TEST_P(Collectives, NonPowerOfTwoEveryAlgorithmFamily) {
  for (const amt::Rank n : {amt::Rank{3}, amt::Rank{5}, amt::Rank{9}}) {
    for (const char* force : {"auto", "central", "tree", "rd", "ring"}) {
      amtnet::StackOptions options;
      options.parcelport = std::string(GetParam()) + "_coll" + force;
      options.num_localities = n;
      options.threads_per_locality = 1;
      SCOPED_TRACE(options.parcelport + " n=" + std::to_string(n));
      auto runtime = amtnet::make_runtime(options);
      CollectiveGroup group(*runtime);
      EXPECT_EQ(group.tuning().force,
                std::string(force) == "auto" ? "" : force);
      std::atomic<int> wrong{0};
      exercise_all_ops(*runtime, group, 16, wrong);
      EXPECT_EQ(wrong.load(), 0);
      runtime->stop();
    }
  }
}

// 33 localities (past the 32-rank binomial span boundary, non power of
// two): the auto-selected log-depth algorithms must agree with the
// references at a width no earlier test reaches.
TEST(CollectivesWide, ThirtyThreeLocalitiesAutoSelection) {
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

// Payloads above AMTNET_COLL_LARGE_BYTES take the pipelined/segmented
// paths: segmented binomial broadcast (segment size forced small so many
// segments pipeline down the tree) and ring allreduce with uneven
// elem-aligned chunks. Byte-exact against the same references.
TEST(CollectivesLargePayload, SegmentedBroadcastAndRingAllreduce) {
  ScopedEnv seg("AMTNET_COLL_SEG_BYTES", "512");
  ScopedEnv large("AMTNET_COLL_LARGE_BYTES", "4096");
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 5;
  options.threads_per_locality = 2;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);
  ASSERT_EQ(group.tuning().seg_bytes, 512u);
  ASSERT_EQ(group.tuning().large_bytes, 4096u);
  std::atomic<int> wrong{0};
  // 5000 words = 20000 B: above the crossover, not segment-aligned, and not
  // divisible by the 5-rank ring (so chunks are uneven).
  exercise_all_ops(*runtime, group, 5000, wrong);
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

// Regression shape for the unbounded-round-state hazard of the former
// implementation (one SpinMutex'd map keyed by epoch, cleaned only when
// leavers drained): a 4-rail fabric reorders packets across rails, and a
// tight AMTNET_COLL_WINDOW=2 means an epoch-(e+2) arrival MUST park until
// slot (e % 2) recycles — if recycling or the out-of-order tagging were
// wrong, a stale arrival would corrupt a later round or trip the
// receipt-complete assert. Distinct payloads per epoch catch cross-epoch
// mixups byte-exactly.
TEST(CollectivesWindow, OutOfOrderEpochArrivalUnderRailReordering) {
  ScopedEnv window("AMTNET_COLL_WINDOW", "2");
  amtnet::StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 4;
  options.threads_per_locality = 2;
  options.fabric_rails = 4;
  auto runtime = amtnet::make_runtime(options);
  CollectiveGroup group(*runtime);
  ASSERT_EQ(group.tuning().window, 2u);
  std::atomic<int> wrong{0};
  on_all(*runtime, [&] {
    const amt::Rank rank = amt::here().rank();
    for (std::uint32_t round = 0; round < 60; ++round) {
      auto data = rank == round % 4
                      ? u32_pattern(99, 12, round)
                      : CollectiveGroup::Bytes{};
      group.broadcast(round % 4, data);
      if (data != u32_pattern(99, 12, round)) wrong.fetch_add(1);
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  runtime->stop();
}

// docs/collectives.md embeds the generated selection table between
// machine-readable markers; this cross-check keeps the documented model and
// select_algorithm() from drifting apart (the acceptance bar of the PR that
// introduced the log-depth families).
TEST(CollectiveSelectionDocs, TableMatchesImplementation) {
  const std::string path =
      std::string(AMTNET_REPO_ROOT) + "/docs/collectives.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  const std::string begin_marker = "<!-- selection-table:begin -->\n";
  const std::string end_marker = "<!-- selection-table:end -->";
  const std::size_t begin = doc.find(begin_marker);
  const std::size_t end = doc.find(end_marker);
  ASSERT_NE(begin, std::string::npos);
  ASSERT_NE(end, std::string::npos);
  const std::string embedded =
      doc.substr(begin + begin_marker.size(),
                 end - begin - begin_marker.size());
  EXPECT_EQ(embedded, amt::collective_selection_table_markdown())
      << "docs/collectives.md selection table is stale; regenerate from "
         "collective_selection_table_markdown():\n"
      << amt::collective_selection_table_markdown();
}

// Selection honours the forced family where the op has a member and falls
// back to auto where it does not (a forced ring changes allreduce but not
// broadcast); spot-check the documented auto crossovers too.
TEST(CollectiveSelection, ForcedFamiliesAndAutoCrossovers) {
  amt::CollTuning t;  // defaults: seg 8192, large 16384, auto
  using amt::CollAlgo;
  using amt::CollOp;
  EXPECT_EQ(amt::select_algorithm(CollOp::kAllreduce, 8, 2, t),
            CollAlgo::kCentral);  // n < 4: not worth the tree
  EXPECT_EQ(amt::select_algorithm(CollOp::kAllreduce, 8, 8, t),
            CollAlgo::kRecursiveDoubling);
  EXPECT_EQ(amt::select_algorithm(CollOp::kAllreduce, 65536, 8, t),
            CollAlgo::kRing);
  EXPECT_EQ(amt::select_algorithm(CollOp::kBroadcast, 8, 8, t),
            CollAlgo::kBinomial);
  EXPECT_EQ(amt::select_algorithm(CollOp::kBroadcast, 65536, 8, t),
            CollAlgo::kBinomialPipelined);
  EXPECT_EQ(amt::select_algorithm(CollOp::kBarrier, 0, 8, t),
            CollAlgo::kDissemination);
  t.force = "ring";
  EXPECT_EQ(amt::select_algorithm(CollOp::kAllreduce, 8, 8, t),
            CollAlgo::kRing);
  EXPECT_EQ(amt::select_algorithm(CollOp::kBroadcast, 8, 8, t),
            CollAlgo::kBinomial);  // ring has no broadcast member -> auto
  t.force = "central";
  EXPECT_EQ(amt::select_algorithm(CollOp::kAllreduce, 65536, 16, t),
            CollAlgo::kCentral);
  EXPECT_THROW(amt::coll_tuning_from_environment("bogus"),
               std::invalid_argument);
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
      group.allreduce(data, 4, &add_u32);
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

// The segmented ring/pipelined paths under the same concurrency: large
// payloads cross the zero-copy threshold, so chunk hand-off also races
// with the rendezvous machinery.
TEST(CollectiveStress, SegmentedLargePayloadFlood) {
  ScopedEnv seg("AMTNET_COLL_SEG_BYTES", "1024");
  ScopedEnv large("AMTNET_COLL_LARGE_BYTES", "2048");
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
      group.allreduce(data, 4, &add_u32);
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
