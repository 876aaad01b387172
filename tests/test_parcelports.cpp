// End-to-end integration tests: action invocation over the real network
// stack (fabric -> minimpi/minilci -> parcelport -> runtime) for EVERY
// parcelport configuration in the paper's Table 1, plus the ablation
// variants (mpi_fine, mpi_orig). Also covers the wire-header encoding and
// cross-configuration message equivalence.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "amt/wire_header.hpp"
#include "common/crc32.hpp"
#include "stack/stack.hpp"
#include "test_util.hpp"

using amt::Latch;
using amtnet::StackOptions;

// ---------------- wire header unit tests ----------------

namespace {

amt::OutMessage make_msg(std::size_t main_size,
                         std::vector<std::size_t> zsizes) {
  amt::OutMessage msg;
  msg.main_chunk.resize(main_size, std::byte{0x5a});
  for (std::size_t i = 0; i < zsizes.size(); ++i) {
    auto owned = std::make_shared<std::vector<std::byte>>(
        zsizes[i], static_cast<std::byte>(i + 1));
    msg.zchunks.push_back(
        amt::ZChunk{owned->data(), owned->size(), owned});
  }
  return msg;
}

}  // namespace

TEST(WireHeader, SmallMessageFullyPiggybacked) {
  const auto msg = make_msg(100, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  EXPECT_TRUE(plan.piggy_main);
  EXPECT_FALSE(plan.piggy_tchunk);
  EXPECT_EQ(plan.num_followups(msg), 0u);
}

TEST(WireHeader, LargeMainBecomesFollowup) {
  const auto msg = make_msg(10000, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  EXPECT_FALSE(plan.piggy_main);
  EXPECT_EQ(plan.num_followups(msg), 1u);
}

TEST(WireHeader, ZchunksAddFollowups) {
  const auto msg = make_msg(100, {20000, 30000});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  EXPECT_TRUE(plan.piggy_main);
  EXPECT_TRUE(plan.piggy_tchunk);
  EXPECT_EQ(plan.num_followups(msg), 2u);  // just the two zero-copy chunks
}

TEST(WireHeader, EncodeDecodeRoundTrip) {
  const auto msg = make_msg(64, {9000});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 1234, /*seq=*/7, wire);
  EXPECT_LE(wire.size(), 8192u);
  const auto decoded = amt::decode_header(wire.data(), wire.size());
  EXPECT_EQ(decoded.fields.tag, 1234u);
  EXPECT_EQ(decoded.fields.seq, 7u);
  EXPECT_EQ(decoded.fields.num_zchunks, 1u);
  EXPECT_EQ(decoded.fields.main_size, 64u);
  ASSERT_TRUE(decoded.fields.piggy_main);
  EXPECT_EQ(decoded.piggy_main.size(), 64u);
  ASSERT_TRUE(decoded.fields.piggy_tchunk);
  const auto sizes = amt::parse_tchunk(decoded.piggy_tchunk.data(),
                                       decoded.piggy_tchunk.size(),
                                       decoded.fields.num_zchunks);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 9000u);
}

TEST(WireHeader, OriginalPolicyFixed512NoTchunkPiggyback) {
  const auto small = make_msg(100, {20000});
  auto plan = amt::HeaderPlan::decide_original(small);
  EXPECT_TRUE(plan.piggy_main);
  EXPECT_FALSE(plan.piggy_tchunk);     // the original never piggybacks it
  EXPECT_EQ(plan.num_followups(small), 2u);  // tchunk + zchunk

  const auto big = make_msg(600, {});  // does not fit in 512 bytes
  plan = amt::HeaderPlan::decide_original(big);
  EXPECT_FALSE(plan.piggy_main);
}

// ---------------- small-parcel frame (fast path + aggregation) ------------

namespace {

// Recomputes and patches the CRC after a deliberate field edit, so the
// tests below exercise the *structural* validation rather than tripping
// over the checksum first.
void repatch_crc(std::vector<std::byte>& frame,
                 std::size_t crc_offset = offsetof(amt::BatchHeader, crc)) {
  const std::uint32_t zero = 0;
  std::memcpy(frame.data() + crc_offset, &zero, sizeof(zero));
  const std::uint32_t crc = common::crc32(frame.data(), frame.size());
  std::memcpy(frame.data() + crc_offset, &crc, sizeof(crc));
}

std::vector<std::byte> encode_batch(
    const std::vector<const amt::OutMessage*>& msgs, std::uint32_t seq) {
  std::vector<std::byte> frame(amt::frame_size(msgs.data(), msgs.size()));
  EXPECT_EQ(amt::encode_frame_to(msgs.data(), msgs.size(), seq, frame.data(),
                                 frame.size()),
            frame.size());
  return frame;
}

std::vector<amt::InMessage> take_all(std::vector<std::byte>&& frame,
                                     std::uint32_t count, amt::Rank source) {
  std::vector<amt::InMessage> out;
  amt::take_frame_entries(std::move(frame), count, source,
                          [&out](amt::InMessage&& in) {
                            out.push_back(std::move(in));
                          });
  return out;
}

// Byte offset of the first entry's main_size field.
constexpr std::size_t kEntry0MainSize =
    sizeof(amt::BatchHeader) + sizeof(std::uint32_t);

}  // namespace

TEST(BatchFrame, RoundTripThreeParcelsWithZchunks) {
  const auto m0 = make_msg(8, {});
  const auto m1 = make_msg(64, {100, 200});
  const auto m2 = make_msg(0, {50});
  auto frame = encode_batch({&m0, &m1, &m2}, /*seq=*/9);

  const auto header = amt::decode_frame(frame.data(), frame.size());
  EXPECT_EQ(header.count, 3u);
  EXPECT_EQ(header.seq, 9u);
  const auto in = take_all(std::move(frame), header.count, /*source=*/5);
  ASSERT_EQ(in.size(), 3u);

  EXPECT_EQ(in[0].source, 5);
  ASSERT_EQ(in[0].main_chunk.size(), 8u);
  EXPECT_EQ(in[0].main_chunk[7], std::byte{0x5a});
  EXPECT_TRUE(in[0].zchunks.empty());

  ASSERT_EQ(in[1].main_chunk.size(), 64u);
  EXPECT_EQ(in[1].main_chunk[0], std::byte{0x5a});
  ASSERT_EQ(in[1].zchunks.size(), 2u);
  ASSERT_EQ(in[1].zchunks[0].size(), 100u);
  EXPECT_EQ(in[1].zchunks[0][99], std::byte{1});
  ASSERT_EQ(in[1].zchunks[1].size(), 200u);
  EXPECT_EQ(in[1].zchunks[1][0], std::byte{2});

  EXPECT_TRUE(in[2].main_chunk.empty());
  ASSERT_EQ(in[2].zchunks.size(), 1u);
  EXPECT_EQ(in[2].zchunks[0].size(), 50u);
}

TEST(BatchFrame, OneParcelRoundTripWithZchunksAndBufferReuse) {
  // The fast path's frame of one: header + entry sizes + zchunk size table
  // + payloads, and the arrival vector itself becomes the main chunk.
  const auto msg = make_msg(64, {100, 200});
  auto frame = encode_batch({&msg}, /*seq=*/42);
  EXPECT_EQ(frame.size(), 24u + 2 * 8 + 64 + 100 + 200);
  const std::byte* arrival = frame.data();

  const auto header = amt::decode_frame(frame.data(), frame.size());
  EXPECT_EQ(header.seq, 42u);
  EXPECT_EQ(header.count, 1u);
  const auto in = take_all(std::move(frame), header.count, /*source=*/7);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].source, 7);
  ASSERT_EQ(in[0].main_chunk.size(), 64u);
  EXPECT_EQ(in[0].main_chunk.data(), arrival) << "main chunk was copied";
  EXPECT_EQ(in[0].main_chunk[63], std::byte{0x5a});
  ASSERT_EQ(in[0].zchunks.size(), 2u);
  ASSERT_EQ(in[0].zchunks[0].size(), 100u);
  EXPECT_EQ(in[0].zchunks[0][99], std::byte{1});
  ASSERT_EQ(in[0].zchunks[1].size(), 200u);
  EXPECT_EQ(in[0].zchunks[1][0], std::byte{2});
}

TEST(BatchFrame, MainOnlyOneParcelFrameIsHeaderPlusPayload) {
  // 24 B of envelope per single-parcel frame: fig7's straddle arithmetic
  // (payload + 53 B) depends on it.
  const auto msg = make_msg(512, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  EXPECT_EQ(frame.size(), 24u + 512);
  const auto header = amt::decode_frame(frame.data(), frame.size());
  const auto in = take_all(std::move(frame), header.count, /*source=*/1);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].main_chunk.size(), 512u);
  EXPECT_TRUE(in[0].zchunks.empty());
}

TEST(BatchFrame, MinimalOneParcelFrameIsTheEnvelope) {
  // The smallest encodable frame, a zero-payload single parcel, is the
  // header plus one empty entry record.
  const auto msg = make_msg(0, {});
  const amt::OutMessage* msgs[] = {&msg};
  EXPECT_EQ(amt::frame_size(msgs, 1),
            sizeof(amt::BatchHeader) + amt::kBatchEntryHeaderBytes);
}

TEST(BatchFrameDeathTest, CorruptedPayloadFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto single = make_msg(64, {100});
  auto one = encode_batch({&single}, /*seq=*/5);
  one[one.size() - 3] ^= std::byte{0x04};
  EXPECT_DEATH(amt::decode_frame(one.data(), one.size()),
               "batch frame CRC mismatch");

  const auto m0 = make_msg(32, {});
  const auto m1 = make_msg(16, {});
  auto two = encode_batch({&m0, &m1}, /*seq=*/1);
  two[two.size() - 5] ^= std::byte{0x20};
  EXPECT_DEATH(amt::decode_frame(two.data(), two.size()),
               "batch frame CRC mismatch");
}

TEST(BatchFrameDeathTest, TruncatedFrameFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::byte> frame(8, std::byte{0});
  EXPECT_DEATH(amt::decode_frame(frame.data(), frame.size()),
               "batch frame truncated");
}

TEST(BatchFrameDeathTest, ForeignFrameKindFailsFast) {
  // A regular wire header routed onto the fast-path tag must be rejected
  // by the magic check, not mis-parsed as a frame.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(64, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 9, /*seq=*/0, wire);
  EXPECT_DEATH(amt::decode_frame(wire.data(), wire.size()),
               "batch frame bad magic");
}

TEST(BatchFrameDeathTest, ZeroCountFailsFastEvenWithValidCrc) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(16, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  const std::uint32_t zero_count = 0;
  std::memcpy(frame.data() + offsetof(amt::BatchHeader, count), &zero_count,
              sizeof(zero_count));
  repatch_crc(frame);
  EXPECT_DEATH(amt::decode_frame(frame.data(), frame.size()),
               "batch frame bad count");
}

TEST(BatchFrameDeathTest, OverdeclaredEntrySizeFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(16, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  const std::uint32_t bad_main = 16 + 8;
  std::memcpy(frame.data() + kEntry0MainSize, &bad_main, sizeof(bad_main));
  repatch_crc(frame);
  EXPECT_DEATH(amt::decode_frame(frame.data(), frame.size()),
               "batch entry 0 main chunk .* overruns frame");
}

TEST(BatchFrameDeathTest, DeclaredSizesMustCoverFrameExactly) {
  // A frame whose CRC is valid but whose declared sizes leave trailing
  // bytes unaccounted for (e.g. a maliciously re-checksummed truncation)
  // still dies.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(64, {});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  const std::uint32_t bad_main = 63;
  std::memcpy(frame.data() + kEntry0MainSize, &bad_main, sizeof(bad_main));
  repatch_crc(frame);
  EXPECT_DEATH(amt::decode_frame(frame.data(), frame.size()),
               "batch frame size mismatch");
}

TEST(BatchFrameDeathTest, WrappingZchunkSizeFailsFast) {
  // A CRC-valid frame whose sizes add up only modulo 2^64: 32 payload bytes
  // declared as main 16 + zchunks (2^64 - 8) + 24. A sum check accepts it;
  // every bound must be checked against the bytes actually left, or the
  // take step reads far past the arrival buffer.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(16, {8, 8});
  auto frame = encode_batch({&msg}, /*seq=*/0);
  const std::uint64_t zsizes[2] = {~std::uint64_t{0} - 7, 24};
  std::memcpy(frame.data() + sizeof(amt::BatchHeader) +
                  amt::kBatchEntryHeaderBytes,
              zsizes, sizeof(zsizes));
  repatch_crc(frame);
  EXPECT_DEATH(
      {
        const auto header = amt::decode_frame(frame.data(), frame.size());
        take_all(std::move(frame), header.count, /*source=*/0);
      },
      "batch entry 0 zchunk 0 .* overruns frame");
}

// ---------------- end-to-end over every configuration ----------------

namespace e2e {

std::atomic<std::uint64_t> counter{0};
std::atomic<std::uint64_t> large_checksum{0};

void bump(std::uint64_t amount) { counter.fetch_add(amount); }

std::uint64_t echo_add(std::uint64_t value) { return value + 1; }

double dot(std::vector<double> a, std::vector<double> b) {
  double sum = 0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void consume(std::vector<std::uint64_t> values) {
  std::uint64_t sum = 0;
  for (auto v : values) sum += v;
  large_checksum.fetch_add(sum);
}

std::vector<double> make_data(std::uint64_t n) {
  return std::vector<double>(n, 2.0);
}

}  // namespace e2e

class ParcelportE2E : public ::testing::TestWithParam<const char*> {
 protected:
  StackOptions options() const {
    StackOptions options;
    options.parcelport = GetParam();
    options.num_localities = 2;
    options.threads_per_locality = 2;
    options.platform = "loopback";
    return options;
  }
};

TEST_P(ParcelportE2E, SmallActionRoundTrip) {
  auto runtime = amtnet::make_runtime(options());
  std::uint64_t result = 0;
  Latch done(1);
  runtime->locality(0).spawn([&] {
    result = amt::here().async<&e2e::echo_add>(1, std::uint64_t{41}).get();
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_EQ(result, 42u);
  runtime->stop();
}

TEST_P(ParcelportE2E, LargeArgumentsUseZeroCopyPath) {
  auto runtime = amtnet::make_runtime(options());
  double result = 0;
  Latch done(1);
  // Two 32 KiB vectors: header + 2 zero-copy chunks over the wire.
  std::vector<double> a(4096, 2.0), b(4096, 3.0);
  runtime->locality(0).spawn([&] {
    result = amt::here().async<&e2e::dot>(1, a, b).get();
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_DOUBLE_EQ(result, 4096.0 * 6.0);
  runtime->stop();
}

TEST_P(ParcelportE2E, MediumMainChunkFollowup) {
  // A ~16 KiB inline payload: too big to piggyback, too small for a
  // zero-copy chunk with a huge threshold -> exercises the separate
  // non-zero-copy-chunk follow-up message.
  StackOptions opts = options();
  opts.zero_copy_threshold = 64 * 1024;
  auto runtime = amtnet::make_runtime(opts);
  e2e::large_checksum.store(0);
  std::vector<std::uint64_t> values(2000);
  std::iota(values.begin(), values.end(), 1ull);
  const std::uint64_t expected =
      std::accumulate(values.begin(), values.end(), 0ull);
  runtime->locality(0).spawn(
      [&] { amt::here().apply<&e2e::consume>(1, values); });
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::large_checksum.load() == expected; },
      std::chrono::milliseconds(10000)));
  runtime->stop();
}

TEST_P(ParcelportE2E, ManyConcurrentParcels) {
  auto runtime = amtnet::make_runtime(options());
  e2e::counter.store(0);
  constexpr int kParcels = 400;
  // Fire from both localities at once, in both directions.
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (int i = 1; i <= kParcels; ++i) {
        amt::here().apply<&e2e::bump>(1 - r,
                                      static_cast<std::uint64_t>(i));
      }
    });
  }
  const std::uint64_t expected =
      2ull * kParcels * (kParcels + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected; },
      std::chrono::milliseconds(20000)));
  runtime->stop();
}

TEST_P(ParcelportE2E, ResultsComingBackLarge) {
  auto runtime = amtnet::make_runtime(options());
  std::vector<double> result;
  Latch done(1);
  runtime->locality(0).spawn([&] {
    result =
        amt::here().async<&e2e::make_data>(1, std::uint64_t{5000}).get();
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  ASSERT_EQ(result.size(), 5000u);
  EXPECT_DOUBLE_EQ(result[4999], 2.0);
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ParcelportE2E,
    ::testing::Values(
        // MPI parcelport + ablations
        "mpi", "mpi_i", "mpi_fine_i", "mpi_orig", "mpi_orig_i",
        // LCI parcelport: all 8 variant combinations, with and without the
        // send-immediate optimisation for the baseline axes
        "lci_psr_cq_pin", "lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
        "lci_psr_sy_pin_i", "lci_psr_sy_mt_i", "lci_sr_cq_pin_i",
        "lci_sr_cq_mt_i", "lci_sr_sy_pin_i", "lci_sr_sy_mt_i",
        "lci_sr_sy_mt"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---------------- pipelined follow-ups: out-of-order completions ----------

namespace e2e {

// Order-sensitive digest over four zero-copy chunks: any cross-chunk mixup
// or intra-chunk corruption changes the result.
std::uint64_t ordered_digest(std::vector<std::uint64_t> a,
                             std::vector<std::uint64_t> b,
                             std::vector<std::uint64_t> c,
                             std::vector<std::uint64_t> d) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::vector<std::uint64_t>& v) {
    h = h * 1099511628211ull + v.size();
    for (std::uint64_t x : v) h = h * 1099511628211ull + x;
  };
  mix(a);
  mix(b);
  mix(c);
  mix(d);
  return h;
}

std::vector<std::uint64_t> make_chunk(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = seed * 1000003ull + i;
  return v;
}

}  // namespace e2e

// Multi-zchunk parcels over a 4-rail fabric: the sender posts every piece
// eagerly, rails deliver them out of order, and the receiver must route each
// completion to the right buffer slot by tag. Covers all 8 LCI variant
// combinations.
class LciPipelineE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(LciPipelineE2E, MultiZchunkIntegrityAcrossReorderingFabric) {
  StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.fabric_rails = 4;  // unordered delivery across pieces
  auto runtime = amtnet::make_runtime(options);
  Latch done(1);
  bool all_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 6; ++round) {
      // Four 16 KiB chunks (over the 8 KiB zero-copy threshold): header +
      // 4 zero-copy follow-ups, all in flight at once.
      auto a = e2e::make_chunk(2048, 4 * round + 1);
      auto b = e2e::make_chunk(2048, 4 * round + 2);
      auto c = e2e::make_chunk(2048, 4 * round + 3);
      auto d = e2e::make_chunk(2048, 4 * round + 4);
      const std::uint64_t expected = e2e::ordered_digest(a, b, c, d);
      const std::uint64_t got =
          amt::here().async<&e2e::ordered_digest>(1, a, b, c, d).get();
      ok = ok && got == expected;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(all_ok);
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllLciVariants, LciPipelineE2E,
    ::testing::Values("lci_psr_cq_pin", "lci_psr_cq_mt", "lci_psr_sy_pin",
                      "lci_psr_sy_mt", "lci_sr_cq_pin", "lci_sr_cq_mt",
                      "lci_sr_sy_pin", "lci_sr_sy_mt"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---------------- small-parcel fast path, end to end ----------------

// Every LCI variant combination with the fast path on (the default), over a
// 4-rail reordering fabric: small parcels ride single-parcel frames (medium
// sends under sr, dynamic puts under psr) while parcels above the eager
// threshold must fall back to the header + follow-up path mid-stream with
// no cross-talk. The fpoff row is the regression config for the kill
// switch.
class LciFastpathE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(LciFastpathE2E, MixedSizeTrafficAcrossReorderingFabric) {
  StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.fabric_rails = 4;
  auto runtime = amtnet::make_runtime(options);
  e2e::counter.store(0);
  constexpr int kSmall = 200;
  // Small parcels in both directions at once...
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (int i = 1; i <= kSmall; ++i) {
        amt::here().apply<&e2e::bump>(1 - r, static_cast<std::uint64_t>(i));
      }
    });
  }
  // ...while zchunk-heavy round trips interleave on the fallback path.
  Latch done(1);
  bool large_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 3; ++round) {
      auto a = e2e::make_chunk(2048, round + 1);
      auto b = e2e::make_chunk(2048, round + 2);
      auto c = e2e::make_chunk(2048, round + 3);
      auto d = e2e::make_chunk(2048, round + 4);
      const std::uint64_t expected = e2e::ordered_digest(a, b, c, d);
      ok = ok &&
           amt::here().async<&e2e::ordered_digest>(1, a, b, c, d).get() ==
               expected;
    }
    large_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(large_ok);
  const std::uint64_t expected_small = 2ull * kSmall * (kSmall + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected_small; },
      std::chrono::milliseconds(20000)));
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllLciVariants, LciFastpathE2E,
    ::testing::Values("lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
                      "lci_psr_sy_pin_i", "lci_psr_sy_mt_i",
                      "lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
                      "lci_sr_sy_pin_i", "lci_sr_sy_mt_i",
                      // regression row: the kill switch
                      "lci_sr_sy_mt_fpoff_i"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// ---------------- adaptive aggregation, end to end ----------------

// Every LCI variant combination with aggregation on, under a block<N>
// admission window (the backpressure signal that activates coalescing),
// over a 4-rail reordering fabric. Small floods in both directions coalesce
// into batch frames while zchunk-heavy round trips ride the fallback path
// mid-stream; the exact sums catch any lost, duplicated, or misrouted
// sub-parcel. The row without agg pins the default (aggregation off) to
// the bit-identical non-batching behaviour under the same window.
class LciAggregationE2E : public ::testing::TestWithParam<const char*> {};

TEST_P(LciAggregationE2E, BackpressuredMixedTrafficDeliversExactly) {
  StackOptions options;
  options.parcelport = GetParam();
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.fabric_rails = 4;
  auto runtime = amtnet::make_runtime(options);
  e2e::counter.store(0);
  constexpr int kSmall = 300;
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&, r] {
      for (int i = 1; i <= kSmall; ++i) {
        amt::here().apply<&e2e::bump>(1 - r, static_cast<std::uint64_t>(i));
      }
    });
  }
  Latch done(1);
  bool large_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 2; ++round) {
      auto a = e2e::make_chunk(2048, round + 1);
      auto b = e2e::make_chunk(2048, round + 2);
      const std::uint64_t expected = e2e::ordered_digest(a, b, a, b);
      ok = ok &&
           amt::here().async<&e2e::ordered_digest>(1, a, b, a, b).get() ==
               expected;
    }
    large_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(large_ok);
  const std::uint64_t expected_small = 2ull * kSmall * (kSmall + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected_small; },
      std::chrono::milliseconds(20000)));
  runtime->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllLciVariants, LciAggregationE2E,
    ::testing::Values("lci_psr_cq_pin_agg_i_block16",
                      "lci_psr_cq_mt_agg_i_block16",
                      "lci_psr_sy_pin_agg_i_block16",
                      "lci_psr_sy_mt_agg_i_block16",
                      "lci_sr_cq_pin_agg_i_block16",
                      "lci_sr_cq_mt_agg_i_block16",
                      "lci_sr_sy_pin_agg_i_block16",
                      "lci_sr_sy_mt_agg_i_block16",
                      // regression rows: a tighter window, and aggregation
                      // off (small caps and ages: AggregatorTest)
                      "lci_psr_cq_mt_agg_i_block8",
                      "lci_psr_cq_mt_i_block16"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

#ifndef AMTNET_TELEMETRY_DISABLED
namespace e2e {

// Parcel 1 does not finish executing until the test lets it go.
std::atomic<bool> hold_first{false};

void held_bump(std::uint64_t amount) {
  if (amount == 1) {
    while (hold_first.load()) std::this_thread::yield();
  }
  counter.fetch_add(amount);
}

}  // namespace e2e

TEST(LciAggregation, BackpressuredFloodActuallyBatches) {
  // The e2e sweep above proves delivery is exact; this pins that batching
  // *happened*: under a tight block window a one-way flood must coalesce
  // parcels into batch frames, and the flush-trigger counters must account
  // for every flush. The aggregator buffers a parcel only while its
  // destination is backpressured, i.e. while earlier parcels hold their
  // admission credits (a credit returns once its parcel has executed). So
  // the receiver holds the first parcel's execution until a batch has
  // left, and the flood meets backpressure in every run instead of only
  // when the receiver happens to fall behind.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_agg_i_block8";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);
  e2e::counter.store(0);
  e2e::hold_first.store(true);
  constexpr int kParcels = 600;
  runtime->locality(0).spawn([&] {
    for (int i = 1; i <= kParcels; ++i) {
      amt::here().apply<&e2e::held_bump>(1, static_cast<std::uint64_t>(i));
    }
  });
  const bool batched_while_held = testutil::spin_until(
      [&] {
        return runtime->telemetry().snapshot().counter(
                   "pplci/loc0/agg_batched") > 0;
      },
      std::chrono::milliseconds(20000));
  e2e::hold_first.store(false);
  ASSERT_TRUE(batched_while_held)
      << "nothing was batched while the first parcel held its credit";
  const std::uint64_t expected = 1ull * kParcels * (kParcels + 1) / 2;
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == expected; },
      std::chrono::milliseconds(20000)));
  const auto snap = runtime->telemetry().snapshot();
  const std::uint64_t batched = snap.counter("pplci/loc0/agg_batched");
  const std::uint64_t flushes = snap.counter("pplci/loc0/agg_flushes_size") +
                                snap.counter("pplci/loc0/agg_flushes_stall") +
                                snap.counter("pplci/loc0/agg_flushes_age") +
                                snap.counter("pplci/loc0/agg_flushes_idle");
  EXPECT_GT(batched, 0u) << "no parcel was ever coalesced under backpressure";
  EXPECT_GT(flushes, 0u);
  EXPECT_GE(batched, flushes) << "a flush carried zero parcels";
  runtime->stop();
}
#endif  // AMTNET_TELEMETRY_DISABLED

namespace e2e {

// Mirrors the bench harness ping signature (bench/harness.cpp lat_ping) so
// the threshold arithmetic below measures the same envelope fig7 sweeps.
void sized_sink(std::uint32_t, std::uint32_t, std::vector<std::uint8_t>) {
  counter.fetch_add(1);
}

}  // namespace e2e

#ifndef AMTNET_TELEMETRY_DISABLED
TEST(LciFastpathThreshold, Fig7StraddlePayloadsLandOnOppositeSides) {
  // fig7's straddle points assume frame = payload + 53 B (action id +
  // promise id + two u32 args + the inline-vector prefix + the 24 B frame
  // header) against the 8192 B cap: payload 8131 must ride the fast path,
  // payload 8147 must fall back. If the envelope or frame layout ever
  // changes size, this pins the drift so the bench comment gets fixed too.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);

  const auto counters = [&] {
    const auto snap = runtime->telemetry().snapshot();
    return std::array<std::uint64_t, 2>{
        snap.counter("pplci/loc0/fastpath_hits"),
        snap.counter("pplci/loc0/fastpath_fallbacks")};
  };

  const auto send_sized = [&](std::size_t payload_size) {
    e2e::counter.store(0);
    runtime->locality(0).spawn([&, payload_size] {
      amt::here().apply<&e2e::sized_sink>(
          1, std::uint32_t{0}, std::uint32_t{0},
          std::vector<std::uint8_t>(payload_size, 0x7f));
    });
    ASSERT_TRUE(testutil::spin_until(
        [&] { return e2e::counter.load() == 1; }));
  };

  const auto before = counters();
  send_sized(8192 - 53 - 8);  // frame at threshold - 8: fast path
  const auto under = counters();
  EXPECT_EQ(under[0], before[0] + 1) << "sub-threshold payload missed the "
                                        "fast path — envelope size drifted";
  EXPECT_EQ(under[1], before[1]);
  send_sized(8192 - 53 + 8);  // frame at threshold + 8: fallback
  const auto over = counters();
  EXPECT_EQ(over[0], under[0]);
  EXPECT_EQ(over[1], under[1] + 1) << "over-threshold payload rode the "
                                      "fast path — envelope size drifted";
  runtime->stop();
}
#endif  // AMTNET_TELEMETRY_DISABLED

TEST(LciPipeline, OutOfOrderWithJitterChaos) {
  // Rails + per-packet jitter: aggressively shuffles piece arrival order.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.fabric_rails = 4;
  amt::RuntimeConfig config = amtnet::make_runtime_config(options);
  config.fabric.jitter_us = 5.0;
  amt::Runtime runtime(config, amtnet::default_parcelport_factory());
  runtime.start();
  Latch done(1);
  bool all_ok = false;
  runtime.locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t round = 0; round < 4; ++round) {
      auto a = e2e::make_chunk(3000, round + 11);
      auto b = e2e::make_chunk(1024, round + 22);
      auto c = e2e::make_chunk(4096, round + 33);
      auto d = e2e::make_chunk(2048, round + 44);
      const std::uint64_t expected = e2e::ordered_digest(a, b, c, d);
      const std::uint64_t got =
          amt::here().async<&e2e::ordered_digest>(1, a, b, c, d).get();
      ok = ok && got == expected;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime.locality(0).scheduler());
  EXPECT_TRUE(all_ok);
  runtime.stop();
}

#ifndef AMTNET_TELEMETRY_DISABLED
TEST(LciPipeline, SteadyStateSendAllocatesNoConnectionsOrSyncs) {
  // The zero-allocation acceptance check: after a warm-up burst has stocked
  // the connection/synchronizer freelists, further sends must be served
  // entirely from the pools — the alloc counters stop moving while the
  // reuse counters keep climbing. fpoff: with the small-parcel fast path on
  // (the default) these pings would bypass connections entirely, which the
  // sibling test below pins down.
  StackOptions options;
  options.parcelport = "lci_psr_sy_mt_fpoff_i";  // sy: exercises the sync pool
  options.num_localities = 2;
  options.threads_per_locality = 2;
  auto runtime = amtnet::make_runtime(options);

  const auto pools = [&] {
    const auto snap = runtime->telemetry().snapshot();
    const auto both = [&snap](const char* leaf) {
      return snap.counter(std::string("pplci/loc0/") + leaf) +
             snap.counter(std::string("pplci/loc1/") + leaf);
    };
    return std::array<std::uint64_t, 4>{
        both("conn_allocs"), both("conn_reuses"), both("sync_allocs"),
        both("sync_reuses")};
  };

  // Warm-up: a concurrent burst in both directions grows the pools past any
  // steady-state in-flight count.
  e2e::counter.store(0);
  constexpr int kBurst = 48;
  for (amt::Rank r = 0; r < 2; ++r) {
    runtime->locality(r).spawn([&] {
      for (int i = 0; i < kBurst; ++i) {
        amt::here().apply<&e2e::bump>(1 - amt::here().rank(), 1);
      }
    });
  }
  ASSERT_TRUE(testutil::spin_until(
      [&] { return e2e::counter.load() == 2 * kBurst; },
      std::chrono::milliseconds(10000)));

  const auto warm = pools();

  // Steady state: sequential request/response round trips.
  Latch done(1);
  bool all_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t i = 0; i < 128; ++i) {
      ok = ok && amt::here().async<&e2e::echo_add>(1, i).get() == i + 1;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  ASSERT_TRUE(all_ok);

  const auto after = pools();
  EXPECT_EQ(after[0], warm[0]) << "steady-state sends allocated connections";
  EXPECT_GT(after[1], warm[1]) << "connections were not recycled";
  EXPECT_EQ(after[2], warm[2]) << "steady-state sends allocated synchronizers";
  EXPECT_GT(after[3], warm[3]) << "synchronizers were not recycled";
  runtime->stop();
}

TEST(LciPipeline, FastpathSendsBypassConnectionsAndSyncs) {
  // With the fast path on (the default), small round trips never acquire a
  // ReceiverConnection or a synchronizer at all: every pool counter stays
  // frozen while the fastpath hit counter accounts for each parcel.
  StackOptions options;
  options.parcelport = "lci_psr_sy_mt_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  auto runtime = amtnet::make_runtime(options);

  const auto counters = [&] {
    const auto snap = runtime->telemetry().snapshot();
    const auto both = [&snap](const char* leaf) {
      return snap.counter(std::string("pplci/loc0/") + leaf) +
             snap.counter(std::string("pplci/loc1/") + leaf);
    };
    return std::array<std::uint64_t, 6>{
        both("conn_allocs"),     both("conn_reuses"),
        both("sync_allocs"),     both("sync_reuses"),
        both("fastpath_hits"),   both("fastpath_fallbacks")};
  };

  // One round trip first so startup traffic is out of the way.
  Latch warmed(1);
  runtime->locality(0).spawn([&] {
    (void)amt::here().async<&e2e::echo_add>(1, std::uint64_t{0}).get();
    warmed.count_down();
  });
  warmed.wait(runtime->locality(0).scheduler());
  const auto warm = counters();

  constexpr std::uint64_t kRounds = 128;
  Latch done(1);
  bool all_ok = false;
  const std::uint64_t allocs_before = testutil::heap_allocations();
  runtime->locality(0).spawn([&] {
    bool ok = true;
    for (std::uint64_t i = 0; i < kRounds; ++i) {
      ok = ok && amt::here().async<&e2e::echo_add>(1, i).get() == i + 1;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  const std::uint64_t allocs = testutil::heap_allocations() - allocs_before;
  ASSERT_TRUE(all_ok);

  const auto after = counters();
  EXPECT_EQ(after[0], warm[0]) << "fast-path sends acquired connections";
  EXPECT_EQ(after[1], warm[1]) << "fast-path sends reused connections";
  EXPECT_EQ(after[2], warm[2]) << "fast-path sends allocated synchronizers";
  EXPECT_EQ(after[3], warm[3]) << "fast-path sends reused synchronizers";
  // Request + response per round, both small enough for the fast path.
  EXPECT_GE(after[4] - warm[4], 2 * kRounds) << "parcels missed the fast path";
  EXPECT_EQ(after[5], warm[5]) << "small parcels fell back off the fast path";
  // Steady state, every thread counted: the hand-offs between layers
  // (tasks, callbacks, queue nodes) allocate nothing, so what remains per
  // parcel is its own data — archive buffer, wire payload, request state.
  const double per_parcel =
      static_cast<double>(allocs) / static_cast<double>(2 * kRounds);
  std::printf("heap allocations per fast-path parcel: %.2f\n", per_parcel);
  EXPECT_LE(per_parcel, 4.0);
  runtime->stop();
}

namespace recycle {
std::atomic<std::uint64_t> received{0};
void sink(std::uint64_t) { received.fetch_add(1, std::memory_order_release); }
}  // namespace recycle

TEST(LciPipeline, SteadySimFloodRecyclesWirePayloads) {
  // One-way 8 B applies on the sim loopback, the amtnet_bench flood_8b
  // config with a 16-parcel window, every thread counted. The sim backend
  // copies each datagram into a vector on the sender, and the receiving
  // worker used to free it. With the recycled buffer cache that vector
  // comes back to the sender instead: 2.00 blocks per parcel without the
  // cache, 1.00 with it.
  StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 2;
  options.threads_per_locality = 1;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);

  constexpr std::uint64_t kWindow = 16;
  constexpr std::uint64_t kParcels = 4096;
  std::uint64_t sent = 0;
  const auto flood = [&] {
    Latch done(1);
    runtime->locality(0).spawn([&] {
      amt::Locality& here = amt::here();
      const auto received = [] {
        return recycle::received.load(std::memory_order_acquire);
      };
      for (std::uint64_t i = 0; i < kParcels; ++i) {
        here.scheduler().wait_until(
            [&] { return sent - received() < kWindow; });
        ++sent;
        here.apply<&recycle::sink>(1, i);
      }
      here.scheduler().wait_until([&] { return received() == sent; });
      done.count_down();
    });
    done.wait(runtime->locality(0).scheduler());
  };
  flood();  // warm-up: pools, queue nodes and the cache reach steady state
  const std::uint64_t allocs_before = testutil::heap_allocations();
  flood();
  const std::uint64_t allocs = testutil::heap_allocations() - allocs_before;
  runtime->stop();

  const double per_parcel =
      static_cast<double>(allocs) / static_cast<double>(kParcels);
  std::printf("heap allocations per sim flood parcel: %.2f\n", per_parcel);
  EXPECT_LE(per_parcel, 1.1);
}

TEST(LciPipeline, StopWithQueuedSenderCompletionsFreesConnections) {
  // Teardown ownership, checked by LeakSanitizer (the asan CI job runs this
  // row with detect_leaks=1): the sender's only worker stays inside the
  // flooding task, so nothing polls its completion queue and every
  // rendezvous connection is still waiting for its completions when the
  // runtime stops. The parcelport must free those connections too, not
  // only the recycled ones in its pools.
  StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 2;
  options.threads_per_locality = 1;
  auto runtime = amtnet::make_runtime(options);

  constexpr std::uint64_t kParcels = 16;
  constexpr std::uint64_t kValues = 2048;  // 16 KiB: over the zero-copy
                                           // threshold, a connection each
  e2e::large_checksum.store(0);
  std::atomic<bool> stopping{false};
  runtime->locality(0).spawn([&] {
    for (std::uint64_t i = 0; i < kParcels; ++i) {
      amt::here().apply<&e2e::consume>(1,
                                       std::vector<std::uint64_t>(kValues, 1));
    }
    while (!stopping.load()) std::this_thread::yield();
    // Return only once stop() has told the scheduler to quit, so the worker
    // never reaches its background work again.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  const bool delivered = testutil::spin_until(
      [&] { return e2e::large_checksum.load() == kParcels * kValues; },
      std::chrono::milliseconds(10000));
  const std::int64_t unfinished =
      runtime->telemetry().snapshot().gauge("pplci/loc0/send_queue_depth");
  stopping.store(true);
  runtime->stop();
  EXPECT_TRUE(delivered);
  EXPECT_GT(unfinished, 0) << "the sender's completions were drained";
}
TEST(LciPipeline, HeaderQueuedBehindAFrameFloodIsNotADuplicate) {
  // Header messages and frames share one per-channel seq space, but a frame
  // is checked inline in progress context while a header message waits in
  // the remote-put queue until a worker polls it. Here the receiver's only
  // worker is held while its progress thread checks more frames than the
  // seq tracker's window, all stamped after one header message; that
  // header, checked last, is a straggler, not a duplicate.
  StackOptions options;
  options.parcelport = "lci_psr_cq_pin_i";
  options.num_localities = 2;
  options.threads_per_locality = 1;
  options.platform = "loopback";
  auto runtime = amtnet::make_runtime(options);

  constexpr std::uint64_t kFrames = amt::HeaderSeqTracker::kWindow + 4096;
  constexpr std::uint64_t kValues = 2048;  // 16 KiB: a header message
  e2e::counter.store(0);
  e2e::large_checksum.store(0);
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  runtime->locality(1).spawn([&] {
    held.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  ASSERT_TRUE(testutil::spin_until([&] { return held.load(); },
                                   std::chrono::milliseconds(10000)));
  runtime->locality(0).spawn([&] {
    amt::here().apply<&e2e::consume>(1,
                                     std::vector<std::uint64_t>(kValues, 1));
    for (std::uint64_t i = 0; i < kFrames; ++i) {
      amt::here().apply<&e2e::bump>(1, std::uint64_t{1});
    }
  });
  // Every frame has passed the receiver's seq check once its NIC has taken
  // the header message and all the frames.
  const bool frames_checked = testutil::spin_until(
      [&] {
        return runtime->telemetry().snapshot().counter(
                   "fabric/nic1/packets_received") >= kFrames + 1;
      },
      std::chrono::milliseconds(30000));
  release.store(true);
  EXPECT_TRUE(frames_checked);
  EXPECT_TRUE(testutil::spin_until(
      [&] {
        return e2e::counter.load() == kFrames &&
               e2e::large_checksum.load() == kValues;
      },
      std::chrono::milliseconds(30000)));
  runtime->stop();
}
#endif  // AMTNET_TELEMETRY_DISABLED

// ---------------- cross-locality scaling sanity ----------------

TEST(ParcelportScaling, FourLocalitiesAllToAll) {
  for (const char* name : {"mpi_i", "lci_psr_cq_pin_i"}) {
    StackOptions options;
    options.parcelport = name;
    options.num_localities = 4;
    options.threads_per_locality = 1;
    auto runtime = amtnet::make_runtime(options);
    e2e::counter.store(0);
    for (amt::Rank r = 0; r < 4; ++r) {
      runtime->locality(r).spawn([&] {
        for (amt::Rank dst = 0; dst < 4; ++dst) {
          amt::here().apply<&e2e::bump>(dst, 1);
        }
      });
    }
    ASSERT_TRUE(testutil::spin_until(
        [&] { return e2e::counter.load() == 16; },
        std::chrono::milliseconds(10000)))
        << name << " delivered " << e2e::counter.load() << "/16";
    runtime->stop();
  }
}

// ---------------- header integrity: CRC + generation tracking ----------

TEST(WireHeaderDeathTest, CorruptedHeaderFailsFastAtDecode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(64, {9000});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 77, /*seq=*/3, wire);
  // Flip one payload bit: the decode-time CRC must catch it and abort
  // rather than deserialize garbage sizes.
  wire[wire.size() / 2] ^= std::byte{0x10};
  EXPECT_DEATH(amt::decode_header(wire.data(), wire.size()),
               "wire header CRC mismatch");
}

TEST(WireHeaderDeathTest, TruncatedHeaderFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<std::byte> wire(8, std::byte{0});
  EXPECT_DEATH(amt::decode_header(wire.data(), wire.size()),
               "wire header truncated");
}

TEST(WireHeaderDeathTest, WrappingMainSizeFailsFast) {
  // A CRC-valid header whose piggybacked main size wraps past 2^64 back
  // inside the message must be rejected explicitly, not handed to a copy.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(16, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  ASSERT_TRUE(plan.piggy_main);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 5, /*seq=*/0, wire);
  const std::uint64_t wrapping = ~std::uint64_t{0} - 7;
  std::memcpy(wire.data() + offsetof(amt::WireHeader, main_size), &wrapping,
              sizeof(wrapping));
  repatch_crc(wire, offsetof(amt::WireHeader, crc));
  EXPECT_DEATH(amt::decode_header(wire.data(), wire.size()),
               "wire header main chunk overruns message");
}

TEST(WireHeaderDeathTest, OversizedMainSizeFailsFast) {
  // A CRC-valid header declaring a follow-up main chunk above
  // kMaxPieceBytes is rejected at decode, before either parcelport sizes a
  // receive buffer from it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(16, {});
  const auto plan = amt::HeaderPlan::decide(msg, 8192);
  std::vector<std::byte> wire;
  amt::encode_header(msg, plan, 5, /*seq=*/0, wire);
  const std::uint8_t not_piggybacked = 0;
  std::memcpy(wire.data() + offsetof(amt::WireHeader, piggy_main),
              &not_piggybacked, sizeof(not_piggybacked));
  const std::uint64_t oversized = amt::kMaxPieceBytes + 1;
  std::memcpy(wire.data() + offsetof(amt::WireHeader, main_size), &oversized,
              sizeof(oversized));
  repatch_crc(wire, offsetof(amt::WireHeader, crc));
  EXPECT_DEATH(amt::decode_header(wire.data(), wire.size()),
               "wire header main_size 1073741825 is above the 1073741824 "
               "byte bound");
}

TEST(TransmissionChunkDeathTest, MoreSizesThanDeclaredFailsFast) {
  // A non-piggybacked transmission chunk arrives as its own message, sized
  // by the peer. One holding more sizes than the header's num_zchunks would
  // index past the receiver's zero-copy slots.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(0, {9000, 9000, 9000});
  const auto tchunk = msg.make_tchunk();
  EXPECT_DEATH(amt::parse_tchunk(tchunk.data(), tchunk.size(), 2),
               "transmission chunk of 24 bytes does not hold the 2 zero-copy "
               "chunk sizes");
}

TEST(TransmissionChunkDeathTest, OversizedZeroCopyChunkFailsFast) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto msg = make_msg(0, {9000, 9000});
  auto tchunk = msg.make_tchunk();
  const std::uint64_t oversized = amt::kMaxPieceBytes + 1;
  std::memcpy(tchunk.data() + sizeof(std::uint64_t), &oversized,
              sizeof(oversized));
  EXPECT_DEATH(amt::parse_tchunk(tchunk.data(), tchunk.size(), 2),
               "zero-copy chunk 1 declares 1073741825 bytes, above the "
               "1073741824 byte bound");
}

TEST(HeaderSeqTracker, AcceptsMonotonicRejectsDuplicates) {
  amt::HeaderSeqTracker tracker;
  for (std::uint16_t seq = 0; seq < 200; ++seq) {
    EXPECT_TRUE(tracker.accept(seq)) << "fresh seq " << seq;
  }
  EXPECT_FALSE(tracker.accept(199));
  EXPECT_FALSE(tracker.accept(180));
  EXPECT_TRUE(tracker.accept(200));
}

TEST(HeaderSeqTracker, ToleratesReorderingWithinWindow) {
  amt::HeaderSeqTracker tracker;
  // Multi-rail style arrival order: newest first, stragglers after.
  EXPECT_TRUE(tracker.accept(10));
  EXPECT_TRUE(tracker.accept(8));
  EXPECT_TRUE(tracker.accept(9));
  EXPECT_FALSE(tracker.accept(8));  // straggler arriving twice = duplicate
  EXPECT_TRUE(tracker.accept(11));
  EXPECT_FALSE(tracker.accept(10));
}

TEST(HeaderSeqTracker, AcceptsAStragglerFarBehindExactlyOnce) {
  // A sender descheduled between taking its seq and posting lets the other
  // senders move the flood tens of thousands of generations on; its parcel
  // is a straggler, not a duplicate. (The earlier 64-bit bitmap rejected
  // anything 2^15 behind as stale and aborted such floods.)
  amt::HeaderSeqTracker tracker;
  constexpr std::uint32_t kLate = 5;
  constexpr std::uint32_t kNever = 7;
  for (std::uint32_t seq = 0; seq <= 40000; ++seq) {
    if (seq == kLate || seq == kNever) continue;
    ASSERT_TRUE(tracker.accept(seq)) << "generation " << seq;
  }
  EXPECT_TRUE(tracker.accept(kLate));   // 39995 behind: a straggler
  EXPECT_FALSE(tracker.accept(kLate));  // its second copy is a duplicate
  EXPECT_FALSE(tracker.accept(1000));   // duplicate deep inside the window
  constexpr std::uint32_t kWindow = amt::HeaderSeqTracker::kWindow;
  for (std::uint32_t seq = 40001; seq <= kNever + kWindow; ++seq) {
    ASSERT_TRUE(tracker.accept(seq)) << "generation " << seq;
  }
  EXPECT_FALSE(tracker.accept(kNever));  // past the window: presumed stale
}

TEST(HeaderSeqTracker, LongFloodRejectsStaleDuplicateAtTheOldU16Wrap) {
  // Regression for the 16-bit tracker: after 2^16 generations, a stale
  // duplicate of an early seq aliased onto a small *forward* delta
  // ((2 - 0xFFFE) mod 2^16 = 4) and was accepted — a double dispatch on any
  // flood longer than 65536 parcels. The 32-bit tracker must classify it as
  // epoch-stale and reject, while the flood itself keeps flowing.
  amt::HeaderSeqTracker tracker;
  for (std::uint32_t seq = 0; seq <= 0xFFFEu; ++seq) {
    ASSERT_TRUE(tracker.accept(seq)) << "generation " << seq;
  }
  EXPECT_FALSE(tracker.accept(2));        // pre-fix: seen as 4 ahead, accepted
  EXPECT_FALSE(tracker.accept(0xFFFEu));  // plain in-window duplicate
  EXPECT_TRUE(tracker.accept(0xFFFFu));   // the counter no longer wraps here
  EXPECT_TRUE(tracker.accept(0x10000u));
  EXPECT_TRUE(tracker.accept(0x10001u));
}

TEST(HeaderSeqTracker, SurvivesTheFullU32Wraparound) {
  amt::HeaderSeqTracker tracker;
  // Walk highest_ to just below the 32-bit wrap (each jump lands inside the
  // forward half-range, so all three are "newer")...
  ASSERT_TRUE(tracker.accept(0x60000000u));
  ASSERT_TRUE(tracker.accept(0xC0000000u));
  ASSERT_TRUE(tracker.accept(0xFFFFFF00u));
  // ...then cross the wrap one generation at a time.
  for (std::uint32_t seq = 0xFFFFFF01u; seq != 8; ++seq) {
    ASSERT_TRUE(tracker.accept(seq)) << "generation " << seq;
  }
  EXPECT_FALSE(tracker.accept(0xFFFFFFFFu));  // duplicate from before the wrap
  EXPECT_FALSE(tracker.accept(4));            // duplicate from after it
  EXPECT_TRUE(tracker.accept(8));
}

// ---------------- LCI follow-up tag counter wraparound ----------------

#include "parcelport_lci/parcelport_lci.hpp"

TEST(LciTagWraparound, FollowupsSurviveThe32BitTagWrap) {
  // Position both tag counters just below 2^32 so follow-up tag ranges are
  // allocated across the wrap mid-test. A range that started at the reserved
  // header tag 0 — or wrapped through it — would collide follow-up pieces
  // with sr/psr headers; the receiver-side tag routing must also stay
  // consistent across the restart.
  StackOptions options;
  options.parcelport = "lci_psr_cq_mt_i";
  options.num_localities = 2;
  options.threads_per_locality = 2;
  options.platform = "loopback";
  options.zero_copy_threshold = 1024;  // 4 KiB vectors become zchunks
  auto runtime = amtnet::make_runtime(options);
  for (amt::Rank r = 0; r < 2; ++r) {
    auto* port = dynamic_cast<pplci::LciParcelport*>(
        runtime->locality(r).parcelport());
    ASSERT_NE(port, nullptr);
    port->set_next_tag((1ull << 32) - 25);
  }
  Latch done(1);
  bool all_ok = false;
  runtime->locality(0).spawn([&] {
    bool ok = true;
    // 2 zchunk tags per round trip: 30 rounds sweep the counter from
    // 2^32-25 through the wrap and out the other side.
    for (int round = 0; round < 30; ++round) {
      std::vector<double> a(512, double(round)), b(512, 2.0);
      const double got = amt::here().async<&e2e::dot>(1, a, b).get();
      ok = ok && got == 512.0 * 2.0 * round;
    }
    all_ok = ok;
    done.count_down();
  });
  done.wait(runtime->locality(0).scheduler());
  EXPECT_TRUE(all_ok) << "a parcel was lost or corrupted across the tag wrap";
  runtime->stop();
}
