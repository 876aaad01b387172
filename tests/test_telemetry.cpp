// Tests for the telemetry subsystem: counter/gauge exactness under
// concurrency, histogram bucket maths and percentile bounds, registry
// find-or-create and snapshot aggregation, the sampled timers (rate, no
// aliasing with call patterns, the kill switch), exporters (CSV/JSON), and
// the Chrome trace recorder (emitted JSON must actually parse).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace {

// ---- minimal recursive-descent JSON validator -----------------------------
// Just enough JSON to verify well-formedness of the emitted documents; no
// value extraction. Returns false on any syntax error or trailing garbage.

class JsonValidator {
 public:
  explicit JsonValidator(std::string text) : text_(std::move(text)) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    if (!consume('{')) return false;
    skip_ws();
    if (peek() == '}') return consume('}');
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        consume(',');
        continue;
      }
      return consume('}');
    }
  }

  bool array() {
    if (!consume('[')) return false;
    skip_ws();
    if (peek() == ']') return consume(']');
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        consume(',');
        continue;
      }
      return consume(']');
    }
  }

  bool string() {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') return consume('"');
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
      ++pos_;
    }
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string text_;
  std::size_t pos_ = 0;
};

}  // namespace

#ifndef AMTNET_TELEMETRY_DISABLED

// ---------------- Counter / Gauge ----------------

TEST(Counter, ConcurrentAddsAreExact) {
  telemetry::Counter counter;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, AddN) {
  telemetry::Counter counter;
  counter.add(41);
  counter.add();
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, AddSubBalancesAcrossThreads) {
  telemetry::Gauge gauge;
  constexpr unsigned kThreads = 4;
  constexpr int kIters = 50000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kIters; ++i) {
        gauge.add(3);
        gauge.sub(2);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), static_cast<std::int64_t>(kThreads) * kIters);
}

// ---------------- Histogram bucket maths ----------------

TEST(Histogram, SmallValuesBucketExactly) {
  for (std::uint64_t v = 0; v < telemetry::Histogram::kSub; ++v) {
    EXPECT_EQ(telemetry::Histogram::bucket_index(v), v);
    EXPECT_EQ(telemetry::Histogram::bucket_upper(
                  telemetry::Histogram::bucket_index(v)),
              v);
  }
}

TEST(Histogram, BucketUpperBoundsContainValue) {
  // bucket_upper(bucket_index(v)) must be >= v and within the ~1/32 relative
  // error HDR bucketing promises, across the whole 64-bit range.
  for (std::uint64_t v : {32ull, 33ull, 63ull, 64ull, 100ull, 1000ull,
                          4095ull, 4096ull, 65535ull, 1000000ull,
                          0x7fffffffffffffffull, 0xffffffffffffffffull}) {
    const unsigned index = telemetry::Histogram::bucket_index(v);
    ASSERT_LT(index, telemetry::Histogram::kBuckets);
    const std::uint64_t upper = telemetry::Histogram::bucket_upper(index);
    EXPECT_GE(upper, v) << "v=" << v;
    // upper < v + v/32 + 1 (one sub-bucket width above v).
    EXPECT_LE(upper - v, v / telemetry::Histogram::kSub + 1) << "v=" << v;
  }
}

TEST(Histogram, BucketEdgesRoundTrip) {
  // Every bucket's upper bound must map back to the same bucket.
  for (unsigned index = 0; index < telemetry::Histogram::kBuckets; ++index) {
    EXPECT_EQ(telemetry::Histogram::bucket_index(
                  telemetry::Histogram::bucket_upper(index)),
              index)
        << "index=" << index;
  }
}

TEST(Histogram, CountSumMax) {
  telemetry::Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.percentile(0.5), 0u);
  histogram.record(7);
  histogram.record(100);
  histogram.record(3);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(), 110u);
  EXPECT_EQ(histogram.max(), 100u);
}

TEST(Histogram, PercentileBounds) {
  telemetry::Histogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.record(v);
  const std::uint64_t p50 = histogram.percentile(0.50);
  const std::uint64_t p90 = histogram.percentile(0.90);
  const std::uint64_t p99 = histogram.percentile(0.99);
  // Reported quantiles are bucket upper bounds: never below the true value,
  // never more than one sub-bucket (~3%) above it.
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 500u + 500u / 32 + 1);
  EXPECT_GE(p90, 900u);
  EXPECT_LE(p90, 900u + 900u / 32 + 1);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 990u + 990u / 32 + 1);
  // The top quantile is clamped to the observed maximum.
  EXPECT_EQ(histogram.percentile(1.0), 1000u);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
}

TEST(Histogram, PercentileAccuracyUniform) {
  // Dense uniform distribution over ~4 decades: every reported quantile must
  // sit within one sub-bucket (1/32 ~ 3.2%) above the true order statistic.
  telemetry::Histogram histogram;
  constexpr std::uint64_t kN = 100000;
  for (std::uint64_t v = 1; v <= kN; ++v) histogram.record(v);
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const auto truth =
        static_cast<std::uint64_t>(q * static_cast<double>(kN));
    const std::uint64_t reported = histogram.percentile(q);
    EXPECT_GE(reported, truth) << "q=" << q;
    EXPECT_LE(reported, truth + truth / 32 + 1) << "q=" << q;
  }
}

TEST(Histogram, PercentileAccuracyHeavyTail) {
  // Three-mode latency-like mixture spanning four orders of magnitude
  // (1ms body, 100ms tail, one 10s outlier — in ns). The tail quantiles
  // must land on the right mode, not get smeared by the wide buckets
  // between modes.
  telemetry::Histogram histogram;
  constexpr std::uint64_t kBody = 1'000'000;
  constexpr std::uint64_t kTail = 100'000'000;
  constexpr std::uint64_t kOutlier = 10'000'000'000;
  for (int i = 0; i < 9900; ++i) histogram.record(kBody);
  for (int i = 0; i < 99; ++i) histogram.record(kTail);
  histogram.record(kOutlier);

  const std::uint64_t p50 = histogram.percentile(0.50);
  EXPECT_GE(p50, kBody);
  EXPECT_LE(p50, kBody + kBody / 32 + 1);
  // 9900 of 10000 samples are body: p99 still reports the body mode.
  const std::uint64_t p99 = histogram.percentile(0.99);
  EXPECT_GE(p99, kBody);
  EXPECT_LE(p99, kBody + kBody / 32 + 1);
  // p99.9 crosses into the 100ms tail mode.
  const std::uint64_t p999 = histogram.percentile(0.999);
  EXPECT_GE(p999, kTail);
  EXPECT_LE(p999, kTail + kTail / 32 + 1);
  // The top of the distribution is the exact observed outlier.
  EXPECT_EQ(histogram.percentile(1.0), kOutlier);
  EXPECT_EQ(histogram.max(), kOutlier);
}

TEST(Histogram, PercentilesSinglePassMatchesRepeatedQueries) {
  // The three-way percentiles() used by the load generator must agree with
  // the one-at-a-time API (same bucket walk, one pass).
  telemetry::Histogram histogram;
  std::uint64_t state = 2026;
  for (int i = 0; i < 20000; ++i) {
    // splitmix-style scramble: deterministic pseudo-uniform in [1, 2^20].
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    histogram.record((z ^ (z >> 31)) % (1u << 20) + 1);
  }
  const std::array<double, 3> qs = {0.5, 0.99, 0.999};
  std::array<std::uint64_t, 3> out = {0, 0, 0};
  histogram.percentiles(qs, out);
  EXPECT_EQ(out[0], histogram.percentile(0.5));
  EXPECT_EQ(out[1], histogram.percentile(0.99));
  EXPECT_EQ(out[2], histogram.percentile(0.999));
  EXPECT_LE(out[0], out[1]);
  EXPECT_LE(out[1], out[2]);
}

TEST(Histogram, ConcurrentRecordsKeepExactCount) {
  telemetry::Histogram histogram;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.record(t * 1000 + (i & 255));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
}

// ---------------- Sampled timers ----------------
//
// Each timed operation is kept with probability 1/kSamplePeriod, so a
// site's sample count over kTimed operations is Binomial(kTimed, 1/16):
// mean 2048, standard deviation ~44. kSampleSlack (25%, ~11 sd) makes a
// false failure practically impossible while a sampler that keeps a
// different share (every operation, none, 1 in 8 or 1 in 32) still fails.
// The same cases run a second time under AMTNET_TELEMETRY=0 (ctest
// test_telemetry_timing_off), where every expectation is zero samples.

constexpr std::uint64_t kTimed = 32 * 1024;
constexpr std::uint64_t kSampleSlack = kTimed / telemetry::kSamplePeriod / 4;

std::uint64_t expected_samples(std::uint64_t operations) {
  return telemetry::timing_enabled()
             ? operations / telemetry::kSamplePeriod
             : 0;
}

void expect_about(std::uint64_t samples, std::uint64_t expected,
                  std::uint64_t slack) {
  EXPECT_GE(samples + slack, expected);
  EXPECT_LE(samples, expected + slack);
}

TEST(ScopedTimer, RecordsIffTimingEnabled) {
  // AMTNET_TELEMETRY is read once per process. With timing on, a scope is
  // timed when sampled (one in kSamplePeriod); with it off, never.
  telemetry::Histogram histogram;
  for (std::uint64_t i = 0; i < kTimed; ++i) {
    telemetry::ScopedTimer timer(histogram);
  }
  const std::uint64_t expected = expected_samples(kTimed);
  expect_about(histogram.count(), expected, expected == 0 ? 0 : kSampleSlack);
}

TEST(Sampler, TwoAlternatingSitesBothKeepTheirShare) {
  // The aliasing guard: one per-thread "every 16th call" counter shared by
  // two alternating sites would hand every sample to one of them.
  telemetry::Histogram first;
  telemetry::Histogram second;
  for (std::uint64_t i = 0; i < kTimed; ++i) {
    { telemetry::ScopedTimer timer(first); }
    telemetry::record_since(second, telemetry::sample_start());
  }
  const std::uint64_t expected = expected_samples(kTimed);
  const std::uint64_t slack = expected == 0 ? 0 : kSampleSlack;
  expect_about(first.count(), expected, slack);
  expect_about(second.count(), expected, slack);
}

TEST(Sampler, EveryBurstPositionIsSampled) {
  // A sender issues parcels in bursts of 16: a per-site "every 16th call"
  // counter would time the same burst position forever.
  constexpr std::uint64_t kBursts = kTimed / telemetry::kSamplePeriod;
  std::array<std::uint64_t, telemetry::kSamplePeriod> per_position{};
  for (std::uint64_t burst = 0; burst < kBursts; ++burst) {
    for (auto& samples : per_position) samples += telemetry::sampled();
  }
  // Binomial(2048, 1/16) per position: mean 128, sd ~11.
  const std::uint64_t expected = expected_samples(kBursts);
  for (const std::uint64_t samples : per_position) {
    expect_about(samples, expected, expected / 2);
  }
}

TEST(Sampler, CountersStayExact) {
  telemetry::Counter counter;
  telemetry::Histogram histogram;
  for (std::uint64_t i = 0; i < kTimed; ++i) {
    telemetry::ScopedTimer timer(histogram);
    counter.add();
  }
  EXPECT_EQ(counter.value(), kTimed);
  const std::uint64_t expected = expected_samples(kTimed);
  expect_about(histogram.count(), expected, expected == 0 ? 0 : kSampleSlack);
}

TEST(Sampler, KillSwitchYieldsNoSamples) {
  if (telemetry::timing_enabled()) {
    GTEST_SKIP() << "runs under AMTNET_TELEMETRY=0 (test_telemetry_timing_off)";
  }
  for (std::uint64_t i = 0; i < kTimed; ++i) {
    ASSERT_FALSE(telemetry::sampled());
    ASSERT_EQ(telemetry::sample_start(), 0);
  }
}

TEST(Sampler, TimeCompletionWrapsOnlySampledOperations) {
  telemetry::Histogram histogram;
  int calls = 0;
  std::function<void()> done = [&calls] { ++calls; };
  telemetry::time_completion(histogram, 0, done);  // unsampled
  done();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(histogram.count(), 0u);

  const common::Nanos start = common::now_ns() - 1000;
  telemetry::time_completion(histogram, start, done);  // sampled
  done();
  EXPECT_EQ(calls, 2);
  ASSERT_EQ(histogram.count(), 1u);
  EXPECT_GE(histogram.sum(), 1000u);
}

// ---------------- Registry ----------------

TEST(Registry, FindOrCreateReturnsStableReferences) {
  telemetry::Registry registry;
  telemetry::Counter& a = registry.counter("layer/inst/events");
  telemetry::Counter& b = registry.counter("layer/inst/events");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5u);
  telemetry::Histogram& h1 = registry.histogram("layer/inst/lat_ns");
  telemetry::Histogram& h2 = registry.histogram("layer/inst/lat_ns");
  EXPECT_EQ(&h1, &h2);
  telemetry::Gauge& g1 = registry.gauge("layer/inst/depth");
  telemetry::Gauge& g2 = registry.gauge("layer/inst/depth");
  EXPECT_EQ(&g1, &g2);
}

TEST(Registry, SnapshotAggregatesAndFilters) {
  telemetry::Registry registry;
  registry.counter("fabric/nic0/packets_sent").add(10);
  registry.counter("fabric/nic1/packets_sent").add(32);
  registry.counter("fabric/nic0/bytes_sent").add(999);
  registry.gauge("minilci/dev0/cq_depth").add(4);
  telemetry::Histogram& histogram = registry.histogram("amt/loc0/ser_ns");
  for (std::uint64_t v = 1; v <= 100; ++v) histogram.record(v);

  const telemetry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("fabric/nic0/packets_sent"), 10u);
  EXPECT_EQ(snap.counter("no/such/metric"), 0u);
  EXPECT_EQ(snap.counter_sum("fabric/", "/packets_sent"), 42u);
  EXPECT_EQ(snap.gauge("minilci/dev0/cq_depth"), 4);
  const telemetry::HistogramSummary* summary =
      snap.histogram("amt/loc0/ser_ns");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->count, 100u);
  EXPECT_EQ(summary->sum, 5050u);
  EXPECT_EQ(summary->max, 100u);
  EXPECT_LE(summary->p50, summary->p90);
  EXPECT_LE(summary->p90, summary->p99);
  EXPECT_LE(summary->p99, summary->max);
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  telemetry::Registry registry;
  constexpr unsigned kThreads = 8;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.counter("shared/hot/counter").add();
        registry.histogram("shared/hot/hist").record(i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const telemetry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("shared/hot/counter"), kThreads * 1000u);
  ASSERT_NE(snap.histogram("shared/hot/hist"), nullptr);
  EXPECT_EQ(snap.histogram("shared/hot/hist")->count, kThreads * 1000u);
}

TEST(Registry, CsvExportHasHeaderAndRows) {
  telemetry::Registry registry;
  registry.counter("a/b/c").add(3);
  registry.histogram("a/b/h").record(10);
  const std::string csv = registry.snapshot().to_csv();
  EXPECT_NE(csv.find("name,kind,value,count,sum,max,p50,p90,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("a/b/c,counter,3"), std::string::npos);
  EXPECT_NE(csv.find("a/b/h,histogram"), std::string::npos);
}

TEST(Registry, JsonExportParses) {
  telemetry::Registry registry;
  registry.counter("a/b/c").add(3);
  registry.gauge("a/b/g").sub(7);
  registry.histogram("a/b/\"quoted\\name").record(10);  // exercises escaping
  const std::string json = registry.snapshot().to_json();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
}

// ---------------- Trace recorder ----------------

TEST(Trace, EmptyDumpIsValidJson) {
  telemetry::TraceRecorder recorder;
  const std::string json = recorder.dump_json();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  telemetry::TraceRecorder recorder;
  recorder.record("cat", "name", 'I');
  EXPECT_EQ(recorder.dump_json().find("\"cat\""), std::string::npos);
}

TEST(Trace, MultiThreadedEventsProduceParseableJson) {
  telemetry::TraceRecorder recorder;
  recorder.set_enabled(true);
  constexpr unsigned kThreads = 4;
  constexpr int kEvents = 500;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder] {
      for (int i = 0; i < kEvents; ++i) {
        recorder.record("test", "span", 'B');
        recorder.record("test", "span", 'E');
        recorder.record("test", "tick", 'I');
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::string json = recorder.dump_json();
  JsonValidator validator(json);
  ASSERT_TRUE(validator.valid());

  // All events fit in the rings (3*500 < 2^14), so nothing was dropped and
  // every recorded event must appear in the dump.
  EXPECT_EQ(recorder.dropped(), 0u);
  std::size_t begins = 0;
  for (std::size_t at = json.find("\"ph\":\"B\""); at != std::string::npos;
       at = json.find("\"ph\":\"B\"", at + 1)) {
    ++begins;
  }
  EXPECT_EQ(begins, static_cast<std::size_t>(kThreads) * kEvents);
}

TEST(Trace, DumpToFileRoundTrips) {
  telemetry::TraceRecorder recorder;
  recorder.set_enabled(true);
  {
    telemetry::TraceScope scope("test", "outer");
    recorder.record("test", "inner", 'I');
  }
  const std::string path = "test_telemetry_trace_out.json";
  ASSERT_TRUE(recorder.dump_json_to_file(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  std::remove(path.c_str());
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
  // The TraceScope above targets the global recorder, not this one, so only
  // the explicit record() must be present here.
  EXPECT_NE(json.find("\"inner\""), std::string::npos);
}

TEST(Trace, DumpsAccumulateAcrossCalls) {
  telemetry::TraceRecorder recorder;
  recorder.set_enabled(true);
  recorder.record("test", "first", 'I');
  EXPECT_NE(recorder.dump_json().find("\"first\""), std::string::npos);
  recorder.record("test", "second", 'I');
  const std::string json = recorder.dump_json();
  // A later dump contains both the already-drained and the new events.
  EXPECT_NE(json.find("\"first\""), std::string::npos);
  EXPECT_NE(json.find("\"second\""), std::string::npos);
}

#else  // AMTNET_TELEMETRY_DISABLED

// With telemetry compiled out, every primitive must exist, accept the full
// instrumented API, and observably do nothing.

TEST(TelemetryDisabled, PrimitivesAreNoOps) {
  telemetry::Counter counter;
  counter.add(42);
  EXPECT_EQ(counter.value(), 0u);
  telemetry::Gauge gauge;
  gauge.add(5);
  gauge.sub(1);
  EXPECT_EQ(gauge.value(), 0);
  telemetry::Histogram histogram;
  histogram.record(123);
  { telemetry::ScopedTimer timer(histogram); }
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_FALSE(telemetry::sampled());
  EXPECT_EQ(telemetry::sample_start(), 0);
  EXPECT_EQ(histogram.percentile(0.99), 0u);
}

TEST(TelemetryDisabled, RegistryHandsOutStubsAndEmptySnapshot) {
  telemetry::Registry registry;
  registry.counter("a/b/c").add(7);
  registry.histogram("a/b/h").record(9);
  registry.gauge("a/b/g").add(1);
  const telemetry::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("a/b/c"), 0u);
  EXPECT_EQ(snap.histogram("a/b/h"), nullptr);
  JsonValidator validator(snap.to_json());
  EXPECT_TRUE(validator.valid());
  EXPECT_FALSE(snap.to_csv().empty());
}

TEST(TelemetryDisabled, TraceIsInertButValid) {
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  recorder.set_enabled(true);
  EXPECT_FALSE(recorder.enabled());
  AMTNET_TRACE_SCOPE("test", "scope");
  AMTNET_TRACE_INSTANT("test", "instant");
  const std::string json = recorder.dump_json();
  JsonValidator validator(json);
  EXPECT_TRUE(validator.valid()) << json;
  EXPECT_EQ(recorder.dropped(), 0u);
}

#endif  // AMTNET_TELEMETRY_DISABLED
