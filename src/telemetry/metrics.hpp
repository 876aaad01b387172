// Low-overhead metric primitives: cache-line-sharded lock-free counters and
// gauges, log-bucketed (HDR-style) latency histograms with fixed memory, and
// the sampled timer every instrumentation timing site goes through.
//
// Cost model (why counters stay exact and timers are sampled):
//   * Counter::add / Gauge::add are one relaxed fetch_add — a locked
//     read-modify-write — on a per-thread shard, so concurrent threads do not
//     bounce one cache line, but each add still costs an atomic RMW.
//   * Histogram::record is two relaxed fetch_adds (bucket, sum) plus a CAS
//     loop for the max, on lines every recording thread shares (histograms
//     are not sharded).
//   * A timed operation also pays two steady_clock reads (30-50 ns each on
//     a 4-vCPU virtualised Xeon). Timing every parcel cost ~15% of the sim
//     8 B flood rate there. So timing sites are SAMPLED: sampled() picks one
//     operation in kSamplePeriod, by a per-thread xorshift draw that writes
//     no shared line, and an unsampled operation reads no clock and touches
//     no histogram. ScopedTimer, sample_start/record_since and
//     time_completion are the only ways instrumentation feeds a histogram
//     from the clock.
//   * Consequence for timing histograms: count() is a SAMPLE count (about
//     1/kSamplePeriod of the operations), sum()/count() is an unbiased mean,
//     percentiles are estimated from the samples, and max() is the maximum
//     over the samples only. Histograms recorded directly with record()
//     (batch sizes, the experiment driver's results) keep every value.
//     Counters are always exact.
//   * Reads (value(), percentile(), Registry::snapshot()) aggregate the
//     shards with relaxed loads: each returned number is a coherent 64-bit
//     value that existed at some instant during the call, counters are
//     monotonic, but two different metrics are not sampled at the same
//     instant. This "relaxed snapshot" semantic is the documented contract
//     for every stats() accessor built on top of the registry.
//
// Compiling with AMTNET_TELEMETRY_DISABLED replaces every type in this header
// with an inline no-op stub and sampled() with a constant false, so
// instrumented code compiles to nothing.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/cache.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"

namespace telemetry {

/// Runtime kill switch for *timing* instrumentation (clock reads). Counters
/// stay on: they cost no clock read. Reads AMTNET_TELEMETRY once: "0" /
/// "off" / "false" disable timers and tracing.
bool timing_enabled_from_env();
inline bool timing_enabled() {
  static const bool enabled = timing_enabled_from_env();
  return enabled;
}

/// Per-thread shard slot, assigned round-robin on first use so short-lived
/// thread bursts spread across shards.
inline unsigned shard_slot() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// One timed operation in kSamplePeriod reads the clock. A constant: the
/// histograms' sum/count stays an unbiased mean at any period, so there is
/// nothing to tune.
inline constexpr unsigned kSamplePeriod = 16;
static_assert((kSamplePeriod & (kSamplePeriod - 1)) == 0,
              "kSamplePeriod must be a power of two");

#ifndef AMTNET_TELEMETRY_DISABLED

namespace detail {
/// Per-thread sampler: a xorshift64 stream and the draw bound that keeps
/// one draw in kSamplePeriod (0, keeping none, under AMTNET_TELEMETRY=0).
struct SamplerState {
  std::uint64_t state = 0;  // 0 until the thread's first draw seeds it
  std::uint64_t bound = 0;
};
inline thread_local SamplerState sampler_state;

/// Seeds the calling thread's sampler with a distinct non-zero state.
inline void seed_sampler(SamplerState& sampler) noexcept {
  static std::atomic<std::uint64_t> next{0};
  std::uint64_t seed = next.fetch_add(1, std::memory_order_relaxed);
  sampler.state = common::splitmix64(seed) | 1;
  sampler.bound =
      timing_enabled() ? ~std::uint64_t{0} / kSamplePeriod + 1 : 0;
}
}  // namespace detail

/// Whether to time this operation: true with probability 1/kSamplePeriod,
/// drawn independently per call from a per-thread xorshift64 stream (no
/// shared cache line is written). Independent draws keep any call pattern
/// from aliasing with the period: two sites alternating on one thread, or
/// one site always hit at the same position of a burst, are each sampled at
/// the full rate. Always false under AMTNET_TELEMETRY=0, at the same cost.
inline bool sampled() noexcept {
  detail::SamplerState& sampler = detail::sampler_state;
  if (sampler.state == 0) [[unlikely]] detail::seed_sampler(sampler);
  std::uint64_t x = sampler.state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  sampler.state = x;
  return x < sampler.bound;
}

/// Monotonic counter, sharded across cache lines to avoid false sharing.
class Counter {
 public:
  static constexpr unsigned kShards = 8;  // power of two

  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_slot() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Relaxed aggregate of all shards (see header comment for semantics).
  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& shard : shards_) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::array<common::CachePadded<std::atomic<std::uint64_t>>, kShards>
      shards_{};
};

/// Signed up/down counter (e.g. queue depth). A concurrent reader may observe
/// a transiently negative aggregate while an add/sub pair straddles the read.
class Gauge {
 public:
  static constexpr unsigned kShards = 8;

  void add(std::int64_t n = 1) noexcept {
    shards_[shard_slot() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) noexcept { add(-n); }

  std::int64_t value() const noexcept {
    std::int64_t sum = 0;
    for (const auto& shard : shards_) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  std::array<common::CachePadded<std::atomic<std::int64_t>>, kShards>
      shards_{};
};

/// Log-bucketed histogram of non-negative 64-bit samples (typically
/// nanoseconds), HDR-style: 32 sub-buckets per power of two, giving a fixed
/// ~3% (1/32) relative error at ~15 KiB of memory, any value range, no
/// allocation after construction. Percentile queries return the upper bound
/// of the bucket containing the requested rank, so reported quantiles never
/// under-state the true value by more than one bucket width.
class Histogram {
 public:
  static constexpr unsigned kLog2Sub = 5;
  static constexpr unsigned kSub = 1u << kLog2Sub;  // 32
  // kSub exact buckets for v < kSub, then kSub sub-buckets per power of two
  // for exponents kLog2Sub..63.
  static constexpr unsigned kBuckets = kSub + (64 - kLog2Sub) * kSub;  // 1920

  /// Maps a sample to its bucket. Values < kSub map exactly (bucket == value).
  static constexpr unsigned bucket_index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<unsigned>(v);
    const unsigned top = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = top - kLog2Sub;
    return (top - kLog2Sub) * kSub +
           static_cast<unsigned>((v >> shift) & (kSub - 1)) + kSub;
  }

  /// Largest value mapping to `index` (the reported quantile value).
  static constexpr std::uint64_t bucket_upper(unsigned index) noexcept {
    if (index < kSub) return index;
    const unsigned group = index / kSub;  // >= 1
    const unsigned sub = index % kSub;
    const unsigned top = group + kLog2Sub - 1;
    const std::uint64_t low =
        (std::uint64_t{1} << top) + (std::uint64_t{sub} << (top - kLog2Sub));
    return low + (std::uint64_t{1} << (top - kLog2Sub)) - 1;
  }

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& bucket : buckets_) {
      n += bucket.load(std::memory_order_relaxed);
    }
    return n;
  }

  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Quantile `q` in [0, 1]: upper bound of the bucket holding the sample of
  /// rank ceil(q * count). Relaxed snapshot; returns 0 on an empty histogram.
  std::uint64_t percentile(double q) const noexcept {
    std::array<std::uint64_t, 3> out{};
    percentiles({{q, q, q}}, out);
    return out[0];
  }

  /// Computes several quantiles from ONE pass over a single bucket snapshot,
  /// so the returned set is mutually consistent.
  void percentiles(const std::array<double, 3>& qs,
                   std::array<std::uint64_t, 3>& out) const noexcept {
    std::array<std::uint64_t, kBuckets> snap;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      snap[i] = buckets_[i].load(std::memory_order_relaxed);
      total += snap[i];
    }
    out.fill(0);
    if (total == 0) return;
    const std::uint64_t observed_max = max();
    for (unsigned qi = 0; qi < qs.size(); ++qi) {
      const double q = qs[qi] < 0.0 ? 0.0 : (qs[qi] > 1.0 ? 1.0 : qs[qi]);
      std::uint64_t rank = static_cast<std::uint64_t>(q * total + 0.5);
      if (rank == 0) rank = 1;
      if (rank > total) rank = total;
      std::uint64_t cum = 0;
      for (unsigned i = 0; i < kBuckets; ++i) {
        cum += snap[i];
        if (cum >= rank) {
          const std::uint64_t upper = bucket_upper(i);
          out[qi] = upper < observed_max || observed_max == 0 ? upper
                                                             : observed_max;
          break;
        }
      }
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

#else  // AMTNET_TELEMETRY_DISABLED — every primitive is an inline no-op.

inline constexpr bool sampled() noexcept { return false; }

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
};

class Gauge {
 public:
  void add(std::int64_t = 1) noexcept {}
  void sub(std::int64_t = 1) noexcept {}
  std::int64_t value() const noexcept { return 0; }
};

class Histogram {
 public:
  static constexpr unsigned bucket_index(std::uint64_t) noexcept { return 0; }
  static constexpr std::uint64_t bucket_upper(unsigned) noexcept { return 0; }
  void record(std::uint64_t) noexcept {}
  std::uint64_t count() const noexcept { return 0; }
  std::uint64_t sum() const noexcept { return 0; }
  std::uint64_t max() const noexcept { return 0; }
  std::uint64_t percentile(double) const noexcept { return 0; }
  void percentiles(const std::array<double, 3>&,
                   std::array<std::uint64_t, 3>& out) const noexcept {
    out.fill(0);
  }
};

#endif  // AMTNET_TELEMETRY_DISABLED

/// Start stamp of a timed operation: now_ns() when sampled(), else 0 (no
/// clock read). Pair with record_since() or time_completion().
inline common::Nanos sample_start() noexcept {
  return sampled() ? common::now_ns() : 0;
}

/// Records the time since `start` into `histogram`; a 0 `start` (an
/// unsampled operation) records nothing and reads no clock.
inline void record_since(Histogram& histogram, common::Nanos start) noexcept {
  if (start != 0) {
    histogram.record(static_cast<std::uint64_t>(common::now_ns() - start));
  }
}

/// Makes the completion callback `done` record the time since `start` into
/// `histogram` before it runs. An unsampled operation (`start` == 0) keeps
/// `done` as it is, so it pays no wrapper (a wrapper around a callable that
/// fills the inline buffer is a heap allocation).
template <class Callback>
void time_completion(Histogram& histogram, common::Nanos start,
                     Callback& done) {
  if (start == 0) return;
  done = [&histogram, start, inner = std::move(done)]() mutable {
    record_since(histogram, start);
    inner();
  };
}

/// RAII timer recording the scope's elapsed nanoseconds into a histogram,
/// for sampled() scopes only.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) noexcept
      : histogram_(histogram), start_(sample_start()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { record_since(histogram_, start_); }

 private:
  Histogram& histogram_;
  common::Nanos start_;
};

}  // namespace telemetry
