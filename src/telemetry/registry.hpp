// Hierarchical metrics registry. Metric names are '/'-separated paths
// ("fabric/nic0/packets_sent") grouped per layer/instance. Registration is
// find-or-create under a mutex; the returned pointers are stable for the
// registry's lifetime, so hot paths hold raw pointers and never touch the
// map again. snapshot() aggregates every metric in one pass with relaxed
// reads (see metrics.hpp for the exact consistency contract).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/spinlock.hpp"
#include "telemetry/metrics.hpp"

namespace telemetry {

/// One aggregated histogram in a Snapshot.
struct HistogramSummary {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
};

/// Point-in-time aggregation of a Registry: one pass over every shard.
/// All values are relaxed reads taken during the same snapshot() call; they
/// are individually coherent but not a cross-metric atomic cut. Counters are
/// exact. A timing histogram (fed by the sampled timers in metrics.hpp)
/// holds one operation in kSamplePeriod: its count is a sample count,
/// sum/count an unbiased mean, the percentiles estimates from the samples,
/// and max the largest sample.
struct Snapshot {
  /// Identity of the process/registry that produced the snapshot (e.g.
  /// backend=shm, locality_rank=2 in multi-process runs), set via
  /// Registry::set_tag. Empty for the historical single-process sim case,
  /// so existing exports stay byte-identical.
  std::map<std::string, std::string> tags;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSummary> histograms;

  /// Counter value by exact name, 0 if absent.
  std::uint64_t counter(std::string_view name) const;
  /// Gauge value by exact name, 0 if absent.
  std::int64_t gauge(std::string_view name) const;
  /// Histogram summary by exact name, nullptr if absent.
  const HistogramSummary* histogram(std::string_view name) const;
  /// Sum of all counters whose name matches "prefix*suffix" (both parts may
  /// be empty). Lets callers aggregate across instances, e.g.
  /// counter_sum("fabric/", "/packets_sent") over all NICs.
  std::uint64_t counter_sum(std::string_view prefix,
                            std::string_view suffix) const;

  /// "name,kind,value[,count,sum,max,p50,p90,p99]" CSV lines with header.
  std::string to_csv() const;
  /// Single JSON object {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
  /// Schema-versioned export for downstream tooling (the experiment driver
  /// stores one per benchmark point): {"schema":"amtnet-telemetry-v1",
  /// "tags":{...},"counters":...}. Tags identify the run that produced the
  /// snapshot (suite, point labels, seed, ...); the snapshot's own identity
  /// tags are merged in first, explicit arguments winning on collision.
  static constexpr const char* kJsonSchema = "amtnet-telemetry-v1";
  std::string to_json(const std::map<std::string, std::string>& tags) const;
};

#ifndef AMTNET_TELEMETRY_DISABLED

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Pointers remain valid for the Registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Attaches an identity tag copied into every snapshot (the fabric sets
  /// backend/locality_rank for shm runs). Last write per key wins.
  void set_tag(std::string_view key, std::string_view value);

  Snapshot snapshot() const;

 private:
  mutable common::SpinMutex mutex_;
  std::map<std::string, std::string, std::less<>> tags_;
  // node_ptr-stable maps; unique_ptr keeps metric addresses fixed regardless.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

#else  // AMTNET_TELEMETRY_DISABLED

/// No-op registry: hands out references to shared static stubs.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view) {
    static Counter stub;
    return stub;
  }
  Gauge& gauge(std::string_view) {
    static Gauge stub;
    return stub;
  }
  Histogram& histogram(std::string_view) {
    static Histogram stub;
    return stub;
  }
  void set_tag(std::string_view, std::string_view) {}
  Snapshot snapshot() const { return {}; }
};

#endif  // AMTNET_TELEMETRY_DISABLED

}  // namespace telemetry
