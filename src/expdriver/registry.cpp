#include "expdriver/registry.hpp"

#include <algorithm>
#include <cstdlib>

namespace expdriver {

const char* point_kind_name(PointKind kind) {
  switch (kind) {
    case PointKind::kRate: return "rate";
    case PointKind::kLatency: return "latency";
    case PointKind::kOcto: return "octo";
    case PointKind::kColl: return "coll";
    case PointKind::kFft: return "fft";
  }
  return "unknown";
}

RunEnv run_env_from_environment() {
  RunEnv env;
  if (const char* s = std::getenv("AMTNET_BENCH_SCALE")) {
    env.scale = std::strtod(s, nullptr);
  }
  if (const char* s = std::getenv("AMTNET_BENCH_RUNS")) {
    env.repetitions = static_cast<int>(std::strtol(s, nullptr, 10));
  }
  if (const char* s = std::getenv("AMTNET_BENCH_WARMUP")) {
    env.warmup = static_cast<int>(std::strtol(s, nullptr, 10));
  }
  if (const char* s = std::getenv("AMTNET_BENCH_WORKERS")) {
    env.workers = static_cast<unsigned>(std::strtoul(s, nullptr, 10));
  }
  if (env.repetitions < 1) env.repetitions = 1;
  if (env.warmup < 0) env.warmup = 0;
  return env;
}

const MetricResult* PointResult::metric(const std::string& name) const {
  for (const auto& [metric_name, result] : metrics) {
    if (metric_name == name) return &result;
  }
  return nullptr;
}

MetricSpec metric_spec_for(const SuiteSpec& spec, const std::string& name) {
  for (const auto& override_spec : spec.metric_overrides) {
    if (override_spec.name == name) return override_spec;
  }
  if (name == "rate_kps") return {"rate_kps", "K msgs/s", false, true, 0.30};
  if (name == "injection_kps") {
    // Achieved injection tracks the attempted rate by construction; only the
    // delivered rate is a performance statement worth gating.
    return {"injection_kps", "K msgs/s", false, false, 0.30};
  }
  if (name == "latency_us") return {"latency_us", "us", true, true, 0.30};
  if (name == "steps_per_s") return {"steps_per_s", "steps/s", false, true, 0.30};
  // Collective round time and distributed-FFT transform time: wall-clock
  // on the shaped wire, lower is better, gated.
  if (name == "coll_us") return {"coll_us", "us", true, true, 0.30};
  if (name == "fft_ms") return {"fft_ms", "ms", true, true, 0.30};
  // Unknown metrics (telemetry probes): record, never gate.
  return {name, "", false, false, 0.30};
}

SuiteRegistry& SuiteRegistry::instance() {
  static SuiteRegistry registry;
  return registry;
}

void SuiteRegistry::add(SuiteSpec spec) {
  for (auto& existing : suites_) {
    if (existing.name == spec.name) {
      existing = std::move(spec);
      return;
    }
  }
  suites_.push_back(std::move(spec));
}

const SuiteSpec* SuiteRegistry::find(const std::string& name) const {
  for (const auto& suite : suites_) {
    if (suite.name == name) return &suite;
  }
  return nullptr;
}

std::vector<const SuiteSpec*> SuiteRegistry::all() const {
  std::vector<const SuiteSpec*> out;
  out.reserve(suites_.size());
  for (const auto& suite : suites_) out.push_back(&suite);
  return out;
}

std::vector<const SuiteSpec*> SuiteRegistry::smoke() const {
  std::vector<const SuiteSpec*> out;
  for (const auto& suite : suites_) {
    if (suite.smoke) out.push_back(&suite);
  }
  return out;
}

}  // namespace expdriver
