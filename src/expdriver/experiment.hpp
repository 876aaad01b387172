// Declarative experiment model for the paper's evaluation: each figure or
// ablation is a *suite* — a named matrix of benchmark points (config tokens ×
// sweep values), a uniform repetition/warmup policy, and metric extractors —
// registered once and consumed by the driver (run), the baseline comparator
// (--check) and the docs renderer (--render). The model is backend-agnostic:
// executing a point is delegated to a PointRunner, so tests can drive suites
// with stub runners and the bench harness binds the real ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace expdriver {

/// Results-file schema identifier; bump when the JSON layout changes.
inline constexpr const char* kResultSchema = "amtnet-bench-v1";

/// The three benchmark shapes of the paper's evaluation (§4.1, §4.2, §5),
/// plus the collective-round shape and the distributed-FFT workload.
enum class PointKind { kRate, kLatency, kOcto, kColl, kFft };

const char* point_kind_name(PointKind kind);

/// Ordered so serialization and point matching are deterministic.
using Labels = std::map<std::string, std::string>;

/// One benchmark invocation: identity labels plus the full parameter
/// superset of the three shapes (unused fields keep their defaults).
struct PointSpec {
  PointKind kind = PointKind::kRate;
  Labels labels;  // stable identity of the point within its suite

  std::string parcelport;           // Table-1 config name (may carry tokens)
  std::string platform = "expanse";
  std::size_t msg_size = 8;
  std::size_t batch = 100;
  std::size_t base_total_msgs = 0;  // rate: scaled by env.scale, min 1
  double attempted_rate = 0.0;      // rate: messages/s, 0 = unlimited
  // Shaped wire for rate points (any field > 0 switches the fabric to
  // wall-clock gating): line rate, per-packet latency, and a NIC
  // message-rate cap — the knob that makes a small-message flood
  // message-rate-bound rather than host-CPU-bound. 0 = zero-time fabric.
  double rate_bandwidth_gbps = 0.0;
  double rate_latency_us = 0.0;
  double rate_pkt_mpps = 0.0;
  // Injected-fault regime for rate points (the chaos suite): drop,
  // duplicate and corrupt each with probability fault_rate; fault_integrity
  // arms the CRC/retransmit layer with every probability at 0. The harness
  // copies it onto StackOptions::faults.
  double fault_rate = 0.0;
  bool fault_integrity = false;
  std::size_t zchunk_count = 0;
  std::size_t zero_copy_threshold = 8192;
  std::size_t max_connections = 8192;
  unsigned fabric_rails = 0;        // 0 = platform default
  std::uint32_t localities = 2;     // octo / coll / fft
  int level = 3;                    // octo
  int base_steps = 0;               // latency round trips / octo steps; scaled, min 1
  unsigned window = 1;              // latency chains
  unsigned workers = 0;             // 0 = environment default
  // coll shape (reuses msg_size as the payload/per-rank block and
  // base_steps as the back-to-back round count).
  std::string coll_op = "allreduce";  // allreduce|broadcast|alltoall|barrier
  // fft shape: transform size = fft_dim * fft_dim points, distributed over
  // `localities`; base_steps transforms per run.
  std::size_t fft_dim = 64;
};

/// How one metric participates in regression gating.
struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = false;
  bool gate = true;             // false: recorded but never gated (--check)
  double rel_tolerance = 0.30;  // relative band, scaled by --tolerance-scale
};

/// Pulls one counter aggregate out of the post-run telemetry snapshot:
/// counter_sum(prefix, suffix), recorded as metric `metric` (never gated —
/// counts scale with the sweep size, not with performance).
struct TelemetryProbe {
  std::string metric;
  std::string prefix;
  std::string suffix;
};

/// Uniform run policy, resolved once per invocation (env + CLI).
struct RunEnv {
  double scale = 1.0;    // AMTNET_BENCH_SCALE
  int repetitions = 2;   // AMTNET_BENCH_RUNS (median-of-N)
  int warmup = 1;        // AMTNET_BENCH_WARMUP: discarded leading runs
  unsigned workers = 8;  // AMTNET_BENCH_WORKERS
};

/// Reads AMTNET_BENCH_SCALE / RUNS / WARMUP / WORKERS.
RunEnv run_env_from_environment();

struct MetricResult {
  double median = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::vector<double> samples;  // post-warmup samples, run order
};

struct PointResult {
  Labels labels;  // spec labels + {"kind": point_kind_name(...)}
  std::vector<std::pair<std::string, MetricResult>> metrics;  // run order

  const MetricResult* metric(const std::string& name) const;
};

/// Schema-versioned result of one suite run (what BENCH_<suite>.json holds).
struct SuiteResult {
  std::string schema = kResultSchema;
  std::string suite;
  std::string figure;
  /// Fabric transport backend the run used ("sim" | "shm"). Serialized only
  /// when non-default so committed sim baselines stay byte-identical; the
  /// comparator refuses to gate across different backends.
  std::string backend = "sim";
  /// Locality rank in a multi-process run (-1 = single-process). Serialized
  /// only when >= 0.
  int local_rank = -1;
  RunEnv env;
  std::vector<PointResult> points;
};

/// One sample of one point: metric name -> value, in emission order.
using Sample = std::vector<std::pair<std::string, double>>;

/// Executes one point once and returns its metrics. Runners append any
/// suite-level telemetry-probe metrics themselves (they own the registry
/// snapshot of the run they just performed).
using PointRunner = std::function<Sample(const PointSpec&, const RunEnv&)>;

struct SuiteSpec {
  std::string name;    // e.g. "fig1_msgrate_8b" -> BENCH_fig1_msgrate_8b.json
  std::string figure;  // "Figure 1", "§7.2 ablation", ...
  std::string title;        // one-line description (bench header)
  std::string expectation;  // the paper's qualitative expectation
  bool smoke = false;       // member of the pinned CI regression-gate subset
  std::vector<PointSpec> points;
  std::vector<MetricSpec> metric_overrides;  // by name; else kind defaults
  std::vector<TelemetryProbe> probes;
  /// Optional derived console summary (peak tables, speedup columns),
  /// printed after the run; not part of the recorded result.
  std::function<void(const SuiteResult&)> post_summary;
};

/// Gate policy for `metric` under `spec`: overrides first, then the
/// per-kind defaults (rate_kps / latency_us / steps_per_s), then an
/// ungated catch-all for unknown (telemetry) metrics.
MetricSpec metric_spec_for(const SuiteSpec& spec, const std::string& name);

}  // namespace expdriver
