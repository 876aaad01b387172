#include "suites.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "expdriver/driver.hpp"
#include "expdriver/registry.hpp"
#include "fft.hpp"
#include "harness.hpp"

namespace bench::suites {

namespace {

using expdriver::Labels;
using expdriver::PointKind;
using expdriver::PointSpec;
using expdriver::RunEnv;
using expdriver::Sample;
using expdriver::SuiteRegistry;
using expdriver::SuiteResult;
using expdriver::SuiteSpec;

// The paper's configuration sets (Table 1).
const std::vector<const char*> kElevenConfigs = {
    "lci_psr_cq_pin", "lci_psr_cq_pin_i", "lci_psr_cq_mt_i",
    "lci_psr_sy_pin_i", "lci_psr_sy_mt_i", "lci_sr_cq_pin_i",
    "lci_sr_cq_mt_i", "lci_sr_sy_pin_i", "lci_sr_sy_mt_i", "mpi", "mpi_i"};

// Unified workload bases shared by every suite measuring the same shape
// (previously each bench main hard-coded its own slightly different counts:
// fig3 ran 5000-message floods against fig1's 6000, fig6 ran 1000 against
// fig4/5's 1200, and the octo benches disagreed on step counts — so
// "identical" configurations were never actually identical runs).
constexpr std::size_t k8bFloodMsgs = 6000;    // 8 B flood, batch 100
constexpr std::size_t k16kFloodMsgs = 1200;   // 16 KiB flood, batch 10
constexpr int kLatencySteps8b = 40;           // 8 B windowed ping-pong
constexpr int kLatencySteps16k = 25;          // 16 KiB windowed ping-pong
constexpr int kLatencyStepsSized = 60;        // size-sweep ping-pong
constexpr int kOctoSteps = 3;                 // proxy-app time steps

std::string kps_label(double kps) {
  if (kps == 0.0) return "unlimited";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", kps);
  return buf;
}

PointSpec rate_point(const std::string& config, std::size_t msg_size,
                     std::size_t batch, std::size_t base_total,
                     double attempted_kps) {
  PointSpec p;
  p.kind = PointKind::kRate;
  p.parcelport = config;
  p.msg_size = msg_size;
  p.batch = batch;
  p.base_total_msgs = base_total;
  p.attempted_rate = attempted_kps * 1e3;
  p.labels = {{"config", config},
              {"msg_size", std::to_string(msg_size)},
              {"attempted_kps", kps_label(attempted_kps)}};
  return p;
}

PointSpec latency_point(const std::string& config, std::size_t msg_size,
                        unsigned window, int base_steps) {
  PointSpec p;
  p.kind = PointKind::kLatency;
  p.parcelport = config;
  p.msg_size = msg_size;
  p.window = window;
  p.base_steps = base_steps;
  p.labels = {{"config", config},
              {"msg_size", std::to_string(msg_size)},
              {"window", std::to_string(window)}};
  return p;
}

PointSpec octo_point(const std::string& config, const std::string& platform,
                     std::uint32_t localities, int level) {
  PointSpec p;
  p.kind = PointKind::kOcto;
  p.parcelport = config;
  p.platform = platform;
  p.localities = localities;
  p.level = level;
  p.base_steps = kOctoSteps;
  p.workers = 2;  // proxy-app convention of the original figure benches
  p.labels = {{"config", config},
              {"platform", platform},
              {"localities", std::to_string(localities)}};
  return p;
}

PointSpec coll_point(const std::string& config, const std::string& op,
                     const std::string& algo, std::uint32_t localities,
                     std::size_t payload_bytes, int base_iters) {
  PointSpec p;
  p.kind = PointKind::kColl;
  p.parcelport = config;
  p.coll_op = op;
  p.localities = localities;
  p.msg_size = payload_bytes;
  p.base_steps = base_iters;
  p.workers = 2;
  p.labels = {{"config", config},
              {"op", op},
              {"algo", algo},
              {"localities", std::to_string(localities)},
              {"payload", std::to_string(payload_bytes)}};
  return p;
}

PointSpec fft_point(const std::string& config, std::uint32_t localities,
                    std::size_t dim, int base_iters) {
  PointSpec p;
  p.kind = PointKind::kFft;
  p.parcelport = config;
  p.localities = localities;
  p.fft_dim = dim;
  p.base_steps = base_iters;
  p.workers = 2;
  p.labels = {{"config", config},
              {"localities", std::to_string(localities)},
              {"dim", std::to_string(dim)}};
  return p;
}

// ---- derived console summaries (the views the paper plots) ---------------

/// Figure 3/6 view: per config, the peak rate_kps median across the
/// injection-rate sweep.
void print_peak_by_config(const SuiteResult& result) {
  std::printf("\n# peak message rate per config (paper's bar view)\n");
  std::printf("config,peak_message_rate_K/s\n");
  std::vector<std::pair<std::string, double>> peaks;  // insertion order
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto* rate = point.metric("rate_kps");
    if (config == point.labels.end() || rate == nullptr) continue;
    auto it = std::find_if(peaks.begin(), peaks.end(), [&](const auto& e) {
      return e.first == config->second;
    });
    if (it == peaks.end()) {
      peaks.push_back({config->second, rate->median});
    } else if (rate->median > it->second) {
      it->second = rate->median;
    }
  }
  for (const auto& [config, peak] : peaks) {
    std::printf("%s,%.1f\n", config.c_str(), peak);
  }
  std::fflush(stdout);
}

/// Figure 10/11 view: lci-over-mpi speedup columns per locality count.
void print_octo_speedups(const SuiteResult& result) {
  std::map<std::string, std::map<std::string, double>> by_config;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto localities = point.labels.find("localities");
    const auto* steps = point.metric("steps_per_s");
    if (config == point.labels.end() || localities == point.labels.end() ||
        steps == nullptr) {
      continue;
    }
    by_config[config->second][localities->second] = steps->median;
  }
  const auto& lci = by_config["lci_psr_cq_pin_i"];
  std::printf("\n# speedup columns (right axis of the paper's figure)\n");
  std::printf("localities,lci_over_mpi,lci_over_mpi_i\n");
  for (const auto& [localities, lci_steps] : lci) {
    const auto mpi = by_config["mpi"].find(localities);
    const auto mpi_i = by_config["mpi_i"].find(localities);
    if (mpi == by_config["mpi"].end() || mpi_i == by_config["mpi_i"].end()) {
      continue;
    }
    std::printf("%s,%.3f,%.3f\n", localities.c_str(),
                lci_steps / mpi->second, lci_steps / mpi_i->second);
  }
  std::fflush(stdout);
}

/// §3.1 ablation view: improved-over-original app speedup.
void print_mpi_original_speedup(const SuiteResult& result) {
  double improved = 0.0, original = 0.0;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto* steps = point.metric("steps_per_s");
    if (config == point.labels.end() || steps == nullptr) continue;
    if (config->second == "mpi") improved = steps->median;
    if (config->second == "mpi_orig") original = steps->median;
  }
  if (original > 0.0) {
    std::printf("\n# improved/original app speedup: %.3f\n",
                improved / original);
    std::fflush(stdout);
  }
}

/// Progress-engine ablation view: per config (completion mechanism), the
/// rate_kps median at each pinned worker count — the scaling curves the
/// ablation argues over.
void print_progress_scaling(const SuiteResult& result) {
  // variant -> workers -> rate, insertion-ordered by first appearance.
  std::vector<std::pair<std::string, std::map<int, double>>> rows;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto workers = point.labels.find("workers");
    const auto* rate = point.metric("rate_kps");
    if (config == point.labels.end() || workers == point.labels.end() ||
        rate == nullptr) {
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& row) {
      return row.first == config->second;
    });
    if (it == rows.end()) {
      rows.push_back({config->second, {}});
      it = rows.end() - 1;
    }
    it->second[std::atoi(workers->second.c_str())] = rate->median;
  }
  std::printf("\n# 16KiB flood rate (K/s) by progress-pool width\n");
  std::printf("config,w1,w2,w4,w8\n");
  for (const auto& [config, by_workers] : rows) {
    std::printf("%s", config.c_str());
    for (int workers : {1, 2, 4, 8}) {
      const auto rate = by_workers.find(workers);
      if (rate == by_workers.end()) {
        std::printf(",-");
      } else {
        std::printf(",%.1f", rate->second);
      }
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

// ---- suite definitions ----------------------------------------------------

SuiteSpec fig1() {
  SuiteSpec s;
  s.name = "fig1_msgrate_8b";
  s.figure = "Figure 1";
  s.title = "8B message rate vs injection rate (mpi, mpi_i, lci_psr_cq_pin, "
            "lci_psr_cq_pin_i)";
  s.expectation =
      "rates first track the injection rate then plateau; mpi (without "
      "send-immediate) degrades past its peak; lci plateaus highest";
  for (const char* config :
       {"mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"}) {
    for (double rate : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 0.0}) {
      s.points.push_back(rate_point(config, 8, 100, k8bFloodMsgs, rate));
    }
  }
  s.probes = {{"fabric_packets", "fabric/", "/packets_sent"}};
  return s;
}

SuiteSpec fig2() {
  SuiteSpec s;
  s.name = "fig2_msgrate_8b_lci";
  s.figure = "Figure 2";
  s.title = "8B message rate vs injection rate (8 LCI variants, _i)";
  s.expectation =
      "pin > mt (dedicated progress thread wins, up to 2.6x); psr > sr "
      "(one-sided put header wins, up to 3.5x); cq vs sy minor at 8B";
  for (const char* config :
       {"lci_psr_cq_pin_i", "lci_psr_cq_mt_i", "lci_psr_sy_pin_i",
        "lci_psr_sy_mt_i", "lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
        "lci_sr_sy_pin_i", "lci_sr_sy_mt_i"}) {
    for (double rate : {4.0, 16.0, 64.0, 0.0}) {
      s.points.push_back(rate_point(config, 8, 100, k8bFloodMsgs, rate));
    }
  }
  return s;
}

SuiteSpec fig3() {
  SuiteSpec s;
  s.name = "fig3_peak_8b";
  s.figure = "Figure 3";
  s.title = "peak 8B message rate across injection rates (11 configs)";
  s.expectation =
      "lci_psr_cq_pin_i highest; all mt variants clustered well below the "
      "pin variants; mpi variants lowest";
  for (const char* config : kElevenConfigs) {
    for (double rate : {8.0, 32.0, 0.0}) {
      s.points.push_back(rate_point(config, 8, 100, k8bFloodMsgs, rate));
    }
  }
  s.post_summary = print_peak_by_config;
  return s;
}

SuiteSpec fig4() {
  SuiteSpec s;
  s.name = "fig4_msgrate_16k";
  s.figure = "Figure 4";
  s.title = "16KiB message rate vs injection rate (mpi, mpi_i, "
            "lci_psr_cq_pin, lci_psr_cq_pin_i)";
  s.expectation =
      "lci sustains its plateau (paper: up to 30x mpi); both mpi variants' "
      "achieved rate decays as injection pressure grows; aggregation (no _i) "
      "does not help lci at this size";
  s.smoke = true;
  for (const char* config :
       {"mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"}) {
    for (double rate : {1.0, 2.0, 4.0, 8.0, 16.0, 0.0}) {
      s.points.push_back(
          rate_point(config, 16 * 1024, 10, k16kFloodMsgs, rate));
    }
  }
  s.probes = {{"fabric_packets", "fabric/", "/packets_sent"}};
  return s;
}

SuiteSpec fig5() {
  SuiteSpec s;
  s.name = "fig5_msgrate_16k_lci";
  s.figure = "Figure 5";
  s.title = "16KiB message rate vs injection rate (8 LCI variants, _i)";
  s.expectation =
      "cq variants plateau smoothly and ~25-30% above sy variants (which "
      "oscillate); pin beats mt by 17-50%";
  for (const char* config :
       {"lci_psr_cq_pin_i", "lci_psr_cq_mt_i", "lci_psr_sy_pin_i",
        "lci_psr_sy_mt_i", "lci_sr_cq_pin_i", "lci_sr_cq_mt_i",
        "lci_sr_sy_pin_i", "lci_sr_sy_mt_i"}) {
    for (double rate : {2.0, 8.0, 0.0}) {
      s.points.push_back(
          rate_point(config, 16 * 1024, 10, k16kFloodMsgs, rate));
    }
  }
  return s;
}

SuiteSpec fig6() {
  SuiteSpec s;
  s.name = "fig6_peak_16k";
  s.figure = "Figure 6";
  s.title = "peak 16KiB message rate across injection rates (11 configs)";
  s.expectation =
      "cq+pin variants on top; sy variants ~25-30% lower; mt variants "
      "capped by progress contention; mpi variants at the bottom";
  for (const char* config : kElevenConfigs) {
    for (double rate : {4.0, 0.0}) {
      s.points.push_back(
          rate_point(config, 16 * 1024, 10, k16kFloodMsgs, rate));
    }
  }
  s.post_summary = print_peak_by_config;
  return s;
}

SuiteSpec fig7() {
  SuiteSpec s;
  s.name = "fig7_latency_size";
  s.figure = "Figure 7";
  s.title = "one-way latency vs message size, window 1 (11 configs)";
  s.expectation =
      "lci_psr_cq_pin(_i) lowest across sizes; mpi_i competitive below 1KB "
      "then 3-5x worse for large messages; send-immediate always helps lci "
      "latency";
  for (const char* config : kElevenConfigs) {
    for (std::size_t size : {8u, 64u, 512u, 4096u, 16384u, 65536u}) {
      s.points.push_back(latency_point(config, size, 1, kLatencyStepsSized));
    }
  }
  // Straddle the small-parcel fast-path threshold: the ping-pong's
  // one-parcel frame is payload + 53 B (16 B frame header + 8 B entry
  // header + 4 B action id + 8 B promise id + two u32 args + a 9 B
  // inline-vector prefix), and
  // the fast path takes frames up to the 8192 B eager threshold. These
  // two payloads put the frame at threshold -8 B and +8 B, so the curve
  // shows the step where parcels leave the one-message path — only
  // meaningful for the LCI rows; the MPI rows have no fast path but keep
  // the sweep aligned. (test_parcelports pins this arithmetic against the
  // fastpath counters.)
  for (const char* config : kElevenConfigs) {
    for (std::size_t size : {8192u - 53 - 8, 8192u - 53 + 8}) {
      s.points.push_back(latency_point(config, size, 1, kLatencyStepsSized));
    }
  }
  return s;
}

SuiteSpec fig8() {
  SuiteSpec s;
  s.name = "fig8_latency_window_8b";
  s.figure = "Figure 8";
  s.title = "8B one-way latency vs window size (11 configs)";
  s.expectation =
      "latency grows with window everywhere; lci_psr_cq_pin_i stays lowest; "
      "mpi_i beats mpi at small windows but crosses over (paper: window 8) "
      "as concurrency grows";
  for (const char* config : kElevenConfigs) {
    for (unsigned window : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      s.points.push_back(latency_point(config, 8, window, kLatencySteps8b));
    }
  }
  return s;
}

SuiteSpec fig9() {
  SuiteSpec s;
  s.name = "fig9_latency_window_16k";
  s.figure = "Figure 9";
  s.title = "16KiB one-way latency vs window size (11 configs)";
  s.expectation =
      "the mpi/lci gap widens with the window (paper: mpi_i vs "
      "lci_psr_cq_pin_i grows from 2x at window 1 to 9.6x at window 64)";
  for (const char* config : kElevenConfigs) {
    for (unsigned window : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      s.points.push_back(
          latency_point(config, 16 * 1024, window, kLatencySteps16k));
    }
  }
  return s;
}

SuiteSpec fig10() {
  SuiteSpec s;
  s.name = "fig10_octotiger_expanse";
  s.figure = "Figure 10";
  s.title = "Octo-Tiger proxy strong scaling, Expanse profile";
  s.expectation =
      "lci >= mpi >= mpi_i at every node count, gap growing with nodes; "
      "mpi_i disproportionately bad on the high-core-count platform "
      "(blocking-lock convoy; paper: up to 13.6x)";
  for (const char* config : {"mpi", "mpi_i", "lci_psr_cq_pin_i"}) {
    for (std::uint32_t localities : {2u, 4u, 6u, 8u}) {
      s.points.push_back(octo_point(config, "expanse", localities, 3));
    }
  }
  s.post_summary = print_octo_speedups;
  return s;
}

SuiteSpec fig11() {
  SuiteSpec s;
  s.name = "fig11_octotiger_rostam";
  s.figure = "Figure 11";
  s.title = "Octo-Tiger proxy strong scaling, Rostam profile";
  s.expectation =
      "smaller gaps than on Expanse (fewer cores, fewer nodes): lci ~1.04x "
      "over mpi and ~1.08x over mpi_i at the largest node count";
  for (const char* config : {"mpi", "mpi_i", "lci_psr_cq_pin_i"}) {
    for (std::uint32_t localities : {2u, 4u, 8u}) {
      s.points.push_back(octo_point(config, "rostam", localities, 2));
    }
  }
  s.post_summary = print_octo_speedups;
  return s;
}

SuiteSpec ablation_mpi_original() {
  SuiteSpec s;
  s.name = "ablation_mpi_original";
  s.figure = "§3.1 ablation";
  s.title = "original vs improved MPI parcelport";
  s.expectation =
      "improved ('mpi') beats original ('mpi_orig') on the proxy app and on "
      "latency for messages that now fit the dynamic header (~20% app-level "
      "in the paper)";
  for (const char* config : {"mpi_orig", "mpi"}) {
    s.points.push_back(octo_point(config, "expanse", 4, 3));
  }
  for (const char* config : {"mpi_orig", "mpi", "mpi_orig_i", "mpi_i"}) {
    for (std::size_t size : {256u, 2048u, 4096u}) {
      s.points.push_back(latency_point(config, size, 4, kLatencySteps8b));
    }
  }
  s.post_summary = print_mpi_original_speedup;
  return s;
}

SuiteSpec ablation_mpi_lock() {
  SuiteSpec s;
  s.name = "ablation_mpi_lock";
  s.figure = "§7.1 ablation";
  s.title = "coarse vs fine-grained progress lock in the MPI layer";
  s.expectation =
      "the fine-grained variant sustains higher 16KiB message rates and "
      "lower windowed latency; the gap grows with concurrency (worker "
      "threads convoy on the blocking lock in MPI_Test)";
  for (const char* config : {"mpi_i", "mpi_fine_i"}) {
    s.points.push_back(rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0));
  }
  for (const char* config : {"mpi_i", "mpi_fine_i"}) {
    for (unsigned window : {1u, 8u, 32u}) {
      s.points.push_back(latency_point(config, 8, window, kLatencySteps8b));
    }
  }
  return s;
}

SuiteSpec ablation_zc_threshold() {
  SuiteSpec s;
  s.name = "ablation_zc_threshold";
  s.figure = "§2.2 ablation";
  s.title = "zero-copy serialization threshold (HPX default 8192)";
  s.expectation =
      "for 4KiB payloads: a tiny threshold forces needless rendezvous "
      "(worse latency); for 16KiB payloads: a huge threshold forces inline "
      "copies of large data through the eager path";
  for (std::size_t threshold : {512u, 8192u, 65536u}) {
    for (const char* config : {"lci_psr_cq_pin_i", "mpi_i"}) {
      PointSpec p = latency_point(config, 4096, 4, kLatencySteps8b);
      p.zero_copy_threshold = threshold;
      p.labels["zc"] = std::to_string(threshold);
      s.points.push_back(std::move(p));
    }
  }
  for (std::size_t threshold : {2048u, 8192u, 65536u}) {
    PointSpec p =
        rate_point("lci_psr_cq_pin_i", 16 * 1024, 10, k16kFloodMsgs, 0.0);
    p.zero_copy_threshold = threshold;
    p.labels["zc"] = std::to_string(threshold);
    s.points.push_back(std::move(p));
  }
  return s;
}

/// Adaptive-aggregation view: per LCI variant, the backpressured 8B flood
/// rate of the adaptive engine over the `_i` bypass, over fp-only and over
/// the paper's parcel-queue path (the faster of its two connection caps) —
/// the headline speedups — plus the unloaded-latency ratio (the
/// "load-aware" claim: no batching delay when the destination window is
/// empty).
void print_aggregation_speedup(const SuiteResult& result) {
  struct Row {
    double adaptive = 0.0, fponly = 0.0, bypass = 0.0;
    double lat_adaptive = 0.0, lat_fponly = 0.0;
  };
  std::vector<std::pair<std::string, Row>> rows;  // insertion order
  double paper = 0.0;
  for (const auto& point : result.points) {
    const auto variant = point.labels.find("variant");
    const auto mode = point.labels.find("mode");
    const auto size = point.labels.find("msg_size");
    if (variant == point.labels.end() || mode == point.labels.end() ||
        size == point.labels.end() || size->second != "8") {
      continue;
    }
    if (mode->second == "paper") {
      if (const auto* rate = point.metric("rate_kps")) {
        paper = std::max(paper, rate->median);
      }
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& row) {
      return row.first == variant->second;
    });
    if (it == rows.end()) {
      rows.push_back({variant->second, {}});
      it = rows.end() - 1;
    }
    if (const auto* rate = point.metric("rate_kps")) {
      if (mode->second == "adaptive") it->second.adaptive = rate->median;
      if (mode->second == "fponly") it->second.fponly = rate->median;
      if (mode->second == "bypass") it->second.bypass = rate->median;
    }
    if (const auto* lat = point.metric("latency_us")) {
      if (mode->second == "adaptive") it->second.lat_adaptive = lat->median;
      if (mode->second == "fponly") it->second.lat_fponly = lat->median;
    }
  }
  std::printf(
      "\n# adaptive aggregation at 8B under backpressure (rate speedups; "
      "idle_latency_ratio from the unloaded window-1 points)\n");
  std::printf("variant,adaptive_over_bypass,adaptive_over_fponly,"
              "adaptive_over_paper,idle_latency_ratio\n");
  double bypass_log_sum = 0.0, fponly_log_sum = 0.0, paper_log_sum = 0.0,
         lat_log_sum = 0.0;
  std::size_t bypass_n = 0, fponly_n = 0, paper_n = 0, lat_n = 0;
  for (const auto& [variant, row] : rows) {
    const double over_bypass =
        row.bypass > 0.0 ? row.adaptive / row.bypass : 0.0;
    const double over_fponly =
        row.fponly > 0.0 ? row.adaptive / row.fponly : 0.0;
    const double over_paper = paper > 0.0 ? row.adaptive / paper : 0.0;
    const double lat_ratio =
        row.lat_fponly > 0.0 ? row.lat_adaptive / row.lat_fponly : 0.0;
    if (over_bypass > 0.0) {
      bypass_log_sum += std::log(over_bypass);
      ++bypass_n;
    }
    if (over_fponly > 0.0) {
      fponly_log_sum += std::log(over_fponly);
      ++fponly_n;
    }
    if (over_paper > 0.0) {
      paper_log_sum += std::log(over_paper);
      ++paper_n;
    }
    if (lat_ratio > 0.0) {
      lat_log_sum += std::log(lat_ratio);
      ++lat_n;
    }
    std::printf("%s,%.3f,%.3f,%.3f,%.3f\n", variant.c_str(), over_bypass,
                over_fponly, over_paper, lat_ratio);
  }
  if (bypass_n > 0 && fponly_n > 0) {
    std::printf("geomean,%.3f,%.3f,%.3f,%.3f\n",
                std::exp(bypass_log_sum / bypass_n),
                std::exp(fponly_log_sum / fponly_n),
                paper_n > 0 ? std::exp(paper_log_sum / paper_n) : 0.0,
                lat_n > 0 ? std::exp(lat_log_sum / lat_n) : 0.0);
  }
  std::fflush(stdout);
}

SuiteSpec ablation_aggregation() {
  SuiteSpec s;
  s.name = "ablation_aggregation";
  s.figure = "§3.2.2/§7.1 ablation";
  s.title =
      "parcel aggregation: connection-cache limits vs the adaptive "
      "per-destination coalescing engine";
  s.expectation =
      "historical trade-off (upper half): connection-cache aggregation cuts "
      "per-message pressure but adds locking and batching delay. Adaptive "
      "engine (lower half): on a message-rate-capped wire (0.3 Mpps) under "
      "a backpressured admission window the 8B flood coalesces into batch "
      "frames and beats both the _i bypass and the fp-only path (>=1.2x "
      "geomean; uncoalesced modes peg at the packet cap), while unloaded "
      "single-parcel latency is untouched because an empty destination "
      "window bypasses the buffers entirely. The paper's parcel-queue path "
      "on the same wire (paper rows) mostly pegs at the cap as well: a "
      "fast-path send completes inside send(), so the connection is free "
      "before the next parcel queues (messages_sent == parcels_sent). In "
      "the runs where it does coalesce, cap 1 outruns the engine";
  s.smoke = true;
  struct Variant {
    const char* label;
    const char* config;
    std::size_t max_connections;
  };
  for (const Variant& variant : {Variant{"immediate", "lci_psr_cq_pin_i", 8192},
                                 Variant{"cache8192", "lci_psr_cq_pin", 8192},
                                 Variant{"cache1", "lci_psr_cq_pin", 1},
                                 Variant{"immediate", "mpi_i", 8192},
                                 Variant{"cache8192", "mpi", 8192},
                                 Variant{"cache1", "mpi", 1}}) {
    PointSpec p = rate_point(variant.config, 8, 100, k8bFloodMsgs, 0.0);
    p.max_connections = variant.max_connections;
    p.labels["variant"] = variant.label;
    s.points.push_back(std::move(p));
  }
  // ---- adaptive aggregation engine --------------------------------------
  // Three modes per variant, all behind the same blocking admission window
  // (the backpressure signal that activates coalescing): the connection-path
  // bypass (fpoff), the one-parcel fast path alone, and the fast path
  // with the adaptive aggregator on top.
  struct Mode {
    const char* label;
    const char* tokens;  // appended between the variant and "_i_block64"
  };
  const std::vector<Mode> modes = {
      {"bypass", "_fpoff"}, {"fponly", ""}, {"adaptive", "_agg"}};
  const std::vector<const char*> variants = {"psr_cq_pin", "psr_cq_mt",
                                             "sr_cq_mt"};
  for (const char* variant : variants) {
    for (const Mode& mode : modes) {
      const std::string config =
          "lci_" + std::string(variant) + mode.tokens + "_i_block64";
      // The backpressured 8B flood: the window parks senders at 64
      // outstanding parcels, so the aggregator sees a persistently
      // non-empty destination queue and batches. The wire is shaped with a
      // NIC message-rate cap (0.3 Mpps, 10 Gbps, 5 µs) — the regime Yan et
      // al. identify for small-parcel AMT traffic, where per-message NIC
      // cost rather than bytes or host CPU bounds the flood. Uncoalesced
      // modes peg at the cap; batched frames carry many parcels per packet.
      PointSpec p8 = rate_point(config, 8, 100, k8bFloodMsgs, 0.0);
      // 16 KiB flood: over the eager threshold, every parcel must take the
      // rendezvous fallback untouched — aggregation must not tax it. Same
      // shaped wire: at 16 KiB the line rate, not the packet cap, binds.
      PointSpec p16k = rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0);
      for (PointSpec* p : {&p8, &p16k}) {
        p->rate_pkt_mpps = 0.3;
        p->rate_bandwidth_gbps = 10.0;
        p->rate_latency_us = 5.0;
        p->labels["variant"] = variant;
        p->labels["mode"] = mode.label;
        s.points.push_back(std::move(*p));
      }
    }
  }
  // The paper's own aggregation on the same shaped wire: no "_i", so parcels
  // wait in HPX's per-destination parcel queue while the connection cache is
  // at its cap and leave as one message. No admission window: the parcel
  // queue is the only mechanism. The "paper" mode label keeps these rows
  // apart from the unshaped cache rows above.
  for (const Variant& variant : {Variant{"cache8192", "lci_psr_cq_pin", 8192},
                                 Variant{"cache1", "lci_psr_cq_pin", 1}}) {
    PointSpec p = rate_point(variant.config, 8, 100, k8bFloodMsgs, 0.0);
    p.max_connections = variant.max_connections;
    p.rate_pkt_mpps = 0.3;
    p.rate_bandwidth_gbps = 10.0;
    p.rate_latency_us = 5.0;
    p.labels["variant"] = variant.label;
    p.labels["mode"] = "paper";
    s.points.push_back(std::move(p));
  }
  // Unloaded single-parcel latency (no admission window, depth always 0):
  // the load-aware switch must keep the aggregator out of the way, so
  // adaptive may not regress over fp-only by more than noise.
  for (const char* variant : variants) {
    for (const Mode& mode : modes) {
      const std::string config =
          "lci_" + std::string(variant) + mode.tokens + "_i";
      PointSpec lat = latency_point(config, 8, 1, 200);
      lat.labels["variant"] = variant;
      lat.labels["mode"] = mode.label;
      s.points.push_back(std::move(lat));
    }
  }
  // The proxy app under the same window: batching must help (or at least
  // not hurt) a real task graph, not just synthetic floods.
  for (const Mode& mode : modes) {
    PointSpec p = octo_point("lci_psr_cq_pin" + std::string(mode.tokens) +
                                 "_i_block64",
                             "expanse", 4, 3);
    p.labels["variant"] = "octo_psr_cq_pin";
    p.labels["mode"] = mode.label;
    s.points.push_back(std::move(p));
  }
  // parcels_sent vs messages_sent shows whether a mode coalesced at all
  // (the paper path's parcel queue included).
  s.probes = {{"parcels_sent", "amt/", "/parcels_sent"},
              {"messages_sent", "amt/", "/messages_sent"},
              {"agg_batched", "pplci/", "/agg_batched"},
              {"agg_flushes_size", "pplci/", "/agg_flushes_size"},
              {"agg_flushes_stall", "pplci/", "/agg_flushes_stall"},
              {"agg_flushes_age", "pplci/", "/agg_flushes_age"},
              {"agg_flushes_idle", "pplci/", "/agg_flushes_idle"}};
  s.post_summary = print_aggregation_speedup;
  return s;
}

SuiteSpec ablation_rails() {
  SuiteSpec s;
  s.name = "ablation_rails";
  s.figure = "§7.2 ablation";
  s.title = "fabric rails per link (multi-QP striping)";
  s.expectation =
      "more rails relieve per-channel serialisation for 16KiB floods; with "
      "one rail every message of a flow funnels through one channel lock";
  for (unsigned rails : {1u, 2u, 4u, 8u}) {
    for (const char* config : {"lci_psr_cq_pin_i", "mpi_i"}) {
      PointSpec p = rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0);
      p.fabric_rails = rails;
      p.labels["rails"] = std::to_string(rails);
      s.points.push_back(std::move(p));
    }
  }
  return s;
}

SuiteSpec ablation_pipeline() {
  SuiteSpec s;
  s.name = "ablation_pipeline";
  s.figure = "follow-up pipelining ablation";
  s.title = "LCI follow-up pipelining: 16KiB rate and latency vs zero-copy "
            "chunks per message";
  s.expectation =
      "every follow-up piece is posted at once, so the pieces of one message "
      "overlap on the wire: single-chain latency with 4 zero-copy chunks "
      "stays well under twice the 2-chunk latency";
  s.smoke = true;
  // The "depth" label names the (only) follow-up posting policy, so the
  // recorded points keep their identity.
  for (std::size_t zchunks : {1u, 2u, 4u}) {
    PointSpec p = rate_point("lci_psr_cq_pin_i", 16 * 1024, 10, 800, 0.0);
    p.zchunk_count = zchunks;
    p.fabric_rails = 4;
    p.labels["depth"] = "inf";
    p.labels["zchunks"] = std::to_string(zchunks);
    s.points.push_back(std::move(p));
  }
  // Per-message view: single-chain multi-zchunk ping-pong shows the piece
  // overlap directly (the flood above hides it behind cross-message
  // parallelism).
  for (std::size_t zchunks : {2u, 4u}) {
    PointSpec p = latency_point("lci_psr_cq_pin_i", 16 * 1024, 1, 150);
    p.zchunk_count = zchunks;
    p.fabric_rails = 4;
    p.labels["depth"] = "inf";
    p.labels["zchunks"] = std::to_string(zchunks);
    s.points.push_back(std::move(p));
  }
  s.probes = {{"send_retries", "pplci/", "/send_retries"}};
  return s;
}

SuiteSpec ablation_progress() {
  SuiteSpec s;
  s.name = "ablation_progress";
  s.figure = "progress-engine scaling ablation";
  s.title = "mt progress scaling: completion mechanism x workers";
  s.expectation =
      "the 16KiB flood rate holds or improves as idle workers join the mt "
      "progress pool, under both completion mechanisms";
  s.smoke = true;
  for (const char* comp : {"cq", "sy"}) {
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      const std::string config = std::string("lci_psr_") + comp + "_mt_i";
      PointSpec p = rate_point(config, 16 * 1024, 10, k16kFloodMsgs, 0.0);
      p.workers = workers;
      p.fabric_rails = 4;
      // Four zero-copy chunks per message: every parcel drives four
      // concurrent rendezvous handshakes through the shared tables, so
      // the point measures progress-path contention, not fabric copies.
      p.zchunk_count = 4;
      p.labels["comp"] = comp;
      // Every idle worker polls; the label keeps the recorded points'
      // identity.
      p.labels["tickets"] = "inf";
      p.labels["workers"] = std::to_string(workers);
      s.points.push_back(std::move(p));
    }
  }
  s.post_summary = print_progress_scaling;
  return s;
}

/// Fast-path ablation view: per LCI variant, the 8B flood-rate and 8B
/// latency ratio of fp=on over fp=off — the headline speedup table.
void print_fastpath_speedup(const SuiteResult& result) {
  struct Row {
    double rate_on = 0.0, rate_off = 0.0;
    double lat_on = 0.0, lat_off = 0.0;
  };
  std::vector<std::pair<std::string, Row>> rows;  // insertion order
  for (const auto& point : result.points) {
    const auto variant = point.labels.find("variant");
    const auto fp = point.labels.find("fp");
    const auto size = point.labels.find("msg_size");
    if (variant == point.labels.end() || fp == point.labels.end() ||
        size == point.labels.end() || size->second != "8") {
      continue;
    }
    auto it = std::find_if(rows.begin(), rows.end(), [&](const auto& row) {
      return row.first == variant->second;
    });
    if (it == rows.end()) {
      rows.push_back({variant->second, {}});
      it = rows.end() - 1;
    }
    const bool on = fp->second == "on";
    if (const auto* rate = point.metric("rate_kps")) {
      (on ? it->second.rate_on : it->second.rate_off) = rate->median;
    }
    if (const auto* lat = point.metric("latency_us")) {
      (on ? it->second.lat_on : it->second.lat_off) = lat->median;
    }
  }
  std::printf("\n# fast-path speedup at 8B (fp=on over fp=off)\n");
  std::printf("variant,rate_speedup,latency_ratio\n");
  double rate_log_sum = 0.0, lat_log_sum = 0.0;
  std::size_t rate_n = 0, lat_n = 0;
  for (const auto& [variant, row] : rows) {
    const double rate =
        row.rate_off > 0.0 ? row.rate_on / row.rate_off : 0.0;
    const double lat = row.lat_off > 0.0 ? row.lat_on / row.lat_off : 0.0;
    if (rate > 0.0) {
      rate_log_sum += std::log(rate);
      ++rate_n;
    }
    if (lat > 0.0) {
      lat_log_sum += std::log(lat);
      ++lat_n;
    }
    std::printf("%s,%.3f,%.3f\n", variant.c_str(), rate, lat);
  }
  if (rate_n > 0 && lat_n > 0) {
    std::printf("geomean,%.3f,%.3f\n", std::exp(rate_log_sum / rate_n),
                std::exp(lat_log_sum / lat_n));
  }
  std::fflush(stdout);
}

SuiteSpec ablation_fastpath() {
  SuiteSpec s;
  s.name = "ablation_fastpath";
  s.figure = "small-parcel fast-path ablation";
  s.expectation =
      "with the fast path on, every sub-threshold parcel rides one "
      "single-parcel frame instead of header + connection bookkeeping: the "
      "8B flood rate improves across all variants (most on sr, which "
      "otherwise pays receiver-connection acquisition per message) and "
      "single-parcel latency drops; at 4KiB the frame still fits and the "
      "win narrows but must not invert";
  s.title =
      "small-parcel fast path on/off (8 LCI variants x 8B/512B/4KiB)";
  s.smoke = true;
  const std::vector<const char*> variants = {
      "psr_cq_pin", "psr_cq_mt", "psr_sy_pin", "psr_sy_mt",
      "sr_cq_pin",  "sr_cq_mt",  "sr_sy_pin",  "sr_sy_mt"};
  struct Mode {
    const char* label;
    const char* token;
  };
  for (const Mode& mode : {Mode{"on", ""}, Mode{"off", "_fpoff"}}) {
    for (const char* variant : variants) {
      const std::string config =
          "lci_" + std::string(variant) + mode.token + "_i";
      // Rate floods at the three sizes the ablation argues over.
      PointSpec p8 = rate_point(config, 8, 100, k8bFloodMsgs, 0.0);
      PointSpec p512 = rate_point(config, 512, 100, k8bFloodMsgs, 0.0);
      PointSpec p4k = rate_point(config, 4096, 10, k16kFloodMsgs, 0.0);
      // Single-parcel (window 1) 8B latency. A deeper chain than the
      // fig8 base: per-hop savings of a few microseconds need more than a
      // couple of round trips per run to rise above scheduler noise at
      // smoke scale.
      PointSpec lat = latency_point(config, 8, 1, 200);
      for (PointSpec* p : {&p8, &p512, &p4k, &lat}) {
        p->labels["variant"] = variant;
        p->labels["fp"] = mode.label;
        s.points.push_back(std::move(*p));
      }
    }
  }
  s.probes = {{"fastpath_hits", "pplci/", "/fastpath_hits"},
              {"fastpath_fallbacks", "pplci/", "/fastpath_fallbacks"}};
  s.post_summary = print_fastpath_speedup;
  return s;
}

SuiteSpec ablation_collectives() {
  SuiteSpec s;
  s.name = "ablation_collectives";
  s.figure = "docs/collectives.md ablation";
  s.title =
      "collective round time: binomial-tree broadcast and recursive-doubling "
      "allreduce across locality counts";
  s.expectation =
      "on a message-rate-capped wire (0.02 Mpps per NIC, the only resource "
      "the fabric serialises across a rank's sends) binomial broadcast and "
      "recursive-doubling allreduce pay log2(n) gap-paced rounds of about "
      "50 us, so where CPU is not the bottleneck round time grows with "
      "log2(n), not n; on an oversubscribed host (2 workers for each of up "
      "to 16 localities) it grows faster. The 8 KiB payloads add a "
      "rendezvous handshake per message on top of the 8 B cost";
  s.smoke = true;
  // The wire: generous line rate (bandwidth is near-free for these payload
  // sizes), HDR-class latency, and a per-NIC message-rate cap that makes
  // per-rank sends the bottleneck — the regime Yan et al. identify for
  // small-parcel AMT traffic.
  const std::vector<std::uint32_t> kLocalities = {4, 8, 16};
  auto add = [&](const char* op, const char* algo, std::size_t payload) {
    for (const std::uint32_t n : kLocalities) {
      PointSpec p =
          coll_point("lci_psr_cq_pin_i", op, algo, n, payload, 40);
      p.rate_bandwidth_gbps = 50.0;
      p.rate_latency_us = 5.0;
      p.rate_pkt_mpps = 0.02;
      s.points.push_back(std::move(p));
    }
  };
  for (const std::size_t payload : {std::size_t{8}, std::size_t{8192}}) {
    add("allreduce", "rd", payload);
    add("broadcast", "tree", payload);
  }
  s.probes = {{"coll_msgs", "amt/coll/msgs", ""},
              {"coll_bytes", "amt/coll/bytes", ""}};
  return s;
}

SuiteSpec fft() {
  SuiteSpec s;
  s.name = "fft";
  s.figure = "docs/collectives.md workload";
  s.title =
      "distributed four-step FFT (row FFTs, all-to-all transpose, row FFTs) "
      "validated bit-exactly against a serial reference";
  s.expectation =
      "the transpose is a bandwidth-heavy all-to-all whose per-locality "
      "block shrinks as 1/n^2, so on the shaped wire the transform time is "
      "dominated by per-message cost of the pairwise exchange's n-1 "
      "steps; every run memcmp-validates the distributed result against the "
      "serial four-step reference, so any wire reordering or algorithm bug "
      "aborts the benchmark rather than skewing it";
  s.smoke = true;
  auto add = [&](const std::string& config, std::uint32_t n) {
    PointSpec p = fft_point(config, n, 64, 8);
    p.rate_bandwidth_gbps = 50.0;
    p.rate_latency_us = 5.0;
    p.rate_pkt_mpps = 0.05;
    s.points.push_back(std::move(p));
  };
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    add("lci_psr_cq_pin_i", n);
    add("mpi_i", n);
  }
  s.probes = {{"coll_msgs", "amt/coll/msgs", ""},
              {"coll_bytes", "amt/coll/bytes", ""}};
  return s;
}

void print_backend_summary(const SuiteResult& result) {
  // One row per (msg_size, metric): sim vs shm medians and their ratio.
  struct Cell {
    std::string metric;
    std::string msg_size;
    double sim = 0.0;
    double shm = 0.0;
  };
  std::vector<Cell> cells;
  for (const auto& point : result.points) {
    const auto config = point.labels.find("config");
    const auto size = point.labels.find("msg_size");
    if (config == point.labels.end() || size == point.labels.end()) continue;
    const bool shm =
        config->second.find("backendshm") != std::string::npos;
    for (const char* metric : {"rate_kps", "latency_us"}) {
      const auto* m = point.metric(metric);
      if (m == nullptr) continue;
      auto it = std::find_if(cells.begin(), cells.end(), [&](const Cell& c) {
        return c.metric == metric && c.msg_size == size->second;
      });
      if (it == cells.end()) {
        cells.push_back({metric, size->second, 0.0, 0.0});
        it = cells.end() - 1;
      }
      (shm ? it->shm : it->sim) = m->median;
    }
  }
  std::printf("\n# shm backend vs the simulator, same parcelport and "
              "traffic (ratio = shm / sim)\n");
  std::printf("metric,msg_size,sim,shm,ratio\n");
  for (const Cell& cell : cells) {
    const double ratio = cell.sim > 0.0 ? cell.shm / cell.sim : 0.0;
    std::printf("%s,%s,%.3f,%.3f,%.3f\n", cell.metric.c_str(),
                cell.msg_size.c_str(), cell.sim, cell.shm, ratio);
    if (cell.metric == "latency_us" && ratio > 3.0) {
      std::printf("# note: shm single-pair latency is %.1fx the simulator's "
                  "(target: within 3x)\n", ratio);
    }
  }
  std::fflush(stdout);
}

SuiteSpec ablation_backend() {
  SuiteSpec s;
  s.name = "ablation_backend";
  s.figure = "transport-backend ablation";
  s.title =
      "fabric backends head to head: the modelled simulator vs POSIX "
      "shared-memory rings, same parcelport and traffic";
  s.expectation =
      "the shm backend replaces the simulator's in-process delivery with "
      "real ring-buffer hand-offs and memcpy/CMA data movement, so its "
      "single-pair numbers carry genuine memory-system cost: latency should "
      "stay within a small factor (target 3x) of the zero-time simulator "
      "and the 8 B eager rate within the same order of magnitude. The "
      "payoff is not single-pair speed but scaling: shm ranks live in "
      "separate processes, so a multi-process launch (the scaling probe "
      "of bench_ablation_backend, and amtnet_launch in general) can "
      "use every core instead of time-slicing all localities on one "
      "process's scheduler quantum";
  // Wall-clock measurements of the real machine (the shm rows especially):
  // recorded and compared by eye, never gated — a committed baseline from
  // one machine says nothing about another's memory system.
  s.smoke = false;
  for (const char* config :
       {"lci_psr_cq_pin_i", "lci_psr_cq_pin_i_backendshm"}) {
    for (const std::size_t size : {std::size_t{8}, std::size_t{16384}}) {
      PointSpec p = rate_point(config, size, size == 8 ? 100 : 10,
                               size == 8 ? k8bFloodMsgs : k16kFloodMsgs, 0.0);
      p.platform = "loopback";
      s.points.push_back(std::move(p));
    }
    PointSpec lat = latency_point(config, 8, 1, kLatencyStepsSized);
    lat.platform = "loopback";
    s.points.push_back(std::move(lat));
  }
  s.metric_overrides = {
      {"rate_kps", "kps", false, /*gate=*/false, 0.30},
      {"injection_kps", "kps", false, /*gate=*/false, 0.30},
      {"latency_us", "us", true, /*gate=*/false, 0.30},
  };
  s.post_summary = print_backend_summary;
  return s;
}

SuiteSpec chaos() {
  SuiteSpec s;
  s.name = "chaos";
  s.figure = "robustness sweep";
  s.title = "8B message rate under injected drop/duplicate/corrupt faults";
  s.expectation =
      "integrity-only (CRC trailers, acks and retransmit tracking on a "
      "polite wire) prices the protocol alone; the rate degrades as drop = "
      "dup = corrupt rise to 5%, and every point still delivers every "
      "message (a lost one would hang the run, a duplicate aborts it)";
  struct Regime {
    const char* label;
    double fault_rate;  // drop = duplicate = corrupt probability
    bool integrity;
  };
  for (const char* config : {"lci_psr_cq_pin_i", "mpi_i"}) {
    for (const Regime& regime : {Regime{"clean", 0.0, false},
                                 Regime{"integrity", 0.0, true},
                                 Regime{"faults_1pct", 0.01, false},
                                 Regime{"faults_3pct", 0.03, false},
                                 Regime{"faults_5pct", 0.05, false}}) {
      PointSpec p = rate_point(config, 8, 100, 20000, 0.0);
      p.fault_rate = regime.fault_rate;
      p.fault_integrity = regime.integrity;
      p.labels["regime"] = regime.label;
      s.points.push_back(std::move(p));
    }
  }
  // The injected faults and the retransmits that recovered them.
  s.probes = {{"faults_dropped", "fabric/", "/faults_dropped"},
              {"faults_duplicated", "fabric/", "/faults_duplicated"},
              {"faults_corrupted", "fabric/", "/faults_corrupted"},
              {"retransmits", "reliable/", "/retransmits"}};
  return s;
}

SuiteSpec overhead() {
  SuiteSpec s;
  s.name = "overhead";
  s.figure = "telemetry overhead";
  s.title = "unlimited 8B flood on lci_psr_cq_pin_i, the fastest config";
  s.expectation =
      "run three times: as built, with AMTNET_TELEMETRY=0, and from a "
      "-DAMTNET_TELEMETRY_DISABLED build. Timers are sampled (1 operation "
      "in 16), so the as-built rate stays within ~5% of the disabled build, "
      "and AMTNET_TELEMETRY=0 within noise of it";
  s.points.push_back(rate_point("lci_psr_cq_pin_i", 8, 100, 20000, 0.0));
  return s;
}

}  // namespace

void register_all() {
  static const bool registered = [] {
    SuiteRegistry& registry = SuiteRegistry::instance();
    registry.add(fig1());
    registry.add(fig2());
    registry.add(fig3());
    registry.add(fig4());
    registry.add(fig5());
    registry.add(fig6());
    registry.add(fig7());
    registry.add(fig8());
    registry.add(fig9());
    registry.add(fig10());
    registry.add(fig11());
    registry.add(ablation_mpi_original());
    registry.add(ablation_mpi_lock());
    registry.add(ablation_zc_threshold());
    registry.add(ablation_aggregation());
    registry.add(ablation_rails());
    registry.add(ablation_pipeline());
    registry.add(ablation_progress());
    registry.add(ablation_fastpath());
    registry.add(ablation_collectives());
    registry.add(ablation_backend());
    registry.add(fft());
    registry.add(chaos());
    registry.add(overhead());
    return true;
  }();
  (void)registered;
}

expdriver::PointRunner make_harness_runner(const SuiteSpec& spec) {
  const std::vector<expdriver::TelemetryProbe> probes = spec.probes;
  return [probes](const PointSpec& p, const RunEnv& env) -> Sample {
    telemetry::Snapshot snapshot;
    bool have_snapshot = false;
    if (!probes.empty()) {
      bench::set_snapshot_sink([&](const telemetry::Snapshot& snap) {
        snapshot = snap;
        have_snapshot = true;
      });
    }

    Sample sample;
    const unsigned workers = p.workers != 0 ? p.workers : env.workers;
    switch (p.kind) {
      case PointKind::kRate: {
        RateParams params;
        params.parcelport = p.parcelport;
        params.msg_size = p.msg_size;
        params.batch = p.batch;
        params.total_msgs = expdriver::scaled_count(p.base_total_msgs,
                                                    env.scale);
        params.attempted_rate = p.attempted_rate;
        params.workers = workers;
        params.platform = p.platform;
        params.zero_copy_threshold = p.zero_copy_threshold;
        params.max_connections = p.max_connections;
        params.fabric_rails = p.fabric_rails;
        params.zchunk_count = p.zchunk_count;
        params.bandwidth_gbps = p.rate_bandwidth_gbps;
        params.latency_us = p.rate_latency_us;
        params.pkt_rate_mpps = p.rate_pkt_mpps;
        params.faults.drop = params.faults.duplicate =
            params.faults.corrupt = p.fault_rate;
        params.faults.integrity = p.fault_integrity;
        params.faults.seed = 12345;  // the same fault pattern in every run
        const RateResult result = run_message_rate(params);
        sample.push_back(
            {"injection_kps", result.achieved_injection_rate / 1e3});
        sample.push_back({"rate_kps", result.message_rate / 1e3});
        break;
      }
      case PointKind::kLatency: {
        LatencyParams params;
        params.parcelport = p.parcelport;
        params.msg_size = p.msg_size;
        params.window = p.window;
        params.steps = static_cast<unsigned>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.workers = workers;
        params.platform = p.platform;
        params.zero_copy_threshold = p.zero_copy_threshold;
        params.fabric_rails = p.fabric_rails;
        params.zchunk_count = p.zchunk_count;
        sample.push_back({"latency_us", run_latency_us(params)});
        break;
      }
      case PointKind::kOcto: {
        OctoParams params;
        params.parcelport = p.parcelport;
        params.platform = p.platform;
        params.localities = p.localities;
        params.level = p.level;
        params.steps = static_cast<int>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.workers = workers;
        sample.push_back({"steps_per_s", run_octo_steps_per_second(params)});
        break;
      }
      case PointKind::kColl: {
        CollBenchParams params;
        params.parcelport = p.parcelport;
        params.platform = p.platform;
        params.localities = p.localities;
        params.workers = workers;
        params.op = p.coll_op;
        params.payload_bytes = p.msg_size;
        params.iters = static_cast<int>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.bandwidth_gbps = p.rate_bandwidth_gbps;
        params.latency_us = p.rate_latency_us;
        params.pkt_rate_mpps = p.rate_pkt_mpps;
        params.fabric_rails = p.fabric_rails;
        sample.push_back({"coll_us", run_collective_us(params)});
        break;
      }
      case PointKind::kFft: {
        FftParams params;
        params.parcelport = p.parcelport;
        params.platform = p.platform;
        params.localities = p.localities;
        params.workers = workers;
        params.dim = p.fft_dim;
        params.iters = static_cast<int>(
            expdriver::scaled_count(static_cast<std::size_t>(p.base_steps),
                                    env.scale));
        params.bandwidth_gbps = p.rate_bandwidth_gbps;
        params.latency_us = p.rate_latency_us;
        params.pkt_rate_mpps = p.rate_pkt_mpps;
        params.fabric_rails = p.fabric_rails;
        sample.push_back({"fft_ms", run_fft(params).ms_per_fft});
        break;
      }
    }

    if (!probes.empty()) {
      bench::set_snapshot_sink(nullptr);
      for (const auto& probe : probes) {
        sample.push_back(
            {probe.metric,
             have_snapshot ? static_cast<double>(snapshot.counter_sum(
                                 probe.prefix, probe.suffix))
                           : 0.0});
      }
    }
    return sample;
  };
}

}  // namespace bench::suites
