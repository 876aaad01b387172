// Experiment driver CLI: the one entry point to the declarative suite
// registry.
//
//   bench_suite --list
//       Enumerate every registered suite (one line per suite).
//   bench_suite --run <suite|smoke|all> [--results-dir D]
//       Run the selected suites and write BENCH_<suite>.json into the
//       results directory (default <repo>/bench/results).
//   bench_suite --check [suite|smoke|all] [--baseline-dir D]
//                [--tolerance-scale X] [--use-results]
//       Re-run the selected suites (or, with --use-results, reuse the files
//       in the results directory) and compare against the committed
//       baselines. Exits 1 when any gated metric regressed beyond its
//       tolerance band. This is the CI perf-regression gate.
//   bench_suite --render [--dry-run]
//       Regenerate docs/figures.md and the marked blocks of EXPERIMENTS.md
//       and docs/tuning.md from the registry, the knob registry and the
//       recorded results. --dry-run writes nothing and exits 1 if any file
//       would change (the CI docs-freshness gate).
//
// Shared flags: --repo-root <dir> (default "."), --results-dir,
// --baseline-dir.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "expdriver/compare.hpp"
#include "expdriver/driver.hpp"
#include "expdriver/registry.hpp"
#include "expdriver/render.hpp"
#include "expdriver/results.hpp"
#include "suites.hpp"

namespace {

using expdriver::SuiteRegistry;
using expdriver::SuiteResult;
using expdriver::SuiteSpec;

struct Options {
  std::string mode;           // list | run | check | render
  std::string target;         // suite name | "all" | "smoke"
  std::string repo_root = ".";
  std::string results_dir;    // default <repo_root>/bench/results
  std::string baseline_dir;   // default <repo_root>/bench/baselines
  double tolerance_scale = 1.0;
  bool use_results = false;   // --check: reuse recorded results, don't re-run
  bool dry_run = false;       // --render: report-only
};

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: bench_suite --list\n"
      "       bench_suite --run <suite|smoke|all> [--results-dir D]\n"
      "       bench_suite --check [suite|smoke|all] [--baseline-dir D]\n"
      "                   [--tolerance-scale X] [--use-results]\n"
      "       bench_suite --render [--dry-run]\n"
      "shared: --repo-root <dir> (default .)\n"
      "env:    AMTNET_BENCH_SCALE/RUNS/WARMUP/WORKERS scale the runs\n");
}

std::vector<const SuiteSpec*> select_suites(const std::string& target) {
  SuiteRegistry& registry = SuiteRegistry::instance();
  if (target == "all") return registry.all();
  if (target == "smoke") return registry.smoke();
  std::vector<const SuiteSpec*> picked;
  if (const SuiteSpec* spec = registry.find(target)) picked.push_back(spec);
  return picked;
}

std::string join_path(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  if (dir.back() == '/') return dir + name;
  return dir + "/" + name;
}

int do_list() {
  std::printf("%-28s %-32s %6s %s\n", "suite", "figure", "points",
              "smoke");
  for (const SuiteSpec* spec : SuiteRegistry::instance().all()) {
    std::printf("%-28s %-32s %6zu %s\n", spec->name.c_str(),
                spec->figure.c_str(), spec->points.size(),
                spec->smoke ? "yes" : "-");
  }
  return 0;
}

SuiteResult run_one(const SuiteSpec& spec, const expdriver::RunEnv& env) {
  std::printf("== %s (%s) ==\n", spec.name.c_str(), spec.figure.c_str());
  return expdriver::run_suite(spec, env,
                              bench::suites::make_harness_runner(spec));
}

int do_run(const Options& options) {
  const auto suites = select_suites(options.target);
  if (suites.empty()) {
    std::fprintf(stderr, "no suite matches '%s' (try --list)\n",
                 options.target.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.results_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n",
                 options.results_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const expdriver::RunEnv env = expdriver::run_env_from_environment();
  for (const SuiteSpec* spec : suites) {
    const SuiteResult result = run_one(*spec, env);
    const std::string path = join_path(
        options.results_dir, expdriver::results_file_name(spec->name));
    if (!expdriver::write_file(path, expdriver::results_to_json(result))) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int do_check(const Options& options) {
  const auto suites = select_suites(options.target);
  if (suites.empty()) {
    std::fprintf(stderr, "no suite matches '%s' (try --list)\n",
                 options.target.c_str());
    return 2;
  }
  const expdriver::RunEnv env = expdriver::run_env_from_environment();
  expdriver::CompareOptions compare_options;
  compare_options.tolerance_scale = options.tolerance_scale;
  int checked = 0;
  bool failed = false;
  for (const SuiteSpec* spec : suites) {
    const std::string baseline_path = join_path(
        options.baseline_dir, expdriver::results_file_name(spec->name));
    const auto baseline_text = expdriver::read_file(baseline_path);
    if (!baseline_text) {
      std::printf("-- %s: no baseline at %s, skipping\n", spec->name.c_str(),
                  baseline_path.c_str());
      continue;
    }
    const auto baseline = expdriver::results_from_json(*baseline_text);
    if (!baseline) {
      std::fprintf(stderr, "-- %s: baseline %s is malformed\n",
                   spec->name.c_str(), baseline_path.c_str());
      failed = true;
      continue;
    }
    SuiteResult current;
    if (options.use_results) {
      const std::string results_path = join_path(
          options.results_dir, expdriver::results_file_name(spec->name));
      const auto text = expdriver::read_file(results_path);
      const auto parsed =
          text ? expdriver::results_from_json(*text) : std::nullopt;
      if (!parsed) {
        std::fprintf(stderr, "-- %s: no usable results at %s\n",
                     spec->name.c_str(), results_path.c_str());
        failed = true;
        continue;
      }
      current = *parsed;
    } else {
      current = run_one(*spec, env);
    }
    const expdriver::CompareReport report = expdriver::compare_results(
        spec, *baseline, current, compare_options);
    ++checked;
    for (const std::string& note : report.notes) {
      std::printf("-- %s: note: %s\n", spec->name.c_str(), note.c_str());
    }
    for (const std::string& regression : report.regressions) {
      std::fprintf(stderr, "-- %s: REGRESSION: %s\n", spec->name.c_str(),
                   regression.c_str());
    }
    std::printf("-- %s: %s\n", spec->name.c_str(),
                report.failed() ? "FAIL" : "ok");
    failed = failed || report.failed();
  }
  if (checked == 0 && !failed) {
    std::printf("no baselines found under %s; nothing gated\n",
                options.baseline_dir.c_str());
  }
  return failed ? 1 : 0;
}

expdriver::ResultsBySuite load_results(const std::string& results_dir) {
  expdriver::ResultsBySuite results;
  for (const SuiteSpec* spec : SuiteRegistry::instance().all()) {
    const std::string path =
        join_path(results_dir, expdriver::results_file_name(spec->name));
    const auto text = expdriver::read_file(path);
    if (!text) continue;
    if (auto parsed = expdriver::results_from_json(*text)) {
      results.emplace(spec->name, std::move(*parsed));
    } else {
      std::fprintf(stderr, "warning: ignoring malformed %s\n", path.c_str());
    }
  }
  return results;
}

/// Writes (or, in dry-run, diff-checks) one rendered file. Returns false on
/// hard errors; sets `stale` when dry-run detects a needed change.
bool emit(const std::string& path, const std::string& rendered, bool dry_run,
          bool& stale) {
  const auto existing = expdriver::read_file(path);
  if (existing && *existing == rendered) {
    std::printf("fresh  %s\n", path.c_str());
    return true;
  }
  if (dry_run) {
    std::printf("STALE  %s (re-run `bench_suite --render` and commit)\n",
                path.c_str());
    stale = true;
    return true;
  }
  if (!expdriver::write_file(path, rendered)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote  %s\n", path.c_str());
  return true;
}

/// Re-renders the block between `begin`/`end` markers of the file. Missing
/// markers are a hard error: the docs gate must not silently skip a file.
bool emit_block(const std::string& path, const char* begin, const char* end,
                const std::string& payload, bool dry_run, bool& stale) {
  const auto content = expdriver::read_file(path);
  if (!content) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  const auto replaced =
      expdriver::replace_between(*content, begin, end, payload);
  if (!replaced) {
    std::fprintf(stderr, "%s: markers '%s' .. '%s' missing or out of order\n",
                 path.c_str(), begin, end);
    return false;
  }
  return emit(path, *replaced, dry_run, stale);
}

int do_render(const Options& options) {
  const auto suites = SuiteRegistry::instance().all();
  const expdriver::ResultsBySuite results =
      load_results(options.results_dir);
  bool stale = false;
  bool ok = true;
  std::error_code ec;
  std::filesystem::create_directories(join_path(options.repo_root, "docs"),
                                      ec);
  ok = emit(join_path(options.repo_root, "docs/figures.md"),
            expdriver::render_figures_md(suites, results), options.dry_run,
            stale) &&
       ok;
  ok = emit_block(join_path(options.repo_root, "EXPERIMENTS.md"),
                  expdriver::kExperimentsBegin, expdriver::kExperimentsEnd,
                  expdriver::render_experiments_block(suites, results),
                  options.dry_run, stale) &&
       ok;
  ok = emit_block(join_path(options.repo_root, "docs/tuning.md"),
                  expdriver::kKnobsBegin, expdriver::kKnobsEnd,
                  expdriver::render_knobs_block(common::knob_registry()),
                  options.dry_run, stale) &&
       ok;
  if (!ok) return 2;
  return stale ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--list") == 0) {
      options.mode = "list";
    } else if (std::strcmp(arg, "--run") == 0) {
      options.mode = "run";
      options.target = value("--run");
    } else if (std::strcmp(arg, "--check") == 0) {
      options.mode = "check";
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        options.target = argv[++i];
      } else {
        options.target = "smoke";
      }
    } else if (std::strcmp(arg, "--render") == 0) {
      options.mode = "render";
    } else if (std::strcmp(arg, "--dry-run") == 0) {
      options.dry_run = true;
    } else if (std::strcmp(arg, "--use-results") == 0) {
      options.use_results = true;
    } else if (std::strcmp(arg, "--repo-root") == 0) {
      options.repo_root = value(arg);
    } else if (std::strcmp(arg, "--results-dir") == 0) {
      options.results_dir = value(arg);
    } else if (std::strcmp(arg, "--baseline-dir") == 0) {
      options.baseline_dir = value(arg);
    } else if (std::strcmp(arg, "--tolerance-scale") == 0) {
      options.tolerance_scale = std::atof(value(arg));
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      usage(stderr);
      return 2;
    }
  }
  if (options.mode.empty()) {
    usage(stderr);
    return 2;
  }
  if (options.results_dir.empty()) {
    options.results_dir = join_path(options.repo_root, "bench/results");
  }
  if (options.baseline_dir.empty()) {
    options.baseline_dir = join_path(options.repo_root, "bench/baselines");
  }

  bench::suites::register_all();
  if (options.mode == "list") return do_list();
  if (options.mode == "run") return do_run(options);
  if (options.mode == "check") return do_check(options);
  return do_render(options);
}
