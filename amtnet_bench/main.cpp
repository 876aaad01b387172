// amtnet_bench: end-to-end benchmark of the amtnet stack with an outside-in
// per-layer trace of the parcel path. See README.md for the workloads, the
// metrics and the run discipline.
//
//   amtnet_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//                [--json FILE] [--selftest]
//
// Prints one line per metric, "workload metric value unit n=samples", and
// exits 0 only when every output check passed (1: a check failed, 2: bad
// arguments or environment, 3: watchdog).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "common/affinity.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using amtbench::Metric;
using amtbench::RunOptions;
using amtbench::WorkloadResult;
using amtbench::WorkloadSpec;

struct Args {
  std::vector<const WorkloadSpec*> workloads;
  RunOptions run;
  std::string json_path;
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "amtnet_bench: %s\n"
               "usage: amtnet_bench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1] [--json FILE] [--selftest]\n",
               error.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0' || errno == ERANGE) {
    usage(std::string("bad value for ") + flag + ": " + text);
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  args.run.trace = true;  // standalone runs print every metric
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const char* value = argv[++i];
    if (flag == "--workload") {
      const WorkloadSpec* spec = amtbench::find_workload(value);
      if (spec == nullptr) usage(std::string("unknown workload ") + value);
      args.workloads.push_back(spec);
    } else if (flag == "--seed") {
      args.run.seed = parse_u64(value, "--seed");
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.run.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.run.seconds > 0.0) ||
          args.run.seconds > 600.0) {
        usage(std::string("--seconds must be in (0, 600]: ") + value);
      }
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(value, "--trace");
      if (trace > 1) usage("--trace must be 0 or 1");
      args.run.trace = trace == 1;
    } else if (flag == "--json") {
      args.json_path = value;
    } else {
      usage("unknown argument " + std::string(flag));
    }
  }
  args.run.check_seed = args.run.seed;
  if (args.workloads.empty()) {
    for (const WorkloadSpec& spec : amtbench::workloads()) {
      args.workloads.push_back(&spec);
    }
  }
  return args;
}

/// AMTNET_* variables override the stack configuration this benchmark
/// fixes (AMTNET_BACKEND would silently turn flood_8b into flood_8b_shm).
bool environment_is_clean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "AMTNET_", 7) == 0) {
      std::fprintf(stderr, "amtnet_bench: refusing to run with %s set\n",
                   *env);
      clean = false;
    }
  }
  return clean;
}

void print_metrics(const std::string& workload,
                   const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s n=%llu\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.n));
  }
}

void print_result(const WorkloadResult& result) {
  std::printf("# %s: backend=%s wire=%s\n", result.name.c_str(),
              result.backend.c_str(), result.wire.c_str());
  print_metrics(result.name, result.end_to_end);
  print_metrics(result.name, result.recorded);
  print_metrics(result.name, result.per_layer);
  for (const std::string& failure : result.failures) {
    std::printf("# FAILED %s\n", failure.c_str());
  }
  std::fflush(stdout);
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\n      " : ",\n      ") + json_string(metrics[i].name) +
           ": {\"value\": " + value + ", \"unit\": " +
           json_string(metrics[i].unit) +
           ", \"n\": " + std::to_string(metrics[i].n) + "}";
  }
  return out + (metrics.empty() ? "}" : "\n    }");
}

bool write_json(const std::string& path, const Args& args,
                const std::vector<WorkloadResult>& results) {
  std::string out = "{\n  \"schema\": \"amtnet-bench-v1\",\n";
  char seconds[64];
  std::snprintf(seconds, sizeof(seconds), "%.17g", args.run.seconds);
  out += "  \"provenance\": {\"host_cores\": " +
         std::to_string(common::hardware_core_count()) +
         ", \"build_type\": " + json_string(AMTNET_BENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string("g++ " __VERSION__) +
         ", \"seed\": " + std::to_string(args.run.seed) +
         ", \"seconds\": " + seconds +
         ", \"repetitions\": " + std::to_string(amtbench::kRepetitions) +
         ", \"trace\": " + (args.run.trace ? "true" : "false") +
         ", \"parcelport\": " + json_string(amtbench::kParcelport) +
         ", \"localities\": " + std::to_string(amtbench::kLocalities) +
         ", \"workers_per_locality\": " +
         std::to_string(amtbench::kWorkersPerLocality) + "},\n";
  out += "  \"workloads\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    std::string failures = "[";
    for (std::size_t f = 0; f < r.failures.size(); ++f) {
      failures += (f == 0 ? "" : ", ") + json_string(r.failures[f]);
    }
    failures += "]";
    out += std::string(i == 0 ? "\n" : ",\n") + "    {\"name\": " +
           json_string(r.name) + ", \"backend\": " + json_string(r.backend) +
           ", \"wire\": " + json_string(r.wire) +
           ", \"correct\": " + (r.correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"failures\": " + failures +
           ",\n    \"end_to_end\": " + json_metrics(r.end_to_end) +
           ",\n    \"recorded\": " + json_metrics(r.recorded) +
           ",\n    \"per_layer\": " + json_metrics(r.per_layer) + "}";
  }
  out += "\n  ]\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fputs(out.c_str(), file) >= 0;
  return std::fclose(file) == 0 && ok;
}

/// Every workload at 1% of the default run length, traced; then the
/// negative case: receivers check against seed+1, so every workload must
/// fail its checks with fail_frac = 1.
int selftest() {
  RunOptions options;
  options.seconds = 0.1;
  options.trace = true;
  bool ok = true;
  for (const WorkloadSpec& spec : amtbench::workloads()) {
    const WorkloadResult result = amtbench::run_workload(spec, options);
    print_result(result);
    if (!result.correct()) {
      std::printf("# selftest: %s failed its output checks\n", spec.name);
      ok = false;
    }
  }

  RunOptions negative;
  negative.seed = 1;
  negative.check_seed = 2;
  negative.seconds = 0.1;
  for (const WorkloadSpec& spec : amtbench::workloads()) {
    const WorkloadResult result = amtbench::run_workload(spec, negative);
    const Metric* fail_frac = nullptr;
    for (const Metric& m : result.recorded) {
      if (m.name == "fail_frac") fail_frac = &m;
    }
    const bool all_failed =
        !result.correct() && fail_frac != nullptr && fail_frac->value == 1.0;
    std::printf("# selftest negative case: %s fail_frac=%g %s\n", spec.name,
                fail_frac != nullptr ? fail_frac->value : 0.0,
                all_failed ? "ok" : "FAILED");
    if (!all_failed) ok = false;
  }
  std::printf("# selftest %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!environment_is_clean()) return 2;
  try {
    if (args.selftest) return selftest();

    std::printf("# amtnet_bench: seed=%llu seconds=%g trace=%d "
                "host_cores=%u parcelport=%s build=%s\n",
                static_cast<unsigned long long>(args.run.seed),
                args.run.seconds, args.run.trace ? 1 : 0,
                common::hardware_core_count(), amtbench::kParcelport,
                AMTNET_BENCH_BUILD_TYPE);
    std::vector<WorkloadResult> results;
    bool correct = true;
    for (const WorkloadSpec* spec : args.workloads) {
      results.push_back(amtbench::run_workload(*spec, args.run));
      print_result(results.back());
      correct = correct && results.back().correct();
    }
    if (!args.json_path.empty() &&
        !write_json(args.json_path, args, results)) {
      std::fprintf(stderr, "amtnet_bench: cannot write %s\n",
                   args.json_path.c_str());
      return 2;
    }
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "amtnet_bench: %s\n", error.what());
    return 2;
  }
}
