// The benchmark's workloads and the repetition discipline that runs them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace amtbench {

/// Every workload runs this stack configuration: the paper's best LCI
/// variant, 2 localities x 1 worker, so the runtime has 2 workers plus
/// 2 pinned progress threads.
inline constexpr const char* kParcelport = "lci_psr_cq_pin_i";
inline constexpr unsigned kLocalities = 2;
inline constexpr unsigned kWorkersPerLocality = 1;
inline constexpr int kRepetitions = 10;

enum class Kind { kPingpong, kFlood, kOcto };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  const char* backend;        // fabric backend: "sim" or "shm"
  std::size_t payload_bytes;  // parcel payload (octo: its traced markers)
  std::size_t window;         // flood: most parcels sent but not yet verified
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;        // derives every payload byte and the octo seed
  std::uint64_t check_seed = 1;  // receivers verify against this seed; only
                                 // the self-test's negative case moves it
  double seconds = 10.0;         // timed seconds, summed over the repetitions
  bool trace = false;            // add the traced repetition and the probes
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t n = 0;  // samples behind the value
};

struct WorkloadResult {
  std::string name;
  std::string backend;
  std::string wire;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // named failed checks
  std::vector<Metric> end_to_end;     // untraced repetitions
  std::vector<Metric> recorded;       // printed, never gated
  std::vector<Metric> per_layer;      // traced repetition (trace only)

  bool correct() const { return failed == 0 && failures.empty(); }
};

WorkloadResult run_workload(const WorkloadSpec& spec,
                            const RunOptions& options);

}  // namespace amtbench
