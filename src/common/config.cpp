#include "common/config.hpp"

#include <cstdlib>

namespace common {

namespace {
std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const auto end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}
}  // namespace

std::vector<std::string> split_trim(const std::string& text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto pos = text.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(trim(text.substr(start)));
      break;
    }
    out.push_back(trim(text.substr(start, pos - start)));
    start = pos + 1;
  }
  while (!out.empty() && out.back().empty()) out.pop_back();
  return out;
}

KvConfig KvConfig::parse(const std::string& text) {
  KvConfig config;
  for (const auto& piece : split_trim(text, ',')) {
    if (piece.empty()) continue;
    const auto eq = piece.find('=');
    // A bare key (no '=') acts as a boolean flag.
    std::string value =
        eq == std::string::npos ? std::string("1") : trim(piece.substr(eq + 1));
    config.kv_.insert_or_assign(trim(piece.substr(0, eq)), std::move(value));
  }
  return config;
}

std::optional<std::string> KvConfig::get(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string KvConfig::get_or(const std::string& key,
                             const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t KvConfig::get_int_or(const std::string& key,
                                  std::int64_t fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return std::strtoll(value->c_str(), nullptr, 10);
}

double KvConfig::get_double_or(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return std::strtod(value->c_str(), nullptr);
}

bool KvConfig::get_bool_or(const std::string& key, bool fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  return *value == "1" || *value == "true" || *value == "yes" ||
         *value == "on";
}

void KvConfig::set(const std::string& key, const std::string& value) {
  kv_[key] = value;
}

bool KvConfig::contains(const std::string& key) const {
  return kv_.count(key) != 0;
}

const std::vector<Knob>& knob_registry() {
  using Kind = Knob::Kind;
  static const std::vector<Knob> knobs = {
      // -- benchmark / driver environment --
      {Kind::kEnv, "AMTNET_BENCH_SCALE", "1.0",
       "multiplies every suite's message/step counts (scaled counts are "
       "clamped to >= 1)",
       "bench_suite (pinned by CI bench-gate)"},
      {Kind::kEnv, "AMTNET_BENCH_RUNS", "2",
       "recorded repetitions per data point; the driver reports the median "
       "of N plus mean/stddev",
       "bench_suite --run (pinned by CI bench-gate)"},
      {Kind::kEnv, "AMTNET_BENCH_WARMUP", "1",
       "discarded leading runs per data point (cold-start: first runtime "
       "construction, allocator warm-up)",
       "bench_suite --run"},
      {Kind::kEnv, "AMTNET_BENCH_WORKERS", "8",
       "worker threads per locality for suite points that do not pin their "
       "own count",
       "bench_suite (pinned by CI bench-gate)"},
      {Kind::kEnv, "AMTNET_LOG", "warn",
       "stack log level: error|warn|info|debug", "any binary"},
      // -- telemetry --
      {Kind::kEnv, "AMTNET_TELEMETRY", "1",
       "0/off/false: kill switch for timing instrumentation (no clock "
       "reads, no tracing; counters stay on)",
       "bench_suite --run overhead, run with AMTNET_TELEMETRY=0"},
      {Kind::kEnv, "AMTNET_TRACE_FILE", "unset (off)",
       "path of a Chrome trace of every run: setting it turns the trace "
       "recorder on, and bench_suite writes the file after its runs",
       "bench_suite --run / --check / --spmd-rate"},
      {Kind::kEnv, "AMTNET_LCI_PACKET_POOL", "4096",
       "send-side packet-pool size in minilci (a pool of 1 forces fast-path "
       "pool exhaustion — the credit-conservation regression setup)",
       "test_amt AdmissionTest"},
      {Kind::kEnv, "AMTNET_CHAOS_SEEDS", "1..8 in CI",
       "comma-separated seed sweep for the chaos test harness",
       "CI chaos-smoke (test_chaos)"},
      // -- transport backends (sim | shm) and multi-process launch --
      {Kind::kEnv, "AMTNET_BACKEND", "sim",
       "fabric transport backend: sim (in-process simulated RDMA fabric) or "
       "shm (real POSIX shared-memory fabric); overrides the backend<name> "
       "config token and StackOptions",
       "amtnet_launch, test_backends"},
      {Kind::kEnv, "AMTNET_SHM_RANK", "-1 (single-process)",
       "shm backend: the locality rank hosted by THIS process; set per "
       "process by amtnet_launch. Unset/-1 constructs every rank in one "
       "process (conformance-test mode)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_SHM_RANKS", "unset",
       "shm backend: total locality count of the multi-process run; "
       "overrides StackOptions::num_localities (set by amtnet_launch)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_SHM_SESSION", "per-fabric unique",
       "shm backend: rendezvous namespace shared by all processes of one "
       "run; segment names derive from it (set by amtnet_launch)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_SHM_RING_DEPTH", "256",
       "shm backend: slots per directed per-pair ring (rounded up to a "
       "power of two); each slot holds one eager datagram",
       "test_backends"},
      {Kind::kEnv, "AMTNET_SHM_FORCE_FALLBACK", "0",
       "shm backend: 1 disables the direct (same-process) and cross-memory "
       "attach copy modes so one-sided put/get takes the segmented "
       "ring-record path (testing)",
       "test_backends"},
      {Kind::kEnv, "AMTNET_CPU_FIRST", "unset (no pinning)",
       "first CPU of this process's affinity range; worker/progress threads "
       "pin into [first, first+count) (set per rank by amtnet_launch)",
       "amtnet_launch"},
      {Kind::kEnv, "AMTNET_CPU_COUNT", "hardware cores",
       "number of CPUs in this process's affinity range",
       "amtnet_launch"},
      // -- parcelport config-name tokens (Table 1 + ablations) --
      {Kind::kConfigToken, "mpi | lci", "lci",
       "backend selection prefix of the configuration name",
       "fig1_msgrate_8b"},
      {Kind::kConfigToken, "psr | sr", "psr",
       "LCI header protocol: one-sided dynamic put vs two-sided send/recv",
       "fig2_msgrate_8b_lci"},
      {Kind::kConfigToken, "cq | sy", "cq",
       "LCI completion mechanism: completion queue vs synchronizer",
       "fig5_msgrate_16k_lci"},
      {Kind::kConfigToken, "pin | mt", "pin",
       "progress engine: dedicated pinned thread vs idle worker threads "
       "(paper alias: rp = pin)",
       "fig2_msgrate_8b_lci"},
      {Kind::kConfigToken, "_i", "off",
       "send-immediate: bypass the parcel queue and connection cache",
       "ablation_aggregation"},
      {Kind::kConfigToken, "fpoff", "off (fast path on)",
       "turns off the LCI small-parcel fast path, which sends every parcel "
       "whose frame fits one eager message as a single put-with-completion "
       "frame, skipping connection acquisition and follow-up transfers",
       "ablation_fastpath"},
      {Kind::kConfigToken, "agg", "off",
       "LCI adaptive aggregation: coalesce fast-path parcels bound for a "
       "backpressured destination into one batch frame of at most one eager "
       "message, flushed when full, on window stall (the buffer absorbed "
       "every outstanding admission credit), after 200 microseconds, on "
       "idle background work, or at stop",
       "ablation_aggregation"},
      {Kind::kConfigToken, "block<N>", "off",
       "send-path admission window: at most N fire-and-forget parcels per "
       "destination accepted and not yet executed; a sender at the bound "
       "waits (running tasks and progress). Its depth is the aggregation "
       "engine's backpressure signal",
       "ablation_aggregation"},
      {Kind::kConfigToken, "fine", "off (coarse)",
       "fine-grained progress lock in the MPI/UCX layer",
       "ablation_mpi_lock"},
      {Kind::kConfigToken, "orig", "off (improved)",
       "pre-optimisation MPI parcelport (static 512B header, tag-release "
       "protocol)",
       "ablation_mpi_original"},
      // -- CMake options --
      {Kind::kCMake, "AMTNET_TELEMETRY_DISABLED", "OFF",
       "compile every telemetry primitive to an inline no-op",
       "bench_suite --run overhead from such a build; CI telemetry-disabled"},
      {Kind::kCMake, "AMTNET_SANITIZE", "off",
       "thread|address sanitizer build (address = ASan+UBSan)",
       "CI tsan and asan jobs"},
  };
  return knobs;
}

}  // namespace common
