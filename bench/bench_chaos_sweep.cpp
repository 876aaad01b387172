// Chaos sweep: message rate under escalating fault injection, plus the cost
// of the integrity machinery itself.
//
// Three regimes per configuration:
//   * clean        — faults off, integrity off: the PR-2 baseline numbers.
//   * integrity    — zero fault probabilities but AMTNET_FAULT_INTEGRITY=1:
//                    CRC trailers, acks, and retransmit tracking run on a
//                    polite network. The clean-vs-integrity gap is the pure
//                    protocol overhead (acceptance: within noise for the
//                    fault-free case only when integrity is off, which is
//                    the default).
//   * drop/dup/corrupt at 1%, 3%, 5% — throughput under real chaos: rates
//                    degrade with retransmits but every run still delivers
//                    everything (the harness validates counts internally).
//
// Faults are passed through the AMTNET_FAULT_* environment knobs, exactly
// as a user would inject them, so this bench also exercises that plumbing.
// Seeds are fixed per point; rerunning reproduces the same fault pattern.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"

namespace {

struct Regime {
  const char* label;
  const char* drop;
  const char* dup;
  const char* corrupt;
  const char* integrity;
};

void apply_regime(const Regime& regime) {
  setenv("AMTNET_FAULT_DROP", regime.drop, 1);
  setenv("AMTNET_FAULT_DUP", regime.dup, 1);
  setenv("AMTNET_FAULT_CORRUPT", regime.corrupt, 1);
  setenv("AMTNET_FAULT_INTEGRITY", regime.integrity, 1);
  setenv("AMTNET_FAULT_SEED", "12345", 1);
}

void clear_regime() {
  unsetenv("AMTNET_FAULT_DROP");
  unsetenv("AMTNET_FAULT_DUP");
  unsetenv("AMTNET_FAULT_CORRUPT");
  unsetenv("AMTNET_FAULT_INTEGRITY");
  unsetenv("AMTNET_FAULT_SEED");
}

}  // namespace

int main() {
  const auto env = expdriver::run_env_from_environment();
  bench::print_header(
      "Chaos sweep: 8-byte message rate vs injected fault intensity",
      "integrity-only matches clean within protocol-overhead noise; rates "
      "degrade gracefully as drop/dup/corrupt rise to 5% with zero lost or "
      "corrupted deliveries",
      env);

  const Regime regimes[] = {
      {"clean", "0", "0", "0", "0"},
      {"integrity", "0", "0", "0", "1"},
      {"faults_1pct", "0.01", "0.01", "0.01", "0"},
      {"faults_3pct", "0.03", "0.03", "0.03", "0"},
      {"faults_5pct", "0.05", "0.05", "0.05", "0"},
  };
  const char* configs[] = {"lci_psr_cq_pin_i", "mpi_i"};

  std::printf(
      "regime,config,attempted_K/s,achieved_injection_K/s,"
      "message_rate_K/s,stddev_K/s\n");
  for (const char* config : configs) {
    for (const Regime& regime : regimes) {
      apply_regime(regime);
      bench::RateParams params;
      params.parcelport = config;
      params.msg_size = 8;
      params.total_msgs = static_cast<std::size_t>(20000 * env.scale);
      params.workers = env.workers;
      std::printf("%s,", regime.label);
      bench::report_rate_point(params, env.repetitions);
    }
  }
  clear_regime();
  return 0;
}
