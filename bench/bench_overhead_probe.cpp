// Telemetry overhead probe: unlimited-rate 8B flood on the fastest config
// (lci_psr_cq_pin_i), one CSV rate row. Compare three settings to check
// that telemetry stays within ~5% of the message rate (EXPERIMENTS.md has
// the measured numbers):
//   * this build as-is            (counters + sampled timing, tracing off)
//   * AMTNET_TELEMETRY=0          (counters only; no clock reads)
//   * a -DAMTNET_TELEMETRY_DISABLED=ON build (everything compiled out)
#include "harness.hpp"

int main() {
  const auto env = expdriver::run_env_from_environment();
  bench::print_header(
      "Telemetry overhead probe: unlimited 8B flood, lci_psr_cq_pin_i",
      "rate within ~5% of an AMTNET_TELEMETRY_DISABLED build (timers are "
      "sampled, 1 operation in 16); AMTNET_TELEMETRY=0 within noise of it",
      env);
  std::printf("config,attempted_K/s,achieved_injection_K/s,message_rate_K/s,"
              "stddev_K/s\n");
  bench::RateParams params;
  params.parcelport = "lci_psr_cq_pin_i";
  params.msg_size = 8;
  params.batch = 100;
  params.total_msgs = static_cast<std::size_t>(20000 * env.scale);
  params.attempted_rate = 0;  // unlimited
  params.workers = env.workers;
  bench::report_rate_point(params, env.repetitions);
  return 0;
}
