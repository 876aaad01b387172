// Profiling breakdown — the reproduction analogue of the paper's "profiling
// results show ..." analyses. Runs the same 16 KiB flood under each backend
// and prints the layer-by-layer breakdown, read entirely from the runtime's
// telemetry registry (src/telemetry/): parcels vs HPX messages (aggregation
// ratio), fabric packets and bytes (protocol message overhead), TX-window
// rejections and RNR stalls (back-pressure), connection-cache pressure,
// tasks executed per delivered message (runtime overhead), and the latency
// histograms — serialize time, LCI progress time, and the MPI progress-lock
// acquire wait (the paper §4's smoking gun for the mpi backend).
//
// Also dumps a Chrome-trace JSON (chrome://tracing / Perfetto) of the run to
// AMTNET_TRACE_FILE, or bench_profile_trace.json when unset.
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "stack/stack.hpp"
#include "telemetry/telemetry.hpp"

namespace {

std::atomic<std::uint64_t> received{0};

void sink(std::vector<std::uint8_t> payload) {
  (void)payload;
  received.fetch_add(1);
}

void print_hist(const telemetry::Snapshot& snap, const char* label,
                const std::string& name, double scale, const char* unit) {
  const telemetry::HistogramSummary* h = snap.histogram(name);
  if (h == nullptr || h->count == 0) return;
  std::printf(
      "  %-24s: p50 %8.2f  p90 %8.2f  p99 %8.2f  max %8.2f %s "
      "(%llu samples)\n",
      label, static_cast<double>(h->p50) * scale,
      static_cast<double>(h->p90) * scale, static_cast<double>(h->p99) * scale,
      static_cast<double>(h->max) * scale,
      unit, static_cast<unsigned long long>(h->count));
}

void profile_config(const char* name, std::size_t msg_size, std::size_t total,
                    unsigned workers) {
  amtnet::StackOptions options;
  options.parcelport = name;
  options.num_localities = 2;
  options.threads_per_locality = workers;
  options.platform = "expanse";
  auto runtime = amtnet::make_runtime(options);

  received.store(0);
  const std::vector<std::uint8_t> payload(msg_size, 1);
  common::Timer timer;
  runtime->locality(0).spawn([&] {
    for (std::size_t i = 0; i < total; ++i) {
      amt::here().apply<&sink>(1, payload);
    }
  });
  runtime->locality(0).scheduler().wait_until(
      [&] { return received.load() >= total; });
  const double seconds = timer.elapsed_s();

  // Everything below comes from one registry snapshot — the same numbers
  // the removed per-layer stats atomics used to carry, now in one place.
  const telemetry::Snapshot snap = runtime->telemetry().snapshot();
  runtime->stop();

  const std::uint64_t parcels = snap.counter("amt/loc0/parcels_sent");
  const std::uint64_t messages = snap.counter("amt/loc0/messages_sent");
  const std::uint64_t delivered = snap.counter("amt/loc1/messages_received");
  const std::uint64_t packets = snap.counter("fabric/nic0/packets_sent");
  const std::uint64_t bytes = snap.counter("fabric/nic0/bytes_sent");
  const std::uint64_t tx_rejects =
      snap.counter("fabric/nic0/tx_window_rejects");
  const std::uint64_t rnr = snap.counter_sum("fabric/", "/rnr_stalls");
  const std::uint64_t cache_fails =
      snap.counter("amt/loc0/conncache_failures");
  const std::uint64_t tasks = snap.counter_sum("sched/", "/tasks_executed");
  const std::uint64_t steals = snap.counter_sum("sched/", "/tasks_stolen");

  std::printf("%s\n", name);
  std::printf("  rate                    : %8.1f K msgs/s\n",
              static_cast<double>(total) / seconds / 1e3);
  std::printf("  parcels -> HPX messages : %8llu -> %llu (aggregation %.2fx)\n",
              static_cast<unsigned long long>(parcels),
              static_cast<unsigned long long>(messages),
              messages ? static_cast<double>(parcels) /
                             static_cast<double>(messages)
                       : 0.0);
  std::printf("  fabric pkts sender->recv: %8llu (%.2f per message: header"
              " + follow-ups + protocol)\n",
              static_cast<unsigned long long>(packets),
              messages ? static_cast<double>(packets) /
                             static_cast<double>(messages)
                       : 0.0);
  std::printf("  fabric bytes sent       : %8.1f MiB\n",
              static_cast<double>(bytes) / (1024.0 * 1024.0));
  std::printf("  tx-window rejections    : %8llu, receiver RNR stalls: %llu\n",
              static_cast<unsigned long long>(tx_rejects),
              static_cast<unsigned long long>(rnr));
  std::printf("  connection-cache misses : %8llu\n",
              static_cast<unsigned long long>(cache_fails));
  std::printf("  tasks executed (stolen) : %8llu (%llu) — %.2f per message\n",
              static_cast<unsigned long long>(tasks),
              static_cast<unsigned long long>(steals),
              static_cast<double>(tasks) /
                  static_cast<double>(delivered ? delivered : 1));
  print_hist(snap, "serialize", "amt/loc0/serialize_ns", 1e-3, "us");
  print_hist(snap, "parcelport send", "pplci/loc0/send_ns", 1e-3, "us");
  print_hist(snap, "parcelport send", "ppmpi/loc0/send_ns", 1e-3, "us");
  print_hist(snap, "lci progress", "minilci/dev0/progress_ns", 1e-3, "us");
  // The paper §4 smoking gun: time workers spend waiting to acquire the
  // MPI big lock before every MPI call (coarse lock mode only).
  print_hist(snap, "mpi lock wait", "minimpi/comm0/progress_lock_wait_ns",
             1e-3, "us");
  std::fflush(stdout);
}

}  // namespace

int main() {
  const auto env = expdriver::run_env_from_environment();
  bench::print_header(
      "Profiling breakdown per backend (16KiB flood, then 8B flood)",
      "mpi shows fewer fabric packets/message only because aggregation "
      "batches parcels; lci shows lower per-message overhead and no "
      "connection-cache traffic with _i",
      env);
  // Record the whole run as a Chrome trace regardless of AMTNET_TRACE_FILE
  // (which only selects the output path here).
  telemetry::TraceRecorder& tracer = telemetry::TraceRecorder::instance();
  tracer.set_enabled(true);
  if (!tracer.enabled()) {
    std::printf("# AMTNET_TELEMETRY=off: latency histograms will be empty\n");
  }
  const std::string trace_file = telemetry::TraceRecorder::env_trace_file()
                                     .empty()
                                     ? std::string("bench_profile_trace.json")
                                     : telemetry::TraceRecorder::env_trace_file();

  const auto total16 = static_cast<std::size_t>(800 * env.scale);
  const auto total8 = static_cast<std::size_t>(4000 * env.scale);
  std::printf("== 16KiB x %zu ==\n", total16);
  for (const char* name :
       {"mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"}) {
    profile_config(name, 16 * 1024, total16, env.workers);
  }
  std::printf("== 8B x %zu ==\n", total8);
  for (const char* name :
       {"mpi", "mpi_i", "lci_psr_cq_pin", "lci_psr_cq_pin_i"}) {
    profile_config(name, 8, total8, env.workers);
  }

  if (tracer.enabled()) {
    if (tracer.dump_json_to_file(trace_file)) {
      std::printf("# chrome trace written to %s (%llu events dropped)\n",
                  trace_file.c_str(),
                  static_cast<unsigned long long>(tracer.dropped()));
    } else {
      std::printf("# failed to write chrome trace to %s\n",
                  trace_file.c_str());
    }
  }
  return 0;
}
