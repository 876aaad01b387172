#include "workloads.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "amt/runtime.hpp"
#include "octoproxy/simulation.hpp"
#include "probes.hpp"
#include "stack/stack.hpp"
#include "telemetry/registry.hpp"
#include "trace.hpp"

namespace amtbench {

namespace {

// Untimed warm-up before the timed phase, as a share of the timed length.
constexpr double kWarmupShare = 0.1;
// Octo repeats short proxy runs for the timed length and reports their median
// rate: one long run's rate depends on how its messages happen to line up
// with the workers' compute phases, and the median of many short runs is
// steadier.
constexpr int kOctoLevel = 4;
constexpr int kOctoStepsPerRun = 5;
// Upper bounds on operation rates; they size the exactly-once bitmaps and
// latency arrays, and a run that reaches one ends its timed phase early.
constexpr double kMaxHopsPerSecond = 1.5e6;
constexpr double kMaxParcelsPerSecond = 8e6;
constexpr std::uint64_t kFloodLatencyStride = 8;  // floods: every 8th parcel
constexpr std::uint64_t kFloodTraceStride = 16;
// Traced octo repetition: the main thread applies one 8 B marker parcel per
// period, so amt.send_ns/amt.dispatch_ns see the proxy's busy workers.
constexpr Nanos kMarkerPeriodNs = 1'000'000;
constexpr auto kMainThreadSleep = std::chrono::microseconds(100);
constexpr std::uint64_t kWeyl = 0x9e3779b97f4a7c15ULL;

const std::vector<WorkloadSpec> kWorkloads = {
    // One 8 B parcel in flight: every layer sits on the blocking path once
    // per hop and nothing queues.
    {"pingpong_8b", Kind::kPingpong, "sim", 8, 0},
    // Back-to-back 8 B applies: the fast path's per-parcel CPU cost sets the
    // rate and rendezvous is idle. The window is only a safety cap: the
    // 4096-packet fabric TX window binds first.
    {"flood_8b", Kind::kFlood, "sim", 8, 1u << 16},
    // The same over real shm rings: pairs with flood_8b to tell a fabric
    // backend change from a change above the fabric.
    {"flood_8b_shm", Kind::kFlood, "shm", 8, 1u << 16},
    // Above the 8 KiB zero-copy threshold: header plus rendezvous bulk
    // transfer on shm; the fast path is idle.
    {"flood_16k_shm", Kind::kFlood, "shm", 16384, 256},
    // The application: the network is a small share of the time, so it
    // catches CPU taken from computation.
    {"octo", Kind::kOcto, "sim", 8, 0},
};

enum Phase : int { kWarmup, kTimed, kDone };

/// Plan shared by every repetition of one workload run.
struct Plan {
  Nanos warmup_ns = 0;
  Nanos timed_ns = 0;
  std::uint64_t capacity = 0;  // most parcels one repetition may send
  std::uint64_t latency_stride = 1;
  std::uint64_t trace_stride = 1;
  octo::Params octo;  // one proxy run
};

/// State of one repetition, reached by the actions through g_rep.
struct Rep {
  const WorkloadSpec* spec = nullptr;
  const Plan* plan = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t check_seed = 0;
  Tracer* tracer = nullptr;

  std::unique_ptr<std::atomic<std::uint64_t>[]> seen;  // exactly-once bits
  std::vector<std::uint32_t> latency_ns;  // timed one-way latencies
  std::atomic<std::size_t> latency_count{0};

  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> bad{0};  // corrupt, duplicate or out of range
  std::atomic<int> phase{kWarmup};
  std::atomic<Nanos> warmup_end{0};
  std::atomic<Nanos> t_start{0};
  std::atomic<Nanos> t_end{0};
  std::atomic<std::uint64_t> first_timed_seq{0};
  std::atomic<std::uint64_t> timed_ops{0};
  std::vector<octo::Report> octo_runs;  // written by run_octo before kDone
};

Rep* g_rep = nullptr;

std::uint64_t mix64(std::uint64_t x) {
  x += kWeyl;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The payload of parcel `seq` under `seed`: 64-bit words of a Weyl sequence
// from a per-parcel key. Every byte depends on both, and the pattern is
// cheap enough to write and check at 16 KiB per parcel.
void fill_payload(std::uint64_t seed, std::uint64_t seq,
                  std::vector<std::uint8_t>& out) {
  std::uint64_t word = mix64(seed ^ mix64(seq));
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8, word += kWeyl) {
    std::memcpy(out.data() + i, &word, 8);
  }
  std::memcpy(out.data() + i, &word, out.size() - i);
}

bool payload_matches(std::uint64_t seed, std::uint64_t seq,
                     const std::vector<std::uint8_t>& in, std::size_t size) {
  if (in.size() != size) return false;
  std::uint64_t word = mix64(seed ^ mix64(seq));
  std::uint64_t diff = 0;
  std::size_t i = 0;
  for (; i + 8 <= in.size(); i += 8, word += kWeyl) {
    std::uint64_t got = 0;
    std::memcpy(&got, in.data() + i, 8);
    diff |= got ^ word;
  }
  return diff == 0 && std::memcmp(in.data() + i, &word, in.size() - i) == 0;
}

/// Checks one arriving benchmark parcel and records its one-way latency.
void receive(Rep& rep, std::uint64_t seq, Nanos sent_ns,
             const std::vector<std::uint8_t>& payload, Nanos now) {
  bool ok = seq < rep.plan->capacity &&
            payload_matches(rep.check_seed, seq, payload,
                            rep.spec->payload_bytes);
  if (seq < rep.plan->capacity) {
    const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
    if (rep.seen[seq >> 6].fetch_or(bit, std::memory_order_relaxed) & bit) {
      ok = false;  // a second delivery
    }
  }
  if (!ok) rep.bad.fetch_add(1, std::memory_order_relaxed);
  const Nanos start = rep.t_start.load(std::memory_order_relaxed);
  if (start != 0 && sent_ns >= start &&
      seq % rep.plan->latency_stride == 0) {
    const std::size_t i =
        rep.latency_count.fetch_add(1, std::memory_order_relaxed);
    if (i < rep.latency_ns.size()) {
      rep.latency_ns[i] = static_cast<std::uint32_t>(
          std::min<Nanos>(now - sent_ns, UINT32_MAX));
    }
  }
  rep.received.fetch_add(1, std::memory_order_release);
}

template <auto Action>
void send_parcel(Rep& rep, amt::Locality& from, amt::Rank dst,
                 std::uint64_t seq) {
  std::vector<std::uint8_t> payload(rep.spec->payload_bytes);
  fill_payload(rep.seed, seq, payload);
  rep.sent.fetch_add(1, std::memory_order_relaxed);
  const Nanos now = common::now_ns();
  if (rep.tracer != nullptr && rep.tracer->sampled(seq)) {
    rep.tracer->stamp(Tracer::kApply, seq, now);
  }
  from.apply<Action>(dst, seq, now, std::move(payload));
}

void stamp_action(Rep& rep, std::uint64_t seq, Nanos now) {
  if (rep.tracer != nullptr && rep.tracer->sampled(seq)) {
    rep.tracer->stamp(Tracer::kAction, seq, now);
  }
}

// ---- actions ----------------------------------------------------------------

/// Flood and marker parcels.
void sink(std::uint64_t seq, Nanos sent_ns, std::vector<std::uint8_t> payload) {
  const Nanos now = common::now_ns();
  Rep& rep = *g_rep;
  stamp_action(rep, seq, now);
  receive(rep, seq, sent_ns, payload, now);
}

/// One ping-pong hop; the chain advances the phases itself.
void hop(std::uint64_t seq, Nanos sent_ns, std::vector<std::uint8_t> payload) {
  const Nanos now = common::now_ns();
  Rep& rep = *g_rep;
  stamp_action(rep, seq, now);
  receive(rep, seq, sent_ns, payload, now);
  const int phase = rep.phase.load(std::memory_order_relaxed);
  if (phase == kWarmup &&
      now >= rep.warmup_end.load(std::memory_order_relaxed)) {
    rep.first_timed_seq.store(seq + 1, std::memory_order_relaxed);
    rep.t_start.store(now, std::memory_order_relaxed);
    rep.phase.store(kTimed, std::memory_order_release);
  } else if (phase == kTimed &&
             (now - rep.t_start.load(std::memory_order_relaxed) >=
                  rep.plan->timed_ns ||
              seq + 1 >= rep.plan->capacity)) {
    rep.timed_ops.store(
        seq + 1 - rep.first_timed_seq.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    rep.t_end.store(now, std::memory_order_relaxed);
    rep.phase.store(kDone, std::memory_order_release);
    return;
  }
  amt::Locality& here = amt::here();
  send_parcel<&hop>(rep, here, here.rank() == 0 ? 1 : 0, seq + 1);
}

// ---- workload tasks (run on locality 0's worker) -------------------------

void run_flood(Rep& rep) {
  amt::Locality& here = amt::here();
  amt::Scheduler& scheduler = here.scheduler();
  const std::uint64_t window = rep.spec->window;
  auto in_flight = [&rep] {
    return rep.sent.load(std::memory_order_relaxed) -
           rep.received.load(std::memory_order_acquire);
  };
  // Sends whose done callback has not fired. Only this worker's background
  // work polls its completion queue, so without this bound the sender's
  // completions (and the 16 KiB payloads they release) pile up unpolled.
  const telemetry::Gauge& pending_sends =
      here.runtime().telemetry().gauge("pplci/loc0/send_queue_depth");
  // Closed loop: at most `window` parcels sent but not yet checked, and at
  // most `window` sends not yet completed.
  auto open = [&] {
    return in_flight() < window &&
           pending_sends.value() < static_cast<std::int64_t>(window);
  };
  auto send_until = [&](Nanos until) {
    while (common::now_ns() < until) {
      if (!open()) scheduler.wait_until(open);
      for (int i = 0; i < 16; ++i) {
        const std::uint64_t seq = rep.sent.load(std::memory_order_relaxed);
        if (seq >= rep.plan->capacity) return;
        send_parcel<&sink>(rep, here, 1, seq);
      }
    }
  };
  auto drain = [&] {
    scheduler.wait_until(
        [&] { return in_flight() == 0 && pending_sends.value() == 0; });
  };

  send_until(rep.warmup_end.load(std::memory_order_relaxed));
  drain();
  const Nanos start = common::now_ns();
  const std::uint64_t first = rep.sent.load(std::memory_order_relaxed);
  rep.t_start.store(start, std::memory_order_relaxed);
  rep.phase.store(kTimed, std::memory_order_release);
  send_until(start + rep.plan->timed_ns);
  drain();
  rep.timed_ops.store(rep.sent.load(std::memory_order_relaxed) - first,
                      std::memory_order_relaxed);
  rep.t_end.store(common::now_ns(), std::memory_order_relaxed);
  rep.phase.store(kDone, std::memory_order_release);
}

void run_octo(Rep& rep, amt::Runtime& runtime) {
  do {
    octo::run_simulation(runtime, rep.plan->octo);
  } while (common::now_ns() < rep.warmup_end.load(std::memory_order_relaxed));
  const Nanos start = common::now_ns();
  rep.t_start.store(start, std::memory_order_relaxed);
  rep.phase.store(kTimed, std::memory_order_release);
  do {
    rep.octo_runs.push_back(octo::run_simulation(runtime, rep.plan->octo));
  } while (common::now_ns() - start < rep.plan->timed_ns);
  rep.timed_ops.store(rep.octo_runs.size() * kOctoStepsPerRun,
                      std::memory_order_relaxed);
  rep.t_end.store(common::now_ns(), std::memory_order_relaxed);
  rep.phase.store(kDone, std::memory_order_release);
}

// ---- repetitions ----------------------------------------------------------

/// Main-thread samples at the edges of the traced repetition's timed phase.
struct Window {
  Nanos wall = 0;
  double cpu_s = 0.0;
  std::map<int, ThreadCpu> threads;
  telemetry::Snapshot snapshot;
  Tracer::BackgroundTotals background;
};

Window sample_window(const amt::Runtime& runtime, const Tracer& tracer) {
  Window window;
  window.wall = common::now_ns();
  window.cpu_s = process_cpu_seconds();
  window.threads = read_thread_cpu();
  window.snapshot = runtime.telemetry().snapshot();
  window.background = tracer.background_totals();
  return window;
}

struct RepOutcome {
  double setup_s = 0.0;
  double ops_per_s = 0.0;
  double latency_us = 0.0;  // median one-way latency
  std::vector<std::uint32_t> latency_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Traced repetition only.
  Window begin;
  Window end;
  Tracer::Spans spans;
};

const char* phase_name(int phase) {
  return phase == kWarmup ? "warm-up" : phase == kTimed ? "timed" : "done";
}

[[noreturn]] void watchdog_fail(const WorkloadSpec& spec, int index,
                                const Rep& rep, Nanos waited) {
  std::fflush(stdout);
  std::fprintf(stderr,
               "amtnet_bench: watchdog: workload %s repetition %d wedged in "
               "the %s phase after %.1f s (sent=%llu received=%llu)\n",
               spec.name, index, phase_name(rep.phase.load()),
               common::ns_to_s(waited),
               static_cast<unsigned long long>(rep.sent.load()),
               static_cast<unsigned long long>(rep.received.load()));
  std::fflush(stderr);
  // Runtime threads may be spinning on the wedged state; they cannot be
  // joined, so end the process here. The runtime's destructor would unlink
  // the shm backend's segments; they are named after this process, so
  // unlink them here instead.
  const std::string prefix = "amtnet-" + std::to_string(::getpid()) + "-";
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/dev/shm", error)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) ::shm_unlink(("/" + name).c_str());
  }
  std::_Exit(3);
}

RepOutcome run_rep(const WorkloadSpec& spec, const RunOptions& options,
                   const Plan& plan, Tracer* tracer, int index,
                   const std::optional<octo::Report>& reference) {
  Rep rep;
  rep.spec = &spec;
  rep.plan = &plan;
  rep.seed = options.seed;
  rep.check_seed = options.check_seed;
  rep.tracer = tracer;
  rep.seen = std::make_unique<std::atomic<std::uint64_t>[]>(
      plan.capacity / 64 + 1);
  rep.latency_ns.resize(plan.capacity / plan.latency_stride + 1);
  g_rep = &rep;

  amtnet::StackOptions stack;
  stack.parcelport = kParcelport;
  stack.num_localities = kLocalities;
  stack.threads_per_locality = kWorkersPerLocality;
  stack.platform = "loopback";
  stack.backend = spec.backend;
  const amt::RuntimeConfig config = amtnet::make_runtime_config(stack);

  RepOutcome outcome;
  const Nanos setup_begin = common::now_ns();
  auto runtime = std::make_unique<amt::Runtime>(
      config, tracer != nullptr ? tracer->factory()
                                : amtnet::default_parcelport_factory());
  runtime->start();
  const Nanos started = common::now_ns();
  outcome.setup_s = common::ns_to_s(started - setup_begin);

  rep.warmup_end.store(started + plan.warmup_ns);
  amt::Runtime* rt = runtime.get();
  runtime->locality(0).spawn([&rep, &spec, rt] {
    switch (spec.kind) {
      case Kind::kPingpong:
        send_parcel<&hop>(rep, amt::here(), 1, 0);
        break;
      case Kind::kFlood:
        run_flood(rep);
        break;
      case Kind::kOcto:
        run_octo(rep, *rt);
        break;
    }
  });

  // The main thread only sleeps and watches; it never runs scheduler work.
  const Nanos watchdog_ns =
      5 * (plan.warmup_ns + plan.timed_ns) + 20'000'000'000LL;
  auto watch = [&] {
    std::this_thread::sleep_for(kMainThreadSleep);
    const Nanos waited = common::now_ns() - started;
    if (waited > watchdog_ns) watchdog_fail(spec, index, rep, waited);
  };
  bool window_open = false;
  Nanos next_marker = 0;
  while (rep.phase.load(std::memory_order_acquire) != kDone) {
    watch();
    if (tracer == nullptr ||
        rep.phase.load(std::memory_order_acquire) != kTimed) {
      continue;
    }
    if (!window_open) {
      outcome.begin = sample_window(*runtime, *tracer);
      window_open = true;
    }
    // A proxy run can outlast the planned timed phase; markers stop at the
    // capacity the exactly-once bitmap was sized for.
    const std::uint64_t marker = rep.sent.load(std::memory_order_relaxed);
    if (spec.kind == Kind::kOcto && marker < plan.capacity &&
        common::now_ns() >= next_marker) {
      send_parcel<&sink>(rep, runtime->locality(0), 1, marker);
      next_marker = common::now_ns() + kMarkerPeriodNs;
    }
  }
  while (rep.received.load(std::memory_order_acquire) <
         rep.sent.load(std::memory_order_relaxed)) {
    watch();  // markers still in flight
  }
  if (tracer != nullptr) {
    outcome.end = sample_window(*runtime, *tracer);
    if (!window_open) outcome.begin = outcome.end;
  }
  runtime->stop();
  runtime.reset();
  g_rep = nullptr;

  const Nanos t_start = rep.t_start.load();
  const Nanos t_end = rep.t_end.load();
  const double seconds = common::ns_to_s(t_end - t_start);
  const auto timed_ops = static_cast<double>(rep.timed_ops.load());
  const std::string where =
      std::string(spec.name) + " repetition " + std::to_string(index) + ": ";
  outcome.attempted = rep.sent.load();
  outcome.failed = rep.bad.load();
  if (outcome.failed != 0) {
    outcome.failures.push_back(where + std::to_string(outcome.failed) +
                               " parcels failed the payload or "
                               "exactly-once check");
  }
  outcome.latency_ns.assign(
      rep.latency_ns.begin(),
      rep.latency_ns.begin() +
          static_cast<std::ptrdiff_t>(std::min(rep.latency_count.load(),
                                               rep.latency_ns.size())));
  outcome.latency_us =
      percentile(std::vector<double>(outcome.latency_ns.begin(),
                                     outcome.latency_ns.end()),
                 0.5) /
      1e3;
  switch (spec.kind) {
    case Kind::kPingpong:
      outcome.ops_per_s = timed_ops / 2.0 / seconds;  // round trips
      break;
    case Kind::kFlood:
      outcome.ops_per_s = timed_ops / seconds;
      break;
    case Kind::kOcto: {
      std::vector<double> rates;
      // The state fingerprint is bit-exact; the masses are sums whose order
      // differs between the two localities and the serial reference.
      const double tolerance = 1e-9 * std::abs(reference->initial_mass);
      std::uint64_t wrong = 0;
      for (const octo::Report& run : rep.octo_runs) {
        rates.push_back(run.steps_per_second);
        if (run.checksum != reference->checksum ||
            std::abs(run.final_mass - reference->final_mass) > tolerance ||
            std::abs(run.initial_mass - reference->initial_mass) >
                tolerance) {
          ++wrong;
        }
      }
      outcome.attempted += rep.octo_runs.size() * kOctoStepsPerRun;
      outcome.failed += wrong * kOctoStepsPerRun;
      if (wrong != 0) {
        outcome.failures.push_back(
            where + std::to_string(wrong) + " of " +
            std::to_string(rep.octo_runs.size()) +
            " proxy runs differ from octo::run_reference");
      }
      outcome.ops_per_s = percentile(std::move(rates), 0.5);
      break;
    }
  }
  if (timed_ops <= 0.0 || !(seconds > 0.0)) {
    outcome.failures.push_back(where + "no timed operations");
  }
  if (tracer != nullptr) outcome.spans = tracer->spans(t_start, t_end);
  return outcome;
}

Plan make_plan(const WorkloadSpec& spec, const RunOptions& options) {
  Plan plan;
  const double rep_s = options.seconds / kRepetitions;
  plan.timed_ns = static_cast<Nanos>(rep_s * 1e9);
  plan.warmup_ns = static_cast<Nanos>(kWarmupShare * rep_s * 1e9);
  const double total_s = rep_s * (1.0 + kWarmupShare);
  switch (spec.kind) {
    case Kind::kPingpong:
      plan.capacity =
          static_cast<std::uint64_t>(std::ceil(kMaxHopsPerSecond * total_s));
      break;
    case Kind::kFlood:
      plan.capacity = static_cast<std::uint64_t>(
          std::ceil(kMaxParcelsPerSecond * total_s));
      plan.latency_stride = kFloodLatencyStride;
      plan.trace_stride = kFloodTraceStride;
      break;
    case Kind::kOcto:
      plan.capacity = static_cast<std::uint64_t>(
          std::ceil(total_s * 1e9 / kMarkerPeriodNs));
      plan.octo.level = kOctoLevel;
      plan.octo.steps = kOctoStepsPerRun;
      plan.octo.seed = mix64(options.seed);
      break;
  }
  plan.capacity += 1024;
  return plan;
}

// ---- per-layer metrics of the traced repetition ----------------------------

std::vector<Metric> layer_metrics(const WorkloadSpec& spec,
                                  const RepOutcome& traced,
                                  double untraced_ops_per_s) {
  std::vector<Metric> metrics;
  auto add = [&metrics](const char* name, double value, const char* unit,
                        std::uint64_t n) {
    metrics.push_back({name, value, unit, n});
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const telemetry::Snapshot& a = traced.begin.snapshot;
  const telemetry::Snapshot& b = traced.end.snapshot;
  auto delta = [&](const char* prefix, const char* suffix) {
    return static_cast<double>(b.counter_sum(prefix, suffix)) -
           static_cast<double>(a.counter_sum(prefix, suffix));
  };
  const double parcels = delta("amt/", "/parcels_sent");
  const auto n_parcels = static_cast<std::uint64_t>(parcels);
  const double wall_s = common::ns_to_s(traced.end.wall - traced.begin.wall);
  const double tick_s = 1.0 / static_cast<double>(clock_ticks_per_second());
  const Tracer::Spans& spans = traced.spans;
  auto count = [](const std::vector<double>& v) {
    return static_cast<std::uint64_t>(v.size());
  };

  // CPU of this runtime's threads over the timed phase, by thread name.
  std::vector<double> worker_s, progress_s;
  for (const auto& [tid, after] : traced.end.threads) {
    const auto before = traced.begin.threads.find(tid);
    if (before == traced.begin.threads.end()) continue;
    const double cpu_s =
        static_cast<double>(after.ticks - before->second.ticks) * tick_s;
    if (after.name.rfind("loc", 0) == 0 &&
        after.name.find("-w") != std::string::npos) {
      worker_s.push_back(cpu_s);
    } else if (after.name == "lci-progress") {
      progress_s.push_back(cpu_s);  // by thread id: locality 0 first
    }
  }
  progress_s.resize(2, 0.0);
  double worker_total = 0.0;
  for (double s : worker_s) worker_total += s;

  add("amt.send_ns_p50", percentile(spans.amt_send, 0.5), "ns",
      count(spans.amt_send));
  add("amt.send_ns_p99", percentile(spans.amt_send, 0.99), "ns",
      count(spans.amt_send));
  const ProbeResult serialize = probe_serialize(spec.payload_bytes);
  add("amt.serialize_ns", serialize.median_ns, "ns", serialize.n);
  add("amt.dispatch_ns_p50", percentile(spans.amt_dispatch, 0.5), "ns",
      count(spans.amt_dispatch));
  add("amt.dispatch_ns_p99", percentile(spans.amt_dispatch, 0.99), "ns",
      count(spans.amt_dispatch));
  add("amt.msgs_per_parcel", ratio(delta("amt/", "/messages_sent"), parcels),
      "ratio", n_parcels);

  add("sched.tasks_per_parcel",
      ratio(delta("sched/", "/tasks_executed"), parcels), "ratio", n_parcels);
  add("sched.bg_polls_per_parcel",
      ratio(delta("sched/", "/background_polls"), parcels), "ratio",
      n_parcels);
  add("sched.worker_cpu_util",
      ratio(worker_total, wall_s * static_cast<double>(worker_s.size())),
      "ratio", worker_s.size());

  add("pplci.send_ns_p50", percentile(spans.pplci_send, 0.5), "ns",
      count(spans.pplci_send));
  add("pplci.send_ns_p99", percentile(spans.pplci_send, 0.99), "ns",
      count(spans.pplci_send));
  add("pplci.transport_ns_p50", percentile(spans.pplci_transport, 0.5), "ns",
      count(spans.pplci_transport));
  add("pplci.done_ns_p50", percentile(spans.pplci_done, 0.5), "ns",
      count(spans.pplci_done));
  const double hits = delta("pplci/", "/fastpath_hits");
  add("pplci.fastpath_hit_ratio",
      ratio(hits, hits + delta("pplci/", "/fastpath_fallbacks")), "ratio",
      n_parcels);
  add("pplci.send_retries_per_parcel",
      ratio(delta("pplci/", "/send_retries"), parcels), "ratio", n_parcels);
  const double reuses = delta("pplci/", "/conn_reuses");
  add("pplci.conn_reuse_ratio",
      ratio(reuses, reuses + delta("pplci/", "/conn_allocs")), "ratio",
      n_parcels);
  const double bg_calls = static_cast<double>(traced.end.background.calls -
                                              traced.begin.background.calls);
  add("pplci.bg_useful_ratio",
      ratio(static_cast<double>(traced.end.background.useful -
                                traced.begin.background.useful),
            bg_calls),
      "ratio", static_cast<std::uint64_t>(bg_calls));
  add("pplci.bg_busy_frac",
      ratio(common::ns_to_s(traced.end.background.busy_ns -
                            traced.begin.background.busy_ns),
            wall_s * kLocalities * kWorkersPerLocality),
      "ratio", static_cast<std::uint64_t>(bg_calls));

  const double packets_received = delta("fabric/", "/packets_received");
  const double packets_sent = delta("fabric/", "/packets_sent");
  add("minilci.progress_calls_per_packet",
      ratio(delta("minilci/", "/progress_calls"), packets_received), "ratio",
      static_cast<std::uint64_t>(packets_received));
  add("minilci.pool_exhausted", delta("minilci/", "/pool_exhausted"), "count",
      1);
  add("minilci.pool_cache_hits_per_packet",
      ratio(delta("minilci/", "/pool_cache_hits"), packets_sent), "ratio",
      static_cast<std::uint64_t>(packets_sent));
  add("minilci.match_misses_per_parcel",
      ratio(delta("minilci/", "/match_misses"), parcels), "ratio", n_parcels);
  add("minilci.progress0_cpu_util", ratio(progress_s[0], wall_s), "ratio", 1);
  add("minilci.progress1_cpu_util", ratio(progress_s[1], wall_s), "ratio", 1);
  const ProbeResult eager = probe_minilci_eager_rt(spec.backend);
  add("minilci.eager_rt_ns", eager.median_ns, "ns", eager.n);

  add("fabric.packets_per_parcel", ratio(packets_sent, parcels), "ratio",
      n_parcels);
  add("fabric.bytes_per_parcel",
      ratio(delta("fabric/", "/bytes_sent"), parcels), "B", n_parcels);
  add("fabric.tx_window_rejects_per_parcel",
      ratio(delta("fabric/", "/tx_window_rejects"), parcels), "ratio",
      n_parcels);
  const ProbeResult post8 = probe_fabric_post_poll(spec.backend, 8);
  add("fabric.post_poll_ns_8b", post8.median_ns, "ns", post8.n);
  const ProbeResult post8k = probe_fabric_post_poll(spec.backend, 8192);
  add("fabric.post_poll_ns_8k", post8k.median_ns, "ns", post8k.n);

  const double cpu_s = traced.end.cpu_s - traced.begin.cpu_s;
  add("proc.cpu_util", ratio(cpu_s, wall_s), "cores", 1);
  add("proc.cpu_us_per_parcel", ratio(cpu_s * 1e6, parcels), "us", n_parcels);
  add("proc.peak_rss_mb", peak_rss_mib(), "MB", 1);

  const double hop = percentile(spans.hop, 0.5);
  add("trace.hop_ns_p50", hop, "ns", count(spans.hop));
  const double stage_sum = percentile(spans.amt_send, 0.5) +
                           percentile(spans.pplci_transport, 0.5) +
                           percentile(spans.amt_dispatch, 0.5);
  add("trace.coverage_pct", ratio(100.0 * stage_sum, hop), "%",
      count(spans.hop));
  add("trace.overhead_pct",
      ratio(100.0 * (untraced_ops_per_s - traced.ops_per_s),
            untraced_ops_per_s),
      "%", 1);
  return metrics;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

}  // namespace

const std::vector<WorkloadSpec>& workloads() { return kWorkloads; }

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

WorkloadResult run_workload(const WorkloadSpec& spec,
                            const RunOptions& options) {
  const Plan plan = make_plan(spec, options);
  std::optional<octo::Report> reference;
  if (spec.kind == Kind::kOcto) {
    // Computed once, outside timing, from the seed the receivers check.
    octo::Params params = plan.octo;
    params.seed = mix64(options.check_seed);
    reference = octo::run_reference(params);
  }

  WorkloadResult result;
  result.name = spec.name;
  result.backend = spec.backend;
  result.wire = std::string(spec.backend) == "sim"
                    ? "modelled: sim loopback profile, zero-time wire"
                    : "real: POSIX shm rings, both localities in one process";

  std::vector<double> ops, latency, setup;
  std::vector<double> pooled;
  for (int i = 0; i < kRepetitions; ++i) {
    RepOutcome rep = run_rep(spec, options, plan, nullptr, i, reference);
    ops.push_back(rep.ops_per_s);
    latency.push_back(rep.latency_us);
    setup.push_back(rep.setup_s);
    pooled.insert(pooled.end(), rep.latency_ns.begin(), rep.latency_ns.end());
    result.attempted += rep.attempted;
    result.failed += rep.failed;
    for (std::string& failure : rep.failures) {
      result.failures.push_back(std::move(failure));
    }
  }
  const double ops_median = median(ops);
  const std::uint64_t reps = kRepetitions;
  result.end_to_end = {
      {"ops_per_s", ops_median, "1/s", reps},
      {"setup_s", median(setup), "s", reps},
  };
  // One-way latency is recorded, not gated: under a flood it is queueing
  // delay, and pingpong's mean hop is already gated through ops_per_s.
  if (!pooled.empty()) {
    result.recorded.push_back(
        {"latency_p50_us", median(latency), "us", pooled.size()});
  }
  // The highest percentiles with at least ten samples beyond them.
  if (pooled.size() >= 1000) {
    result.recorded.push_back({"latency_p99_us", percentile(pooled, 0.99) / 1e3,
                               "us", pooled.size()});
  }
  if (pooled.size() >= 10000) {
    result.recorded.push_back({"latency_p999_us",
                               percentile(pooled, 0.999) / 1e3, "us",
                               pooled.size()});
  }

  if (options.trace) {
    Tracer tracer({amt::action_id<&sink>(), amt::action_id<&hop>()},
                  plan.trace_stride);
    RepOutcome traced =
        run_rep(spec, options, plan, &tracer, kRepetitions, reference);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    for (std::string& failure : traced.failures) {
      result.failures.push_back(std::move(failure));
    }
    result.per_layer = layer_metrics(spec, traced, ops_median);
  }
  result.recorded.push_back(
      {"fail_frac",
       result.attempted > 0 ? static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted)
                            : 1.0,
       "ratio", result.attempted});
  return result;
}

}  // namespace amtbench
