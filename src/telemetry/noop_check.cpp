// Compiled with -DAMTNET_TELEMETRY_DISABLED (see CMakeLists.txt) to prove the
// no-op stubs keep instrumented code compiling and linking. Exercises every
// public entry point an instrumented module uses.
#include "common/unique_function.hpp"
#include "telemetry/telemetry.hpp"

namespace telemetry::noop_check {

std::uint64_t exercise_all() {
  Registry registry;
  Counter& counter = registry.counter("check/counter");
  counter.add(3);
  Gauge& gauge = registry.gauge("check/gauge");
  gauge.add(2);
  gauge.sub(1);
  Histogram& histogram = registry.histogram("check/histogram");
  histogram.record(42);
  record_since(histogram, sample_start());
  common::UniqueFunction<void()> done = [] {};
  time_completion(histogram, 0, done);
  {
    ScopedTimer timer(histogram);
    AMTNET_TRACE_SCOPE("check", "scope");
    AMTNET_TRACE_INSTANT("check", "instant");
  }
  TraceRecorder::instance().record("check", "direct", 'I');
  const Snapshot snap = registry.snapshot();
  return counter.value() + static_cast<std::uint64_t>(gauge.value()) +
         histogram.count() + histogram.percentile(0.5) +
         snap.counters.size() + TraceRecorder::instance().dropped() +
         (sampled() ? 1 : 0);
}

}  // namespace telemetry::noop_check
