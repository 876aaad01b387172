// Binds the declarative experiment registry (src/expdriver/) to the bench
// harness: registers every paper figure and ablation as a suite, provides
// the PointRunner that executes suite points through the harness (plus
// suite telemetry probes). `bench_suite --run <suite>` runs any of them.
#pragma once

#include "expdriver/experiment.hpp"

namespace bench::suites {

/// Registers every suite (idempotent). Called by the bench_suite CLI;
/// tests call it directly.
void register_all();

/// PointRunner executing a point through the bench harness; appends the
/// telemetry-probe metrics of `spec` after each run.
expdriver::PointRunner make_harness_runner(const expdriver::SuiteSpec& spec);

}  // namespace bench::suites
