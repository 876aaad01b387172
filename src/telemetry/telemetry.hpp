// Umbrella header for the telemetry subsystem.
//
//   Registry   — hierarchical find-or-create metric store (per Fabric/Runtime)
//   Counter    — sharded relaxed monotonic counter
//   Gauge      — sharded relaxed up/down counter
//   Histogram  — log-bucketed latency histogram (p50/p90/p99/max)
//   sampled() / ScopedTimer / sample_start + record_since / time_completion
//              — timing into a Histogram for one operation in kSamplePeriod
//                (AMTNET_TELEMETRY gated)
//   TraceRecorder / AMTNET_TRACE_SCOPE / AMTNET_TRACE_INSTANT
//              — Chrome trace-event recording (AMTNET_TRACE_FILE gated)
//
// Environment variables:
//   AMTNET_TELEMETRY=0|off|false  disable timing instrumentation + tracing
//   AMTNET_TRACE_FILE=<path>      enable the process trace recorder
// Compile-time: -DAMTNET_TELEMETRY_DISABLED turns everything into no-ops.
#pragma once

#include "telemetry/metrics.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
