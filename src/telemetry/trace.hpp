// Chrome trace-event recorder. Each thread owns an SPSC ring of fixed-size
// events; the recording hot path is one ring push (no locks, no allocation,
// drop-on-full with a drop counter). dump_json() drains every ring and
// writes the standard `chrome://tracing` / Perfetto JSON object:
//
//   {"traceEvents":[{"name":"...","cat":"...","ph":"B","ts":1.5,
//                    "pid":0,"tid":3}, ...]}
//
// Recording is off unless AMTNET_TRACE_FILE is set (or a recorder is
// explicitly enabled), and the whole facility compiles to no-ops under
// AMTNET_TELEMETRY_DISABLED. Use the macros at the bottom:
//
//   AMTNET_TRACE_SCOPE("minilci", "progress");   // B/E pair via RAII
//   AMTNET_TRACE_INSTANT("fabric", "rnr_stall"); // single instant event
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/spinlock.hpp"
#include "queues/spsc_ring.hpp"
#include "telemetry/metrics.hpp"

namespace telemetry {

#ifndef AMTNET_TELEMETRY_DISABLED

/// One trace event. `name` and `category` must be string literals (or
/// otherwise outlive the recorder) — only the pointer is stored.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  char phase = 'I';  // 'B' begin, 'E' end, 'I' instant
  std::uint32_t tid = 0;
  common::Nanos timestamp_ns = 0;
};

class TraceRecorder {
 public:
  /// Process-wide recorder used by the macros. Enabled iff AMTNET_TRACE_FILE
  /// is set in the environment (and AMTNET_TELEMETRY isn't 0).
  static TraceRecorder& instance();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Turns recording on or off; AMTNET_TELEMETRY=0 keeps it off.
  void set_enabled(bool enabled) {
    enabled_.store(enabled && timing_enabled(), std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Ring push on the caller's thread-local ring. Safe from any thread.
  void record(const char* category, const char* name, char phase) {
    if (!enabled()) return;
    record_slow(category, name, phase);
  }

  /// Events dropped because a thread ring was full.
  std::uint64_t dropped() const { return dropped_.value(); }

  /// Drains all rings (events recorded so far) into Chrome trace JSON.
  /// Concurrent recording during the dump may or may not be included.
  std::string dump_json();

  /// dump_json() to `path`; returns false on I/O failure.
  bool dump_json_to_file(const std::string& path);

  /// Path from AMTNET_TRACE_FILE, empty if unset.
  static std::string env_trace_file();

 private:
  struct ThreadRing {
    std::uint32_t tid = 0;
    queues::SpscRing<TraceEvent> ring{1u << 14};
  };

  void record_slow(const char* category, const char* name, char phase);
  ThreadRing& ring_for_this_thread();
  static std::uint64_t next_recorder_id();

  // Process-unique (never reused), so the thread-local ring cache can't
  // mistake a new recorder at a recycled address for the one it cached.
  const std::uint64_t id_ = next_recorder_id();
  std::atomic<bool> enabled_{false};
  Counter dropped_;
  common::SpinMutex rings_mutex_;  // guards rings_ growth only
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  std::vector<TraceEvent> drained_;  // events popped by previous dumps
};

/// RAII begin/end pair.
class TraceScope {
 public:
  TraceScope(const char* category, const char* name)
      : category_(category), name_(name) {
    TraceRecorder::instance().record(category_, name_, 'B');
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() { TraceRecorder::instance().record(category_, name_, 'E'); }

 private:
  const char* category_;
  const char* name_;
};

#define AMTNET_TRACE_CONCAT2(a, b) a##b
#define AMTNET_TRACE_CONCAT(a, b) AMTNET_TRACE_CONCAT2(a, b)
#define AMTNET_TRACE_SCOPE(category, name)            \
  ::telemetry::TraceScope AMTNET_TRACE_CONCAT(        \
      amtnet_trace_scope_, __LINE__)(category, name)
#define AMTNET_TRACE_INSTANT(category, name) \
  ::telemetry::TraceRecorder::instance().record(category, name, 'I')

#else  // AMTNET_TELEMETRY_DISABLED

struct TraceEvent {};

class TraceRecorder {
 public:
  static TraceRecorder& instance() {
    static TraceRecorder stub;
    return stub;
  }
  void set_enabled(bool) {}
  bool enabled() const { return false; }
  void record(const char*, const char*, char) {}
  std::uint64_t dropped() const { return 0; }
  std::string dump_json() { return "{\"traceEvents\":[]}"; }
  bool dump_json_to_file(const std::string&) { return true; }
  static std::string env_trace_file() { return {}; }
};

class TraceScope {
 public:
  TraceScope(const char*, const char*) {}
};

#define AMTNET_TRACE_SCOPE(category, name) \
  do {                                     \
  } while (false)
#define AMTNET_TRACE_INSTANT(category, name) \
  do {                                       \
  } while (false)

#endif  // AMTNET_TELEMETRY_DISABLED

}  // namespace telemetry
