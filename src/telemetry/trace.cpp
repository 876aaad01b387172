#include "telemetry/trace.hpp"

#ifndef AMTNET_TELEMETRY_DISABLED

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace telemetry {

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  static const bool initialized = [] {
    recorder.set_enabled(!env_trace_file().empty());
    return true;
  }();
  (void)initialized;
  return recorder;
}

std::string TraceRecorder::env_trace_file() {
  const char* raw = std::getenv("AMTNET_TRACE_FILE");
  return raw != nullptr ? std::string(raw) : std::string();
}

std::uint64_t TraceRecorder::next_recorder_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

TraceRecorder::ThreadRing& TraceRecorder::ring_for_this_thread() {
  // Cache the (recorder, ring) pair: in practice only the singleton records,
  // but unit tests construct private recorders, so the owner is checked —
  // by process-unique id, not address, which malloc can recycle.
  struct Cached {
    std::uint64_t owner_id = 0;
    ThreadRing* ring = nullptr;
  };
  thread_local Cached cached;
  if (cached.owner_id == id_) return *cached.ring;
  std::lock_guard lock(rings_mutex_);
  auto ring = std::make_unique<ThreadRing>();
  ring->tid = static_cast<std::uint32_t>(rings_.size());
  rings_.push_back(std::move(ring));
  cached.owner_id = id_;
  cached.ring = rings_.back().get();
  return *cached.ring;
}

void TraceRecorder::record_slow(const char* category, const char* name,
                                char phase) {
  ThreadRing& ring = ring_for_this_thread();
  TraceEvent event;
  event.name = name;
  event.category = category;
  event.phase = phase;
  event.tid = ring.tid;
  event.timestamp_ns = common::now_ns();
  if (!ring.ring.try_push(event)) dropped_.add();
}

std::string TraceRecorder::dump_json() {
  // Serializing the drain under rings_mutex_ keeps each ring single-consumer;
  // owner threads may keep pushing concurrently (SPSC contract holds).
  std::lock_guard lock(rings_mutex_);
  for (auto& ring : rings_) {
    while (auto event = ring->ring.try_pop()) {
      drained_.push_back(*event);
    }
  }
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const TraceEvent& e : drained_) {
    if (!first) out += ',';
    first = false;
    // Chrome's ts field is in microseconds; keep sub-µs precision.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\","
                  "\"ts\":%.3f,\"pid\":0,\"tid\":%u}",
                  e.name, e.category, e.phase,
                  static_cast<double>(e.timestamp_ns) / 1e3, e.tid);
    out += buf;
  }
  out += "]}";
  return out;
}

bool TraceRecorder::dump_json_to_file(const std::string& path) {
  const std::string json = dump_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace telemetry

#endif  // AMTNET_TELEMETRY_DISABLED
