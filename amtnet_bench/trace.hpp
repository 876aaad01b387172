// Outside-in tracing for the traced repetition. Nothing here changes the
// stack: spans are taken around the calls into each layer, by the benchmark's
// own actions (apply / action entry) and by a decorator installed through the
// public ParcelportFactory (Parcelport::send, its done callback,
// ParcelportContext::deliver, background_work).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "amt/runtime.hpp"
#include "common/clock.hpp"

namespace amtbench {

using common::Nanos;

/// Sorted-copy percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Per-parcel stage stamps of the benchmark's own parcels, kept in
/// preallocated slots and read only after the runtime has stopped.
class Tracer {
 public:
  enum Stage : unsigned {
    kApply,       // benchmark, just before Locality::apply
    kSend,        // Parcelport::send entry
    kSendReturn,  // Parcelport::send return
    kDone,        // the send's done callback
    kDeliver,     // ParcelportContext::deliver on the receiver
    kAction,      // benchmark action entry on the receiver
    kNumStages
  };

  /// `tagged` are the benchmark's action ids; a parcel whose sequence number
  /// is a multiple of `stride` is traced.
  Tracer(std::vector<amt::ActionId> tagged, std::uint64_t stride);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool sampled(std::uint64_t seq) const { return seq % stride_ == 0; }
  void stamp(Stage stage, std::uint64_t seq, Nanos t);

  /// The sequence number of a benchmark parcel, read from its serialized
  /// main chunk; false for every other message.
  bool tagged_seq(const std::vector<std::byte>& main_chunk,
                  std::uint64_t& seq) const;

  /// A factory wrapping amtnet::default_parcelport_factory() in the timing
  /// decorator. The tracer must outlive every runtime built with it.
  amt::Runtime::ParcelportFactory factory();

  // ---- decorator hook ----
  void background(amt::Rank rank, bool useful, Nanos busy);

  struct BackgroundTotals {
    std::uint64_t calls = 0;
    std::uint64_t useful = 0;
    Nanos busy_ns = 0;
  };
  BackgroundTotals background_totals() const;

  /// Stage durations (ns) of the parcels applied inside [begin, end].
  struct Spans {
    std::vector<double> amt_send;        // apply -> send entry
    std::vector<double> pplci_send;      // self time inside send
    std::vector<double> pplci_transport; // send entry -> receiver deliver
    std::vector<double> pplci_done;      // send entry -> done callback
    std::vector<double> amt_dispatch;    // deliver -> action entry
    std::vector<double> hop;             // apply -> action entry
  };
  Spans spans(Nanos begin, Nanos end) const;

 private:
  struct Slot {
    std::array<std::atomic<std::uint64_t>, kNumStages> seq;
    std::array<std::atomic<Nanos>, kNumStages> t;
  };
  struct Background {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> useful{0};
    std::atomic<Nanos> busy_ns{0};
  };

  /// Byte offsets of the action id and of the first action argument in a
  /// serialized message.
  struct Offsets {
    std::size_t action = 0;
    std::size_t seq = 0;
  };
  static Offsets parcel_offsets();

  const std::vector<amt::ActionId> tagged_;
  const std::uint64_t stride_;
  const Offsets offsets_;
  std::vector<Slot> slots_;
  std::array<Background, 2> background_;
};

/// CPU time (clock ticks) of every thread of this process, by thread id.
struct ThreadCpu {
  std::string name;
  std::uint64_t ticks = 0;
};
std::map<int, ThreadCpu> read_thread_cpu();
long clock_ticks_per_second();

/// Process CPU time (user + system) in seconds.
double process_cpu_seconds();
/// Peak resident set size of the process (VmHWM) in MiB.
double peak_rss_mib();

}  // namespace amtbench
