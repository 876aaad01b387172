// Blocking collectives built purely on actions — the coordination toolkit
// distributed AMT applications keep reinventing (Octo-Tiger's step
// synchronisation is a hand-rolled version of these), generalised from
// one-double payloads to byte spans. One log-depth algorithm per op:
//
//   barrier    — dissemination (log2 n rounds of shifted pairs)
//   broadcast  — binomial tree, one message per edge
//   allreduce  — recursive doubling (non-power-of-two ranks fold into their
//                even partners first)
//   all_to_all — pairwise exchange (XOR partners for power-of-two locality
//                counts, ring shift otherwise)
//
// Round matching: every rank's n-th collective call joins epoch n (per-rank
// epoch counters; all ranks must issue collectives in the same order, at
// most one outstanding per rank). Epochs live in a bounded window of
// kRoundWindow sharded round slots (epoch % window), each with its own
// lock, so arrivals for different rounds never contend and state stays
// bounded when one rank races ahead. A slot is recycled as soon as all
// ranks leave its epoch; this is safe because every algorithm is
// receipt-complete: a rank consumes every message addressed to it before
// leaving the round, so no stale arrival can land in a recycled slot.
// Messages travel as ordinary actions through the parcelport under test
// (byte spans above the zero-copy threshold go as zero-copy chunks).
//
// Call collectives from locality tasks: waiting is scheduler-aware, so the
// calling worker keeps executing other tasks (including the collective's
// own message handling).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "amt/runtime.hpp"
#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "telemetry/metrics.hpp"

namespace amt {

class CollectiveGroup {
 public:
  using Bytes = std::vector<std::uint8_t>;
  /// In-place combine: acc[0..bytes) = acc OP in. Must be commutative and
  /// associative — reduction order depends on the rank's position in the
  /// exchange (integer payloads stay exact under any order; floating-point
  /// sums may differ in the last bits between ranks).
  using ReduceFn = void (*)(std::uint8_t* acc, const std::uint8_t* in,
                            std::size_t bytes);

  /// Round slots live in a fixed window; a rank more than this many
  /// collectives ahead waits for the oldest round to drain.
  static constexpr std::size_t kRoundWindow = 16;
  /// Width of the per-rank slot table the action entry points index.
  static constexpr Rank kMaxRanks = 64;

  /// One group per runtime; registers itself in the per-rank slots used by
  /// the action entry points. Construct after Runtime::start, destroy
  /// before Runtime::stop. Throws std::invalid_argument for more than
  /// kMaxRanks localities or while another group is live.
  explicit CollectiveGroup(Runtime& runtime);
  ~CollectiveGroup();
  CollectiveGroup(const CollectiveGroup&) = delete;
  CollectiveGroup& operator=(const CollectiveGroup&) = delete;

  Rank size() const { return num_ranks_; }

  /// Returns once every rank has entered the same round.
  void barrier();

  /// All-reduce sum of one double; every rank receives the global sum.
  double allreduce_sum(double value);

  /// Rank 0's value is returned on every rank (others' inputs are ignored).
  double broadcast_from_root(double value);

  /// Root's `data` is copied into every rank's `data` (non-root contents
  /// are replaced; non-root sizes need not match beforehand).
  void broadcast(Rank root, Bytes& data);

  /// Element-wise reduction; every rank passes a span of the same size and
  /// holds the combined span after the call.
  void allreduce(Bytes& data, ReduceFn fn);

  /// `send` holds size() blocks of bytes_per_rank (block i goes to rank i);
  /// returns size() blocks where block i came from rank i.
  Bytes all_to_all(const Bytes& send, std::size_t bytes_per_rank);

  // ---- internal action entry point ----
  void on_msg(std::uint64_t epoch, std::uint32_t step, Rank from,
              Bytes payload);
  static CollectiveGroup*& slot(Rank rank);

 private:
  /// One epoch in flight; recycled (epoch = 0) when all ranks leave.
  struct RoundSlot {
    common::SpinMutex mutex;
    std::uint64_t epoch = 0;  // 0 = free
    int leavers = 0;
    std::map<std::uint64_t, Bytes> inbox;  // (dst, step, src) -> payload
  };

  /// Per-call state threaded through the algorithm bodies.
  struct Ctx {
    Locality& loc;
    Rank rank;
    std::uint64_t epoch;
    RoundSlot& round;
    std::uint64_t steps = 0;  // messages this rank waited on (depth proxy)
  };

  RoundSlot& acquire(std::uint64_t epoch);
  Ctx begin();
  void finish(Ctx& ctx);
  void send(Ctx& ctx, std::uint32_t step, Rank to, Bytes payload);
  Bytes recv(Ctx& ctx, std::uint32_t step, Rank from);

  const Rank num_ranks_;

  // Per-rank round counters: rank r's n-th collective call uses epoch n.
  std::vector<common::CachePadded<std::uint64_t>> rank_epoch_;

  // Bounded window of sharded round slots, indexed by epoch % window.
  std::vector<std::unique_ptr<RoundSlot>> window_;

  telemetry::Counter& ops_;
  telemetry::Counter& msgs_;
  telemetry::Counter& bytes_;
  telemetry::Counter& depth_;
};

}  // namespace amt
