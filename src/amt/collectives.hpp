// Blocking collectives built purely on actions — the coordination toolkit
// distributed AMT applications keep reinventing (Octo-Tiger's step
// synchronisation is a hand-rolled version of these), generalised from
// one-double payloads to byte spans and from centralised gather-release
// rounds to log-depth algorithms:
//
//   barrier    — dissemination (log2 n rounds of shifted pairs)
//   broadcast  — binomial tree; pipelined segments above a payload threshold
//   reduce     — binomial tree (commutative+associative combine)
//   allreduce  — recursive doubling (small) / ring reduce-scatter+allgather
//                (large, segmented by rank chunks)
//   scatter    — binomial tree (root's buffer halves down the tree)
//   gather     — binomial tree (subtree blocks merge up the tree)
//   all_to_all — pairwise exchange (XOR partners for power-of-two locality
//                counts, ring shift otherwise)
//
// plus the centralised variants kept as the measurable baseline. The
// algorithm is chosen per call by payload size x locality count through
// select_algorithm(); `coll<ALGO>` config tokens and AMTNET_COLL_* env
// knobs override it (docs/collectives.md documents the model, and a test
// cross-checks the doc against collective_selection_table_markdown()).
//
// Round matching: every rank's n-th collective call joins epoch n (per-rank
// epoch counters; all ranks must issue collectives in the same order, at
// most one outstanding per rank). Epochs live in a bounded window of
// sharded round slots (epoch % window), each with its own lock — replacing
// the former single SpinMutex-guarded std::map, which serialised every
// arrival and grew without bound when one rank raced ahead. A slot is
// recycled as soon as all ranks leave its epoch; this is safe because every
// algorithm is receipt-complete: a rank consumes every message addressed to
// it before leaving the round, so no stale arrival can land in a recycled
// slot. Messages travel as ordinary actions through the parcelport under
// test (byte spans above the zero-copy threshold go as zero-copy chunks).
//
// Call collectives from locality tasks: waiting is scheduler-aware, so the
// calling worker keeps executing other tasks (including the collective's
// own message handling).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "amt/runtime.hpp"
#include "common/cache.hpp"
#include "common/spinlock.hpp"
#include "telemetry/metrics.hpp"

namespace amt {

/// The collective shapes. Payload "bytes" for selection purposes is the
/// full span for barrier/broadcast/reduce/allreduce and the per-rank block
/// for scatter/gather/all_to_all.
enum class CollOp {
  kBarrier,
  kBroadcast,
  kReduce,
  kAllreduce,
  kScatter,
  kGather,
  kAllToAll,
};

enum class CollAlgo {
  kCentral,            // gather-release through rank 0 (baseline)
  kDissemination,      // barrier: log2 n rounds of (rank +- 2^k) pairs
  kBinomial,           // tree broadcast/reduce/scatter/gather
  kBinomialPipelined,  // broadcast: segments pipelined down the tree
  kRecursiveDoubling,  // allreduce: XOR partner exchange
  kRing,               // allreduce: reduce-scatter + allgather by chunks
  kPairwise,           // all_to_all: XOR (power of two) or ring shift
};

const char* coll_op_name(CollOp op);
const char* coll_algo_name(CollAlgo algo);

/// Selection inputs, resolved once per CollectiveGroup: a forced algorithm
/// family ("" = auto; "central", "tree", "rd", "ring") from the
/// `coll<ALGO>` config token, the
/// pipelining segment size, the small/large payload crossover, and the
/// round-window slot count.
struct CollTuning {
  std::string force;               // "" | central | tree | rd | ring
  std::size_t seg_bytes = 8192;    // AMTNET_COLL_SEG_BYTES
  std::size_t large_bytes = 16384; // AMTNET_COLL_LARGE_BYTES
  std::size_t window = 16;         // AMTNET_COLL_WINDOW
};

/// Takes the forced family from `config_token` (the parcelport's coll token
/// value) and reads the AMTNET_COLL_SEG_BYTES / _LARGE_BYTES / _WINDOW
/// knobs. Throws std::invalid_argument for an unknown family name.
CollTuning coll_tuning_from_environment(const std::string& config_token = "");

/// The documented selection model: payload size x locality count ->
/// algorithm, honouring the forced family where it applies to the op.
/// docs/collectives.md embeds collective_selection_table_markdown() output
/// and a test keeps the two in sync.
CollAlgo select_algorithm(CollOp op, std::size_t bytes, Rank n,
                          const CollTuning& tuning);

/// Renders the selection table (ops x sample payload sizes x locality
/// counts) by probing select_algorithm with `tuning`.
std::string collective_selection_table_markdown(
    const CollTuning& tuning = CollTuning{});

class CollectiveGroup {
 public:
  using Bytes = std::vector<std::uint8_t>;
  /// In-place combine: acc[0..bytes) = acc OP in. Must be commutative and
  /// associative — reduction order depends on the algorithm (integer
  /// payloads stay exact under any order; floating-point sums may differ
  /// in rounding between algorithms).
  using ReduceFn = void (*)(std::uint8_t* acc, const std::uint8_t* in,
                            std::size_t bytes);

  /// One group per runtime; registers itself in the per-rank slots used by
  /// the action entry points. Construct after Runtime::start, destroy
  /// before Runtime::stop.
  explicit CollectiveGroup(Runtime& runtime);
  ~CollectiveGroup();
  CollectiveGroup(const CollectiveGroup&) = delete;
  CollectiveGroup& operator=(const CollectiveGroup&) = delete;

  Rank size() const { return num_ranks_; }
  const CollTuning& tuning() const { return tuning_; }

  /// Returns once every rank has entered the same round.
  void barrier();

  /// All-reduce sum of one double; every rank receives the global sum.
  double allreduce_sum(double value);

  /// Rank 0's value is returned on every rank (others' inputs are ignored).
  double broadcast_from_root(double value);

  /// Root's `data` is copied into every rank's `data` (non-root contents
  /// are replaced; non-root sizes need not match beforehand).
  void broadcast(Rank root, Bytes& data);

  /// Element-wise reduction into root's `data`; every rank passes a span of
  /// the same size. Non-root spans are scratch after the call.
  void reduce(Rank root, Bytes& data, std::size_t elem_bytes, ReduceFn fn);

  /// Element-wise reduction; every rank's `data` holds the combined span
  /// after the call. `elem_bytes` aligns ring chunk boundaries.
  void allreduce(Bytes& data, std::size_t elem_bytes, ReduceFn fn);

  /// Root's `all` (size() * bytes_per_rank bytes) is split into rank-order
  /// blocks; every rank returns its own block. Non-roots pass {}.
  Bytes scatter(Rank root, const Bytes& all, std::size_t bytes_per_rank);

  /// Every rank contributes `mine` (same size on all ranks); root returns
  /// the rank-order concatenation, other ranks return {}.
  Bytes gather(Rank root, const Bytes& mine);

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
  void finish(Ctx& ctx, CollOp op, CollAlgo algo);
  void send(Ctx& ctx, std::uint32_t step, Rank to, Bytes payload);
  Bytes recv(Ctx& ctx, std::uint32_t step, Rank from);

  // Centralised baselines (gather-release through the root).
  void bcast_central(Ctx& ctx, Rank root, Bytes& data,
                     std::uint32_t step_base);
  void reduce_central(Ctx& ctx, Rank root, Bytes& data, ReduceFn fn,
                      std::uint32_t step_base);

  // Log-depth algorithms.
  void bcast_binomial(Ctx& ctx, Rank root, Bytes& data,
                      std::uint32_t step_base);
  void reduce_binomial(Ctx& ctx, Rank root, Bytes& data, ReduceFn fn,
                       std::uint32_t step_base);
  void allreduce_rd(Ctx& ctx, Bytes& data, ReduceFn fn,
                    std::uint32_t step_base);
  void allreduce_ring(Ctx& ctx, Bytes& data, std::size_t elem_bytes,
                      ReduceFn fn, std::uint32_t step_base);
  void barrier_dissemination(Ctx& ctx);

  Runtime& runtime_;
  const Rank num_ranks_;
  CollTuning tuning_;

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
