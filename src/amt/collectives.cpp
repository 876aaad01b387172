#include "amt/collectives.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>

namespace amt {

namespace {

// Inbox keys: (destination rank, algorithm step, source rank). Ranks fit the
// 64-entry slot table; steps are phase-strided so composed collectives
// (reduce-then-broadcast) never collide.
constexpr std::uint32_t kPhaseStride = 1u << 20;
constexpr std::uint32_t kRdFinalStep = kPhaseStride - 1;

std::uint64_t inbox_key(Rank dst, std::uint32_t step, Rank src) {
  return (static_cast<std::uint64_t>(dst) << 40) |
         (static_cast<std::uint64_t>(step) << 8) |
         static_cast<std::uint64_t>(src);
}

std::uint32_t pow2_ceil(std::uint32_t n) {
  std::uint32_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint32_t pow2_floor(std::uint32_t n) {
  std::uint32_t p = 1;
  while (p * 2 <= n) p <<= 1;
  return p;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

void act_coll(std::uint64_t epoch, std::uint32_t step, Rank from,
              CollectiveGroup::Bytes payload) {
  CollectiveGroup::slot(here().rank())
      ->on_msg(epoch, step, from, std::move(payload));
}

void noop_combine(std::uint8_t*, const std::uint8_t*, std::size_t) {}

void add_doubles(std::uint8_t* acc, const std::uint8_t* in, std::size_t n) {
  for (std::size_t i = 0; i < n; i += sizeof(double)) {
    double a;
    double b;
    std::memcpy(&a, acc + i, sizeof(double));
    std::memcpy(&b, in + i, sizeof(double));
    a += b;
    std::memcpy(acc + i, &a, sizeof(double));
  }
}

}  // namespace

const char* coll_op_name(CollOp op) {
  switch (op) {
    case CollOp::kBarrier:
      return "barrier";
    case CollOp::kBroadcast:
      return "broadcast";
    case CollOp::kReduce:
      return "reduce";
    case CollOp::kAllreduce:
      return "allreduce";
    case CollOp::kScatter:
      return "scatter";
    case CollOp::kGather:
      return "gather";
    case CollOp::kAllToAll:
      return "all-to-all";
  }
  return "unknown";
}

const char* coll_algo_name(CollAlgo algo) {
  switch (algo) {
    case CollAlgo::kCentral:
      return "central";
    case CollAlgo::kDissemination:
      return "dissemination";
    case CollAlgo::kBinomial:
      return "binomial";
    case CollAlgo::kBinomialPipelined:
      return "binomial-pipelined";
    case CollAlgo::kRecursiveDoubling:
      return "recursive-doubling";
    case CollAlgo::kRing:
      return "ring";
    case CollAlgo::kPairwise:
      return "pairwise";
  }
  return "unknown";
}

CollTuning coll_tuning_from_environment(const std::string& config_token) {
  CollTuning tuning;
  tuning.force = config_token;
  if (tuning.force == "auto") tuning.force.clear();
  if (!tuning.force.empty() && tuning.force != "central" &&
      tuning.force != "tree" && tuning.force != "rd" &&
      tuning.force != "ring") {
    throw std::invalid_argument("unknown collective algorithm family: " +
                                tuning.force);
  }
  tuning.seg_bytes =
      std::max<std::size_t>(1, env_size("AMTNET_COLL_SEG_BYTES", 8192));
  tuning.large_bytes = env_size("AMTNET_COLL_LARGE_BYTES", 16384);
  tuning.window = std::max<std::size_t>(2, env_size("AMTNET_COLL_WINDOW", 16));
  return tuning;
}

CollAlgo select_algorithm(CollOp op, std::size_t bytes, Rank n,
                          const CollTuning& tuning) {
  // A forced family applies wherever the op has a member of that family;
  // elsewhere the op falls back to the auto model below.
  if (tuning.force == "central") return CollAlgo::kCentral;
  if (tuning.force == "tree") {
    switch (op) {
      case CollOp::kBroadcast:
        return bytes > tuning.large_bytes ? CollAlgo::kBinomialPipelined
                                          : CollAlgo::kBinomial;
      case CollOp::kReduce:
      case CollOp::kAllreduce:
      case CollOp::kScatter:
      case CollOp::kGather:
        return CollAlgo::kBinomial;
      default:
        break;
    }
  } else if (tuning.force == "rd") {
    if (op == CollOp::kAllreduce) return CollAlgo::kRecursiveDoubling;
    if (op == CollOp::kBarrier) return CollAlgo::kDissemination;
  } else if (tuning.force == "ring") {
    if (op == CollOp::kAllreduce) return CollAlgo::kRing;
    if (op == CollOp::kAllToAll) return CollAlgo::kPairwise;
  }
  // Auto: below four localities the centralised round is at most two hops
  // deep already and skips the tree bookkeeping; above, go log-depth, with
  // the large-payload crossover switching to the bandwidth-optimal shape.
  if (n < 4) return CollAlgo::kCentral;
  switch (op) {
    case CollOp::kBarrier:
      return CollAlgo::kDissemination;
    case CollOp::kBroadcast:
      return bytes > tuning.large_bytes ? CollAlgo::kBinomialPipelined
                                        : CollAlgo::kBinomial;
    case CollOp::kReduce:
    case CollOp::kScatter:
    case CollOp::kGather:
      return CollAlgo::kBinomial;
    case CollOp::kAllreduce:
      return bytes > tuning.large_bytes ? CollAlgo::kRing
                                        : CollAlgo::kRecursiveDoubling;
    case CollOp::kAllToAll:
      return CollAlgo::kPairwise;
  }
  return CollAlgo::kCentral;
}

std::string collective_selection_table_markdown(const CollTuning& tuning) {
  struct TableRow {
    CollOp op;
    std::size_t bytes;
    const char* payload;
  };
  static constexpr TableRow kRows[] = {
      {CollOp::kBarrier, 0, "-"},
      {CollOp::kBroadcast, 1024, "1 KiB"},
      {CollOp::kBroadcast, 65536, "64 KiB"},
      {CollOp::kReduce, 1024, "1 KiB"},
      {CollOp::kReduce, 65536, "64 KiB"},
      {CollOp::kAllreduce, 1024, "1 KiB"},
      {CollOp::kAllreduce, 65536, "64 KiB"},
      {CollOp::kScatter, 1024, "1 KiB/rank"},
      {CollOp::kGather, 1024, "1 KiB/rank"},
      {CollOp::kAllToAll, 1024, "1 KiB/rank"},
  };
  static constexpr Rank kCounts[] = {2, 4, 8, 16, 33};
  std::string out = "| collective | payload |";
  for (Rank n : kCounts) out += " n=" + std::to_string(n) + " |";
  out += "\n|---|---|";
  for (Rank n : kCounts) {
    (void)n;
    out += "---|";
  }
  out += "\n";
  for (const TableRow& row : kRows) {
    out += std::string("| ") + coll_op_name(row.op) + " | " + row.payload +
           " |";
    for (Rank n : kCounts) {
      out += std::string(" ") +
             coll_algo_name(select_algorithm(row.op, row.bytes, n, tuning)) +
             " |";
    }
    out += "\n";
  }
  return out;
}

CollectiveGroup*& CollectiveGroup::slot(Rank rank) {
  static std::array<CollectiveGroup*, 64> slots{};
  assert(rank < slots.size());
  return slots[rank];
}

CollectiveGroup::CollectiveGroup(Runtime& runtime)
    : runtime_(runtime),
      num_ranks_(runtime.num_localities()),
      tuning_(coll_tuning_from_environment(runtime.config().parcelport.coll)),
      rank_epoch_(num_ranks_),
      ops_(runtime.telemetry().counter("amt/coll/ops")),
      msgs_(runtime.telemetry().counter("amt/coll/msgs")),
      bytes_(runtime.telemetry().counter("amt/coll/bytes")),
      depth_(runtime.telemetry().counter("amt/coll/depth")) {
  window_.reserve(tuning_.window);
  for (std::size_t i = 0; i < tuning_.window; ++i) {
    window_.push_back(std::make_unique<RoundSlot>());
  }
  for (Rank r = 0; r < num_ranks_; ++r) {
    assert(slot(r) == nullptr && "one CollectiveGroup at a time");
    slot(r) = this;
  }
}

CollectiveGroup::~CollectiveGroup() {
  for (Rank r = 0; r < num_ranks_; ++r) slot(r) = nullptr;
}

CollectiveGroup::RoundSlot& CollectiveGroup::acquire(std::uint64_t epoch) {
  RoundSlot& s = *window_[epoch % window_.size()];
  here().scheduler().wait_until([&] {
    std::lock_guard<common::SpinMutex> guard(s.mutex);
    if (s.epoch == epoch) return true;
    if (s.epoch == 0) {
      s.epoch = epoch;
      return true;
    }
    // An older epoch is still draining from this slot; receipt-complete
    // algorithms guarantee it retires (a newer epoch here would mean a
    // stale message for a recycled round — a protocol bug).
    assert(s.epoch < epoch);
    return false;
  });
  return s;
}

void CollectiveGroup::on_msg(std::uint64_t epoch, std::uint32_t step,
                             Rank from, Bytes payload) {
  RoundSlot& s = acquire(epoch);
  std::lock_guard<common::SpinMutex> guard(s.mutex);
  s.inbox.emplace(inbox_key(here().rank(), step, from), std::move(payload));
}

CollectiveGroup::Ctx CollectiveGroup::begin() {
  Locality& locality = here();
  const Rank rank = locality.rank();
  const std::uint64_t epoch = ++rank_epoch_[rank].value;
  return Ctx{locality, rank, epoch, acquire(epoch)};
}

void CollectiveGroup::finish(Ctx& ctx, CollOp op, CollAlgo algo) {
  ops_.add(1);
  depth_.add(ctx.steps);
  runtime_.telemetry()
      .counter(std::string("amt/coll/") + coll_op_name(op) + "/" +
               coll_algo_name(algo))
      .add(1);
  RoundSlot& s = ctx.round;
  std::lock_guard<common::SpinMutex> guard(s.mutex);
  if (++s.leavers == static_cast<int>(num_ranks_)) {
    // Every rank consumed the messages addressed to it before leaving, so
    // the slot recycles empty and the next epoch can claim it.
    assert(s.inbox.empty());
    s.leavers = 0;
    s.epoch = 0;
  }
}

void CollectiveGroup::send(Ctx& ctx, std::uint32_t step, Rank to,
                           Bytes payload) {
  msgs_.add(1);
  bytes_.add(payload.size());
  ctx.loc.apply<&act_coll>(to, ctx.epoch, step, ctx.rank, std::move(payload));
}

CollectiveGroup::Bytes CollectiveGroup::recv(Ctx& ctx, std::uint32_t step,
                                             Rank from) {
  const std::uint64_t key = inbox_key(ctx.rank, step, from);
  RoundSlot& s = ctx.round;
  Bytes out;
  ctx.loc.scheduler().wait_until([&] {
    std::lock_guard<common::SpinMutex> guard(s.mutex);
    auto it = s.inbox.find(key);
    if (it == s.inbox.end()) return false;
    out = std::move(it->second);
    s.inbox.erase(it);
    return true;
  });
  ++ctx.steps;
  return out;
}

// ---- centralised baselines -------------------------------------------------

void CollectiveGroup::bcast_central(Ctx& ctx, Rank root, Bytes& data,
                                    std::uint32_t step_base) {
  if (ctx.rank == root) {
    for (Rank peer = 0; peer < num_ranks_; ++peer) {
      if (peer != root) send(ctx, step_base, peer, data);
    }
  } else {
    data = recv(ctx, step_base, root);
  }
}

void CollectiveGroup::reduce_central(Ctx& ctx, Rank root, Bytes& data,
                                     ReduceFn fn, std::uint32_t step_base) {
  if (ctx.rank == root) {
    // Fold in rank order for a deterministic reference combine.
    std::vector<Bytes> gathered(num_ranks_);
    for (Rank peer = 0; peer < num_ranks_; ++peer) {
      if (peer != root) gathered[peer] = recv(ctx, step_base, peer);
    }
    gathered[root] = std::move(data);
    Bytes acc = std::move(gathered[0]);
    for (Rank peer = 1; peer < num_ranks_; ++peer) {
      fn(acc.data(), gathered[peer].data(), acc.size());
    }
    data = std::move(acc);
  } else {
    send(ctx, step_base, root, std::move(data));
    data.clear();
  }
}

// ---- log-depth algorithms --------------------------------------------------

// Binomial-tree broadcast with store-and-forward segments. The first
// segment's message carries an 8-byte total-size header so non-roots can
// derive the segment count; the segment size rule (whole payload below the
// large-payload crossover, tuning.seg_bytes above) is evaluated identically
// on every rank from the received total.
void CollectiveGroup::bcast_binomial(Ctx& ctx, Rank root, Bytes& data,
                                     std::uint32_t step_base) {
  const Rank n = num_ranks_;
  const Rank vrank = (ctx.rank + n - root) % n;
  std::uint32_t span;  // power-of-two subtree size rooted at vrank
  Rank parent = 0;
  if (vrank == 0) {
    span = pow2_ceil(n);
  } else {
    span = vrank & (~vrank + 1);  // lowest set bit
    parent = (vrank - span + root) % n;
  }

  const auto forward = [&](std::uint32_t step, const Bytes& msg) {
    for (std::uint32_t m = span >> 1; m != 0; m >>= 1) {
      const Rank child_v = vrank + m;
      if (child_v < n) send(ctx, step, (child_v + root) % n, msg);
    }
  };

  // Segment rule (evaluated identically on every rank once the total is
  // known): one segment below the large-payload crossover, seg_bytes
  // pipelined segments above it.
  const auto seg_for = [&](std::size_t total) {
    return total > tuning_.large_bytes ? tuning_.seg_bytes
                                       : std::max<std::size_t>(1, total);
  };
  std::size_t total;
  std::size_t seg;
  std::size_t segments;
  if (vrank == 0) {
    total = data.size();
    seg = seg_for(total);
    segments = total == 0 ? 1 : (total + seg - 1) / seg;
    Bytes first(sizeof(std::uint64_t));
    const std::uint64_t header = total;
    std::memcpy(first.data(), &header, sizeof(header));
    const std::size_t len0 = std::min(seg, total);
    first.insert(first.end(), data.begin(), data.begin() + len0);
    forward(step_base, first);
  } else {
    Bytes first = recv(ctx, step_base, parent);
    std::uint64_t header = 0;
    std::memcpy(&header, first.data(), sizeof(header));
    total = static_cast<std::size_t>(header);
    seg = seg_for(total);
    segments = total == 0 ? 1 : (total + seg - 1) / seg;
    data.resize(total);
    std::memcpy(data.data(), first.data() + sizeof(header),
                first.size() - sizeof(header));
    forward(step_base, first);
  }
  for (std::size_t s = 1; s < segments; ++s) {
    const std::size_t offset = s * seg;
    const std::size_t len = std::min(seg, total - offset);
    if (vrank == 0) {
      forward(step_base + static_cast<std::uint32_t>(s),
              Bytes(data.begin() + offset, data.begin() + offset + len));
    } else {
      Bytes chunk =
          recv(ctx, step_base + static_cast<std::uint32_t>(s), parent);
      std::memcpy(data.data() + offset, chunk.data(), len);
      forward(step_base + static_cast<std::uint32_t>(s), chunk);
    }
  }
}

void CollectiveGroup::reduce_binomial(Ctx& ctx, Rank root, Bytes& data,
                                      ReduceFn fn, std::uint32_t step_base) {
  const Rank n = num_ranks_;
  const Rank vrank = (ctx.rank + n - root) % n;
  for (std::uint32_t mask = 1; mask < n; mask <<= 1) {
    if ((vrank & mask) == 0) {
      const Rank src_v = vrank | mask;
      if (src_v < n) {
        Bytes in = recv(ctx, step_base, (src_v + root) % n);
        fn(data.data(), in.data(), data.size());
      }
    } else {
      send(ctx, step_base, (vrank - mask + root) % n, std::move(data));
      data.clear();
      return;
    }
  }
}

void CollectiveGroup::allreduce_rd(Ctx& ctx, Bytes& data, ReduceFn fn,
                                   std::uint32_t step_base) {
  const Rank n = num_ranks_;
  const Rank rank = ctx.rank;
  const std::uint32_t pof2 = pow2_floor(n);
  const Rank rem = n - pof2;
  // Fold the ranks above the largest power of two into their even partners
  // so the doubling loop runs on a power-of-two group.
  std::int64_t newrank;
  if (rank < 2 * rem) {
    if (rank % 2 == 1) {
      send(ctx, step_base, rank - 1, data);
      newrank = -1;
    } else {
      Bytes in = recv(ctx, step_base, rank + 1);
      fn(data.data(), in.data(), data.size());
      newrank = rank / 2;
    }
  } else {
    newrank = rank - rem;
  }
  if (newrank != -1) {
    std::uint32_t step = step_base + 1;
    for (std::uint32_t mask = 1; mask < pof2; mask <<= 1, ++step) {
      const Rank peer_new = static_cast<Rank>(newrank) ^ mask;
      const Rank peer = peer_new < rem ? peer_new * 2 : peer_new + rem;
      send(ctx, step, peer, data);
      Bytes in = recv(ctx, step, peer);
      fn(data.data(), in.data(), data.size());
    }
  }
  if (rank < 2 * rem) {
    if (rank % 2 == 1) {
      data = recv(ctx, step_base + kRdFinalStep, rank - 1);
    } else {
      send(ctx, step_base + kRdFinalStep, rank + 1, data);
    }
  }
}

// Ring reduce-scatter + allgather over per-rank chunks aligned to
// elem_bytes; chunks may be empty when elements < ranks.
void CollectiveGroup::allreduce_ring(Ctx& ctx, Bytes& data,
                                     std::size_t elem_bytes, ReduceFn fn,
                                     std::uint32_t step_base) {
  const Rank n = num_ranks_;
  const Rank rank = ctx.rank;
  assert(elem_bytes > 0 && data.size() % elem_bytes == 0);
  const std::size_t elems = data.size() / elem_bytes;
  const std::size_t base = elems / n;
  const std::size_t extra = elems % n;
  const auto chunk_offset = [&](Rank c) {
    return (c * base + std::min<std::size_t>(c, extra)) * elem_bytes;
  };
  const auto chunk_len = [&](Rank c) {
    return (base + (c < extra ? 1 : 0)) * elem_bytes;
  };
  const Rank right = (rank + 1) % n;
  const Rank left = (rank + n - 1) % n;
  for (Rank s = 0; s + 1 < n; ++s) {
    const Rank send_chunk = (rank + n - s) % n;
    const Rank recv_chunk = (rank + 2 * n - s - 1) % n;
    send(ctx, step_base + s, right,
         Bytes(data.begin() + chunk_offset(send_chunk),
               data.begin() + chunk_offset(send_chunk) +
                   chunk_len(send_chunk)));
    Bytes in = recv(ctx, step_base + s, left);
    fn(data.data() + chunk_offset(recv_chunk), in.data(),
       chunk_len(recv_chunk));
  }
  for (Rank s = 0; s + 1 < n; ++s) {
    const Rank send_chunk = (rank + 1 + n - s) % n;
    const Rank recv_chunk = (rank + n - s) % n;
    send(ctx, step_base + (n - 1) + s, right,
         Bytes(data.begin() + chunk_offset(send_chunk),
               data.begin() + chunk_offset(send_chunk) +
                   chunk_len(send_chunk)));
    Bytes in = recv(ctx, step_base + (n - 1) + s, left);
    std::memcpy(data.data() + chunk_offset(recv_chunk), in.data(),
                chunk_len(recv_chunk));
  }
}

void CollectiveGroup::barrier_dissemination(Ctx& ctx) {
  const Rank n = num_ranks_;
  std::uint32_t step = 0;
  for (Rank dist = 1; dist < n; dist <<= 1, ++step) {
    send(ctx, step, (ctx.rank + dist) % n, Bytes{});
    recv(ctx, step, (ctx.rank + n - dist) % n);
  }
}

// ---- public operations -----------------------------------------------------

void CollectiveGroup::barrier() {
  Ctx ctx = begin();
  const CollAlgo algo =
      select_algorithm(CollOp::kBarrier, 0, num_ranks_, tuning_);
  if (algo == CollAlgo::kDissemination) {
    barrier_dissemination(ctx);
  } else {
    Bytes empty;
    reduce_central(ctx, 0, empty, &noop_combine, 0);
    bcast_central(ctx, 0, empty, kPhaseStride);
  }
  finish(ctx, CollOp::kBarrier, algo);
}

void CollectiveGroup::broadcast(Rank root, Bytes& data) {
  Ctx ctx = begin();
  // Central vs tree depends only on locality count and the forced family,
  // so ranks agree even though only the root knows the payload size; the
  // pipelined split is derived on every rank from the header total.
  CollAlgo algo =
      select_algorithm(CollOp::kBroadcast, data.size(), num_ranks_, tuning_);
  if (algo == CollAlgo::kCentral) {
    bcast_central(ctx, root, data, 0);
  } else {
    bcast_binomial(ctx, root, data, 0);
    // Re-evaluate with the received size so non-roots label a pipelined
    // run correctly in telemetry.
    algo = select_algorithm(CollOp::kBroadcast, data.size(), num_ranks_,
                            tuning_);
  }
  finish(ctx, CollOp::kBroadcast, algo);
}

void CollectiveGroup::reduce(Rank root, Bytes& data, std::size_t elem_bytes,
                             ReduceFn fn) {
  (void)elem_bytes;
  Ctx ctx = begin();
  const CollAlgo algo =
      select_algorithm(CollOp::kReduce, data.size(), num_ranks_, tuning_);
  if (algo == CollAlgo::kCentral) {
    reduce_central(ctx, root, data, fn, 0);
  } else {
    reduce_binomial(ctx, root, data, fn, 0);
  }
  finish(ctx, CollOp::kReduce, algo);
}

void CollectiveGroup::allreduce(Bytes& data, std::size_t elem_bytes,
                                ReduceFn fn) {
  Ctx ctx = begin();
  const CollAlgo algo =
      select_algorithm(CollOp::kAllreduce, data.size(), num_ranks_, tuning_);
  switch (algo) {
    case CollAlgo::kRecursiveDoubling:
      allreduce_rd(ctx, data, fn, 0);
      break;
    case CollAlgo::kRing:
      allreduce_ring(ctx, data, elem_bytes, fn, 0);
      break;
    case CollAlgo::kBinomial:
      reduce_binomial(ctx, 0, data, fn, 0);
      bcast_binomial(ctx, 0, data, kPhaseStride);
      break;
    default:
      reduce_central(ctx, 0, data, fn, 0);
      bcast_central(ctx, 0, data, kPhaseStride);
      break;
  }
  finish(ctx, CollOp::kAllreduce, algo);
}

CollectiveGroup::Bytes CollectiveGroup::scatter(Rank root, const Bytes& all,
                                                std::size_t bytes_per_rank) {
  Ctx ctx = begin();
  const Rank n = num_ranks_;
  const std::size_t block = bytes_per_rank;
  const CollAlgo algo =
      select_algorithm(CollOp::kScatter, block, n, tuning_);
  Bytes mine(block);
  if (algo == CollAlgo::kCentral) {
    if (ctx.rank == root) {
      assert(all.size() == block * n);
      for (Rank peer = 0; peer < n; ++peer) {
        if (peer == root) {
          std::memcpy(mine.data(), all.data() + peer * block, block);
        } else {
          send(ctx, 0, peer,
               Bytes(all.begin() + peer * block,
                     all.begin() + (peer + 1) * block));
        }
      }
    } else {
      mine = recv(ctx, 0, root);
    }
  } else {
    // Binomial: each node receives the blocks for its subtree (in
    // root-relative vrank order) and halves them down to its children.
    const Rank vrank = (ctx.rank + n - root) % n;
    Bytes buf;
    std::uint32_t span;
    if (vrank == 0) {
      assert(all.size() == block * n);
      span = pow2_ceil(n);
      buf.resize(block * n);
      for (Rank w = 0; w < n; ++w) {
        std::memcpy(buf.data() + w * block,
                    all.data() + ((w + root) % n) * block, block);
      }
    } else {
      span = vrank & (~vrank + 1);
      buf = recv(ctx, 0, (vrank - span + root) % n);
    }
    for (std::uint32_t m = span >> 1; m != 0; m >>= 1) {
      const Rank child_v = vrank + m;
      if (child_v < n) {
        const std::size_t count = std::min<Rank>(child_v + m, n) - child_v;
        const std::size_t offset = (child_v - vrank) * block;
        send(ctx, 0, (child_v + root) % n,
             Bytes(buf.begin() + offset,
                   buf.begin() + offset + count * block));
      }
    }
    std::memcpy(mine.data(), buf.data(), block);
  }
  finish(ctx, CollOp::kScatter, algo);
  return mine;
}

CollectiveGroup::Bytes CollectiveGroup::gather(Rank root, const Bytes& mine) {
  Ctx ctx = begin();
  const Rank n = num_ranks_;
  const std::size_t block = mine.size();
  const CollAlgo algo = select_algorithm(CollOp::kGather, block, n, tuning_);
  Bytes out;
  if (algo == CollAlgo::kCentral) {
    if (ctx.rank == root) {
      out.resize(block * n);
      std::memcpy(out.data() + root * block, mine.data(), block);
      for (Rank peer = 0; peer < n; ++peer) {
        if (peer == root) continue;
        Bytes in = recv(ctx, 0, peer);
        std::memcpy(out.data() + peer * block, in.data(), block);
      }
    } else {
      send(ctx, 0, root, mine);
    }
  } else {
    // Binomial: subtree blocks merge up the tree in vrank order; the root
    // rotates the concatenation back to rank order.
    const Rank vrank = (ctx.rank + n - root) % n;
    Bytes buf = mine;
    for (std::uint32_t mask = 1; mask < n; mask <<= 1) {
      if ((vrank & mask) == 0) {
        const Rank src_v = vrank + mask;
        if (src_v < n) {
          Bytes in = recv(ctx, 0, (src_v + root) % n);
          buf.insert(buf.end(), in.begin(), in.end());
        }
      } else {
        send(ctx, 0, (vrank - mask + root) % n, std::move(buf));
        buf.clear();
        break;
      }
    }
    if (vrank == 0) {
      out.resize(block * n);
      for (Rank w = 0; w < n; ++w) {
        std::memcpy(out.data() + ((w + root) % n) * block,
                    buf.data() + w * block, block);
      }
    }
  }
  finish(ctx, CollOp::kGather, algo);
  return out;
}

CollectiveGroup::Bytes CollectiveGroup::all_to_all(
    const Bytes& send_buf, std::size_t bytes_per_rank) {
  Ctx ctx = begin();
  const Rank n = num_ranks_;
  const std::size_t block = bytes_per_rank;
  assert(send_buf.size() == block * n);
  const CollAlgo algo =
      select_algorithm(CollOp::kAllToAll, block, n, tuning_);
  Bytes out(block * n);
  if (algo == CollAlgo::kCentral) {
    // Baseline: the root receives every rank's full buffer, transposes,
    // and sends each rank its column — O(n^2) blocks through one NIC.
    if (ctx.rank == 0) {
      std::vector<Bytes> full(n);
      for (Rank src = 1; src < n; ++src) full[src] = recv(ctx, 0, src);
      for (Rank dst = 0; dst < n; ++dst) {
        Bytes column(block * n);
        std::memcpy(column.data(), send_buf.data() + dst * block, block);
        for (Rank src = 1; src < n; ++src) {
          std::memcpy(column.data() + src * block,
                      full[src].data() + dst * block, block);
        }
        if (dst == 0) {
          out = std::move(column);
        } else {
          send(ctx, 1, dst, std::move(column));
        }
      }
    } else {
      send(ctx, 0, 0, send_buf);
      out = recv(ctx, 1, 0);
    }
  } else {
    std::memcpy(out.data() + ctx.rank * block,
                send_buf.data() + ctx.rank * block, block);
    const bool pow2 = (n & (n - 1)) == 0;
    for (Rank s = 1; s < n; ++s) {
      const Rank to = pow2 ? (ctx.rank ^ s) : (ctx.rank + s) % n;
      const Rank from = pow2 ? to : (ctx.rank + n - s) % n;
      send(ctx, s, to,
           Bytes(send_buf.begin() + to * block,
                 send_buf.begin() + (to + 1) * block));
      Bytes in = recv(ctx, s, from);
      std::memcpy(out.data() + from * block, in.data(), block);
    }
  }
  finish(ctx, CollOp::kAllToAll, algo);
  return out;
}

// ---- one-double convenience wrappers ---------------------------------------

double CollectiveGroup::allreduce_sum(double value) {
  Bytes data(sizeof(double));
  std::memcpy(data.data(), &value, sizeof(double));
  allreduce(data, sizeof(double), &add_doubles);
  double out = 0.0;
  std::memcpy(&out, data.data(), sizeof(double));
  return out;
}

double CollectiveGroup::broadcast_from_root(double value) {
  Bytes data;
  if (here().rank() == 0) {
    data.resize(sizeof(double));
    std::memcpy(data.data(), &value, sizeof(double));
  }
  broadcast(0, data);
  double out = 0.0;
  std::memcpy(&out, data.data(), sizeof(double));
  return out;
}

}  // namespace amt
