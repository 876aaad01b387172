#include "amt/collectives.hpp"

#include <array>
#include <cassert>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/integrity.hpp"

namespace amt {

namespace {

// Inbox keys: (destination rank, algorithm step, source rank). Ranks fit the
// kMaxRanks-entry slot table, so the source rank fits 8 bits.
static_assert(CollectiveGroup::kMaxRanks <= 256,
              "inbox_key packs the source rank into 8 bits");
// Recursive doubling's hand-back to folded ranks, past every doubling step.
constexpr std::uint32_t kRdFinalStep = 1u << 20;

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

void act_coll(std::uint64_t epoch, std::uint32_t step, Rank from,
              CollectiveGroup::Bytes payload) {
  CollectiveGroup::slot(here().rank())
      ->on_msg(epoch, step, from, std::move(payload));
}

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

CollectiveGroup*& CollectiveGroup::slot(Rank rank) {
  static std::array<CollectiveGroup*, kMaxRanks> slots{};
  return slots.at(rank);
}

CollectiveGroup::CollectiveGroup(Runtime& runtime)
    : num_ranks_(runtime.num_localities()),
      rank_epoch_(num_ranks_),
      ops_(runtime.telemetry().counter("amt/coll/ops")),
      msgs_(runtime.telemetry().counter("amt/coll/msgs")),
      bytes_(runtime.telemetry().counter("amt/coll/bytes")),
      depth_(runtime.telemetry().counter("amt/coll/depth")) {
  if (num_ranks_ > kMaxRanks) {
    throw std::invalid_argument(
        "CollectiveGroup supports at most " + std::to_string(kMaxRanks) +
        " localities, got " + std::to_string(num_ranks_));
  }
  if (slot(0) != nullptr) {
    throw std::invalid_argument("another CollectiveGroup is still live");
  }
  window_.reserve(kRoundWindow);
  for (std::size_t i = 0; i < kRoundWindow; ++i) {
    window_.push_back(std::make_unique<RoundSlot>());
  }
  for (Rank r = 0; r < num_ranks_; ++r) slot(r) = this;
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
    // algorithms guarantee it retires. A newer epoch here means a stale
    // message for a recycled round, which would wait forever.
    if (s.epoch > epoch) {
      common::integrity_fail("collective epoch ", epoch,
                             " arrived after its slot was recycled for epoch ",
                             s.epoch);
    }
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

void CollectiveGroup::finish(Ctx& ctx) {
  ops_.add(1);
  depth_.add(ctx.steps);
  RoundSlot& s = ctx.round;
  std::lock_guard<common::SpinMutex> guard(s.mutex);
  if (++s.leavers == static_cast<int>(num_ranks_)) {
    // Every rank consumed the messages addressed to it before leaving, so
    // the slot recycles empty and the next epoch can claim it.
    if (!s.inbox.empty()) {
      common::integrity_fail("collective epoch ", s.epoch, " recycled with ",
                             s.inbox.size(), " unconsumed message(s)");
    }
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

// ---- algorithms ------------------------------------------------------------

void CollectiveGroup::barrier() {
  Ctx ctx = begin();
  // Dissemination: in round k every rank signals rank + 2^k and waits on
  // rank - 2^k, so after ceil(log2 n) rounds each has heard from all.
  const Rank n = num_ranks_;
  std::uint32_t step = 0;
  for (Rank dist = 1; dist < n; dist <<= 1, ++step) {
    send(ctx, step, (ctx.rank + dist) % n, Bytes{});
    recv(ctx, step, (ctx.rank + n - dist) % n);
  }
  finish(ctx);
}

// Binomial tree over root-relative ranks (vrank): a node receives the
// payload from its parent, then forwards it to each child in its subtree.
// Non-roots learn the size from the message itself.
void CollectiveGroup::broadcast(Rank root, Bytes& data) {
  Ctx ctx = begin();
  const Rank n = num_ranks_;
  const Rank vrank = (ctx.rank + n - root) % n;
  std::uint32_t span;  // power-of-two subtree size rooted at vrank
  if (vrank == 0) {
    span = pow2_ceil(n);
  } else {
    span = vrank & (~vrank + 1);  // lowest set bit
    data = recv(ctx, 0, (vrank - span + root) % n);
  }
  for (std::uint32_t m = span >> 1; m != 0; m >>= 1) {
    const Rank child_v = vrank + m;
    if (child_v < n) send(ctx, 0, (child_v + root) % n, data);
  }
  finish(ctx);
}

// Recursive doubling: log2 n rounds of XOR-partner exchange-and-combine.
void CollectiveGroup::allreduce(Bytes& data, ReduceFn fn) {
  Ctx ctx = begin();
  const Rank n = num_ranks_;
  const Rank rank = ctx.rank;
  const std::uint32_t pof2 = pow2_floor(n);
  const Rank rem = n - pof2;
  // Fold the ranks above the largest power of two into their even partners
  // so the doubling loop runs on a power-of-two group.
  std::int64_t newrank;
  if (rank < 2 * rem) {
    if (rank % 2 == 1) {
      send(ctx, 0, rank - 1, data);
      newrank = -1;
    } else {
      Bytes in = recv(ctx, 0, rank + 1);
      fn(data.data(), in.data(), data.size());
      newrank = rank / 2;
    }
  } else {
    newrank = rank - rem;
  }
  if (newrank != -1) {
    std::uint32_t step = 1;
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
      data = recv(ctx, kRdFinalStep, rank - 1);
    } else {
      send(ctx, kRdFinalStep, rank + 1, data);
    }
  }
  finish(ctx);
}

// Pairwise exchange: in step s every rank sends one block and receives one,
// to and from its XOR partner (power-of-two n) or ring neighbours at
// distance s.
CollectiveGroup::Bytes CollectiveGroup::all_to_all(
    const Bytes& send_buf, std::size_t bytes_per_rank) {
  Ctx ctx = begin();
  const Rank n = num_ranks_;
  const std::size_t block = bytes_per_rank;
  assert(send_buf.size() == block * n);
  Bytes out(block * n);
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
  finish(ctx);
  return out;
}

// ---- one-double convenience wrappers ---------------------------------------

double CollectiveGroup::allreduce_sum(double value) {
  Bytes data(sizeof(double));
  std::memcpy(data.data(), &value, sizeof(double));
  allreduce(data, &add_doubles);
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
