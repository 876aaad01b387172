// Tests for minilci: completion mechanisms (queue / synchronizer / handler),
// medium & long protocols, dynamic put, the send backlog, length checks on
// peer control payloads, matching-table properties, packet pool, and
// progress thread-safety.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "minilci/device.hpp"
#include "minilci/rdv_table.hpp"
#include "test_util.hpp"

using minilci::Comp;
using minilci::CompQueue;
using minilci::Config;
using minilci::CqEntry;
using minilci::Device;
using minilci::MatchingTable;
using minilci::OpKind;
using minilci::PacketPool;
using minilci::Synchronizer;

namespace {

/// Two-rank harness: device 0 and device 1 with their remote-put CQs.
struct Pair {
  fabric::Fabric fabric;
  CompQueue rcq0, rcq1;
  Device dev0, dev1;

  explicit Pair(fabric::Config fab_config = fabric::Profile::loopback(2),
                Config lci_config = {})
      : fabric(fab_config),
        dev0(fabric, 0, lci_config, &rcq0),
        dev1(fabric, 1, lci_config, &rcq1) {}

  void pump() {
    dev0.progress();
    dev1.progress();
  }

  bool pump_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout =
                      std::chrono::milliseconds(5000)) {
    return testutil::pump_until(pred, [&] { pump(); }, timeout);
  }
};

}  // namespace

// ---------------- completion objects ----------------

TEST(LciCompQueue, FifoSingleThread) {
  CompQueue cq;
  for (std::uint32_t i = 0; i < 5; ++i) {
    CqEntry entry;
    entry.tag = i;
    cq.push(std::move(entry));
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto entry = cq.poll();
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->tag, i);
  }
  EXPECT_FALSE(cq.poll().has_value());
}

TEST(LciSynchronizer, SingleSignal) {
  Synchronizer sync;
  EXPECT_FALSE(sync.test());
  CqEntry entry;
  entry.tag = 42;
  sync.signal(std::move(entry));
  std::vector<CqEntry> out;
  ASSERT_TRUE(sync.test(&out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tag, 42u);
  EXPECT_FALSE(sync.test());  // reset for reuse
}

TEST(LciSynchronizer, MultiProducerThreshold) {
  Synchronizer sync(3);
  for (int i = 0; i < 2; ++i) {
    sync.signal(CqEntry{});
    EXPECT_FALSE(sync.test());
  }
  sync.signal(CqEntry{});
  std::vector<CqEntry> out;
  ASSERT_TRUE(sync.test(&out));
  EXPECT_EQ(out.size(), 3u);
}

TEST(LciSynchronizer, ConcurrentSignalsNeverLost) {
  constexpr int kThreads = 4;
  constexpr int kSignals = 1000;
  Synchronizer sync(kThreads * kSignals);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSignals; ++i) sync.signal(CqEntry{});
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<CqEntry> out;
  ASSERT_TRUE(sync.test(&out));
  EXPECT_EQ(out.size(), static_cast<std::size_t>(kThreads * kSignals));
}

TEST(LciHandler, InvokedInline) {
  int hits = 0;
  auto comp = Comp::handler(
      [](CqEntry&&, void* arg) { ++*static_cast<int*>(arg); }, &hits);
  signal_completion(comp, CqEntry{});
  signal_completion(comp, CqEntry{});
  EXPECT_EQ(hits, 2);
}

TEST(LciComp, NoneDiscardsSilently) {
  signal_completion(Comp::none(), CqEntry{});  // must not crash
}

// ---------------- packet pool ----------------

TEST(LciPacketPool, ExhaustionAndRecycle) {
  PacketPool pool(4, 128);
  std::vector<minilci::PacketBuffer> held;
  for (int i = 0; i < 4; ++i) {
    auto packet = pool.try_alloc();
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->capacity(), 128u);
    held.push_back(std::move(*packet));
  }
  EXPECT_FALSE(pool.try_alloc().has_value());  // exhausted -> retry
  held.pop_back();
  EXPECT_TRUE(pool.try_alloc().has_value());  // recycled
}

TEST(LciPacketPool, MoveSemantics) {
  PacketPool pool(2, 64);
  auto a = pool.try_alloc();
  ASSERT_TRUE(a.has_value());
  minilci::PacketBuffer b = std::move(*a);
  EXPECT_FALSE(a->valid());
  EXPECT_TRUE(b.valid());
  b.release();
  EXPECT_FALSE(b.valid());
}

TEST(LciPacketPool, MagazineServesRepeatAllocsWithoutSharedList) {
  PacketPool pool(64, 32, /*cache_size=*/8);
  // First alloc must refill the magazine from the shared list (a miss)...
  auto first = pool.try_alloc();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(pool.cache_misses(), 1u);
  first->release();
  // ...after which alloc/release cycles stay within the magazine.
  for (int i = 0; i < 10; ++i) {
    auto packet = pool.try_alloc();
    ASSERT_TRUE(packet.has_value());
  }
  EXPECT_GE(pool.cache_hits(), 1u);
  EXPECT_EQ(pool.cache_misses(), 1u);
}

TEST(LciPacketPool, MagazineKeepsExhaustionSemantics) {
  PacketPool pool(4, 32, /*cache_size=*/8);
  std::vector<minilci::PacketBuffer> held;
  for (int i = 0; i < 4; ++i) {
    auto packet = pool.try_alloc();
    ASSERT_TRUE(packet.has_value()) << "packet " << i;
    held.push_back(std::move(*packet));
  }
  // All packets are out (some via the magazine): the pool must report
  // exhaustion, not lose packets to the cache.
  EXPECT_FALSE(pool.try_alloc().has_value());
  held.clear();
  for (int i = 0; i < 4; ++i) {
    auto packet = pool.try_alloc();
    ASSERT_TRUE(packet.has_value()) << "after recycle, packet " << i;
    held.push_back(std::move(*packet));
  }
}

TEST(LciPacketPool, MagazineConcurrentAllocReleaseLosesNothing) {
  PacketPool pool(128, 32, /*cache_size=*/16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 2000; ++i) {
        auto packet = pool.try_alloc();
        if (packet.has_value()) {
          packet->data()[0] = std::byte{0x42};
          packet->release();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Packets cached in the workers' magazines are invisible to this thread's
  // slot; flush them back so exhaustion accounting sees full capacity.
  pool.flush_caches();
  // Every packet must be recoverable afterwards (none leaked into a
  // magazine flush or double-freed).
  std::vector<minilci::PacketBuffer> held;
  for (int i = 0; i < 128; ++i) {
    auto packet = pool.try_alloc();
    ASSERT_TRUE(packet.has_value()) << "lost packet " << i;
    held.push_back(std::move(*packet));
  }
  EXPECT_FALSE(pool.try_alloc().has_value());
}

// ---------------- matching table ----------------

TEST(LciMatchingTable, RecvThenArrival) {
  MatchingTable table;
  EXPECT_FALSE(table.insert_recv(0, 1, minilci::PostedRecv{}).has_value());
  auto recv = table.insert_arrival(0, 1, minilci::Arrival{});
  EXPECT_TRUE(recv.has_value());
  EXPECT_EQ(table.pending_recvs(), 0u);
  EXPECT_EQ(table.pending_arrivals(), 0u);
}

TEST(LciMatchingTable, ArrivalThenRecv) {
  MatchingTable table;
  minilci::Arrival arrival;
  arrival.rdv_size = 99;
  EXPECT_FALSE(table.insert_arrival(2, 7, std::move(arrival)).has_value());
  auto got = table.insert_recv(2, 7, minilci::PostedRecv{});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->rdv_size, 99u);
}

TEST(LciMatchingTable, KeysAreExact) {
  MatchingTable table;
  table.insert_arrival(0, 1, minilci::Arrival{});
  EXPECT_FALSE(table.insert_recv(0, 2, minilci::PostedRecv{}).has_value());
  EXPECT_FALSE(table.insert_recv(1, 1, minilci::PostedRecv{}).has_value());
  EXPECT_TRUE(table.insert_recv(0, 1, minilci::PostedRecv{}).has_value());
}

TEST(LciMatchingTable, FifoPerKey) {
  MatchingTable table;
  for (std::uint32_t i = 0; i < 4; ++i) {
    minilci::Arrival arrival;
    arrival.rdv_size = i;
    table.insert_arrival(0, 1, std::move(arrival));
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto got = table.insert_recv(0, 1, minilci::PostedRecv{});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->rdv_size, i);
  }
}

class LciMatchingStress : public ::testing::TestWithParam<int> {};

TEST_P(LciMatchingStress, EveryRecvPairsWithExactlyOneArrival) {
  const int threads_per_side = GetParam();
  MatchingTable table;
  constexpr std::uint32_t kPerThread = 8000;
  std::atomic<std::uint64_t> paired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < threads_per_side; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const minilci::Tag tag =
            static_cast<minilci::Tag>(t) * kPerThread + i;
        if (table.insert_recv(0, tag, minilci::PostedRecv{}).has_value()) {
          paired.fetch_add(1);
        }
      }
    });
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const minilci::Tag tag =
            static_cast<minilci::Tag>(t) * kPerThread + i;
        if (table.insert_arrival(0, tag, minilci::Arrival{}).has_value()) {
          paired.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every key got exactly one recv and one arrival: exactly one side of each
  // pair observed the match.
  EXPECT_EQ(paired.load(),
            static_cast<std::uint64_t>(threads_per_side) * kPerThread);
  EXPECT_EQ(table.pending_recvs(), 0u);
  EXPECT_EQ(table.pending_arrivals(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LciMatchingStress,
                         ::testing::Values(1, 2, 4));

// ---------------- two-sided medium ----------------

TEST(LciDevice, MediumSendRecvViaQueue) {
  Pair pair;
  CompQueue cq;
  ASSERT_EQ(pair.dev1.recvm(0, 42, Comp::queue(&cq), 777),
            common::Status::kOk);
  const auto data = testutil::make_pattern(1, 100);
  CompQueue send_cq;
  ASSERT_EQ(pair.dev0.sendm(1, 42, data.data(), data.size(),
                            Comp::queue(&send_cq)),
            common::Status::kOk);
  // Local completion is immediate for medium sends.
  auto sent = send_cq.poll();
  ASSERT_TRUE(sent.has_value());
  EXPECT_EQ(sent->op, OpKind::kSendMedium);

  std::optional<CqEntry> got;
  ASSERT_TRUE(pair.pump_until([&] {
    if (!got) got = cq.poll();
    return got.has_value();
  }));
  EXPECT_EQ(got->op, OpKind::kRecvMedium);
  EXPECT_EQ(got->rank, 0u);
  EXPECT_EQ(got->tag, 42u);
  EXPECT_EQ(got->size, 100u);
  EXPECT_EQ(got->user_context, 777u);
  EXPECT_TRUE(testutil::check_pattern(got->data.data(), 1, 100));
}

TEST(LciDevice, MediumUnexpectedThenRecv) {
  Pair pair;
  const auto data = testutil::make_pattern(2, 50);
  ASSERT_EQ(pair.dev0.sendm(1, 5, data.data(), data.size(), Comp::none()),
            common::Status::kOk);
  for (int i = 0; i < 20; ++i) pair.pump();  // deliver as unexpected
  CompQueue cq;
  ASSERT_EQ(pair.dev1.recvm(0, 5, Comp::queue(&cq)), common::Status::kOk);
  auto got = cq.poll();  // matched inline at post time
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(testutil::check_pattern(got->data.data(), 2, 50));
}

TEST(LciDevice, MediumViaSynchronizer) {
  Pair pair;
  Synchronizer sync;
  ASSERT_EQ(pair.dev1.recvm(0, 9, Comp::sync(&sync)), common::Status::kOk);
  const auto data = testutil::make_pattern(3, 8);
  ASSERT_EQ(pair.dev0.sendm(1, 9, data.data(), data.size(), Comp::none()),
            common::Status::kOk);
  ASSERT_TRUE(pair.pump_until([&] {
    std::vector<CqEntry> out;
    if (!sync.test(&out)) return false;
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(testutil::check_pattern(out[0].data.data(), 3, 8));
    return true;
  }));
}

TEST(LciDevice, MediumOversizeRejected) {
  Pair pair;
  std::vector<std::byte> big(pair.dev0.max_medium_size() + 1);
  EXPECT_EQ(pair.dev0.sendm(1, 0, big.data(), big.size(), Comp::none()),
            common::Status::kError);
}

TEST(LciDevice, SendmPacketAssemblesInPlace) {
  Pair pair;
  auto packet = pair.dev0.try_alloc_packet();
  ASSERT_TRUE(packet.has_value());
  const auto data = testutil::make_pattern(4, 64);
  std::memcpy(packet->data(), data.data(), data.size());
  packet->set_size(64);
  CompQueue cq;
  ASSERT_EQ(pair.dev1.recvm(0, 77, Comp::queue(&cq)), common::Status::kOk);
  ASSERT_EQ(pair.dev0.sendm_packet(1, 77, *packet, Comp::none()),
            common::Status::kOk);
  EXPECT_FALSE(packet->valid());  // consumed
  std::optional<CqEntry> got;
  ASSERT_TRUE(pair.pump_until([&] {
    if (!got) got = cq.poll();
    return got.has_value();
  }));
  EXPECT_TRUE(testutil::check_pattern(got->data.data(), 4, 64));
}

// ---------------- two-sided long ----------------

TEST(LciDevice, LongSendRecvRendezvous) {
  Pair pair;
  const std::size_t size = 200 * 1024;
  const auto data = testutil::make_pattern(5, size);
  std::vector<std::byte> recv(size);
  CompQueue rcq, scq;
  ASSERT_EQ(pair.dev1.recvl(0, 3, recv.data(), recv.size(), Comp::queue(&rcq),
                            111),
            common::Status::kOk);
  ASSERT_EQ(pair.dev0.sendl(1, 3, data.data(), data.size(), Comp::queue(&scq),
                            222),
            common::Status::kOk);
  std::optional<CqEntry> r, s;
  ASSERT_TRUE(pair.pump_until([&] {
    if (!r) r = rcq.poll();
    if (!s) s = scq.poll();
    return r.has_value() && s.has_value();
  }));
  EXPECT_EQ(r->op, OpKind::kRecvLong);
  EXPECT_EQ(r->size, size);
  EXPECT_EQ(r->user_buf, recv.data());
  EXPECT_EQ(r->user_context, 111u);
  EXPECT_EQ(s->op, OpKind::kSendLong);
  EXPECT_EQ(s->user_context, 222u);
  EXPECT_TRUE(testutil::check_pattern(recv.data(), 5, size));
}

TEST(LciDevice, LongUnexpectedRtsThenRecvl) {
  Pair pair;
  const std::size_t size = 64 * 1024;
  const auto data = testutil::make_pattern(6, size);
  CompQueue scq;
  ASSERT_EQ(pair.dev0.sendl(1, 8, data.data(), data.size(), Comp::queue(&scq)),
            common::Status::kOk);
  for (int i = 0; i < 20; ++i) pair.pump();  // RTS lands unexpected
  std::vector<std::byte> recv(size);
  CompQueue rcq;
  ASSERT_EQ(pair.dev1.recvl(0, 8, recv.data(), recv.size(), Comp::queue(&rcq)),
            common::Status::kOk);
  std::optional<CqEntry> r;
  ASSERT_TRUE(pair.pump_until([&] {
    if (!r) r = rcq.poll();
    return r.has_value();
  }));
  EXPECT_TRUE(testutil::check_pattern(recv.data(), 6, size));
}

// ---------------- dynamic put ----------------

TEST(LciDevice, PutDynPacketFastPath) {
  Pair pair;
  auto packet = pair.dev0.try_alloc_packet();
  ASSERT_TRUE(packet.has_value());
  const auto data = testutil::make_pattern(9, 40);
  std::memcpy(packet->data(), data.data(), data.size());
  packet->set_size(40);
  CompQueue local;
  ASSERT_EQ(pair.dev0.put_dyn_packet(1, 12, *packet, Comp::queue(&local)),
            common::Status::kOk);
  EXPECT_FALSE(packet->valid());  // consumed
  auto sent = local.poll();
  ASSERT_TRUE(sent.has_value());
  EXPECT_EQ(sent->op, OpKind::kPutDyn);

  std::optional<CqEntry> got;
  ASSERT_TRUE(pair.pump_until([&] {
    if (!got) got = pair.rcq1.poll();
    return got.has_value();
  }));
  EXPECT_EQ(got->op, OpKind::kRemotePut);
  EXPECT_EQ(got->rank, 0u);
  EXPECT_EQ(got->tag, 12u);
  EXPECT_EQ(got->size, 40u);
  EXPECT_TRUE(testutil::check_pattern(got->data.data(), 9, 40));
}

// A control payload is peer input: an RTS shorter than its 16-byte hello
// must abort in every build type, not be over-read once NDEBUG drops the
// assert.
TEST(LciDeviceDeathTest, ShortRtsPayloadAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Pair pair;
  // The device's wire immediate: [63:56] message kind (3 = RTS) | tag.
  constexpr std::uint64_t kRtsImm = (std::uint64_t{3} << 56) | 5;
  const std::uint32_t short_hello = 64;
  ASSERT_EQ(pair.fabric.nic(0).post_send(1, &short_hello, sizeof(short_hello),
                                         kRtsImm),
            common::Status::kOk);
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100; ++i) pair.dev1.progress();
      },
      "INTEGRITY FAILURE.*control payload");
}

// ---------------- backlog semantics ----------------

TEST(LciDevice, InjectionParksUnderTxPressureUntilTheReceiverDrains) {
  fabric::Config fab = fabric::Profile::loopback(2);  // one rail: in order
  fab.tx_window = 2;
  Pair pair(fab);
  CompQueue rcq;
  for (minilci::Tag tag = 0; tag < 4; ++tag) {
    ASSERT_EQ(pair.dev1.recvm(0, tag, Comp::queue(&rcq), tag),
              common::Status::kOk);
  }
  std::vector<std::uint64_t> arrived;
  const auto collect = [&] {
    while (auto entry = rcq.poll()) arrived.push_back(entry->user_context);
  };
  int x = 0;
  // Fill the window; the third post is refused by the NIC, so it parks in
  // the destination's backlog and still returns kOk.
  ASSERT_EQ(pair.dev0.sendm(1, 0, &x, sizeof(x), Comp::none()),
            common::Status::kOk);
  ASSERT_EQ(pair.dev0.sendm(1, 1, &x, sizeof(x), Comp::none()),
            common::Status::kOk);
  CompQueue local;
  ASSERT_EQ(pair.dev0.sendm(1, 2, &x, sizeof(x), Comp::queue(&local), 42),
            common::Status::kOk);
  // Until the receiver drains, the parked post stays off the wire and its
  // local completion has not fired, however often the sender progresses.
  for (int i = 0; i < 8; ++i) pair.dev0.progress();
  EXPECT_FALSE(local.poll().has_value());
  EXPECT_EQ(pair.fabric.nic(0).stats().packets_sent, 2u);
  // The receiver drains, which frees the window. The next post finds the
  // backlog and injects it before its own message: nothing overtakes the
  // parked post, and its completion fires exactly once, at injection.
  ASSERT_TRUE(testutil::pump_until(
      [&] {
        collect();
        return arrived.size() == 2;
      },
      [&] { pair.dev1.progress(); }));
  ASSERT_EQ(pair.dev0.sendm(1, 3, &x, sizeof(x), Comp::none()),
            common::Status::kOk);
  EXPECT_EQ(pair.fabric.nic(0).stats().packets_sent, 4u);
  const std::optional<CqEntry> done = local.poll();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->op, OpKind::kSendMedium);
  EXPECT_EQ(done->tag, 2u);
  EXPECT_EQ(done->user_context, 42u);
  ASSERT_TRUE(pair.pump_until([&] {
    collect();
    return arrived.size() == 4;
  }));
  EXPECT_EQ(arrived, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  pair.pump();
  EXPECT_FALSE(local.poll().has_value());
  EXPECT_EQ(pair.fabric.nic(0).stats().packets_sent, 4u);
}

// ---------------- multithreaded progress ----------------

struct LciStressParam {
  int sender_threads;
  int progress_threads;
  std::size_t tx_window;  // small = senders park in the backlog
};

class LciProgressStress
    : public ::testing::TestWithParam<LciStressParam> {};

TEST_P(LciProgressStress, ConcurrentSendersAndProgressDeliverAll) {
  const auto param = GetParam();
  fabric::Config fab = fabric::Profile::loopback(2);
  fab.srq_depth = 1024;
  fab.tx_window = param.tx_window;
  Pair pair(fab);

  constexpr std::uint32_t kPerThread = 400;
  const std::uint32_t total =
      static_cast<std::uint32_t>(param.sender_threads) * kPerThread;

  CompQueue rcq;
  for (std::uint32_t tag = 0; tag < total; ++tag) {
    ASSERT_EQ(pair.dev1.recvm(0, tag, Comp::queue(&rcq), tag),
              common::Status::kOk);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < param.progress_threads; ++p) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        pair.dev1.progress();
        pair.dev0.progress();
      }
    });
  }
  for (int t = 0; t < param.sender_threads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        const std::uint32_t tag =
            static_cast<std::uint32_t>(t) * kPerThread + i;
        const auto data = testutil::make_pattern(tag, 256);
        while (pair.dev0.sendm(1, tag, data.data(), data.size(),
                               Comp::none()) != common::Status::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::atomic<std::uint32_t> received{0};
  std::vector<std::atomic<int>> seen(total);
  const bool all = testutil::pump_until(
      [&] { return received.load() >= total; },
      [&] {
        rcq.poll_batch(64, [&](CqEntry&& entry) {
          EXPECT_TRUE(testutil::check_pattern(entry.data.data(), entry.tag,
                                              256));
          EXPECT_EQ(entry.user_context, entry.tag);
          seen[entry.tag].fetch_add(1);
          received.fetch_add(1);
        });
      },
      std::chrono::milliseconds(20000));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  ASSERT_TRUE(all) << "only " << received.load() << "/" << total;
  for (std::uint32_t tag = 0; tag < total; ++tag) {
    EXPECT_EQ(seen[tag].load(), 1) << "tag " << tag;
  }
  const auto snap = pair.fabric.telemetry().snapshot();
  EXPECT_EQ(snap.gauge("minilci/dev0/backlog_depth"), 0);
  if (param.tx_window < total) {
    EXPECT_GT(snap.counter("minilci/dev0/backlogged"), 0u)
        << "a starved TX window never parked a post";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LciProgressStress,
                         ::testing::Values(LciStressParam{1, 1, 4096},
                                           LciStressParam{2, 1, 4096},
                                           LciStressParam{2, 2, 4096},
                                           LciStressParam{4, 2, 4096},
                                           LciStressParam{4, 3, 8}));

// ---------------- sharded rendezvous id table ----------------

TEST(LciIdTable, InsertExtractRoundTrip) {
  minilci::ShardedIdTable<int> table(16);
  EXPECT_EQ(table.num_shards(), 16u);
  std::vector<std::uint32_t> ids;
  std::set<std::uint32_t> distinct;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(table.insert(int(i)));
    distinct.insert(ids.back());
    EXPECT_NE(ids.back(), 0u);  // 0 is the empty-slot sentinel
  }
  EXPECT_EQ(distinct.size(), ids.size());
  EXPECT_EQ(table.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    auto value = table.extract(ids[i]);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(LciIdTable, UnknownOrStaleIdReturnsNullopt) {
  minilci::ShardedIdTable<int> table(4);
  EXPECT_FALSE(table.extract(12345).has_value());
  const std::uint32_t id = table.insert(7);
  EXPECT_TRUE(table.extract(id).has_value());
  EXPECT_FALSE(table.extract(id).has_value());  // second extract is stale
}

TEST(LciIdTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(minilci::ShardedIdTable<int>(1).num_shards(), 1u);
  EXPECT_EQ(minilci::ShardedIdTable<int>(3).num_shards(), 4u);
  EXPECT_EQ(minilci::ShardedIdTable<int>(16).num_shards(), 16u);
  EXPECT_EQ(minilci::ShardedIdTable<int>(17).num_shards(), 32u);
}

TEST(LciIdTable, SingleShardSurvivesGrowthAndTombstoneChurn) {
  // One shard with a working set that forces both capacity growth and
  // same-capacity tombstone sweeps.
  minilci::ShardedIdTable<std::vector<int>> table(1);
  std::deque<std::pair<std::uint32_t, int>> live;
  int next = 0;
  for (int round = 0; round < 20000; ++round) {
    live.emplace_back(table.insert(std::vector<int>{next}), next);
    ++next;
    if (live.size() > 100) {
      auto [id, expected] = live.front();
      live.pop_front();
      auto value = table.extract(id);
      ASSERT_TRUE(value.has_value());
      ASSERT_EQ(value->at(0), expected);
    }
  }
  EXPECT_EQ(table.size(), live.size());
}

TEST(LciIdTable, ConcurrentInsertExtract) {
  minilci::ShardedIdTable<std::uint64_t> table(8);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Keep a small window of live ids so extracts interleave with other
      // threads' inserts into the same shards.
      std::deque<std::pair<std::uint32_t, std::uint64_t>> window;
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t value =
            (static_cast<std::uint64_t>(t) << 32) | static_cast<unsigned>(i);
        window.emplace_back(table.insert(std::uint64_t{value}), value);
        if (window.size() > 16) {
          auto [id, expected] = window.front();
          window.pop_front();
          auto out = table.extract(id);
          if (!out.has_value() || *out != expected) mismatches.fetch_add(1);
        }
      }
      while (!window.empty()) {
        auto [id, expected] = window.front();
        window.pop_front();
        auto out = table.extract(id);
        if (!out.has_value() || *out != expected) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(table.size(), 0u);
}

// ---------------- lock-free synchronizer (inline path) ----------------

TEST(LciSynchronizer, InlineThresholdConcurrentProducersAndReuse) {
  // Threshold == kInlineSlots: the lock-free slot-claim path, reused across
  // cycles the way the parcelport recycles pooled synchronizers.
  constexpr int kThreshold = Synchronizer::kInlineSlots;
  constexpr int kCycles = 50;
  Synchronizer sync(kThreshold);
  ASSERT_TRUE(sync.inline_mode());
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    EXPECT_FALSE(sync.test());
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreshold; ++t) {
      producers.emplace_back([&, t] {
        CqEntry entry;
        entry.tag = static_cast<std::uint32_t>(t);
        entry.data = testutil::make_pattern(static_cast<std::uint64_t>(t), 64);
        sync.signal(std::move(entry));
      });
    }
    std::vector<CqEntry> out;
    while (!sync.test(&out)) std::this_thread::yield();
    for (auto& producer : producers) producer.join();
    ASSERT_EQ(out.size(), static_cast<std::size_t>(kThreshold));
    std::array<int, kThreshold> seen{};
    for (const auto& entry : out) {
      ASSERT_LT(entry.tag, static_cast<std::uint32_t>(kThreshold));
      ++seen[entry.tag];
      EXPECT_TRUE(testutil::check_pattern(entry.data.data(),
                                          static_cast<std::uint64_t>(entry.tag),
                                          64));
    }
    for (int t = 0; t < kThreshold; ++t) EXPECT_EQ(seen[t], 1);
  }
}

TEST(LciSynchronizer, FallbackThresholdKeepsCapacityAcrossReuse) {
  // Threshold above kInlineSlots: the spinlocked vector path. The moved-out
  // vector must be re-reserved so steady-state reuse stays allocation-free.
  constexpr int kThreshold = Synchronizer::kInlineSlots + 4;
  Synchronizer sync(kThreshold);
  ASSERT_FALSE(sync.inline_mode());
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < kThreshold; ++i) sync.signal(CqEntry{});
    std::vector<CqEntry> out;
    ASSERT_TRUE(sync.test(&out));
    EXPECT_EQ(out.size(), static_cast<std::size_t>(kThreshold));
  }
}

// ---------------- rendezvous-path stress (sharded tables, deferred lanes,
// ---------------- lock-free synchronizers with threshold>1 reuse)

TEST(LciRendezvousStress, EightThreadSendlRecvlSynchronizerChurn) {
  fabric::Config fab = fabric::Profile::loopback(2);
  fab.num_rails = 4;
  fab.tx_window = 8;  // starve TX so writes defer through the per-dst lanes
  Pair pair(fab);

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  constexpr std::size_t kLongLen = 12 * 1024;  // above the eager threshold
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // One synchronizer reused across iterations: the threshold-2
      // (inline, lock-free) arm/consume/re-arm cycle.
      Synchronizer sync(2);
      std::vector<std::byte> recv_buf(kLongLen);
      for (int i = 0; i < kIters; ++i) {
        const std::uint32_t tag =
            0x1000u + static_cast<std::uint32_t>(t * kIters + i);
        const auto payload = testutil::make_pattern(tag, kLongLen);
        if (pair.dev1.recvl(0, tag, recv_buf.data(), recv_buf.size(),
                            Comp::sync(&sync), 1) != common::Status::kOk) {
          failures.fetch_add(1);
          return;
        }
        while (pair.dev0.sendl(1, tag, payload.data(), payload.size(),
                               Comp::sync(&sync), 2) != common::Status::kOk) {
          pair.pump();
        }
        std::vector<CqEntry> done;
        const bool completed = testutil::pump_until(
            [&] { return sync.test(&done); }, [&] { pair.pump(); },
            std::chrono::milliseconds(30000));
        if (!completed) {
          failures.fetch_add(1);
          return;
        }
        bool send_seen = false;
        bool recv_seen = false;
        for (const auto& entry : done) {
          if (entry.op == OpKind::kSendLong) send_seen = true;
          if (entry.op == OpKind::kRecvLong) recv_seen = true;
        }
        if (!send_seen || !recv_seen ||
            !testutil::check_pattern(recv_buf.data(), tag, kLongLen)) {
          failures.fetch_add(1);
          return;
        }
        if ((i & 3) == 0) {
          // Medium-message churn interleaved with the rendezvous traffic.
          CompQueue mcq;
          const std::uint32_t mtag = 0x80000000u + tag;
          if (pair.dev1.recvm(0, mtag, Comp::queue(&mcq), 0) !=
              common::Status::kOk) {
            failures.fetch_add(1);
            return;
          }
          const auto medium = testutil::make_pattern(mtag, 512);
          while (pair.dev0.sendm(1, mtag, medium.data(), medium.size(),
                                 Comp::none()) != common::Status::kOk) {
            pair.pump();
          }
          std::optional<CqEntry> arrived;
          const bool medium_done = testutil::pump_until(
              [&] { return (arrived = mcq.poll()).has_value(); },
              [&] { pair.pump(); }, std::chrono::milliseconds(30000));
          if (!medium_done ||
              !testutil::check_pattern(arrived->data.data(), mtag, 512)) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------- magazine thread-exit accounting ----------------

TEST(LciPacketPool, ThreadExitFlushesMagazines) {
  PacketPool pool(128, 32, /*cache_size=*/16);
  // Worker threads stock their magazine slots, then exit. shard_slot() hands
  // out fresh per-thread ids, so without the thread-exit flush the cached
  // packets would be stranded in slots no surviving thread maps to.
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 500; ++i) {
        auto packet = pool.try_alloc();
        if (packet.has_value()) packet->release();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // No flush_caches() here: the exits themselves must have rebalanced the
  // pool. Every packet must be allocatable from this thread.
  std::vector<minilci::PacketBuffer> held;
  for (int i = 0; i < 128; ++i) {
    auto packet = pool.try_alloc();
    ASSERT_TRUE(packet.has_value())
        << "packet " << i << " stranded in an exited thread's magazine";
    held.push_back(std::move(*packet));
  }
  EXPECT_FALSE(pool.try_alloc().has_value());
}

TEST(LciPacketPool, ThreadExitAfterPoolDestructionIsSafe) {
  // The reverse order: the pool dies while a thread that used it is still
  // running. The thread's exit-time flusher must skip the dead pool.
  std::thread worker;
  {
    PacketPool pool(8, 32, /*cache_size=*/4);
    std::atomic<bool> used{false};
    worker = std::thread([&pool, &used] {
      auto packet = pool.try_alloc();
      if (packet.has_value()) packet->release();
      used.store(true);
      while (!used.load()) std::this_thread::yield();
    });
    while (!used.load()) std::this_thread::yield();
  }  // pool destroyed here, before the worker exits
  worker.join();  // must not touch the dead pool
}

// ---------------- two-sided traffic through a lossy fabric ----------------

TEST(LciDevice, MediumSurvivesDropsViaRetransmit) {
  fabric::Config fab = fabric::Profile::loopback(2);
  fab.faults.drop = 0.15;
  fab.faults.seed = 77;
  Pair pair(fab);
  constexpr std::uint32_t kCount = 30;
  CompQueue cq;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(pair.dev1.recvm(0, i, Comp::queue(&cq), i),
              common::Status::kOk);
  }
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const auto data = testutil::make_pattern(i, 200);
    while (pair.dev0.sendm(1, i, data.data(), data.size(), Comp::none()) !=
           common::Status::kOk) {
      pair.pump();
    }
  }
  std::vector<bool> seen(kCount, false);
  std::uint32_t received = 0;
  ASSERT_TRUE(pair.pump_until(
      [&] {
        while (auto entry = cq.poll()) {
          EXPECT_FALSE(seen[entry->tag]) << "duplicate tag " << entry->tag;
          EXPECT_TRUE(testutil::check_pattern(entry->data.data(), entry->tag,
                                              entry->size));
          seen[entry->tag] = true;
          ++received;
        }
        return received == kCount;
      },
      std::chrono::milliseconds(20000)))
      << "delivered " << received << "/" << kCount << " through the drops";
  const auto snap = pair.fabric.telemetry().snapshot();
  EXPECT_GT(snap.counter("reliable/lci0/retransmits"), 0u)
      << "drops at 15% must have forced at least one retransmit";
}
