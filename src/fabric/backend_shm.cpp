#include "fabric/backend_shm.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/integrity.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define AMTNET_HAVE_POSIX_SHM 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define AMTNET_HAVE_POSIX_SHM 0
#endif

#if defined(__linux__)
#include <sys/uio.h>  // process_vm_readv / process_vm_writev (CMA)
#endif

namespace fabric {

namespace {

constexpr std::uint64_t kShmReadyMagic = 0x414d544e45543031ULL;  // "AMTNET01"
constexpr std::size_t kMrSlots = 4096;  // power of two

std::string nic_metric(Rank rank, const char* leaf) {
  return "fabric/nic" + std::to_string(rank) + "/" + leaf;
}

std::size_t align64(std::size_t v) { return (v + 63) & ~std::size_t{63}; }

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error("shm backend: " + what + ": " +
                           std::strerror(errno));
}

#if defined(__linux__)
bool cma_copy(pid_t pid, void* local, std::uint64_t remote, std::size_t len,
              bool write) {
  std::size_t done = 0;
  while (done < len) {
    iovec liov{static_cast<std::byte*>(local) + done, len - done};
    iovec riov{reinterpret_cast<void*>(remote + done), len - done};
    const ssize_t n = write ? process_vm_writev(pid, &liov, 1, &riov, 1, 0)
                            : process_vm_readv(pid, &liov, 1, &riov, 1, 0);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}
#endif

}  // namespace

bool shm_available() {
#if AMTNET_HAVE_POSIX_SHM
  static const bool available = [] {
    const std::string name =
        "/amtnet-probe-" + std::to_string(::getpid());
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) return false;
    ::close(fd);
    ::shm_unlink(name.c_str());
    return true;
  }();
  return available;
#else
  return false;
#endif
}

namespace detail {

#if AMTNET_HAVE_POSIX_SHM

ShmDomain::ShmDomain(const Config& config) : config_(config) {
  if (!shm_available()) {
    throw std::runtime_error("shm backend: POSIX shared memory unavailable");
  }
  if (config_.shm_session.empty()) {
    static std::atomic<std::uint64_t> counter{0};
    session_ = "amtnet-" + std::to_string(::getpid()) + "-" +
               std::to_string(counter.fetch_add(1));
  } else {
    session_ = config_.shm_session;
  }
  const char* ff = std::getenv("AMTNET_SHM_FORCE_FALLBACK");
  force_fallback_ = ff != nullptr && ff[0] != '\0' && ff[0] != '0';
  std::uint64_t seed = static_cast<std::uint64_t>(::getpid()) ^
                       0x5bd1e995u;
  probe_word_ = common::splitmix64(seed);

  ring_bytes_ = ShmRing::footprint(config_.shm_ring_depth,
                                   config_.srq_buffer_size);
  pair_bytes_ = align64(sizeof(ShmPairHeader)) + 2 * ring_bytes_;
  rank_bytes_ = align64(sizeof(ShmRankHeader) + kMrSlots * sizeof(ShmMrSlot));

  const std::size_t n = config_.num_ranks;
  pair_segments_.resize(n * (n - 1) / 2 + 1);
  pair_bases_.resize(pair_segments_.size(), nullptr);
  rank_segments_.resize(n);
  rank_bases_ = std::make_unique<std::atomic<ShmRankHeader*>[]>(n);
  peer_modes_ = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    rank_bases_[i].store(nullptr, std::memory_order_relaxed);
    peer_modes_[i].store(static_cast<std::uint8_t>(PeerMode::kUnknown),
                         std::memory_order_relaxed);
  }

  // Rank segments first (pid + MR table + CMA probe word), so that by the
  // time any peer can see our pair rings it can also resolve us.
  for (Rank r = 0; r < config_.num_ranks; ++r) {
    if (!config_.rank_is_local(r)) continue;
    Segment seg = open_segment(session_ + "-r" + std::to_string(r),
                               rank_bytes_, /*create=*/true);
    auto* header = static_cast<ShmRankHeader*>(seg.base);
    header->pid.store(::getpid(), std::memory_order_relaxed);
    header->probe_addr.store(reinterpret_cast<std::uint64_t>(&probe_word_),
                             std::memory_order_relaxed);
    header->probe_value.store(probe_word_, std::memory_order_relaxed);
    header->mr_slots = kMrSlots;
    header->magic.store(kShmReadyMagic, std::memory_order_release);
    rank_segments_[r] = seg;
    rank_bases_[r].store(header, std::memory_order_release);
  }

  // Pair segments for every pair that touches a local rank. The lower rank
  // creates; the higher attaches with a bounded wait, so in multi-process
  // mode construction doubles as the bootstrap rendezvous.
  for (Rank a = 0; a < config_.num_ranks; ++a) {
    for (Rank b = a + 1; b < config_.num_ranks; ++b) {
      if (config_.rank_is_local(a) || config_.rank_is_local(b)) {
        map_pair(a, b);
      }
    }
  }
}

ShmDomain::~ShmDomain() {
  auto drop = [](Segment& seg) {
    if (seg.base != nullptr) ::munmap(seg.base, seg.size);
    if (seg.linked) ::shm_unlink(seg.name.c_str());
    seg.base = nullptr;
  };
  for (auto& seg : pair_segments_) drop(seg);
  for (auto& seg : rank_segments_) drop(seg);
}

std::size_t ShmDomain::pair_index(Rank a, Rank b) const {
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  const std::size_t n = config_.num_ranks;
  return lo * n - lo * (lo + 1) / 2 + (hi - lo - 1);
}

ShmDomain::Segment ShmDomain::open_segment(const std::string& short_name,
                                           std::size_t size, bool create) {
  const std::string name = "/" + short_name;
  Segment seg;
  seg.name = name;
  seg.size = size;
  seg.linked = create;
  int fd = -1;
  if (create) {
    fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0 && errno == EEXIST) {
      // Stale segment from a crashed run reusing the session name.
      ::shm_unlink(name.c_str());
      fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    }
    if (fd < 0) throw_errno("shm_open(create " + name + ")");
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      ::close(fd);
      ::shm_unlink(name.c_str());
      throw_errno("ftruncate(" + name + ")");
    }
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(config_.shm_bootstrap_timeout_s);
    for (;;) {
      fd = ::shm_open(name.c_str(), O_RDWR, 0600);
      if (fd >= 0) {
        // The creator may not have sized the segment yet.
        struct stat st {};
        if (::fstat(fd, &st) == 0 &&
            static_cast<std::size_t>(st.st_size) >= size) {
          break;
        }
        ::close(fd);
        fd = -1;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error("shm backend: timed out waiting for peer "
                                 "segment " + name +
                                 " (is every rank launched?)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void* base =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    if (create) ::shm_unlink(name.c_str());
    throw_errno("mmap(" + name + ")");
  }
  seg.base = base;
  if (create && config_.shm_session.empty()) {
    // A generated session name is known only to this process, so nothing
    // will ever attach by name: unlink now, and an abort leaks nothing.
    ::shm_unlink(name.c_str());
    seg.linked = false;
  }
  return seg;
}

void ShmDomain::map_pair(Rank lo, Rank hi) {
  const bool i_create = config_.rank_is_local(lo);
  Segment seg = open_segment(
      session_ + "-p" + std::to_string(lo) + "x" + std::to_string(hi),
      pair_bytes_, i_create);
  auto* header = static_cast<ShmPairHeader*>(seg.base);
  if (i_create) {
    header->ring_offset[0] = align64(sizeof(ShmPairHeader));
    header->ring_offset[1] = header->ring_offset[0] + ring_bytes_;
    for (int dir = 0; dir < 2; ++dir) {
      auto* ring = reinterpret_cast<ShmRing*>(
          static_cast<std::byte*>(seg.base) + header->ring_offset[dir]);
      ring->init(config_.shm_ring_depth, config_.srq_buffer_size);
    }
    header->magic.store(kShmReadyMagic, std::memory_order_release);
  } else {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(config_.shm_bootstrap_timeout_s);
    while (header->magic.load(std::memory_order_acquire) != kShmReadyMagic) {
      if (std::chrono::steady_clock::now() >= deadline) {
        throw std::runtime_error(
            "shm backend: timed out waiting for pair segment init " +
            seg.name);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const std::size_t idx = pair_index(lo, hi);
  pair_segments_[idx] = seg;
  pair_bases_[idx] = header;
}

ShmRing* ShmDomain::ring(Rank from, Rank to) {
  ShmPairHeader* header = pair_bases_[pair_index(from, to)];
  if (header == nullptr) {
    AMTNET_LOG_ERROR("shm backend: ring ", from, "->", to,
                     " is not mapped in this process");
    std::abort();
  }
  const int dir = from < to ? 0 : 1;
  return reinterpret_cast<ShmRing*>(reinterpret_cast<std::byte*>(header) +
                                    header->ring_offset[dir]);
}

ShmRankHeader* ShmDomain::rank_header(Rank r) {
  ShmRankHeader* cached = rank_bases_[r].load(std::memory_order_acquire);
  if (cached != nullptr) return cached;
  std::lock_guard<common::SpinMutex> guard(attach_mutex_);
  cached = rank_bases_[r].load(std::memory_order_acquire);
  if (cached != nullptr) return cached;
  Segment seg = open_segment(session_ + "-r" + std::to_string(r), rank_bytes_,
                             /*create=*/false);
  auto* header = static_cast<ShmRankHeader*>(seg.base);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(config_.shm_bootstrap_timeout_s);
  while (header->magic.load(std::memory_order_acquire) != kShmReadyMagic) {
    if (std::chrono::steady_clock::now() >= deadline) {
      throw std::runtime_error(
          "shm backend: timed out waiting for rank segment init " + seg.name);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rank_segments_[r] = seg;
  rank_bases_[r].store(header, std::memory_order_release);
  return header;
}

ShmDomain::PeerMode ShmDomain::peer_mode(Rank r) {
  const auto cached =
      static_cast<PeerMode>(peer_modes_[r].load(std::memory_order_acquire));
  if (cached != PeerMode::kUnknown) return cached;
  ShmRankHeader* header = rank_header(r);
  PeerMode mode = PeerMode::kFallback;
  const auto pid =
      static_cast<pid_t>(header->pid.load(std::memory_order_relaxed));
  if (force_fallback_) {
    // Forced before the same-process check, so single-process tests reach
    // the segmented-ring path too.
  } else if (pid == ::getpid()) {
    mode = PeerMode::kDirect;
  } else {
#if defined(__linux__)
    // Prove cross-memory attach works by reading the peer's published probe
    // word out of its private memory.
    std::uint64_t value = 0;
    if (cma_copy(pid, &value,
                 header->probe_addr.load(std::memory_order_relaxed),
                 sizeof(value), /*write=*/false) &&
        value == header->probe_value.load(std::memory_order_relaxed)) {
      mode = PeerMode::kCma;
    }
#endif
  }
  peer_modes_[r].store(static_cast<std::uint8_t>(mode),
                       std::memory_order_release);
  return mode;
}

bool ShmDomain::lookup_mr(Rank r, std::uint64_t id, std::uint64_t& vaddr,
                          std::uint64_t& len) {
  ShmRankHeader* header = rank_header(r);
  ShmMrSlot& slot = header->table()[id & (header->mr_slots - 1)];
  if (slot.id.load(std::memory_order_acquire) != id) return false;
  vaddr = slot.vaddr.load(std::memory_order_relaxed);
  len = slot.len.load(std::memory_order_relaxed);
  // Re-check: a concurrent dereg+re-register of the slot would have changed
  // the id before we read a torn vaddr/len pair.
  return slot.id.load(std::memory_order_acquire) == id;
}

#else  // !AMTNET_HAVE_POSIX_SHM

ShmDomain::ShmDomain(const Config& config) : config_(config) {
  throw std::runtime_error(
      "shm backend: POSIX shared memory is not available on this platform");
}
ShmDomain::~ShmDomain() = default;
std::size_t ShmDomain::pair_index(Rank, Rank) const { return 0; }
ShmDomain::Segment ShmDomain::open_segment(const std::string&, std::size_t,
                                           bool) {
  return {};
}
void ShmDomain::map_pair(Rank, Rank) {}
ShmRing* ShmDomain::ring(Rank, Rank) { return nullptr; }
ShmRankHeader* ShmDomain::rank_header(Rank) { return nullptr; }
ShmDomain::PeerMode ShmDomain::peer_mode(Rank) { return PeerMode::kFallback; }
bool ShmDomain::lookup_mr(Rank, std::uint64_t, std::uint64_t&,
                          std::uint64_t&) {
  return false;
}

#endif  // AMTNET_HAVE_POSIX_SHM

}  // namespace detail

// ---------------------------------------------------------------------------
// ShmNic

ShmNic::ShmNic(Fabric& fabric, Rank rank, const Config& config,
               detail::ShmDomain& domain)
    : fabric_(fabric),
      rank_(rank),
      config_(config),
      domain_(domain),
      faults_on_(config.faults.drop > 0.0 || config.faults.duplicate > 0.0 ||
                 config.faults.corrupt > 0.0),
      thr_drop_(fault_threshold(config.faults.drop)),
      thr_dup_(fault_threshold(config.faults.duplicate)),
      thr_corrupt_(fault_threshold(config.faults.corrupt)),
      ctr_packets_sent_(
          fabric.telemetry().counter(nic_metric(rank, "packets_sent"))),
      ctr_bytes_sent_(
          fabric.telemetry().counter(nic_metric(rank, "bytes_sent"))),
      ctr_packets_received_(
          fabric.telemetry().counter(nic_metric(rank, "packets_received"))),
      ctr_tx_window_rejects_(
          fabric.telemetry().counter(nic_metric(rank, "tx_window_rejects"))),
      ctr_faults_dropped_(
          fabric.telemetry().counter(nic_metric(rank, "faults_dropped"))),
      ctr_faults_duplicated_(
          fabric.telemetry().counter(nic_metric(rank, "faults_duplicated"))),
      ctr_faults_corrupted_(
          fabric.telemetry().counter(nic_metric(rank, "faults_corrupted"))) {
  peers_.reserve(config.num_ranks);
  for (Rank r = 0; r < config.num_ranks; ++r) {
    peers_.push_back(std::make_unique<PeerTx>());
  }
}

ShmNic::~ShmNic() = default;

std::uint64_t ShmNic::fault_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ull;
  return static_cast<std::uint64_t>(p * 4294967296.0) << 32;
}

bool ShmNic::inject_faults(std::vector<std::byte>& payload, bool& duplicate) {
  if (!faults_on_) return false;
  const std::uint64_t post_idx =
      tx_post_counter_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t rng = config_.faults.seed ^
                      (0x9e3779b97f4a7c15ULL * (post_idx + 1)) ^
                      (static_cast<std::uint64_t>(rank_) << 48);
  if (thr_drop_ != 0 && common::splitmix64(rng) < thr_drop_) {
    ctr_faults_dropped_.add();
    return true;
  }
  if (thr_dup_ != 0 && common::splitmix64(rng) < thr_dup_) {
    duplicate = true;
  }
  if (thr_corrupt_ != 0 && !payload.empty() &&
      payload.size() >= config_.faults.corrupt_min_size &&
      common::splitmix64(rng) < thr_corrupt_) {
    const std::uint64_t bit =
        common::splitmix64(rng) % (payload.size() * 8);
    payload[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    ctr_faults_corrupted_.add();
  }
  return false;
}

bool ShmNic::push_now_locked(detail::ShmRing& ring, const OutRecord& rec) {
  std::uint64_t pos = 0;
  detail::ShmSlot* slot = ring.try_claim(pos);
  if (slot == nullptr) return false;
  slot->record = rec.header;
  if (!rec.payload.empty()) {
    std::memcpy(slot->payload(), rec.payload.data(), rec.payload.size());
  }
  ring.publish(slot, pos);
  ctr_packets_sent_.add();
  ctr_bytes_sent_.add(rec.header.len + 32);
  return true;
}

void ShmNic::flush_pending_locked(PeerTx& peer, detail::ShmRing& ring) {
  while (!peer.pending.empty()) {
    if (!push_now_locked(ring, peer.pending.front())) return;
    peer.pending.pop_front();
    if (peer.pending.empty()) peer.staged.store(false);
  }
}

void ShmNic::flush_pending(Rank dst) {
  PeerTx& peer = *peers_[dst];
  // Fast-out without the lock; a record staged meanwhile waits for the
  // next poll or the next push to this peer.
  if (!peer.staged.load()) return;
  std::lock_guard<common::SpinMutex> guard(peer.mutex);
  flush_pending_locked(peer, *domain_.ring(rank_, dst));
}

bool ShmNic::push_record(Rank dst, OutRecord&& rec, bool stash) {
  PeerTx& peer = *peers_[dst];
  std::lock_guard<common::SpinMutex> guard(peer.mutex);
  detail::ShmRing& ring = *domain_.ring(rank_, dst);
  flush_pending_locked(peer, ring);
  if (peer.pending.empty() && push_now_locked(ring, rec)) return true;
  if (stash) {
    // Committed mid-operation records queue behind whatever is already
    // staged, preserving FIFO order on the ring. Telemetry counts at actual
    // ring insertion (push_now_locked), so nothing is counted here.
    peer.pending.push_back(std::move(rec));
    peer.staged.store(true);
    return true;
  }
  return false;
}

void ShmNic::deliver_self(RxEvent&& event) {
  ctr_packets_sent_.add();
  ctr_bytes_sent_.add(event.size + 32);
  self_events_.push(std::move(event));
}

common::Status ShmNic::post_send(Rank dst, const void* data, std::size_t len,
                                 std::uint64_t imm) {
  if (dst >= config_.num_ranks) return common::Status::kError;
  if (len > config_.srq_buffer_size) {
    AMTNET_LOG_ERROR("post_send: payload ", len,
                     " exceeds shm ring slot size ", config_.srq_buffer_size);
    return common::Status::kError;
  }
  std::vector<std::byte> payload;
  if (len > 0) {
    payload.assign(static_cast<const std::byte*>(data),
                   static_cast<const std::byte*>(data) + len);
  }
  bool duplicate = false;
  if (inject_faults(payload, duplicate)) {
    // Dropped "on the wire": pretend success, the receiver never sees it.
    ctr_packets_sent_.add();
    ctr_bytes_sent_.add(len + 32);
    return common::Status::kOk;
  }

  if (dst == rank_) {
    RxEvent event;
    event.kind = RxEvent::Kind::kRecv;
    event.src = rank_;
    event.imm = imm;
    event.size = payload.size();
    if (duplicate) {
      RxEvent copy;
      copy.kind = event.kind;
      copy.src = event.src;
      copy.imm = event.imm;
      copy.size = event.size;
      copy.payload = payload;
      ctr_faults_duplicated_.add();
      deliver_self(std::move(copy));
    }
    event.payload = std::move(payload);
    deliver_self(std::move(event));
    return common::Status::kOk;
  }

  OutRecord rec;
  rec.header.kind = detail::ShmRecord::kEager;
  rec.header.len = static_cast<std::uint32_t>(payload.size());
  rec.header.imm = imm;
  rec.payload = std::move(payload);
  OutRecord dup_rec;
  if (duplicate) {
    dup_rec.header = rec.header;
    dup_rec.payload = rec.payload;
  }
  if (!push_record(dst, std::move(rec), /*stash=*/false)) {
    ctr_tx_window_rejects_.add();
    return common::Status::kRetry;
  }
  if (duplicate && push_record(dst, std::move(dup_rec), /*stash=*/false)) {
    ctr_faults_duplicated_.add();
  }
  return common::Status::kOk;
}

common::Status ShmNic::post_write_imm(Rank dst, const MrKey& rkey,
                                      std::size_t offset, const void* data,
                                      std::size_t len, std::uint64_t imm) {
  if (dst >= config_.num_ranks) return common::Status::kError;
  std::uint64_t vaddr = 0;
  std::uint64_t mr_len = 0;
  if (!domain_.lookup_mr(dst, rkey.id, vaddr, mr_len)) {
    AMTNET_LOG_ERROR("RDMA write to unregistered MR id ", rkey.id,
                     " on rank ", dst);
    return common::Status::kError;
  }
  if (offset > mr_len || len > mr_len - offset) {
    AMTNET_LOG_ERROR("RDMA write overruns MR id ", rkey.id, ": offset ",
                     offset, " + len ", len, " > ", mr_len);
    return common::Status::kError;
  }

  if (dst == rank_) {
    std::memcpy(reinterpret_cast<std::byte*>(vaddr) + offset, data, len);
    RxEvent event;
    event.kind = RxEvent::Kind::kWriteImm;
    event.src = rank_;
    event.imm = imm;
    event.size = len;
    deliver_self(std::move(event));
    return common::Status::kOk;
  }

  const auto mode = domain_.peer_mode(dst);
  if (mode != detail::ShmDomain::PeerMode::kFallback) {
    if (mode == detail::ShmDomain::PeerMode::kDirect) {
      std::memcpy(reinterpret_cast<std::byte*>(vaddr) + offset, data, len);
    } else {
#if defined(__linux__)
      const auto pid = static_cast<pid_t>(
          domain_.rank_header(dst)->pid.load(std::memory_order_relaxed));
      if (!cma_copy(pid, const_cast<void*>(data), vaddr + offset, len,
                    /*write=*/true)) {
        AMTNET_LOG_ERROR("CMA write to rank ", dst, " failed: ",
                         std::strerror(errno));
        return common::Status::kError;
      }
#else
      return common::Status::kError;
#endif
    }
    ctr_bytes_sent_.add(len);
    // The data has already landed; the notice only carries the completion
    // event, so a momentarily full ring stages it rather than failing the
    // (unrepeatable) operation.
    OutRecord rec;
    rec.header.kind = detail::ShmRecord::kWriteNotice;
    rec.header.imm = imm;
    rec.header.total_len = len;
    push_record(dst, std::move(rec), /*stash=*/true);
    return common::Status::kOk;
  }

  // Fallback: segment the payload into ring records; the target's poll loop
  // lands them in its registered region. The first fragment may refuse with
  // kRetry (TX-window semantics); once any fragment is in, the rest are
  // committed and stage on a full ring instead.
  const std::size_t cap = config_.srq_buffer_size;
  const std::uint64_t write_id =
      next_write_id_.fetch_add(1, std::memory_order_relaxed);
  std::size_t off = 0;
  bool first = true;
  do {
    const std::size_t n = std::min(cap, len - off);
    OutRecord rec;
    rec.header.kind = detail::ShmRecord::kWriteFrag;
    rec.header.len = static_cast<std::uint32_t>(n);
    rec.header.mr_id = rkey.id;
    rec.header.offset = offset + off;
    rec.header.op_id = write_id;
    if (n > 0) {
      rec.payload.assign(static_cast<const std::byte*>(data) + off,
                         static_cast<const std::byte*>(data) + off + n);
    }
    off += n;
    if (off >= len) {
      rec.header.flags = detail::ShmRecord::kFlagLast;
      rec.header.imm = imm;
      rec.header.total_len = len;
    }
    if (!push_record(dst, std::move(rec), /*stash=*/!first)) {
      ctr_tx_window_rejects_.add();
      return common::Status::kRetry;
    }
    first = false;
  } while (off < len);
  return common::Status::kOk;
}


MrKey ShmNic::register_memory(void* base, std::size_t len) {
  detail::ShmRankHeader* header = domain_.rank_header(rank_);
  const std::uint64_t id =
      next_mr_id_.fetch_add(1, std::memory_order_relaxed);
  detail::ShmMrSlot& slot = header->table()[id & (header->mr_slots - 1)];
  if (slot.id.load(std::memory_order_acquire) != 0) {
    AMTNET_LOG_ERROR("shm MR window exhausted: slot for id ", id,
                     " still holds a live registration (", header->mr_slots,
                     " concurrent regions max)");
    std::abort();
  }
  slot.vaddr.store(reinterpret_cast<std::uint64_t>(base),
                   std::memory_order_relaxed);
  slot.len.store(len, std::memory_order_relaxed);
  slot.id.store(id, std::memory_order_release);
  return MrKey{rank_, id};
}

void ShmNic::deregister_memory(const MrKey& key) {
  detail::ShmRankHeader* header = domain_.rank_header(rank_);
  detail::ShmMrSlot& slot =
      header->table()[key.id & (header->mr_slots - 1)];
  if (slot.id.load(std::memory_order_acquire) == key.id) {
    slot.id.store(0, std::memory_order_release);
  }
}

void ShmNic::handle_record(Rank src, const detail::ShmRecord& rec,
                           const std::byte* payload, RxSink& sink) {
  switch (rec.kind) {
    case detail::ShmRecord::kEager: {
      RxEvent event;
      event.kind = RxEvent::Kind::kRecv;
      event.src = src;
      event.imm = rec.imm;
      event.size = rec.len;
      if (rec.len > 0) {
        event.payload.assign(payload, payload + rec.len);
      }
      sink(std::move(event));
      break;
    }
    case detail::ShmRecord::kWriteNotice: {
      RxEvent event;
      event.kind = RxEvent::Kind::kWriteImm;
      event.src = src;
      event.imm = rec.imm;
      event.size = rec.total_len;
      sink(std::move(event));
      break;
    }
    case detail::ShmRecord::kWriteFrag: {
      // Fragments of one write may be consumed by several concurrent
      // pollers, so both the MR copy and the progress accounting happen
      // under writes_mutex_: whichever thread lands the final byte (not
      // necessarily the one holding the kFlagLast fragment) surfaces the
      // kWriteImm, and only after every fragment is in place.
      const std::uint64_t key =
          (static_cast<std::uint64_t>(src) << 48) ^ rec.op_id;
      RxEvent done;
      bool complete = false;
      {
        std::lock_guard<common::SpinMutex> guard(writes_mutex_);
        PendingWrite& pending = pending_writes_[key];
        std::uint64_t vaddr = 0;
        std::uint64_t mr_len = 0;
        if (domain_.lookup_mr(rank_, rec.mr_id, vaddr, mr_len)) {
          // Written so that a peer-supplied offset near 2^64 cannot wrap.
          if (rec.offset > mr_len || rec.len > mr_len - rec.offset) {
            common::integrity_fail("shm write fragment from rank ", src,
                                   " overruns MR id ", rec.mr_id, ": offset ",
                                   rec.offset, " + len ", rec.len, " > ",
                                   mr_len);
          }
          if (rec.len > 0) {
            std::memcpy(reinterpret_cast<std::byte*>(vaddr) + rec.offset,
                        payload, rec.len);
          }
        } else {
          AMTNET_LOG_ERROR("shm write fragment for invalid MR id ",
                           rec.mr_id);
        }
        pending.received += rec.len;
        if ((rec.flags & detail::ShmRecord::kFlagLast) != 0) {
          pending.got_last = true;
          pending.total = rec.total_len;
          pending.imm = rec.imm;
        }
        if (pending.got_last && pending.received >= pending.total) {
          done.kind = RxEvent::Kind::kWriteImm;
          done.src = src;
          done.imm = pending.imm;
          done.size = pending.total;
          complete = true;
          pending_writes_.erase(key);
        }
      }
      if (complete) sink(std::move(done));
      break;
    }
    default:
      AMTNET_LOG_ERROR("shm ring: unknown record kind ",
                       static_cast<int>(rec.kind));
      break;
  }
}

std::size_t ShmNic::poll_rx_sink(std::size_t max_packets, RxSink sink) {
  if (max_packets == 0) return 0;
  // Retry anything staged while its ring was full, before draining RX, so a
  // pair of busy localities cannot wedge each other's committed fragments.
  for (Rank r = 0; r < config_.num_ranks; ++r) {
    if (r != rank_) flush_pending(r);
  }

  std::size_t processed = self_events_.try_drain(
      max_packets, [&](RxEvent&& event) {
        ctr_packets_received_.add();
        sink(std::move(event));
      });

  const Rank n = config_.num_ranks;
  if (n <= 1) return processed;
  const std::uint64_t start =
      poll_rr_.fetch_add(1, std::memory_order_relaxed);
  for (Rank i = 0; i < n && processed < max_packets; ++i) {
    const Rank src = static_cast<Rank>((start + i) % n);
    if (src == rank_) continue;
    detail::ShmRing& ring = *domain_.ring(src, rank_);
    while (processed < max_packets) {
      std::uint64_t pos = 0;
      detail::ShmSlot* slot = ring.try_consume(pos);
      if (slot == nullptr) break;
      const detail::ShmRecord rec = slot->record;
      if (rec.len > ring.payload_cap) {
        common::integrity_fail("shm ring record from rank ", src,
                               " claims ", rec.len, " payload bytes; a slot "
                               "holds ", ring.payload_cap);
      }
      // Handle straight out of the slot: the payload is copied exactly once
      // (into the event / MR region), then the slot is recycled.
      handle_record(src, rec, slot->payload(), sink);
      ring.release(slot, pos);
      ctr_packets_received_.add();
      ++processed;
    }
  }
  return processed;
}

bool ShmNic::rx_looks_nonempty() const {
  if (!self_events_.looks_empty()) return true;
  for (Rank r = 0; r < config_.num_ranks; ++r) {
    if (r == rank_) continue;
    if (domain_.ring(r, rank_)->looks_nonempty()) return true;
  }
  return false;
}

NicStats ShmNic::stats() const {
  NicStats stats;
  stats.packets_sent = ctr_packets_sent_.value();
  stats.bytes_sent = ctr_bytes_sent_.value();
  stats.packets_received = ctr_packets_received_.value();
  stats.sends_rejected_tx_window = ctr_tx_window_rejects_.value();
  stats.faults_dropped = ctr_faults_dropped_.value();
  stats.faults_duplicated = ctr_faults_duplicated_.value();
  stats.faults_corrupted = ctr_faults_corrupted_.value();
  return stats;
}

}  // namespace fabric
