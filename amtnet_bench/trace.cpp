#include "trace.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "stack/stack.hpp"

namespace amtbench {

namespace {

constexpr std::size_t kSlots = 1u << 16;  // traced parcels kept
constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

/// Forwards every call to the real parcelport and times it.
class TimedParcelport final : public amt::Parcelport {
 public:
  TimedParcelport(Tracer& tracer, amt::Rank rank,
                  std::unique_ptr<amt::Parcelport> inner)
      : tracer_(tracer), rank_(rank), inner_(std::move(inner)) {}

  void start() override { inner_->start(); }
  void stop() override { inner_->stop(); }

  void send(amt::Rank dst, amt::OutMessage msg,
            common::UniqueFunction<void()> done) override {
    const Nanos entry = common::now_ns();
    std::uint64_t seq = 0;
    if (!tracer_.tagged_seq(msg.main_chunk, seq) || !tracer_.sampled(seq)) {
      inner_->send(dst, std::move(msg), std::move(done));
      return;
    }
    tracer_.stamp(Tracer::kSend, seq, entry);
    done = [tracer = &tracer_, seq, inner = std::move(done)]() mutable {
      tracer->stamp(Tracer::kDone, seq, common::now_ns());
      inner();
    };
    inner_->send(dst, std::move(msg), std::move(done));
    tracer_.stamp(Tracer::kSendReturn, seq, common::now_ns());
  }

  bool background_work(unsigned worker_index) override {
    const Nanos begin = common::now_ns();
    const bool useful = inner_->background_work(worker_index);
    tracer_.background(rank_, useful, common::now_ns() - begin);
    return useful;
  }

 private:
  Tracer& tracer_;
  const amt::Rank rank_;
  std::unique_ptr<amt::Parcelport> inner_;
};

}  // namespace

// Locality::put_parcel writes the parcel count, then per parcel the action
// id and the promise id, then the action's arguments.
Tracer::Offsets Tracer::parcel_offsets() {
  amt::OutputArchive ar;
  ar << std::uint32_t{1};
  Offsets offsets;
  offsets.action = ar.main_size();
  ar << amt::ActionId{0} << std::uint64_t{0};
  offsets.seq = ar.main_size();
  return offsets;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

Tracer::Tracer(std::vector<amt::ActionId> tagged, std::uint64_t stride)
    : tagged_(std::move(tagged)),
      stride_(stride == 0 ? 1 : stride),
      offsets_(parcel_offsets()),
      slots_(kSlots) {
  for (Slot& slot : slots_) {
    for (auto& seq : slot.seq) seq.store(kEmpty, std::memory_order_relaxed);
  }
}

void Tracer::stamp(Stage stage, std::uint64_t seq, Nanos t) {
  Slot& slot = slots_[(seq / stride_) & (kSlots - 1)];
  slot.t[stage].store(t, std::memory_order_relaxed);
  slot.seq[stage].store(seq, std::memory_order_release);
}

bool Tracer::tagged_seq(const std::vector<std::byte>& main_chunk,
                        std::uint64_t& seq) const {
  if (main_chunk.size() < offsets_.seq + sizeof(seq)) return false;
  amt::ActionId action = 0;
  std::memcpy(&action, main_chunk.data() + offsets_.action, sizeof(action));
  if (std::find(tagged_.begin(), tagged_.end(), action) == tagged_.end()) {
    return false;
  }
  std::memcpy(&seq, main_chunk.data() + offsets_.seq, sizeof(seq));
  return true;
}

amt::Runtime::ParcelportFactory Tracer::factory() {
  return [this](amt::Runtime& runtime, const amt::ParcelportContext& context)
             -> std::unique_ptr<amt::Parcelport> {
    amt::ParcelportContext wrapped = context;
    wrapped.deliver = [this, deliver = context.deliver](amt::InMessage&& msg) {
      std::uint64_t seq = 0;
      if (tagged_seq(msg.main_chunk, seq) && sampled(seq)) {
        stamp(kDeliver, seq, common::now_ns());
      }
      deliver(std::move(msg));
    };
    return std::make_unique<TimedParcelport>(
        *this, context.rank,
        amtnet::default_parcelport_factory()(runtime, wrapped));
  };
}

void Tracer::background(amt::Rank rank, bool useful, Nanos busy) {
  Background& bg = background_[rank % background_.size()];
  bg.calls.fetch_add(1, std::memory_order_relaxed);
  if (useful) bg.useful.fetch_add(1, std::memory_order_relaxed);
  bg.busy_ns.fetch_add(busy, std::memory_order_relaxed);
}

Tracer::BackgroundTotals Tracer::background_totals() const {
  BackgroundTotals totals;
  for (const Background& bg : background_) {
    totals.calls += bg.calls.load(std::memory_order_relaxed);
    totals.useful += bg.useful.load(std::memory_order_relaxed);
    totals.busy_ns += bg.busy_ns.load(std::memory_order_relaxed);
  }
  return totals;
}

Tracer::Spans Tracer::spans(Nanos begin, Nanos end) const {
  Spans spans;
  for (const Slot& slot : slots_) {
    const std::uint64_t seq = slot.seq[kApply].load(std::memory_order_acquire);
    if (seq == kEmpty) continue;
    const Nanos apply = slot.t[kApply].load(std::memory_order_relaxed);
    if (apply < begin || apply > end) continue;
    auto at = [&](Stage stage, Nanos& t) {
      if (slot.seq[stage].load(std::memory_order_acquire) != seq) return false;
      t = slot.t[stage].load(std::memory_order_relaxed);
      return true;
    };
    Nanos send = 0, send_return = 0, done = 0, deliver = 0, action = 0;
    const bool has_send = at(kSend, send);
    const bool has_deliver = at(kDeliver, deliver);
    const bool has_action = at(kAction, action);
    if (has_send) {
      spans.amt_send.push_back(static_cast<double>(send - apply));
      if (at(kSendReturn, send_return)) {
        spans.pplci_send.push_back(static_cast<double>(send_return - send));
      }
      if (at(kDone, done)) {
        spans.pplci_done.push_back(static_cast<double>(done - send));
      }
      if (has_deliver) {
        spans.pplci_transport.push_back(static_cast<double>(deliver - send));
      }
    }
    if (has_deliver && has_action) {
      spans.amt_dispatch.push_back(static_cast<double>(action - deliver));
    }
    if (has_action) spans.hop.push_back(static_cast<double>(action - apply));
  }
  return spans;
}

std::map<int, ThreadCpu> read_thread_cpu() {
  std::map<int, ThreadCpu> threads;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    std::ifstream file(entry.path() / "stat");
    std::string line;
    if (!std::getline(file, line)) continue;  // the thread just exited
    // "tid (comm) state ppid ...": comm may hold spaces, so split at the
    // parentheses; utime and stime are fields 14 and 15.
    const std::size_t open = line.find('(');
    const std::size_t close = line.rfind(')');
    if (open == std::string::npos || close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    std::uint64_t utime = 0, stime = 0;
    for (int index = 3; rest >> field; ++index) {
      if (index == 14) utime = std::stoull(field);
      if (index == 15) {
        stime = std::stoull(field);
        break;
      }
    }
    ThreadCpu& thread = threads[std::stoi(line.substr(0, open))];
    thread.name = line.substr(open + 1, close - open - 1);
    thread.ticks = utime + stime;
  }
  return threads;
}

long clock_ticks_per_second() { return sysconf(_SC_CLK_TCK); }

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace amtbench
