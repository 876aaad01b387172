// 1-D heat equation with ghost-zone exchange over actions — the classic
// domain-decomposition workload the paper's introduction motivates,
// expressed in AMT style: each locality owns a slab of the rod, exchanges
// boundary cells with its neighbours through actions each step, and the
// runtime overlaps communication with the interior update.
//
// Validates itself against a serial solve of the same discretisation.
//
// Usage: stencil_heat [parcelport=lci_psr_cq_pin_i] [localities=4]
//                     [cells=4096] [steps=200]
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stack/stack.hpp"

namespace {

constexpr double kAlpha = 0.4;  // stable for alpha <= 0.5

struct Slab {
  std::vector<double> u;  // my cells
  // Ghost values per side, double-buffered by step parity: a neighbour can
  // run at most one step ahead (its step s+1 needs our step s boundary), so
  // two slots suffice. Two ghost actions from one neighbour may execute in
  // either order, so each slot is stamped with the step whose value it
  // holds: the value for step s is readable once slot s % 2 reads step s.
  struct Side {
    double value[2] = {0.0, 0.0};
    std::atomic<std::int64_t> step[2] = {-1, -1};
  };
  Side left;
  Side right;
};

Slab slabs[64];
std::atomic<int> finished_localities{0};

void recv_ghost(std::uint32_t step, std::uint8_t from_left, double value) {
  Slab& slab = slabs[amt::here().rank()];
  Slab::Side& side = from_left ? slab.left : slab.right;
  side.value[step % 2] = value;
  side.step[step % 2].store(step, std::memory_order_release);
}

void signal_done() { finished_localities.fetch_add(1); }

void run_slab(std::uint32_t steps) {
  amt::Locality& here = amt::here();
  const amt::Rank rank = here.rank();
  const amt::Rank nloc = here.num_localities();
  Slab& slab = slabs[rank];

  for (std::uint32_t step = 0; step < steps; ++step) {
    // Send boundary values to neighbours; fixed 0-temperature at the ends.
    if (rank > 0) {
      here.apply<&recv_ghost>(rank - 1, step, std::uint8_t{0},
                              slab.u.front());
    }
    if (rank + 1 < nloc) {
      here.apply<&recv_ghost>(rank + 1, step, std::uint8_t{1},
                              slab.u.back());
    }
    here.scheduler().wait_until([&] {
      return (rank == 0 || slab.left.step[step % 2].load(
                               std::memory_order_acquire) == step) &&
             (rank + 1 == nloc || slab.right.step[step % 2].load(
                                      std::memory_order_acquire) == step);
    });

    const double left = rank > 0 ? slab.left.value[step % 2] : 0.0;
    const double right = rank + 1 < nloc ? slab.right.value[step % 2] : 0.0;
    std::vector<double> next(slab.u.size());
    for (std::size_t i = 0; i < slab.u.size(); ++i) {
      const double ul = i == 0 ? left : slab.u[i - 1];
      const double ur = i + 1 == slab.u.size() ? right : slab.u[i + 1];
      next[i] = slab.u[i] + kAlpha * (ul - 2 * slab.u[i] + ur);
    }
    slab.u.swap(next);
  }
  here.apply<&signal_done>(0);
}

std::vector<double> initial_rod(std::size_t cells) {
  std::vector<double> u(cells);
  for (std::size_t i = 0; i < cells; ++i) {
    u[i] = std::sin(3.14159265358979 * static_cast<double>(i) /
                    static_cast<double>(cells - 1));
  }
  return u;
}

std::vector<double> serial_solve(std::size_t cells, std::uint32_t steps) {
  auto u = initial_rod(cells);
  for (std::uint32_t step = 0; step < steps; ++step) {
    std::vector<double> next(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      const double ul = i == 0 ? 0.0 : u[i - 1];
      const double ur = i + 1 == cells ? 0.0 : u[i + 1];
      next[i] = u[i] + kAlpha * (ul - 2 * u[i] + ur);
    }
    u.swap(next);
  }
  return u;
}

}  // namespace

int main(int argc, char** argv) {
  amtnet::StackOptions options;
  options.num_localities = 4;
  if (argc > 1) options.parcelport = argv[1];
  if (argc > 2) options.num_localities =
      static_cast<amt::Rank>(std::stoul(argv[2]));
  const std::size_t cells = argc > 3 ? std::stoul(argv[3]) : 4096;
  const std::uint32_t steps =
      argc > 4 ? static_cast<std::uint32_t>(std::stoul(argv[4])) : 200;
  const amt::Rank nloc = options.num_localities;

  std::printf("heat: %zu cells, %u steps, %u localities, %s\n", cells, steps,
              nloc, options.parcelport.c_str());

  auto runtime = amtnet::make_runtime(options);

  // Decompose the rod into contiguous slabs.
  const auto full = initial_rod(cells);
  for (amt::Rank r = 0; r < nloc; ++r) {
    const std::size_t lo = cells * r / nloc;
    const std::size_t hi = cells * (r + 1) / nloc;
    slabs[r].u.assign(full.begin() + static_cast<std::ptrdiff_t>(lo),
                      full.begin() + static_cast<std::ptrdiff_t>(hi));
    for (Slab::Side* side : {&slabs[r].left, &slabs[r].right}) {
      side->step[0].store(-1);
      side->step[1].store(-1);
    }
  }

  finished_localities.store(0);
  for (amt::Rank r = 0; r < nloc; ++r) {
    runtime->locality(r).spawn([steps] { run_slab(steps); });
  }
  runtime->locality(0).scheduler().wait_until(
      [&] { return finished_localities.load() == static_cast<int>(nloc); });

  // Stitch the distributed result together and compare with serial.
  const auto expected = serial_solve(cells, steps);
  double max_err = 0.0;
  std::size_t offset = 0;
  for (amt::Rank r = 0; r < nloc; ++r) {
    for (double v : slabs[r].u) {
      max_err = std::max(max_err, std::abs(v - expected[offset++]));
    }
  }
  runtime->stop();

  std::printf("max |distributed - serial| = %.3e %s\n", max_err,
              max_err < 1e-12 ? "(OK)" : "(MISMATCH!)");
  return max_err < 1e-12 ? 0 : 1;
}
