// Quickstart: the smallest complete program on the stack.
//
// Builds a two-locality runtime over the simulated fabric with the LCI
// parcelport (the paper's default lci_psr_cq_pin_i), registers a couple of
// actions, and shows the three core idioms: fire-and-forget apply<>, async<>
// with a future result, and a large argument travelling the zero-copy path.
// Exits 1 if either result is wrong.
//
// Usage: quickstart [parcelport=lci_psr_cq_pin_i] [localities=2]
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "stack/stack.hpp"

namespace {

// Any free function is an action; the runtime derives serialization from
// the signature. Actions run on the destination locality.
void say_hello(std::string who) {
  std::printf("[locality %u] hello from %s!\n", amt::here().rank(),
              who.c_str());
}

int add(int a, int b) { return a + b; }

double norm2(std::vector<double> values) {  // 64 KiB arg -> zero-copy chunk
  double sum = 0;
  for (double v : values) sum += v * v;
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  amtnet::StackOptions options;
  if (argc > 1) options.parcelport = argv[1];
  if (argc > 2) options.num_localities =
      static_cast<amt::Rank>(std::stoul(argv[2]));
  std::printf("parcelport=%s localities=%u\n", options.parcelport.c_str(),
              options.num_localities);

  auto runtime = amtnet::make_runtime(options);
  bool ok = false;

  runtime->run_on_root([&] {
    amt::Locality& here = amt::here();

    // 1. Fire-and-forget: runs say_hello on locality 1.
    here.apply<&say_hello>(1, std::string("locality 0"));

    // 2. Async with result: a future that a waiting task can get().
    auto sum = here.async<&add>(1, 40, 2);
    const int sum_value = sum.get();
    std::printf("40 + 2 computed on locality 1 = %d\n", sum_value);

    // 3. Large argument: 8192 doubles (64 KiB) exceed the zero-copy
    //    serialization threshold (8 KiB), so the vector travels as a
    //    zero-copy chunk after the header message.
    std::vector<double> data(8192, 0.5);
    auto result = here.async<&norm2>(1, std::move(data));
    const double norm = result.get();  // 8192 * 0.25, exact in binary
    std::printf("norm2 of 64 KiB vector = %.1f\n", norm);
    ok = sum_value == 42 && norm == 2048.0;
  });

  runtime->stop();
  std::printf("%s\n", ok ? "done." : "FAILED: wrong result");
  return ok ? 0 : 1;
}
