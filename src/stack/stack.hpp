// Facade assembling the full stack: runtime + the concrete parcelports.
// Benchmarks, tests, and examples construct runtimes through this single
// entry point using the paper's Table-1 configuration names.
#pragma once

#include <memory>
#include <string>

#include "amt/runtime.hpp"
#include "fabric/fault.hpp"

namespace amtnet {

/// Factory dispatching on ParcelportConfig::kind: "mpi*" names build the MPI
/// parcelport over minimpi, "lci*" names the LCI parcelport over minilci.
amt::Runtime::ParcelportFactory default_parcelport_factory();

struct StackOptions {
  std::string parcelport = "lci_psr_cq_pin_i";  // Table-1 name
  amt::Rank num_localities = 2;
  unsigned threads_per_locality = 2;
  std::string platform = "loopback";  // loopback | expanse | rostam
  std::size_t zero_copy_threshold = amt::kDefaultZeroCopyThreshold;
  std::size_t max_connections = 8192;  // HPX connection-cache cap
  unsigned fabric_rails = 0;           // 0 = keep the platform default
  /// Fabric transport backend: "" keeps whatever the parcelport name's
  /// backend<sim|shm> token says (default sim). Explicit values here beat
  /// the token; the AMTNET_BACKEND env var beats both.
  std::string backend;
  // Fault-injection seeds and probabilities, copied onto the fabric config
  // (tests and the chaos suite set them in code).
  fabric::FaultConfig faults;
};

/// Resolves a platform name to a fabric profile (Table 2 / Table 3).
fabric::Config platform_config(const std::string& platform,
                               amt::Rank num_localities);

/// Builds a fully wired RuntimeConfig from options.
amt::RuntimeConfig make_runtime_config(const StackOptions& options);

/// Convenience: construct and start a runtime in one call.
std::unique_ptr<amt::Runtime> make_runtime(const StackOptions& options);

}  // namespace amtnet
