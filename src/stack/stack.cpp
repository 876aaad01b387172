#include "stack/stack.hpp"

#include <cstdlib>
#include <stdexcept>

#include "parcelport_lci/parcelport_lci.hpp"
#include "parcelport_mpi/parcelport_mpi.hpp"

namespace amtnet {

amt::Runtime::ParcelportFactory default_parcelport_factory() {
  return [](amt::Runtime&, const amt::ParcelportContext& context)
             -> std::unique_ptr<amt::Parcelport> {
    switch (context.config.kind) {
      case amt::ParcelportConfig::Kind::kMpi:
        return std::make_unique<ppmpi::MpiParcelport>(context);
      case amt::ParcelportConfig::Kind::kLci:
        return std::make_unique<pplci::LciParcelport>(context);
    }
    throw std::invalid_argument("unknown parcelport kind");
  };
}

fabric::Config platform_config(const std::string& platform,
                               amt::Rank num_localities) {
  if (platform == "loopback") return fabric::Profile::loopback(num_localities);
  if (platform == "expanse") return fabric::Profile::expanse(num_localities);
  if (platform == "rostam") return fabric::Profile::rostam(num_localities);
  throw std::invalid_argument("unknown platform: " + platform);
}

amt::RuntimeConfig make_runtime_config(const StackOptions& options) {
  amt::RuntimeConfig config;
  config.num_localities = options.num_localities;
  // amtnet_launch exports the multi-process locality count; it must win so
  // SPMD binaries written against a single-process default run unmodified.
  if (const char* ranks = std::getenv("AMTNET_SHM_RANKS");
      ranks != nullptr && *ranks != '\0') {
    config.num_localities = static_cast<amt::Rank>(std::atoi(ranks));
  }
  config.threads_per_locality = options.threads_per_locality;
  config.zero_copy_threshold = options.zero_copy_threshold;
  config.max_connections = options.max_connections;
  config.parcelport = amt::ParcelportConfig::parse(options.parcelport);
  config.fabric = platform_config(options.platform, config.num_localities);
  if (options.fabric_rails != 0) config.fabric.num_rails = options.fabric_rails;
  config.fabric.faults = options.faults;
  // Backend resolution, the one setting kept at four levels because
  // amtnet_launch selects shm for every rank through AMTNET_BACKEND:
  // AMTNET_BACKEND > StackOptions::backend > backend<name> token > "sim".
  if (!options.backend.empty()) {
    fabric::validate_backend_name(options.backend);
    config.parcelport.fabric_backend = options.backend;
  }
  config.fabric.backend = config.parcelport.fabric_backend;
  fabric::apply_backend_env(config.fabric);
  config.parcelport.fabric_backend = config.fabric.backend;
  return config;
}

std::unique_ptr<amt::Runtime> make_runtime(const StackOptions& options) {
  auto runtime = std::make_unique<amt::Runtime>(make_runtime_config(options),
                                                default_parcelport_factory());
  runtime->start();
  return runtime;
}

}  // namespace amtnet
