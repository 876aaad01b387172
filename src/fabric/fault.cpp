#include "fabric/fault.hpp"

#include <cstdlib>
#include <sstream>

namespace fabric {

namespace {

void env_double(const char* name, double& out) {
  if (const char* value = std::getenv(name)) out = std::atof(value);
}

void env_u64(const char* name, std::uint64_t& out) {
  if (const char* value = std::getenv(name)) {
    out = std::strtoull(value, nullptr, 0);
  }
}

}  // namespace

std::string FaultConfig::describe() const {
  std::ostringstream oss;
  oss << "drop=" << drop << " dup=" << duplicate << " corrupt=" << corrupt
      << " corrupt_min=" << corrupt_min_size << " delay=" << delay << "@"
      << delay_us << "us brownout=" << brownout << "x" << brownout_posts
      << " rnr_storm=" << rnr_storm << "x" << rnr_storm_polls
      << " seed=" << seed << " integrity=" << (integrity_on() ? 1 : 0);
  return oss.str();
}

void apply_fault_env(FaultConfig& config) {
  env_double("AMTNET_FAULT_DROP", config.drop);
  env_double("AMTNET_FAULT_DUP", config.duplicate);
  env_double("AMTNET_FAULT_CORRUPT", config.corrupt);
  env_u64("AMTNET_FAULT_SEED", config.seed);
  if (const char* value = std::getenv("AMTNET_FAULT_INTEGRITY")) {
    config.integrity = std::atoi(value) != 0;
  }
}

}  // namespace fabric
