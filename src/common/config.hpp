// Tiny "key=value,key=value" config-string parser used by benchmark harnesses
// and the parcelport factory, so every paper configuration (Table 1 names
// like lci_psr_cq_pin_i) can be selected from a single string.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace common {

class KvConfig {
 public:
  KvConfig() = default;
  /// Parses "a=1,b=foo". Whitespace around keys/values is trimmed.
  static KvConfig parse(const std::string& text);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  double get_double_or(const std::string& key, double fallback) const;
  bool get_bool_or(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value);
  bool contains(const std::string& key) const;
  const std::map<std::string, std::string>& entries() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

/// Splits on a delimiter, trimming whitespace from each piece.
std::vector<std::string> split_trim(const std::string& text, char delim);

// ---- introspectable knob registry -----------------------------------------
//
// Every tuning surface of the stack — AMTNET_* environment variables,
// parcelport config-name tokens, CMake options — is declared here once, with
// its default, what it does, and which benchmark demonstrates it. The
// experiment driver enumerates this table to build config matrices and
// `bench_suite --render` generates the knob tables in docs/tuning.md from
// it, so the documentation cannot drift from the knobs the code reads
// (tests/test_expdriver.cpp asserts both directions: every AMTNET_* name in
// the tree is registered, and every registered variable is read).

struct Knob {
  enum class Kind { kEnv, kConfigToken, kCMake };
  Kind kind;
  std::string name;           // "AMTNET_BENCH_SCALE", "pd<N>", ...
  std::string default_value;  // human-readable default
  std::string description;
  std::string demo;           // suite, test or tool that sets it
};

/// The full knob table, in stable documentation order (env vars, then
/// config tokens, then CMake options).
const std::vector<Knob>& knob_registry();

}  // namespace common
