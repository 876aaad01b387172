#include "amt/parcelport.hpp"

#include <stdexcept>
#include <string>

#include "common/config.hpp"

namespace amt {

ParcelportConfig ParcelportConfig::parse(const std::string& name) {
  ParcelportConfig config;
  bool kind_seen = false;
  for (const auto& token : common::split_trim(name, '_')) {
    if (token == "mpi") {
      config.kind = Kind::kMpi;
      kind_seen = true;
    } else if (token == "lci") {
      config.kind = Kind::kLci;
      kind_seen = true;
    } else if (token == "psr") {
      config.protocol = Protocol::kPutSendRecv;
    } else if (token == "sr") {
      config.protocol = Protocol::kSendRecv;
    } else if (token == "cq") {
      config.completion = CompType::kQueue;
    } else if (token == "sy") {
      config.completion = CompType::kSync;
    } else if (token == "pin" || token == "rp") {
      config.progress = ProgressType::kPinned;
    } else if (token == "mt") {
      config.progress = ProgressType::kWorker;
    } else if (token == "i") {
      config.send_immediate = true;
    } else if (token == "fpoff") {
      config.lci_fastpath = false;
    } else if (token == "agg") {
      config.lci_agg = true;
    } else if (token.size() > 7 && token.compare(0, 7, "backend") == 0) {
      config.fabric_backend = token.substr(7);
      fabric::validate_backend_name(config.fabric_backend);
    } else if (token == "fine") {
      config.mpi_coarse_lock = false;
    } else if (token == "orig") {
      config.mpi_original = true;
    } else if (token.size() > 5 && token.compare(0, 5, "block") == 0 &&
               token.find_first_not_of("0123456789", 5) ==
                   std::string::npos) {
      const unsigned long window = std::stoul(token.substr(5));
      if (window == 0) {
        throw std::invalid_argument("admission window must be >= 1: " +
                                    name);
      }
      config.admission.window = window;
    } else if (!token.empty()) {
      throw std::invalid_argument("unknown parcelport config token: " +
                                  token);
    }
  }
  if (!kind_seen) {
    throw std::invalid_argument(
        "parcelport config must name mpi or lci: " + name);
  }
  return config;
}

std::string ParcelportConfig::name() const {
  std::string out;
  if (kind == Kind::kMpi) {
    out = "mpi";
    if (!mpi_coarse_lock) out += "_fine";
    if (mpi_original) out += "_orig";
  } else {
    out = "lci";
    out += (protocol == Protocol::kPutSendRecv) ? "_psr" : "_sr";
    out += (completion == CompType::kQueue) ? "_cq" : "_sy";
    out += (progress == ProgressType::kPinned) ? "_pin" : "_mt";
    if (!lci_fastpath) out += "_fpoff";
    if (lci_agg) out += "_agg";
  }
  if (send_immediate) out += "_i";
  if (fabric_backend != "sim") out += "_backend" + fabric_backend;
  if (admission.on()) out += "_block" + std::to_string(admission.window);
  return out;
}

}  // namespace amt
