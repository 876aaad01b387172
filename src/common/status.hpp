// Non-blocking operation result codes shared by the fabric and the
// communication libraries. kRetry comes only from the fabric layer (a NIC
// post, or ReliableEndpoint::send forwarding one) when a transient resource
// (TX window, shm ring slot) is full; the caller decides when to retry. The
// layers above absorb it: minilci parks a refused post in its per-destination
// backlog and minimpi re-posts from progress, so none of their primitives
// returns kRetry.
#pragma once

namespace common {

enum class Status {
  kOk,      // operation accepted / completed
  kRetry,   // transient resource exhaustion; retry later
  kError,   // permanent failure (bad argument, shut down)
};

inline const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kRetry:
      return "retry";
    case Status::kError:
      return "error";
  }
  return "unknown";
}

}  // namespace common
