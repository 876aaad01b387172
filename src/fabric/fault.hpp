// Deterministic fault injection for the simulated fabric.
//
// The paper's parcelport is built around adversarial network behaviour —
// explicit-retry sends, RNR back-pressure, out-of-order multi-rail delivery
// (§3.2, §4) — but a simulator that never misbehaves cannot exercise those
// paths. This config seeds a reproducible chaos layer inside the NIC model:
//
//   drop / duplicate   two-sided datagrams (Packet::Kind::kSend) are lost or
//                      delivered twice. One-sided RDMA writes are never
//                      dropped: real RC InfiniBand retransmits them below
//                      software, and no software-visible detection point
//                      exists for a silently missing write, so dropping them
//                      could only model an unrecoverable link failure.
//   corrupt            a single bit flip in a packet payload (any kind with
//                      a payload, i.e. sends AND RDMA writes — bit rot in
//                      flight is detectable by software via checksums).
//   delay              a latency spike added to any packet; magnitudes are
//                      exponentially distributed with mean delay_us (heavy
//                      tails, like real network hiccups), drawn from the
//                      same deterministic stream as the decision itself.
//   brownout           post_send returns Status::kRetry for a window of
//                      posts (NIC send-queue stall / adapter brownout).
//   rnr_storm          the receiving NIC refuses buffer-consuming deliveries
//                      for a window of poll_rx calls (RNR NAK storm).
//
// All decisions are drawn from counter-indexed splitmix64 streams keyed by
// `seed`, so a run's fault pattern is a pure function of (seed, per-NIC
// operation order) and any failure reproduces from its logged seed. Every
// injected fault is counted in telemetry (fabric/nic<rank>/faults_*).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace fabric {

struct FaultConfig {
  double drop = 0.0;       // P(two-sided datagram silently lost)
  double duplicate = 0.0;  // P(two-sided datagram delivered twice)
  double corrupt = 0.0;    // P(single payload bit flip)
  std::size_t corrupt_min_size = 0;  // only payloads >= this many bytes
  double delay = 0.0;      // P(latency spike on a packet)
  double delay_us = 50.0;  // mean spike magnitude (exponential tail)
  double brownout = 0.0;   // P(a post starts a brownout window)
  std::uint64_t brownout_posts = 64;  // window length, in posts
  double rnr_storm = 0.0;  // P(a poll_rx call starts an RNR storm)
  std::uint64_t rnr_storm_polls = 32;  // window length, in poll_rx calls
  std::uint64_t seed = 0x6b73a1f29d04c857ULL;
  /// Force the end-to-end integrity machinery (CRC trailers, acks,
  /// retransmit state) on even with all probabilities at zero — for
  /// overhead measurement and tests of the clean-path protocol.
  bool integrity = false;

  bool any() const {
    return drop > 0.0 || duplicate > 0.0 || corrupt > 0.0 || delay > 0.0 ||
           brownout > 0.0 || rnr_storm > 0.0;
  }
  /// Whether the software stack should run its integrity/retransmit layer.
  bool integrity_on() const { return integrity || any(); }

  std::string describe() const;
};

}  // namespace fabric
