// The serialized-message types exchanged between the parcel layer and the
// parcelport layer. Mirrors HPX's structure (paper §2.2): an HPX message is
//   * one non-zero-copy chunk (small arguments + parcel metadata),
//   * optionally a transmission chunk (index/length of the zero-copy pieces),
//   * zero or more zero-copy chunks (each one large argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/integrity.hpp"

namespace amt {

using Rank = std::uint32_t;

/// One zero-copy chunk on the send side: a non-owning view plus a keepalive
/// that holds the backing storage until the parcelport reports completion.
struct ZChunk {
  const std::byte* data = nullptr;
  std::size_t size = 0;
  std::shared_ptr<const void> keepalive;
};

/// Serialized HPX message, sender side.
struct OutMessage {
  std::vector<std::byte> main_chunk;   // the non-zero-copy chunk
  std::vector<ZChunk> zchunks;

  bool has_zchunks() const { return !zchunks.empty(); }

  /// The transmission chunk: the byte sizes of the zero-copy chunks, needed
  /// by the receiver to post appropriately sized receives. Only transferred
  /// when there is at least one zero-copy chunk.
  std::vector<std::byte> make_tchunk() const {
    std::vector<std::byte> tchunk;
    make_tchunk_into(tchunk);
    return tchunk;
  }

  /// In-place variant: reuses `out`'s capacity, so callers recycling their
  /// buffers (the LCI parcelport's pooled connections) allocate nothing in
  /// steady state.
  void make_tchunk_into(std::vector<std::byte>& out) const {
    out.resize(zchunks.size() * sizeof(std::uint64_t));
    for (std::size_t i = 0; i < zchunks.size(); ++i) {
      const std::uint64_t size = zchunks[i].size;
      std::memcpy(out.data() + i * sizeof(std::uint64_t), &size, sizeof(size));
    }
  }
};

/// Received HPX message, ready for deserialization.
struct InMessage {
  Rank source = 0;
  std::vector<std::byte> main_chunk;
  std::vector<std::vector<std::byte>> zchunks;
};

/// Largest main chunk or zero-copy chunk a receiver accepts from a peer's
/// header or transmission chunk. A declared size above it is hostile or
/// corrupt, and is rejected before any receive buffer is sized from it.
inline constexpr std::uint64_t kMaxPieceBytes = std::uint64_t{1} << 30;

/// Decodes a received transmission chunk back into chunk sizes. The chunk
/// must hold exactly the `expected` sizes its header declared, each at most
/// kMaxPieceBytes; anything else fails fast in every build type.
inline std::vector<std::uint64_t> parse_tchunk(const std::byte* data,
                                               std::size_t size,
                                               std::size_t expected) {
  if (size != expected * sizeof(std::uint64_t)) {
    common::integrity_fail("transmission chunk of ", size,
                           " bytes does not hold the ", expected,
                           " zero-copy chunk sizes its header declared");
  }
  std::vector<std::uint64_t> sizes(expected);
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::memcpy(&sizes[i], data + i * sizeof(std::uint64_t),
                sizeof(std::uint64_t));
    if (sizes[i] > kMaxPieceBytes) {
      common::integrity_fail("zero-copy chunk ", i, " declares ", sizes[i],
                             " bytes, above the ", kMaxPieceBytes,
                             " byte bound");
    }
  }
  return sizes;
}

}  // namespace amt
