// The parcelport *header message* format shared by the MPI and LCI
// parcelports (paper §3.1/§3.2): per HPX message, one protocol message
// carrying the metadata the receiver needs — the base tag for follow-up
// messages, the non-zero-copy chunk size, and the existence/size of the
// transmission chunk — plus optional piggybacked transmission and
// non-zero-copy chunks when they fit under the maximum header size (set to
// the zero-copy serialization threshold; 512 bytes fixed in the "original"
// MPI parcelport variant).
//
// Also the LCI parcelport's one small-parcel frame kind (BatchHeader below):
// the fast path sends a frame of one parcel, adaptive aggregation a frame of
// many. Both decoders verify a CRC-32 and bound every peer-supplied size.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "amt/message.hpp"
#include "common/crc32.hpp"
#include "common/integrity.hpp"

namespace amt {

struct WireHeader {
  std::uint32_t tag = 0;           // base tag; follow-up i uses tag + i
  std::uint16_t num_zchunks = 0;
  std::uint8_t piggy_main = 0;     // non-zero-copy chunk rides in the header
  std::uint8_t piggy_tchunk = 0;   // transmission chunk rides in the header
  std::uint64_t main_size = 0;
  /// Per-destination-channel generation number: each sender stamps headers
  /// to one peer with consecutive values. Delivery may reorder (multi-rail)
  /// so receivers only use it to detect duplicated headers — a duplicate
  /// would double-deliver a parcel, which is an integrity failure. 32 bits
  /// wide so the stale-duplicate horizon below is unambiguous over any
  /// realistic flood length (a 16-bit counter aliased a 2^16-delayed
  /// duplicate onto a small forward delta).
  std::uint32_t seq = 0;
  /// CRC-32 over the entire encoded header message (this field as zero),
  /// verified by decode_header — corruption fail-fasts rather than
  /// deserializing garbage.
  std::uint32_t crc = 0;
};
static_assert(sizeof(WireHeader) == 24);

/// Tracks recently seen per-source header generation numbers; accept()
/// returns false for a duplicate. Exact over the newest kWindow generations
/// (one bit each, a ring indexed by seq mod kWindow): a reordered straggler
/// anywhere in the window is accepted once and a second copy rejected.
/// Anything older than the window is presumed an epoch-stale duplicate and
/// rejected. The window is sized for stragglers whose sender or poller was
/// descheduled while other threads moved the flood on — tens of thousands
/// of generations at ~1 M parcels/s on an oversubscribed host. With 32-bit
/// sequence numbers the window cannot alias across a counter wrap within
/// any reachable flood length.
class HeaderSeqTracker {
 public:
  static constexpr std::uint32_t kWindow = 1u << 16;

  bool accept(std::uint32_t seq) {
    const std::uint32_t forward = seq - highest_;  // modular distance ahead
    if (forward != 0 && forward < 0x80000000u) {
      // The generations skipped over enter the window unseen.
      if (forward >= kWindow) {
        seen_.fill(0);
      } else {
        for (std::uint32_t s = highest_ + 1; s != seq; ++s) clear(s);
      }
      highest_ = seq;
      mark(seq);
      return true;
    }
    const std::uint32_t back = highest_ - seq;  // modular distance behind
    if (back >= kWindow) return false;          // epoch-stale duplicate
    if (seen(seq)) return false;
    mark(seq);
    return true;
  }

 private:
  static constexpr std::uint64_t bit(std::uint32_t seq) {
    return std::uint64_t{1} << (seq % 64);
  }
  std::uint64_t& word(std::uint32_t seq) {
    return seen_[(seq % kWindow) / 64];
  }
  bool seen(std::uint32_t seq) { return (word(seq) & bit(seq)) != 0; }
  void mark(std::uint32_t seq) { word(seq) |= bit(seq); }
  void clear(std::uint32_t seq) { word(seq) &= ~bit(seq); }

  std::uint32_t highest_ = 0xFFFFFFFFu;  // so the first seq (0) is "newer"
  std::array<std::uint64_t, kWindow / 64> seen_{};  // bit: seq seen
};

/// How a message will be split into header + follow-ups.
struct HeaderPlan {
  bool piggy_main = false;
  bool piggy_tchunk = false;

  /// Follow-up message order (paper §3.1): non-zero-copy chunk (unless
  /// piggybacked), transmission chunk (if present and not piggybacked),
  /// then one message per zero-copy chunk.
  std::size_t num_followups(const OutMessage& msg) const {
    std::size_t n = msg.zchunks.size();
    if (!piggy_main) ++n;
    if (msg.has_zchunks() && !piggy_tchunk) ++n;
    return n;
  }

  /// Improved-parcelport policy: dynamic header buffer up to `max_header`
  /// bytes, piggybacking both chunks when possible, else just the
  /// transmission chunk.
  static HeaderPlan decide(const OutMessage& msg, std::size_t max_header) {
    const std::size_t tchunk_size =
        msg.has_zchunks() ? msg.zchunks.size() * sizeof(std::uint64_t) : 0;
    HeaderPlan plan;
    if (sizeof(WireHeader) + tchunk_size + msg.main_chunk.size() <=
        max_header) {
      plan.piggy_main = true;
      plan.piggy_tchunk = msg.has_zchunks();
    } else if (msg.has_zchunks() &&
               sizeof(WireHeader) + tchunk_size <= max_header) {
      plan.piggy_tchunk = true;
    }
    return plan;
  }

  /// Original-parcelport policy (paper §3.1 "the original version"): fixed
  /// 512-byte header that can only piggyback the non-zero-copy chunk.
  static HeaderPlan decide_original(const OutMessage& msg,
                                    std::size_t max_header = 512) {
    HeaderPlan plan;
    plan.piggy_main =
        sizeof(WireHeader) + msg.main_chunk.size() <= max_header;
    return plan;
  }
};

/// Exact wire size of the header message under `plan`.
inline std::size_t encoded_header_size(const OutMessage& msg,
                                       const HeaderPlan& plan) {
  std::size_t size = sizeof(WireHeader);
  if (plan.piggy_tchunk) size += msg.zchunks.size() * sizeof(std::uint64_t);
  if (plan.piggy_main) size += msg.main_chunk.size();
  return size;
}

/// Serializes header fields (+ piggybacked chunks) into `out`, which must
/// have capacity >= encoded_header_size(). Returns the bytes written. `tag`
/// is the follow-up base tag. Used directly by the LCI parcelport to
/// assemble the header in an LCI packet buffer without an extra copy.
inline std::size_t encode_header_to(const OutMessage& msg,
                                    const HeaderPlan& plan, std::uint32_t tag,
                                    std::uint32_t seq, std::byte* out,
                                    std::size_t capacity) {
  WireHeader header;
  header.tag = tag;
  assert(msg.zchunks.size() < 65536);  // num_zchunks is u16 on the wire
  header.num_zchunks = static_cast<std::uint16_t>(msg.zchunks.size());
  header.main_size = msg.main_chunk.size();
  header.piggy_main = plan.piggy_main ? 1 : 0;
  header.piggy_tchunk = plan.piggy_tchunk ? 1 : 0;
  header.seq = seq;
  header.crc = 0;

  const std::size_t total = encoded_header_size(msg, plan);
  assert(total <= capacity);
  (void)capacity;
  std::memcpy(out, &header, sizeof(header));
  std::size_t offset = sizeof(header);
  if (plan.piggy_tchunk) {
    // Encode the transmission chunk in place: no temporary vector on the
    // piggybacked (eager) path, which must stay allocation-free.
    for (const ZChunk& chunk : msg.zchunks) {
      const std::uint64_t size = chunk.size;
      std::memcpy(out + offset, &size, sizeof(size));
      offset += sizeof(size);
    }
  }
  if (plan.piggy_main) {
    std::memcpy(out + offset, msg.main_chunk.data(), msg.main_chunk.size());
  }
  // Checksum the full encoded message (crc field as zero) and patch it in.
  const std::uint32_t crc = common::crc32(out, total);
  std::memcpy(out + offsetof(WireHeader, crc), &crc, sizeof(crc));
  return total;
}

/// Convenience: encode into a freshly sized vector (MPI parcelport path).
inline void encode_header(const OutMessage& msg, const HeaderPlan& plan,
                          std::uint32_t tag, std::uint32_t seq,
                          std::vector<std::byte>& out) {
  out.resize(encoded_header_size(msg, plan));
  encode_header_to(msg, plan, tag, seq, out.data(), out.size());
}

// ---------------------------------------------------------------------------
// Small-parcel frame (the fast path and adaptive aggregation, modeled on
// hpx5's put-with-completion): one or more sub-threshold parcels for one
// destination packed into ONE self-contained message on the reserved
// fast-path tag. The receiver dispatches it straight from a handler
// completion — no follow-up tags, no ReceiverConnection. A single-parcel
// fast-path send is simply a frame with count == 1. One frame = one
// injection, one CRC-32, one per-channel seq.
//
// Layout: [BatchHeader][entry 0]...[entry count-1], where each entry is
//   [u32 num_zchunks][u32 main_size][u64 zsize x num_zchunks][main][z0]...
// Entries describe their own size, so the receiver walks them in place.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kBatchMagic = 0xA66B47C4u;

struct BatchHeader {
  std::uint32_t magic = kBatchMagic;  // guards against foreign messages
  std::uint32_t count = 0;            // parcels in this frame (>= 1)
  /// Same per-destination-channel generation counter as WireHeader::seq —
  /// one seq per frame, not per sub-parcel.
  std::uint32_t seq = 0;
  /// CRC-32 over the entire encoded frame (this field as zero).
  std::uint32_t crc = 0;
};
static_assert(sizeof(BatchHeader) == 16);

/// Per-entry fixed overhead: u32 num_zchunks + u32 main_size. A frame is at
/// most one medium message, so u32 sizes always suffice.
inline constexpr std::size_t kBatchEntryHeaderBytes =
    2 * sizeof(std::uint32_t);

/// Encoded size of one entry record inside a frame.
inline std::size_t frame_entry_size(const OutMessage& msg) {
  std::size_t size = kBatchEntryHeaderBytes +
                     msg.zchunks.size() * sizeof(std::uint64_t) +
                     msg.main_chunk.size();
  for (const ZChunk& chunk : msg.zchunks) size += chunk.size;
  return size;
}

inline std::size_t frame_size(const OutMessage* const* msgs,
                              std::size_t count) {
  std::size_t size = sizeof(BatchHeader);
  for (std::size_t i = 0; i < count; ++i) size += frame_entry_size(*msgs[i]);
  return size;
}

/// Serializes `count` messages into one frame at `out` (capacity must be >=
/// frame_size). Returns the bytes written. Allocation-free: the LCI
/// parcelport encodes straight into a pool packet.
inline std::size_t encode_frame_to(const OutMessage* const* msgs,
                                   std::size_t count, std::uint32_t seq,
                                   std::byte* out, std::size_t capacity) {
  assert(count >= 1);
  BatchHeader header;
  header.count = static_cast<std::uint32_t>(count);
  header.seq = seq;
  header.crc = 0;

  const std::size_t total = frame_size(msgs, count);
  assert(total <= capacity && total <= UINT32_MAX);
  (void)capacity;
  std::memcpy(out, &header, sizeof(header));
  std::size_t offset = sizeof(header);
  for (std::size_t i = 0; i < count; ++i) {
    const OutMessage& msg = *msgs[i];
    const std::uint32_t sizes[2] = {
        static_cast<std::uint32_t>(msg.zchunks.size()),
        static_cast<std::uint32_t>(msg.main_chunk.size())};
    std::memcpy(out + offset, sizes, sizeof(sizes));
    offset += sizeof(sizes);
    for (const ZChunk& chunk : msg.zchunks) {
      const std::uint64_t size = chunk.size;
      std::memcpy(out + offset, &size, sizeof(size));
      offset += sizeof(size);
    }
    if (!msg.main_chunk.empty()) {  // an empty vector's data() may be null
      std::memcpy(out + offset, msg.main_chunk.data(), msg.main_chunk.size());
    }
    offset += msg.main_chunk.size();
    for (const ZChunk& chunk : msg.zchunks) {
      std::memcpy(out + offset, chunk.data, chunk.size);
      offset += chunk.size;
    }
  }
  assert(offset == total);
  const std::uint32_t crc = common::crc32(out, total);
  std::memcpy(out + offsetof(BatchHeader, crc), &crc, sizeof(crc));
  return total;
}

namespace detail {

/// Byte offsets of one entry record inside a frame.
struct FrameEntry {
  std::uint32_t num_zchunks = 0;
  std::uint32_t main_size = 0;
  std::size_t zsizes = 0;  // start of the u64 zchunk size table
  std::size_t main = 0;    // start of the main chunk
  std::size_t end = 0;     // one past the entry's last payload byte
};

/// Reads the entry at `offset` and checks every size it declares against
/// the bytes left in the frame. Each bound is written `n > size - offset`
/// (offset <= size holds throughout), never as a sum of peer-supplied
/// sizes, so a wrapping size cannot slip past.
inline FrameEntry read_frame_entry(const std::byte* data, std::size_t size,
                                   std::size_t offset, std::uint32_t index) {
  FrameEntry entry;
  if (kBatchEntryHeaderBytes > size - offset) {
    common::integrity_fail("batch entry ", index, " header overruns frame at ",
                           offset, " of ", size);
  }
  std::memcpy(&entry.num_zchunks, data + offset, sizeof(std::uint32_t));
  std::memcpy(&entry.main_size, data + offset + sizeof(std::uint32_t),
              sizeof(std::uint32_t));
  offset += kBatchEntryHeaderBytes;
  entry.zsizes = offset;
  if (entry.num_zchunks > (size - offset) / sizeof(std::uint64_t)) {
    common::integrity_fail("batch entry ", index, " zchunk table (",
                           entry.num_zchunks, " sizes) overruns frame at ",
                           offset, " of ", size);
  }
  offset += entry.num_zchunks * sizeof(std::uint64_t);
  entry.main = offset;
  if (entry.main_size > size - offset) {
    common::integrity_fail("batch entry ", index, " main chunk (",
                           entry.main_size, " bytes) overruns frame at ",
                           offset, " of ", size);
  }
  offset += entry.main_size;
  for (std::uint32_t k = 0; k < entry.num_zchunks; ++k) {
    std::uint64_t zsize = 0;
    std::memcpy(&zsize, data + entry.zsizes + k * sizeof(zsize),
                sizeof(zsize));
    if (zsize > size - offset) {
      common::integrity_fail("batch entry ", index, " zchunk ", k, " (",
                             zsize, " bytes) overruns frame at ", offset,
                             " of ", size);
    }
    offset += static_cast<std::size_t>(zsize);
  }
  entry.end = offset;
  return entry;
}

}  // namespace detail

/// Decodes and *verifies* a frame in place, allocating nothing: magic, CRC
/// over the full frame, a count the frame can hold, every entry's sizes in
/// bounds, and an exact size match (the entries must account for every
/// byte). Corruption that got past the transport fail-fasts here, like
/// decode_header. Returns the header; take_frame_entries then delivers.
inline BatchHeader decode_frame(const std::byte* data, std::size_t size) {
  BatchHeader header;
  if (size < sizeof(BatchHeader)) {
    common::integrity_fail("batch frame truncated: ", size, " bytes < ",
                           sizeof(BatchHeader));
  }
  std::memcpy(&header, data, sizeof(BatchHeader));
  if (header.magic != kBatchMagic) {
    common::integrity_fail("batch frame bad magic: ", header.magic,
                           " size=", size);
  }
  const std::uint32_t zero = 0;
  std::uint32_t crc = common::crc32(data, offsetof(BatchHeader, crc));
  crc = common::crc32(&zero, sizeof(zero), crc);
  crc = common::crc32(data + sizeof(BatchHeader), size - sizeof(BatchHeader),
                      crc);
  if (crc != header.crc) {
    common::integrity_fail("batch frame CRC mismatch: stored=", header.crc,
                           " computed=", crc, " size=", size,
                           " seq=", header.seq, " count=", header.count);
  }
  if (header.count == 0 ||
      header.count >
          (size - sizeof(BatchHeader)) / kBatchEntryHeaderBytes) {
    common::integrity_fail("batch frame bad count: ", header.count,
                           " entries in ", size, " bytes");
  }
  std::size_t offset = sizeof(BatchHeader);
  for (std::uint32_t i = 0; i < header.count; ++i) {
    offset = detail::read_frame_entry(data, size, offset, i).end;
  }
  if (offset != size) {
    common::integrity_fail("batch frame size mismatch: declared ", offset,
                           " bytes, got ", size);
  }
  return header;
}

/// Hands every entry of a frame verified by decode_frame to `deliver` as an
/// InMessage, in order. Earlier entries are copied out of the shared
/// arrival buffer; the last one takes the buffer over, trimmed in place to
/// its main chunk — so the dominant one-parcel frame decodes without a
/// second copy of its payload.
template <typename Deliver>
void take_frame_entries(std::vector<std::byte>&& frame, std::uint32_t count,
                        Rank source, Deliver&& deliver) {
  std::size_t offset = sizeof(BatchHeader);
  for (std::uint32_t i = 0; i < count; ++i) {
    const detail::FrameEntry entry =
        detail::read_frame_entry(frame.data(), frame.size(), offset, i);
    InMessage in;
    in.source = source;
    in.zchunks.reserve(entry.num_zchunks);
    std::size_t z = entry.main + entry.main_size;
    for (std::uint32_t k = 0; k < entry.num_zchunks; ++k) {
      std::uint64_t zsize = 0;
      std::memcpy(&zsize, frame.data() + entry.zsizes + k * sizeof(zsize),
                  sizeof(zsize));
      in.zchunks.emplace_back(frame.begin() + z, frame.begin() + z + zsize);
      z += zsize;
    }
    const auto main = frame.begin() + entry.main;
    if (i + 1 == count) {
      frame.erase(frame.begin(), main);
      frame.resize(entry.main_size);
      in.main_chunk = std::move(frame);
    } else {
      in.main_chunk.assign(main, main + entry.main_size);
    }
    deliver(std::move(in));
    offset = entry.end;
  }
}

/// Decoded header view (piggybacked chunks are copied out).
struct DecodedHeader {
  WireHeader fields;
  std::vector<std::byte> piggy_tchunk;  // valid if fields.piggy_tchunk
  std::vector<std::byte> piggy_main;    // valid if fields.piggy_main
};

/// Decodes and *verifies* a header message. Any inconsistency — CRC
/// mismatch, truncated buffer, size fields pointing past the end — means
/// corrupted wire data reached the decode stage (past all retransmit
/// protection), so this fail-fasts with a diagnostic dump instead of
/// returning garbage. Both parcelports decode through here.
inline DecodedHeader decode_header(const std::byte* data, std::size_t size) {
  DecodedHeader decoded;
  if (size < sizeof(WireHeader)) {
    common::integrity_fail("wire header truncated: ", size, " bytes < ",
                           sizeof(WireHeader));
  }
  std::memcpy(&decoded.fields, data, sizeof(WireHeader));
  // Recompute the CRC with the stored-crc bytes replaced by zero.
  const std::uint32_t zero = 0;
  std::uint32_t crc = common::crc32(data, offsetof(WireHeader, crc));
  crc = common::crc32(&zero, sizeof(zero), crc);
  crc = common::crc32(data + sizeof(WireHeader), size - sizeof(WireHeader),
                      crc);
  if (crc != decoded.fields.crc) {
    common::integrity_fail(
        "wire header CRC mismatch: stored=", decoded.fields.crc,
        " computed=", crc, " size=", size, " tag=", decoded.fields.tag,
        " seq=", decoded.fields.seq,
        " num_zchunks=", decoded.fields.num_zchunks,
        " main_size=", decoded.fields.main_size);
  }
  // Bounds are written `n > size - offset` (offset <= size throughout) so a
  // wrapping peer-supplied size cannot pass.
  std::size_t offset = sizeof(WireHeader);
  if (decoded.fields.piggy_tchunk) {
    const std::size_t tchunk_size =
        static_cast<std::size_t>(decoded.fields.num_zchunks) *
        sizeof(std::uint64_t);
    if (tchunk_size > size - offset) {
      common::integrity_fail("wire header tchunk overruns message: ",
                             tchunk_size, " bytes at ", offset, " of ", size);
    }
    decoded.piggy_tchunk.assign(data + offset, data + offset + tchunk_size);
    offset += tchunk_size;
  }
  if (decoded.fields.piggy_main) {
    if (decoded.fields.main_size > size - offset) {
      common::integrity_fail("wire header main chunk overruns message: ",
                             decoded.fields.main_size, " bytes at ", offset,
                             " of ", size);
    }
    decoded.piggy_main.assign(data + offset,
                              data + offset + decoded.fields.main_size);
  } else if (decoded.fields.main_size > kMaxPieceBytes) {
    // A follow-up main chunk: the receiver sizes a buffer from this field.
    common::integrity_fail("wire header main_size ", decoded.fields.main_size,
                           " is above the ", kMaxPieceBytes, " byte bound");
  }
  return decoded;
}

}  // namespace amt
