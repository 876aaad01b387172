// Serialization archives with zero-copy chunk extraction.
//
// Mirrors HPX's behaviour (paper §2.2): while serializing action arguments,
// any contiguous argument larger than the *zero-copy serialization threshold*
// (default 8192 bytes) is not copied into the main chunk; instead a zero-copy
// chunk referencing its storage is emitted and only a (count, chunk-index)
// descriptor lands inline. Smaller arguments are serialized inline.
//
// Supported types: trivially copyable scalars/structs, std::string,
// std::vector<T>, std::array<T, N>, std::pair, std::tuple.
//
// The main chunk and its sizes come from a peer, so InputArchive trusts
// none of them: every read, every declared count and every zero-copy chunk
// reference is checked against what actually arrived, in every build, and
// a violation fails fast through common::integrity_fail.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amt/message.hpp"
#include "common/integrity.hpp"

namespace amt {

inline constexpr std::size_t kDefaultZeroCopyThreshold = 8192;

class OutputArchive {
 public:
  /// Capacity reserved for the main chunk up front: a small parcel's whole
  /// main chunk fits, so it is written without growing the buffer.
  static constexpr std::size_t kFirstBlockBytes = 128;

  explicit OutputArchive(std::size_t zero_copy_threshold =
                             kDefaultZeroCopyThreshold)
      : threshold_(zero_copy_threshold) {
    main_.reserve(kFirstBlockBytes);
  }

  std::size_t zero_copy_threshold() const { return threshold_; }

  void write_raw(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::byte*>(data);
    main_.insert(main_.end(), bytes, bytes + size);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  OutputArchive& operator<<(const T& value) {
    write_raw(&value, sizeof(T));
    return *this;
  }

  OutputArchive& operator<<(const std::string& value) {
    const std::uint64_t size = value.size();
    write_raw(&size, sizeof(size));
    write_raw(value.data(), value.size());
    return *this;
  }

  /// Vectors of trivially copyable elements: inline below the threshold,
  /// zero-copy chunk above it. The lvalue overload copies the storage into a
  /// keepalive buffer; prefer the rvalue overload to transfer ownership.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  OutputArchive& operator<<(const std::vector<T>& value) {
    const std::uint64_t count = value.size();
    const std::size_t bytes = value.size() * sizeof(T);
    if (bytes > threshold_) {
      auto owned = std::make_shared<std::vector<T>>(value);
      const void* data = owned->data();  // before the move (eval order!)
      emit_zchunk(count, data, bytes, std::move(owned));
    } else {
      write_inline_vector(count, value.data(), bytes);
    }
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  OutputArchive& operator<<(std::vector<T>&& value) {
    const std::uint64_t count = value.size();
    const std::size_t bytes = value.size() * sizeof(T);
    if (bytes > threshold_) {
      auto owned = std::make_shared<std::vector<T>>(std::move(value));
      const void* data = owned->data();  // before the move (eval order!)
      emit_zchunk(count, data, bytes, std::move(owned));
    } else {
      write_inline_vector(count, value.data(), bytes);
    }
    return *this;
  }

  /// Vectors of non-trivial elements are serialized element-wise.
  template <typename T>
    requires(!std::is_trivially_copyable_v<T>)
  OutputArchive& operator<<(const std::vector<T>& value) {
    const std::uint64_t count = value.size();
    write_raw(&count, sizeof(count));
    for (const auto& element : value) *this << element;
    return *this;
  }

  template <typename T, std::size_t N>
    requires(!std::is_trivially_copyable_v<std::array<T, N>>)
  OutputArchive& operator<<(const std::array<T, N>& value) {
    for (const auto& element : value) *this << element;
    return *this;
  }

  template <typename A, typename B>
    requires(!std::is_trivially_copyable_v<std::pair<A, B>>)
  OutputArchive& operator<<(const std::pair<A, B>& value) {
    return *this << value.first << value.second;
  }

  template <typename... Ts>
    requires(!std::is_trivially_copyable_v<std::tuple<Ts...>>)
  OutputArchive& operator<<(const std::tuple<Ts...>& value) {
    std::apply([this](const Ts&... elements) { ((*this << elements), ...); },
               value);
    return *this;
  }

  template <typename T>
    requires(!std::is_trivially_copyable_v<std::optional<T>>)
  OutputArchive& operator<<(const std::optional<T>& value) {
    const std::uint8_t has = value.has_value() ? 1 : 0;
    write_raw(&has, sizeof(has));
    if (value) *this << *value;
    return *this;
  }

  /// Ordered and unordered maps serialize as count + (key, value) pairs.
  template <typename K, typename V, typename... Rest,
            template <typename...> typename Map>
    requires(std::is_same_v<Map<K, V, Rest...>, std::map<K, V, Rest...>> ||
             std::is_same_v<Map<K, V, Rest...>,
                            std::unordered_map<K, V, Rest...>>)
  OutputArchive& operator<<(const Map<K, V, Rest...>& value) {
    const std::uint64_t count = value.size();
    write_raw(&count, sizeof(count));
    for (const auto& [key, mapped] : value) *this << key << mapped;
    return *this;
  }

  /// Hands over the accumulated chunks. The archive is empty afterwards.
  OutMessage finish() {
    OutMessage msg;
    msg.main_chunk = std::move(main_);
    msg.zchunks = std::move(zchunks_);
    main_.clear();
    zchunks_.clear();
    return msg;
  }

  std::size_t main_size() const { return main_.size(); }
  std::size_t num_zchunks() const { return zchunks_.size(); }

 private:
  void write_inline_vector(std::uint64_t count, const void* data,
                           std::size_t bytes) {
    const std::uint8_t marker = 0;  // inline
    write_raw(&marker, sizeof(marker));
    write_raw(&count, sizeof(count));
    write_raw(data, bytes);
  }

  void emit_zchunk(std::uint64_t count, const void* data, std::size_t bytes,
                   std::shared_ptr<const void> keepalive) {
    const std::uint8_t marker = 1;  // zero-copy
    write_raw(&marker, sizeof(marker));
    write_raw(&count, sizeof(count));
    const std::uint32_t index = static_cast<std::uint32_t>(zchunks_.size());
    write_raw(&index, sizeof(index));
    zchunks_.push_back(ZChunk{static_cast<const std::byte*>(data), bytes,
                              std::move(keepalive)});
  }

  std::size_t threshold_;
  std::vector<std::byte> main_;
  std::vector<ZChunk> zchunks_;
};

class InputArchive {
 public:
  /// Views into a received message; the message must outlive the archive.
  explicit InputArchive(const InMessage& msg)
      : msg_(msg), cursor_(msg.main_chunk.data()),
        end_(msg.main_chunk.data() + msg.main_chunk.size()) {}

  void read_raw(void* out, std::size_t size) {
    require(size, 1, "read");
    if (size != 0) std::memcpy(out, cursor_, size);
    cursor_ += size;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  InputArchive& operator>>(T& value) {
    read_raw(&value, sizeof(T));
    return *this;
  }

  InputArchive& operator>>(std::string& value) {
    std::uint64_t size = 0;
    read_raw(&size, sizeof(size));
    require(size, 1, "string");
    value.resize(size);
    read_raw(value.data(), size);
    return *this;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  InputArchive& operator>>(std::vector<T>& value) {
    std::uint8_t marker = 0;
    read_raw(&marker, sizeof(marker));
    std::uint64_t count = 0;
    read_raw(&count, sizeof(count));
    if (marker == 0) {
      require(count, sizeof(T), "inline vector");
      value.resize(count);
      read_raw(value.data(), count * sizeof(T));
      return *this;
    }
    std::uint32_t index = 0;
    read_raw(&index, sizeof(index));
    if (index >= msg_.zchunks.size()) {
      common::integrity_fail("archive: zchunk index ", index, " out of range (",
                             msg_.zchunks.size(), " zchunks) from rank ",
                             msg_.source);
    }
    const auto& chunk = msg_.zchunks[index];
    if (chunk.size() % sizeof(T) != 0 || chunk.size() / sizeof(T) != count) {
      common::integrity_fail("archive: zchunk ", index, " holds ",
                             chunk.size(), " bytes, not ", count,
                             " elements of ", sizeof(T), " bytes, from rank ",
                             msg_.source);
    }
    value.resize(count);
    if (count != 0) std::memcpy(value.data(), chunk.data(), chunk.size());
    return *this;
  }

  template <typename T>
    requires(!std::is_trivially_copyable_v<T>)
  InputArchive& operator>>(std::vector<T>& value) {
    std::uint64_t count = 0;
    read_raw(&count, sizeof(count));
    require(count, 1, "vector");
    value.clear();
    value.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      T element;
      *this >> element;
      value.push_back(std::move(element));
    }
    return *this;
  }

  template <typename T, std::size_t N>
    requires(!std::is_trivially_copyable_v<std::array<T, N>>)
  InputArchive& operator>>(std::array<T, N>& value) {
    for (auto& element : value) *this >> element;
    return *this;
  }

  template <typename A, typename B>
    requires(!std::is_trivially_copyable_v<std::pair<A, B>>)
  InputArchive& operator>>(std::pair<A, B>& value) {
    return *this >> value.first >> value.second;
  }

  template <typename... Ts>
    requires(!std::is_trivially_copyable_v<std::tuple<Ts...>>)
  InputArchive& operator>>(std::tuple<Ts...>& value) {
    std::apply([this](Ts&... elements) { ((*this >> elements), ...); },
               value);
    return *this;
  }

  template <typename T>
    requires(!std::is_trivially_copyable_v<std::optional<T>>)
  InputArchive& operator>>(std::optional<T>& value) {
    std::uint8_t has = 0;
    read_raw(&has, sizeof(has));
    if (has) {
      T element;
      *this >> element;
      value = std::move(element);
    } else {
      value.reset();
    }
    return *this;
  }

  template <typename K, typename V, typename... Rest,
            template <typename...> typename Map>
    requires(std::is_same_v<Map<K, V, Rest...>, std::map<K, V, Rest...>> ||
             std::is_same_v<Map<K, V, Rest...>,
                            std::unordered_map<K, V, Rest...>>)
  InputArchive& operator>>(Map<K, V, Rest...>& value) {
    std::uint64_t count = 0;
    read_raw(&count, sizeof(count));
    require(count, 1, "map");
    value.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
      K key;
      V mapped;
      *this >> key >> mapped;
      value.emplace(std::move(key), std::move(mapped));
    }
    return *this;
  }

  bool exhausted() const { return cursor_ == end_; }
  Rank source() const { return msg_.source; }

 private:
  /// Fails fast unless `count` elements of at least `element_bytes` each
  /// fit in the bytes left. Every encoded element takes at least one byte
  /// (a non-trivially-copyable element carries a count, a flag or a
  /// member), so checking a declared count this way before the resize or
  /// reserve it drives caps the allocation at the message size.
  void require(std::uint64_t count, std::size_t element_bytes,
               const char* what) const {
    const auto left = static_cast<std::size_t>(end_ - cursor_);
    if (count > left / element_bytes) {
      common::integrity_fail("archive underflow: ", what, " declares ", count,
                             " x ", element_bytes, " bytes, ", left,
                             " left in the main chunk from rank ",
                             msg_.source);
    }
  }

  const InMessage& msg_;
  const std::byte* cursor_;
  const std::byte* end_;
};

}  // namespace amt
