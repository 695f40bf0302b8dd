#pragma once

/// @file codec.hpp
/// Binary serialization for bus frames.
///
/// Cereal uses Cap'n Proto; we use a small explicit little-endian codec with
/// the same purpose: messages on the wire are bytes, and any subscriber that
/// knows the (public) schema can decode them — which is exactly the
/// eavesdropping vulnerability the paper exploits.
///
/// Every wire field is a fixed-width little-endian word (u16, u32, u64, the
/// IEEE-754 bits of an f64) or a one-byte bool. store_le()/load_le() are
/// the only byte-order code: the schema messages' fixed-size frames
/// (msg/bus.hpp) and the growable Encoder/Decoder below both use them.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace scaa::msg {

/// Store @p v at @p p as sizeof(T) little-endian bytes (one unaligned word
/// store on a little-endian host).
template <typename T>
inline void store_le(std::uint8_t* p, T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Inverse of store_le().
template <typename T>
inline T load_le(const std::uint8_t* p) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  }
  return v;
}

/// Append-only byte buffer writer (little endian), for variable-length
/// records such as MessageLog's file format.
class Encoder {
 public:
  void put_u16(std::uint16_t v) { put(v); }
  void put_u32(std::uint32_t v) { put(v); }
  void put_u64(std::uint64_t v) { put(v); }
  void put_f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void put_bool(bool v) { buf_.push_back(v ? 1 : 0); }

  /// Finished byte string.
  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }

 private:
  template <typename T>
  void put(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    store_le(buf_.data() + at, v);
  }

  std::vector<std::uint8_t> buf_;
};

/// Sequential reader over a byte string. Throws std::out_of_range on
/// truncated input — a malformed frame must never be silently misread.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> bytes)
      : data_(bytes.data()), size_(bytes.size()) {}
  Decoder(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint16_t get_u16() { return get<std::uint16_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }
  double get_f64() { return std::bit_cast<double>(get<std::uint64_t>()); }
  bool get_bool() {
    need(1);
    return data_[pos_++] != 0;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::size_t n) const {
    if (n > size_ - pos_)
      throw std::out_of_range("msg::Decoder: truncated frame");
  }

  template <typename T>
  T get() {
    need(sizeof(T));
    const T v = load_le<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace scaa::msg
