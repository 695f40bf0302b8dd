#pragma once

/// @file frame.hpp
/// CAN 2.0A data frames.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace scaa::can {

/// A classic CAN data frame (11-bit identifier, up to 8 data bytes).
struct CanFrame {
  std::uint32_t id = 0;                  ///< 11-bit arbitration id
  /// Data length code. A classic frame carries 0..8 bytes; CanBus::send
  /// drops (and counts) any frame claiming more, so every consumer of
  /// bus traffic may index data[dlc - 1].
  std::uint8_t dlc = 8;
  std::array<std::uint8_t, 8> data{};    ///< payload, data[0] first on wire
  std::uint8_t bus = 0;                  ///< bus index (powertrain = 0)

  bool operator==(const CanFrame&) const = default;
};

/// Largest data length code of a classic CAN frame.
inline constexpr std::uint8_t kMaxDlc = 8;

/// Reverse the byte order of a 64-bit word (compilers emit one bswap).
constexpr std::uint64_t byte_reverse(std::uint64_t w) noexcept {
  w = ((w & 0x00FF00FF00FF00FFull) << 8) | ((w >> 8) & 0x00FF00FF00FF00FFull);
  w = ((w & 0x0000FFFF0000FFFFull) << 16) |
      ((w >> 16) & 0x0000FFFF0000FFFFull);
  return (w << 32) | (w >> 32);
}

/// The payload as one 64-bit word with data[0] most significant: the order
/// the bytes go on the wire and the order a Motorola signal descends
/// through. Signals, the rolling counter and the checksum are all read and
/// written on this word, so a frame is loaded and stored once.
inline std::uint64_t load_payload(
    const std::array<std::uint8_t, 8>& data) noexcept {
  std::uint64_t w = 0;
  std::memcpy(&w, data.data(), sizeof(w));
  return std::endian::native == std::endian::little ? byte_reverse(w) : w;
}

/// Inverse of load_payload().
inline void store_payload(std::array<std::uint8_t, 8>& data,
                          std::uint64_t word) noexcept {
  if constexpr (std::endian::native == std::endian::little)
    word = byte_reverse(word);
  std::memcpy(data.data(), &word, sizeof(word));
}

/// Render a frame like candump: "0E4#8/1A2B3C4D5E6F0708".
std::string to_string(const CanFrame& frame);

}  // namespace scaa::can
