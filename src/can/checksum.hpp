#pragma once

/// @file checksum.hpp
/// Message integrity fields: Honda-style 4-bit checksum and 2-bit counter.
///
/// The attacker must recompute these after corrupting a command, otherwise
/// the receiving ECU discards the frame (paper §III-C, Fig. 4). Layout
/// mirrors Honda DBCs: the last payload byte carries the rolling counter in
/// bits [5:4] and the checksum nibble in bits [3:0].
///
/// The word forms work on the payload word (can::load_payload) of a frame
/// of @p length bytes; the codec paths load a frame once and apply signals,
/// counter and checksum to that word. The frame forms wrap them. Every
/// length is a DLC, 0..8 (CanBus::send drops longer frames).

#include <array>
#include <cstdint>

#include "can/frame.hpp"

namespace scaa::can {

/// Sum of the nibbles of a CAN id: the address part of the Honda checksum.
/// Fixed for a message, so codecs compute it once per message.
constexpr unsigned id_nibble_sum(std::uint32_t id) noexcept {
  std::uint32_t s = (id & 0x0F0F0F0Fu) + ((id >> 4) & 0x0F0F0F0Fu);
  return (s * 0x01010101u) >> 24;  // eight nibbles sum to at most 120
}

namespace detail {
/// Per length, the payload-word bits the checksum sums: the bytes before
/// the last, plus the last byte's high nibble — the top 8 * length - 4.
inline constexpr std::uint64_t kHondaSummedBits[9] = {
    0,           ~0ull << 60, ~0ull << 52, ~0ull << 44, ~0ull << 36,
    ~0ull << 28, ~0ull << 20, ~0ull << 12, ~0ull << 4};
}  // namespace detail

/// Honda checksum of a payload word: the two's-complement low nibble of
/// the id's nibble sum (@p id_sum, from id_nibble_sum) plus every payload
/// nibble except the checksum nibble itself (the low nibble of the last
/// byte), matching opendbc's honda implementation. Bytes past @p length
/// (0..8) do not count.
constexpr std::uint8_t honda_checksum_word(unsigned id_sum,
                                           std::uint64_t word,
                                           int length) noexcept {
  const std::uint64_t w = word & detail::kHondaSummedBits[length];
  const std::uint64_t per_byte =
      (w & 0x0F0F0F0F0F0F0F0Full) + ((w >> 4) & 0x0F0F0F0F0F0F0F0Full);
  // Each byte now holds at most 30, so the eight add up to at most 240.
  const auto sum =
      static_cast<unsigned>((per_byte * 0x0101010101010101ull) >> 56);
  return static_cast<std::uint8_t>((8 - id_sum - sum) & 0xFu);
}

/// @p word with its checksum nibble set; unchanged when @p length is 0.
constexpr std::uint64_t with_honda_checksum(unsigned id_sum,
                                            std::uint64_t word,
                                            int length) noexcept {
  if (length == 0) return word;
  const int at = 64 - 8 * length;
  return (word & ~(0xFull << at)) |
         (std::uint64_t{honda_checksum_word(id_sum, word, length)} << at);
}

/// True when the checksum nibble of @p word matches; false for length 0.
constexpr bool honda_checksum_ok(unsigned id_sum, std::uint64_t word,
                                 int length) noexcept {
  return length != 0 && ((word >> (64 - 8 * length)) & 0xFu) ==
                            honda_checksum_word(id_sum, word, length);
}

/// Counter field of @p word; 0 for length 0.
constexpr std::uint8_t counter_of(std::uint64_t word, int length) noexcept {
  if (length == 0) return 0;
  return static_cast<std::uint8_t>((word >> (68 - 8 * length)) & 0x3u);
}

/// @p word with its counter field set to @p counter (mod 4); unchanged
/// when @p length is 0.
constexpr std::uint64_t with_counter(std::uint64_t word, int length,
                                     std::uint8_t counter) noexcept {
  if (length == 0) return word;
  const int at = 68 - 8 * length;
  return (word & ~(0x3ull << at)) | (std::uint64_t{counter & 0x3u} << at);
}

/// Compute the Honda 4-bit checksum over address and payload.
/// The checksum nibble itself (low nibble of the last byte) is excluded.
inline std::uint8_t honda_checksum(std::uint32_t address,
                                   const std::array<std::uint8_t, 8>& data,
                                   int length) noexcept {
  return honda_checksum_word(id_nibble_sum(address), load_payload(data),
                             length);
}

/// Write checksum (and leave the counter bits untouched) into the frame.
inline void apply_honda_checksum(CanFrame& frame) noexcept {
  store_payload(frame.data,
                with_honda_checksum(id_nibble_sum(frame.id),
                                    load_payload(frame.data), frame.dlc));
}

/// Read the counter field (bits [5:4] of the last byte).
inline std::uint8_t read_counter(const CanFrame& frame) noexcept {
  return counter_of(load_payload(frame.data), frame.dlc);
}

/// Set the counter field.
inline void write_counter(CanFrame& frame, std::uint8_t counter) noexcept {
  store_payload(frame.data,
                with_counter(load_payload(frame.data), frame.dlc, counter));
}

/// Validate the checksum of a frame.
inline bool verify_honda_checksum(const CanFrame& frame) noexcept {
  return honda_checksum_ok(id_nibble_sum(frame.id), load_payload(frame.data),
                           frame.dlc);
}

}  // namespace scaa::can
