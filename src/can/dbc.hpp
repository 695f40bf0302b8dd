#pragma once

/// @file dbc.hpp
/// DBC-style signal and message definitions (the opendbc substrate).
///
/// A DbcSignal describes where a physical value lives inside a CAN payload:
/// start bit, width, byte order, signedness, scale and offset. This is the
/// information an attacker recovers from the public opendbc files to corrupt
/// a specific command (paper Fig. 4).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "can/frame.hpp"

namespace scaa::can {

/// Bit layout order within the payload.
enum class ByteOrder : std::uint8_t {
  kLittleEndian,  ///< Intel
  kBigEndian,     ///< Motorola (Honda DBCs use this)
};

/// One signal inside a message.
struct DbcSignal {
  std::string name;
  int start_bit = 0;   ///< DBC start bit (LSB pos for Intel, MSB for Motorola)
  int size = 8;        ///< width in bits (1..64)
  ByteOrder order = ByteOrder::kBigEndian;
  bool is_signed = false;
  double factor = 1.0;
  double offset = 0.0;

  /// Extract the raw (unscaled) value from a payload.
  std::int64_t extract_raw(const std::array<std::uint8_t, 8>& data) const;

  /// Insert a raw (unscaled) value into a payload.
  void insert_raw(std::array<std::uint8_t, 8>& data, std::int64_t raw) const;

  /// Physical value = raw * factor + offset.
  double decode(const std::array<std::uint8_t, 8>& data) const;

  /// Encode a physical value (rounded to the nearest raw step, clamped to
  /// the signal's representable range).
  void encode(std::array<std::uint8_t, 8>& data, double physical) const;

  /// Smallest/largest encodable physical value.
  double min_physical() const noexcept;
  double max_physical() const noexcept;
};

/// Checksum algorithms attached to messages.
enum class ChecksumKind : std::uint8_t {
  kNone,
  kHonda,  ///< 4-bit nibble-sum checksum + 2-bit rolling counter
};

/// One message (frame layout) in the database.
struct DbcMessage {
  std::string name;
  std::uint32_t id = 0;
  std::uint8_t size = 8;  ///< DLC
  ChecksumKind checksum = ChecksumKind::kNone;
  std::vector<DbcSignal> signals;
};

}  // namespace scaa::can
