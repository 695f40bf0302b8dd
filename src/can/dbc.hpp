#pragma once

/// @file dbc.hpp
/// DBC-style signal and message definitions (the opendbc substrate).
///
/// A DbcSignal describes where a physical value lives inside a CAN payload:
/// start bit, width, byte order, signedness, scale and offset. This is the
/// information an attacker recovers from the public opendbc files to corrupt
/// a specific command (paper Fig. 4).
///
/// The codec works on the payload as one 64-bit word (can::load_payload):
/// a signal's position in that word — its shift and mask — and its raw
/// range are derived once, when the signal is constructed, so encoding is a
/// clamp, an inline rounding, a shift and a mask, and decoding a shift, a
/// mask and a sign extension.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "can/frame.hpp"
#include "util/math.hpp"

namespace scaa::can {

/// Bit layout order within the payload.
enum class ByteOrder : std::uint8_t {
  kLittleEndian,  ///< Intel
  kBigEndian,     ///< Motorola (Honda DBCs use this)
};

/// One signal inside a message. An immutable value: the declared layout is
/// validated and its word position derived at construction.
class DbcSignal {
 public:
  /// Throws std::invalid_argument when @p size is outside 1..64,
  /// @p start_bit outside 0..63, @p factor is zero, or the signal's bits
  /// run past the 8-byte payload.
  DbcSignal(std::string name, int start_bit, int size, ByteOrder order,
            bool is_signed, double factor, double offset);

  const std::string& name() const noexcept { return name_; }
  /// DBC start bit (LSB position for Intel, MSB position for Motorola).
  int start_bit() const noexcept { return start_bit_; }
  int size() const noexcept { return size_; }  ///< width in bits (1..64)
  ByteOrder order() const noexcept { return order_; }
  bool is_signed() const noexcept { return sign_bit_ != 0; }
  double factor() const noexcept { return factor_; }
  double offset() const noexcept { return offset_; }

  /// Payload bytes the signal reaches: a message carrying it needs a DLC
  /// of at least this.
  int min_dlc() const noexcept { return min_dlc_; }

  // --- word operations (payload word as returned by can::load_payload) --

  /// Physical value held in @p word: raw * factor + offset.
  double value(std::uint64_t word) const noexcept {
    return static_cast<double>(raw(word)) * factor_ + offset_;
  }

  /// @p word with this signal's bits replaced by @p physical, scaled to
  /// raw, clamped to the raw range and rounded half away from zero.
  /// Clamping in raw space gives the result of clamping against
  /// min/max_physical(): the division maps the physical range onto the
  /// raw range monotonically for either sign of the factor.
  std::uint64_t replace(std::uint64_t word, double physical) const noexcept {
    const double scaled =
        std::clamp((physical - offset_) / factor_, raw_lo_, raw_hi_);
    return (word & ~field_) | place_raw(math::round_half_away(scaled));
  }

  // --- byte-array forms of the same operations -------------------------

  /// Extract the raw (unscaled) value from a payload.
  std::int64_t extract_raw(const std::array<std::uint8_t, 8>& data) const
      noexcept {
    return raw(load_payload(data));
  }

  /// Insert a raw (unscaled) value into a payload.
  void insert_raw(std::array<std::uint8_t, 8>& data,
                  std::int64_t raw_value) const noexcept {
    store_payload(data,
                  (load_payload(data) & ~field_) | place_raw(raw_value));
  }

  /// Physical value = raw * factor + offset.
  double decode(const std::array<std::uint8_t, 8>& data) const noexcept {
    return value(load_payload(data));
  }

  /// Encode a physical value (rounded to the nearest raw step, clamped to
  /// the signal's representable range).
  void encode(std::array<std::uint8_t, 8>& data, double physical) const
      noexcept {
    store_payload(data, replace(load_payload(data), physical));
  }

  /// Smallest/largest encodable physical value.
  double min_physical() const noexcept;
  double max_physical() const noexcept;

 private:
  /// Raw (unscaled, sign-extended) value held in @p word.
  std::int64_t raw(std::uint64_t word) const noexcept {
    std::uint64_t bits =
        order_ == ByteOrder::kBigEndian ? word : byte_reverse(word);
    bits = (bits >> shift_) & raw_mask_;
    return static_cast<std::int64_t>((bits ^ sign_bit_) - sign_bit_);
  }

  /// @p raw_value, truncated to the signal's width, at its place in the
  /// word.
  std::uint64_t place_raw(std::int64_t raw_value) const noexcept {
    const std::uint64_t bits =
        (static_cast<std::uint64_t>(raw_value) & raw_mask_) << shift_;
    return order_ == ByteOrder::kBigEndian ? bits : byte_reverse(bits);
  }

  std::string name_;
  int start_bit_;
  int size_;
  ByteOrder order_;
  double factor_;
  double offset_;
  // Derived at construction.
  int shift_ = 0;                ///< raw LSB position in the order's word
  int min_dlc_ = 0;
  std::uint64_t raw_mask_ = 0;   ///< 2^size - 1
  std::uint64_t sign_bit_ = 0;   ///< 2^(size-1) when signed, else 0
  std::uint64_t field_ = 0;      ///< the signal's bits in the payload word
  double raw_lo_ = 0.0;          ///< representable raw range
  double raw_hi_ = 0.0;
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
