#include "can/dbc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scaa::can {

namespace {

/// Map a Motorola (big-endian) DBC start bit + bit index within the signal
/// to an absolute bit position in the 64-bit payload viewed as data[0]
/// being the most significant byte on the wire.
///
/// We implement both orders via a common "bit address" walk: for Intel the
/// signal occupies ascending bit addresses from start_bit; for Motorola the
/// walk descends within a byte then jumps to the next byte (the classic
/// sawtooth).
int next_bit_motorola(int bit) {
  // bit is an absolute position: byte = bit / 8, intra = bit % 8.
  const int byte = bit / 8;
  const int intra = bit % 8;
  if (intra == 0) return (byte + 1) * 8 + 7;  // wrap to MSB of next byte
  return byte * 8 + intra - 1;
}

/// Payload as one 64-bit word, data[0] most significant (the wire order a
/// Motorola signal descends through). Compilers reduce this to a single
/// byte-swapped load.
std::uint64_t load_be(const std::array<std::uint8_t, 8>& d) noexcept {
  std::uint64_t w = 0;
  for (int i = 0; i < 8; ++i) w = (w << 8) | d[static_cast<std::size_t>(i)];
  return w;
}

void store_be(std::array<std::uint8_t, 8>& d, std::uint64_t w) noexcept {
  for (int i = 7; i >= 0; --i) {
    d[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(w & 0xFF);
    w >>= 8;
  }
}

/// Payload as one 64-bit word, data[0] least significant (the Intel view).
std::uint64_t load_le(const std::array<std::uint8_t, 8>& d) noexcept {
  std::uint64_t w = 0;
  for (int i = 7; i >= 0; --i) w = (w << 8) | d[static_cast<std::size_t>(i)];
  return w;
}

void store_le(std::array<std::uint8_t, 8>& d, std::uint64_t w) noexcept {
  for (int i = 0; i < 8; ++i) {
    d[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(w & 0xFF);
    w >>= 8;
  }
}

std::uint64_t mask_for(int size) noexcept {
  return size >= 64 ? ~0ull : (1ull << size) - 1;
}

/// Right-shift that places the signal's bits at the bottom of the 64-bit
/// word, or a negative value when the declared layout runs off the payload
/// (then the callers fall back to the historical bit walk).
int shift_for(const DbcSignal& sig) noexcept {
  if (sig.order == ByteOrder::kLittleEndian) {
    // Intel: bits [start_bit, start_bit + size - 1] of the LE word.
    return 64 - sig.start_bit - sig.size >= 0 ? sig.start_bit : -1;
  }
  // Motorola: the sawtooth from start_bit descends significance in the BE
  // word one bit at a time, so the signal is the contiguous run starting
  // (distance from the word's MSB) at 8*byte + (7 - intra).
  const int from_msb =
      (sig.start_bit / 8) * 8 + 7 - (sig.start_bit % 8);
  return 64 - from_msb - sig.size;
}

}  // namespace

std::int64_t DbcSignal::extract_raw(
    const std::array<std::uint8_t, 8>& data) const {
  std::uint64_t raw = 0;
  const int shift = shift_for(*this);
  if (shift >= 0) {
    const std::uint64_t word = order == ByteOrder::kLittleEndian
                                   ? load_le(data)
                                   : load_be(data);
    raw = (word >> shift) & mask_for(size);
  } else {
    // Degenerate declared layout: keep the exact historical bit walk.
    int bit = start_bit;
    for (int i = 0; i < size; ++i) {
      const int byte = bit / 8;
      const int intra = bit % 8;
      const std::uint64_t b =
          (data[static_cast<std::size_t>(byte & 7)] >> intra) & 1u;
      if (order == ByteOrder::kLittleEndian) {
        raw |= b << i;
        ++bit;
      } else {
        raw = (raw << 1) | b;
        bit = next_bit_motorola(bit);
      }
    }
  }
  if (is_signed && size < 64 && (raw & (1ull << (size - 1)))) {
    // Sign-extend.
    raw |= ~((1ull << size) - 1);
  }
  return static_cast<std::int64_t>(raw);
}

void DbcSignal::insert_raw(std::array<std::uint8_t, 8>& data,
                           std::int64_t raw_signed) const {
  auto raw = static_cast<std::uint64_t>(raw_signed);
  if (size < 64) raw &= (1ull << size) - 1;
  const int shift = shift_for(*this);
  if (shift >= 0) {
    const std::uint64_t mask = mask_for(size) << shift;
    if (order == ByteOrder::kLittleEndian) {
      store_le(data, (load_le(data) & ~mask) | (raw << shift));
    } else {
      store_be(data, (load_be(data) & ~mask) | (raw << shift));
    }
    return;
  }
  // Degenerate declared layout: keep the exact historical bit walk.
  int bit = start_bit;
  for (int i = 0; i < size; ++i) {
    const int byte = bit / 8;
    const int intra = bit % 8;
    std::uint64_t b = 0;
    if (order == ByteOrder::kLittleEndian) {
      b = (raw >> i) & 1u;
      ++bit;
    } else {
      b = (raw >> (size - 1 - i)) & 1u;
    }
    auto& target = data[static_cast<std::size_t>(byte & 7)];
    target = static_cast<std::uint8_t>(
        (target & ~(1u << intra)) | (static_cast<unsigned>(b) << intra));
    if (order == ByteOrder::kBigEndian) bit = next_bit_motorola(bit);
  }
}

double DbcSignal::decode(const std::array<std::uint8_t, 8>& data) const {
  return static_cast<double>(extract_raw(data)) * factor + offset;
}

namespace {

/// Raw-range endpoints of a signal (min, max) before scaling. Computed
/// with integer shifts (no libm): encode() needs this on the hot path.
std::pair<double, double> raw_range(const DbcSignal& sig) noexcept {
  if (sig.is_signed) {
    const auto half = 1ull << (sig.size - 1);  // 2^(n-1)
    return {-static_cast<double>(half), static_cast<double>(half - 1)};
  }
  if (sig.size >= 64) return {0.0, 18446744073709551615.0};  // 2^64 - 1
  return {0.0, static_cast<double>((1ull << sig.size) - 1)};  // 2^n - 1
}

}  // namespace

double DbcSignal::min_physical() const noexcept {
  const auto [lo, hi] = raw_range(*this);
  return std::min(lo * factor + offset, hi * factor + offset);
}

double DbcSignal::max_physical() const noexcept {
  const auto [lo, hi] = raw_range(*this);
  return std::max(lo * factor + offset, hi * factor + offset);
}

void DbcSignal::encode(std::array<std::uint8_t, 8>& data,
                       double physical) const {
  // Clamp in raw space: identical result to clamping the physical value
  // against min/max_physical() (the division maps the physical range onto
  // the raw range monotonically for either factor sign), but without the
  // two ldexp-based range constructions per call — encode runs twice per
  // 10 ms simulation tick.
  const auto [raw_lo, raw_hi] = raw_range(*this);
  const double scaled =
      std::clamp((physical - offset) / factor, raw_lo, raw_hi);
  insert_raw(data, static_cast<std::int64_t>(std::llround(scaled)));
}

}  // namespace scaa::can
