#include "can/dbc.hpp"

#include <algorithm>
#include <stdexcept>

namespace scaa::can {

DbcSignal::DbcSignal(std::string name, int start_bit, int size,
                     ByteOrder order, bool is_signed, double factor,
                     double offset)
    : name_(std::move(name)),
      start_bit_(start_bit),
      size_(size),
      order_(order),
      factor_(factor),
      offset_(offset) {
  if (start_bit < 0 || start_bit > 63)
    throw std::invalid_argument("start bit must be 0..63");
  if (size < 1 || size > 64)
    throw std::invalid_argument("signal length must be 1..64");
  if (factor == 0.0) throw std::invalid_argument("factor must be nonzero");
  // Payload bits are counted from the start of the frame: an Intel signal
  // occupies bits [start_bit, start_bit + size) of the little-endian word;
  // a Motorola signal descends the sawtooth from start_bit, a contiguous
  // run of the big-endian word starting at start_bit's distance from the
  // word's most significant bit.
  const int first = order == ByteOrder::kLittleEndian
                        ? start_bit
                        : (start_bit / 8) * 8 + 7 - start_bit % 8;
  if (first + size > 64)
    throw std::invalid_argument("signal runs past the 8-byte payload");
  min_dlc_ = (first + size + 7) / 8;
  shift_ = order == ByteOrder::kLittleEndian ? first : 64 - first - size;
  raw_mask_ = size == 64 ? ~0ull : (1ull << size) - 1;
  sign_bit_ = is_signed ? 1ull << (size - 1) : 0;
  field_ = place_raw(-1);
  if (is_signed) {
    raw_lo_ = -static_cast<double>(sign_bit_);  // -2^(n-1)
    raw_hi_ = static_cast<double>(sign_bit_ - 1);
  } else {
    raw_lo_ = 0.0;
    raw_hi_ = static_cast<double>(raw_mask_);  // 2^n - 1
  }
}

double DbcSignal::min_physical() const noexcept {
  return std::min(raw_lo_ * factor_ + offset_, raw_hi_ * factor_ + offset_);
}

double DbcSignal::max_physical() const noexcept {
  return std::max(raw_lo_ * factor_ + offset_, raw_hi_ * factor_ + offset_);
}

}  // namespace scaa::can
