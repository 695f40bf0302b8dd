#pragma once

/// @file math.hpp
/// Small numeric helpers shared across modules.

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace scaa::math {

/// Clamp @p v to the closed interval [@p lo, @p hi]. Requires lo <= hi.
constexpr double clamp(double v, double lo, double hi) noexcept {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Sign of @p v as -1.0, 0.0 or +1.0.
constexpr double sign(double v) noexcept {
  return (v > 0.0) ? 1.0 : (v < 0.0 ? -1.0 : 0.0);
}

/// True when |a - b| <= tol.
constexpr bool near(double a, double b, double tol) noexcept {
  return (a > b ? a - b : b - a) <= tol;
}

/// Move @p current toward @p target by at most @p max_delta (rate limiter).
constexpr double rate_limit(double current, double target,
                            double max_delta) noexcept {
  return clamp(target, current - max_delta, current + max_delta);
}

/// Round to the nearest integer, ties away from zero: std::llround without
/// the libm call. Exact for every |x| < 2^63: the truncation is exact, and
/// so is the fraction x - trunc(x) (it keeps a subset of x's significand
/// bits). NaN and |x| >= 2^63 have no int64 value; they give INT64_MIN, the
/// value std::llround returns for them on x86-64.
constexpr std::int64_t round_half_away(double x) noexcept {
  if (!(x > -0x1p63 && x < 0x1p63)) return INT64_MIN;
  const auto i = static_cast<std::int64_t>(x);
  const double frac = x - static_cast<double>(i);
  return i + (frac >= 0.5) - (frac <= -0.5);
}

/// Wrap an angle to (-pi, pi].
double wrap_angle(double rad) noexcept;

/// First-order low-pass filter step: returns the new filtered value.
/// @p alpha in [0,1]: 0 keeps the old value, 1 takes the new sample.
constexpr double lowpass(double prev, double sample, double alpha) noexcept {
  return prev + alpha * (sample - prev);
}

}  // namespace scaa::math
