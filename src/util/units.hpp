#pragma once

/// @file units.hpp
/// Unit conversions and physical constants used throughout scaa.
///
/// All internal state is SI (metres, seconds, radians, kilograms). The paper
/// quotes speeds in mph and steering in degrees; conversions live here so the
/// rest of the code never multiplies by magic constants.

namespace scaa::units {

/// Pi to double precision.
inline constexpr double kPi = 3.14159265358979323846;

/// Standard gravity [m/s^2].
inline constexpr double kGravity = 9.80665;

/// Metres per mile.
inline constexpr double kMetersPerMile = 1609.344;

/// Seconds per hour.
inline constexpr double kSecondsPerHour = 3600.0;

/// Convert miles-per-hour to metres-per-second.
constexpr double mph_to_ms(double mph) noexcept {
  return mph * kMetersPerMile / kSecondsPerHour;
}

/// Convert degrees to radians.
constexpr double deg_to_rad(double deg) noexcept { return deg * kPi / 180.0; }

/// Convert radians to degrees.
constexpr double rad_to_deg(double rad) noexcept { return rad * 180.0 / kPi; }

}  // namespace scaa::units
