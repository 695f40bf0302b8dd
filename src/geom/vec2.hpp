#pragma once

/// @file vec2.hpp
/// 2-D vectors and poses in the world frame.
///
/// World frame convention: x east, y north, heading measured CCW from +x.
/// A left curve therefore has positive curvature and increasing heading.

#include <cmath>

namespace scaa::geom {

/// Plain 2-D vector (value type; no invariant).
struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2 operator+(Vec2 o) const noexcept { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const noexcept { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double k) const noexcept { return {x * k, y * k}; }
  constexpr Vec2 operator/(double k) const noexcept { return {x / k, y / k}; }
  constexpr Vec2& operator+=(Vec2 o) noexcept { x += o.x; y += o.y; return *this; }
  constexpr Vec2& operator-=(Vec2 o) noexcept { x -= o.x; y -= o.y; return *this; }

  /// Dot product.
  constexpr double dot(Vec2 o) const noexcept { return x * o.x + y * o.y; }

  /// 2-D cross product (z-component): positive when @p o is CCW from this.
  constexpr double cross(Vec2 o) const noexcept { return x * o.y - y * o.x; }

  /// Euclidean norm.
  double norm() const noexcept { return std::sqrt(x * x + y * y); }

  /// Squared norm (avoids sqrt when comparing distances).
  constexpr double norm_sq() const noexcept { return x * x + y * y; }

  /// Unit vector in the same direction; returns {0,0} for the zero vector.
  Vec2 normalized() const noexcept;

  /// This vector rotated CCW by @p angle radians.
  Vec2 rotated(double angle) const noexcept;

  /// Perpendicular (rotated +90 degrees: left normal).
  constexpr Vec2 perp() const noexcept { return {-y, x}; }
};

constexpr Vec2 operator*(double k, Vec2 v) noexcept { return v * k; }

/// Unit vector at heading @p theta (radians, CCW from +x).
Vec2 heading_vector(double theta) noexcept;

/// Rigid 2-D pose: position plus heading.
struct Pose {
  Vec2 position;
  double heading = 0.0;  ///< radians, CCW from +x
};

}  // namespace scaa::geom
