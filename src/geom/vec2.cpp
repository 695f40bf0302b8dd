#include "geom/vec2.hpp"

namespace scaa::geom {

Vec2 Vec2::normalized() const noexcept {
  const double n = norm();
  if (n == 0.0) return {0.0, 0.0};
  return {x / n, y / n};
}

Vec2 Vec2::rotated(double angle) const noexcept {
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  return {x * c - y * s, x * s + y * c};
}

Vec2 heading_vector(double theta) noexcept {
  return {std::cos(theta), std::sin(theta)};
}

}  // namespace scaa::geom
