#include "util/math.hpp"

namespace scaa::math {

double wrap_angle(double rad) noexcept {
  constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
  while (rad > 3.14159265358979323846) rad -= kTwoPi;
  while (rad <= -3.14159265358979323846) rad += kTwoPi;
  return rad;
}

}  // namespace scaa::math
