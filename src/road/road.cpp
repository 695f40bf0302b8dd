#include "road/road.hpp"

#include <stdexcept>

namespace scaa::road {

double RoadProfile::width() const noexcept {
  return static_cast<double>(lane_count) * lane_width;
}

double RoadProfile::lane_center(std::size_t lane) const noexcept {
  // Rightmost lane edge sits at -width/2; lane centers step left from there.
  const double right_edge = -0.5 * width();
  return right_edge + (static_cast<double>(lane) + 0.5) * lane_width;
}

double RoadProfile::lane_right_edge(std::size_t lane) const noexcept {
  return lane_center(lane) - 0.5 * lane_width;
}

double RoadProfile::lane_left_edge(std::size_t lane) const noexcept {
  return lane_center(lane) + 0.5 * lane_width;
}

double RoadProfile::right_guardrail() const noexcept {
  return -0.5 * width() - guardrail_margin;
}

double RoadProfile::left_guardrail() const noexcept {
  return 0.5 * width() + guardrail_margin;
}

Road::Road(geom::Polyline reference, RoadProfile profile)
    : reference_(std::move(reference)), profile_(profile) {
  if (profile_.lane_count == 0)
    throw std::invalid_argument("Road: lane_count must be >= 1");
  if (profile_.lane_width <= 0.0)
    throw std::invalid_argument("Road: lane_width must be positive");
  if (profile_.guardrail_margin < 0.0)
    throw std::invalid_argument("Road: guardrail_margin must be >= 0");
}

int Road::lane_at(double d) const noexcept {
  for (std::size_t lane = 0; lane < profile_.lane_count; ++lane) {
    if (d >= profile_.lane_right_edge(lane) &&
        d <= profile_.lane_left_edge(lane))
      return static_cast<int>(lane);
  }
  return -1;
}

bool Road::invades_lane_line(double d, std::size_t lane,
                             double half_width) const noexcept {
  return (d - half_width) < profile_.lane_right_edge(lane) ||
         (d + half_width) > profile_.lane_left_edge(lane);
}

bool Road::hits_guardrail(double d, double half_width) const noexcept {
  return (d - half_width) <= profile_.right_guardrail() ||
         (d + half_width) >= profile_.left_guardrail();
}

}  // namespace scaa::road
