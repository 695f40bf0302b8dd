#include "road/builder.hpp"

#include <cmath>
#include <stdexcept>

namespace scaa::road {

RoadBuilder& RoadBuilder::straight(double length) {
  if (length <= 0.0)
    throw std::invalid_argument("RoadBuilder: length must be positive");
  const int n = std::max(1, static_cast<int>(std::ceil(length / kSpacing)));
  const geom::Vec2 dir = geom::heading_vector(heading_);
  for (int i = 1; i <= n; ++i) {
    const double s = length * static_cast<double>(i) / n;
    points_.push_back(cursor_ + dir * s);
  }
  cursor_ = points_.back();
  return *this;
}

RoadBuilder& RoadBuilder::arc(double length, double curvature) {
  if (length <= 0.0)
    throw std::invalid_argument("RoadBuilder: length must be positive");
  if (curvature == 0.0) return straight(length);
  const int n = std::max(2, static_cast<int>(std::ceil(length / kSpacing)));
  const double radius = 1.0 / curvature;  // signed
  // Center of curvature sits on the left normal for a left curve.
  const geom::Vec2 normal = geom::heading_vector(heading_).perp();
  const geom::Vec2 center = cursor_ + normal * radius;
  const double total_angle = length * curvature;  // signed sweep
  const geom::Vec2 spoke = cursor_ - center;
  for (int i = 1; i <= n; ++i) {
    const double a = total_angle * static_cast<double>(i) / n;
    points_.push_back(center + spoke.rotated(a));
  }
  cursor_ = points_.back();
  heading_ += total_angle;
  return *this;
}

Road RoadBuilder::build(RoadProfile profile) const {
  return Road(geom::Polyline(points_), profile);
}

Road RoadBuilder::paper_road() {
  constexpr double curvature = 1.0 / 1200.0;
  RoadBuilder builder;
  // 200 m straight lead-in, a 200 m spiral-like transition (stepped arcs),
  // then a long left bend: the Ego covers at most ~1.35 km in 50 s at
  // 60 mph; build over 2 km so nothing runs off the end.
  builder.straight(200.0)
      .arc(50.0, 0.2 * curvature)
      .arc(50.0, 0.4 * curvature)
      .arc(50.0, 0.6 * curvature)
      .arc(50.0, 0.8 * curvature)
      .arc(1800.0, curvature);
  RoadProfile profile;
  profile.lane_count = 2;
  profile.lane_width = 3.7;
  profile.guardrail_margin = 1.8;  // paved shoulder up to the barrier
  return builder.build(profile);
}

}  // namespace scaa::road
