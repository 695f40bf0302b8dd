#pragma once

/// @file builder.hpp
/// Programmatic road construction from straight and arc segments.

#include <vector>

#include "road/road.hpp"

namespace scaa::road {

/// Fluent builder that tessellates straight and circular-arc segments into
/// the reference polyline, starting at the origin heading east. Segments
/// are sampled at ~0.5 m spacing, fine enough that polyline curvature error
/// is negligible at vehicle scale.
class RoadBuilder {
 public:
  /// Append a straight segment of @p length metres.
  RoadBuilder& straight(double length);

  /// Append a circular arc of @p length metres with signed curvature
  /// @p curvature [1/m]; positive curves left. Zero curvature degrades to a
  /// straight segment.
  RoadBuilder& arc(double length, double curvature);

  /// Build the road with the given lane profile.
  Road build(RoadProfile profile) const;

  /// Convenience: the paper's evaluation road — a gentle left-hand curve
  /// (~1.2 km radius) long enough for a 50 s run at 60 mph (~1.4 km), two
  /// lanes, guardrails.
  static Road paper_road();

 private:
  static constexpr double kSpacing = 0.5;  ///< tessellation spacing [m]

  geom::Vec2 cursor_{0.0, 0.0};
  double heading_ = 0.0;
  std::vector<geom::Vec2> points_{{0.0, 0.0}};
};

}  // namespace scaa::road
