#pragma once

/// @file road.hpp
/// Road model: a reference centerline with parallel lanes and guardrails.
///
/// The paper's CARLA scenario is a two-lane, one-direction road that curves
/// to the left, with a guardrail on the right (the Ego starts in the lane
/// nearer the right guardrail). We model the road as a reference line (the
/// centerline of the whole carriageway) plus N lanes of constant width and
/// guardrails at fixed lateral offsets.
///
/// Lateral convention (Frenet d): positive to the LEFT of travel direction.
/// Lane index 0 is the RIGHTMOST lane. For a 2-lane road of width w:
///   lane 0 center: d = -w/2     (right lane; the Ego's starting lane)
///   lane 1 center: d = +w/2     (left lane)
///   right guardrail: d = -w - margin ; left guardrail: d = +w + margin.

#include <cstddef>

#include "geom/polyline.hpp"

namespace scaa::road {

/// Immutable description of lanes and guardrails around a reference line.
struct RoadProfile {
  std::size_t lane_count = 2;        ///< lanes, all in the travel direction
  double lane_width = 3.7;           ///< [m] US interstate standard
  double guardrail_margin = 0.6;     ///< [m] shoulder between edge lane and rail

  /// Lateral position of the center of lane @p lane (0 = rightmost).
  double lane_center(std::size_t lane) const noexcept;

  /// Lateral position of the right edge of lane @p lane.
  double lane_right_edge(std::size_t lane) const noexcept;

  /// Lateral position of the left edge of lane @p lane.
  double lane_left_edge(std::size_t lane) const noexcept;

  /// Lateral position of the right/left guardrail faces.
  double right_guardrail() const noexcept;
  double left_guardrail() const noexcept;

  /// Total carriageway width (lane_count * lane_width).
  double width() const noexcept;
};

/// A road: reference polyline + profile.
/// The class owns its geometry; queries are const and thread-compatible
/// (create one FrenetFrame per consumer for hint locality).
class Road {
 public:
  Road(geom::Polyline reference, RoadProfile profile);

  const geom::Polyline& reference() const noexcept { return reference_; }
  const RoadProfile& profile() const noexcept { return profile_; }

  /// Total drivable length.
  double length() const noexcept { return reference_.length(); }

  /// Baseline [m] of the road curvature finite difference.
  static constexpr double kCurvatureBaseline = 2.0;

  /// Road heading and signed curvature (positive = left curve) at arc
  /// length @p s: geom::Polyline::sample over kCurvatureBaseline. @p hint
  /// is a segment near s (geom::Polyline::kNoSegmentHint for none); the
  /// result is bit-identical for any hint.
  geom::Polyline::Sample sample(double s, std::size_t hint) const noexcept {
    return reference_.sample(s, kCurvatureBaseline, hint);
  }

  /// Lane containing lateral offset @p d, or -1 when off the carriageway.
  int lane_at(double d) const noexcept;

  /// True when a vehicle of half-width @p half_width centred at @p d sticks
  /// out of lane @p lane (the paper's lane-invasion condition).
  bool invades_lane_line(double d, std::size_t lane,
                         double half_width) const noexcept;

  /// True when offset @p d (plus half-width) reaches a guardrail face.
  bool hits_guardrail(double d, double half_width) const noexcept;

 private:
  geom::Polyline reference_;
  RoadProfile profile_;
};

}  // namespace scaa::road
