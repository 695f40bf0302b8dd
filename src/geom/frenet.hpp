#pragma once

/// @file frenet.hpp
/// Frenet (road-aligned) coordinates relative to a reference polyline.
///
/// Frenet frame: s is arc length along the reference line, d is the signed
/// lateral offset (positive to the left of the direction of travel). All
/// lane-keeping quantities (distance to lane edges, lane invasion) are
/// naturally expressed in this frame.

#include "geom/polyline.hpp"
#include "geom/vec2.hpp"

namespace scaa::geom {

/// A point expressed in Frenet coordinates.
struct FrenetPoint {
  double s = 0.0;  ///< arc length along the reference line [m]
  double d = 0.0;  ///< signed lateral offset, +left [m]
};

/// Stateful converter between world and Frenet coordinates.
/// Keeps the last projection as a hint, making per-tick conversions O(1).
class FrenetFrame {
 public:
  /// Reference line is borrowed; it must outlive the frame. @p hint_s
  /// seeds the first conversion's search (negative: full search), e.g.
  /// with the arc length a vehicle is placed at.
  explicit FrenetFrame(const Polyline& reference, double hint_s = -1.0)
      : ref_(&reference), hint_s_(hint_s) {}

  /// Convert a world position to Frenet coordinates: project it onto the
  /// reference line, seeded with the previous conversion's arc length and
  /// segment, and keep the result as the hint for the next one.
  FrenetPoint to_frenet(Vec2 world) noexcept;

  /// Search hint for the next projection: arc length of the last
  /// conversion, or the constructor's seed before any (negative: full
  /// search).
  double hint() const noexcept { return hint_s_; }

  /// Segment index of the last conversion, or Polyline::kNoSegmentHint
  /// before any. Seeds Polyline::sample at the converted arc length, so
  /// per-tick road sampling skips the segment search.
  std::size_t hint_segment() const noexcept { return hint_segment_; }

  /// The reference line this frame projects onto.
  const Polyline& reference() const noexcept { return *ref_; }

  /// Convert Frenet coordinates to a world position.
  Vec2 to_world(FrenetPoint f) const noexcept;

  /// Total reference-line length.
  double length() const noexcept { return ref_->length(); }

 private:
  const Polyline* ref_;
  double hint_s_;
  std::size_t hint_segment_ = Polyline::kNoSegmentHint;
};

}  // namespace scaa::geom
