#pragma once

/// @file polyline.hpp
/// Arc-length-parameterized polylines, the backbone of the road centerline.

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"

namespace scaa::geom {

/// A polyline with a precomputed cumulative arc-length table.
/// Supports sampling position/heading at any arc length s and projecting a
/// world point to the closest s (the key primitive for Frenet conversion).
///
/// Projection is the hottest geometry kernel of the simulation (it runs per
/// vehicle per tick), so the constructor precomputes a structure-of-arrays
/// mirror of the segments — origins, deltas, inverse squared lengths, unit
/// tangents — and project() scans it with multiplications only: no
/// distance(), sqrt, or division per candidate segment.
class Polyline {
 public:
  /// Construct from at least two points. Consecutive duplicate points are
  /// rejected (they would produce a zero-length segment), so every instance
  /// carries >= 1 segment of positive length.
  explicit Polyline(std::vector<Vec2> points);

  /// Total arc length.
  double length() const noexcept { return cum_.back(); }

  /// Number of points.
  std::size_t size() const noexcept { return pts_.size(); }

  /// Point at index @p i.
  Vec2 point(std::size_t i) const { return pts_.at(i); }

  /// Position at arc length @p s (clamped to [0, length]).
  Vec2 position_at(double s) const noexcept;

  /// Tangent heading (radians) at arc length @p s (clamped to the first /
  /// last segment's heading beyond the ends).
  double heading_at(double s) const noexcept;

  /// Sentinel for "no segment hint" in the hinted queries below.
  static constexpr std::size_t kNoSegmentHint = static_cast<std::size_t>(-1);

  /// The reference line's heading and curvature at one arc length.
  struct Sample {
    double heading = 0.0;    ///< heading_at(s) [rad]
    double curvature = 0.0;  ///< signed, +left [1/m]
  };

  /// heading_at(s) plus the curvature over a baseline @p ds centred on s:
  /// the heading difference between s0 = max(s - ds/2, 0) and
  /// s1 = min(s0 + ds, length), wrapped, over s1 - s0 (zero when the
  /// clamped baseline is shorter than 1e-9). @p segment_hint, a segment
  /// near s (typically the segment of a recent projection), seeds the walk
  /// to the segment at s; the walks to s0 and s1 start from that segment
  /// shifted by ds/2 of mean spacing. The walk ends on the same segment
  /// from any start, so the result is bit-identical for ANY hint value
  /// (kNoSegmentHint falls back to the scaled-guess search).
  Sample sample(double s, double ds, std::size_t segment_hint) const noexcept;

  /// Projection result of a world point onto the polyline.
  struct Projection {
    double s = 0.0;         ///< arc length of the closest point
    double lateral = 0.0;   ///< signed offset; positive = left of tangent
    Vec2 closest;           ///< closest point on the polyline
    std::size_t segment = 0;  ///< index of the winning segment
  };

  /// Project @p p to the closest point on the polyline.
  ///
  /// @p hint_s speeds up the search by starting near a previous projection
  /// (pass a negative value for a full search); @p hint_segment, that
  /// projection's segment, lets the search find the segment at hint_s
  /// without the scaled-guess walk. The search centres on the segment at
  /// hint_s and first scans centre - 1 ... centre + 2: a vehicle advances
  /// less than a segment per tick, so its nearest segment is usually the
  /// centre or the next one, and either is accepted as interior to that
  /// window. Otherwise it scans a window of +/-4 segments around the centre
  /// and accepts the result only when the best segment is interior to the
  /// window; a best on the window's first/last searched segment means the
  /// true minimum may lie beyond it, so the window is widened fourfold and
  /// the scan retried until the best is interior or the window covers the
  /// whole polyline. The hinted search is O(1) amortized and exact; even a
  /// teleported point recovers unless the geometry folds back on itself
  /// closer than the point's offset (pass hint_s < 0 there). The segment
  /// hint never changes the result: any value, stale or out of range, finds
  /// the same centre.
  Projection project(Vec2 p, double hint_s = -1.0,
                     std::size_t hint_segment = kNoSegmentHint) const noexcept;

  /// Brute-force all-segments reference projection in the pre-SoA scalar
  /// arithmetic (one division per segment, sqrt per improvement). This is
  /// the oracle of the differential test suite and the baseline of the
  /// `project` benchmark rows; it is kept bit-compatible with the
  /// historical implementation, and project(p, -1) must match it to <= 1
  /// ulp in s and lateral.
  Projection project_reference(Vec2 p) const noexcept;

 private:
  std::size_t segment_index(double s) const noexcept;

  /// segment_index(s) seeded with a caller-supplied starting segment
  /// instead of the scaled guess (kNoSegmentHint: the guess). Runs the
  /// identical monotone walk, so it returns the identical index for any
  /// starting point, in range or not.
  std::size_t segment_index_near(double s, std::size_t hint) const noexcept;

  /// SoA distance scan over segments [lo, hi): returns the index of the
  /// segment whose clamped foot point is nearest to @p p (first such index
  /// on exact ties, like the historical scalar scan).
  std::size_t best_segment(Vec2 p, std::size_t lo,
                           std::size_t hi) const noexcept;

  /// Exact projection onto segment @p i, in arithmetic bit-identical to the
  /// historical per-candidate computation (division by the squared length,
  /// precomputed sqrt/tangent with identical rounding).
  Projection finalize(Vec2 p, std::size_t i) const noexcept;

  std::vector<Vec2> pts_;
  std::vector<double> cum_;       ///< cum_[i] = arc length at pts_[i]
  std::vector<double> headings_;  ///< per-segment tangent heading [rad]

  // SoA mirror of the segments, built once in the constructor. The scan
  // kernel touches x0/y0/dx/dy/inv_len_sq only; len/tx/ty serve the exact
  // finalize step (len[i] == sqrt(dx^2+dy^2) and {tx,ty} == normalized
  // delta, both bit-identical to computing them from pts_ on the fly).
  std::vector<double> x0_, y0_;        ///< segment origins
  std::vector<double> dx_, dy_;        ///< segment deltas (b - a)
  std::vector<double> inv_len_sq_;     ///< 1 / |b - a|^2
  std::vector<double> len_;            ///< |b - a|
  std::vector<double> tx_, ty_;        ///< unit tangents
  double inv_mean_seg_ = 0.0;          ///< segments / length (index guess)
};

}  // namespace scaa::geom
