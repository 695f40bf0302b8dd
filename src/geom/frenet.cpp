#include "geom/frenet.hpp"

#include "util/math.hpp"

namespace scaa::geom {

FrenetPoint FrenetFrame::to_frenet(Vec2 world) noexcept {
  const Polyline::Projection proj =
      ref_->project(world, hint_s_, hint_segment_);
  hint_s_ = proj.s;
  hint_segment_ = proj.segment;
  return {proj.s, proj.lateral};
}

Vec2 FrenetFrame::to_world(FrenetPoint f) const noexcept {
  const Vec2 base = ref_->position_at(f.s);
  const double heading = ref_->heading_at(f.s);
  // Left normal of the tangent.
  const Vec2 normal = heading_vector(heading).perp();
  return base + normal * f.d;
}

double FrenetFrame::curvature_at(double s, double ds) const noexcept {
  const double s0 = s - 0.5 * ds < 0.0 ? 0.0 : s - 0.5 * ds;
  const double s1 = s0 + ds > ref_->length() ? ref_->length() : s0 + ds;
  if (s1 - s0 < 1e-9) return 0.0;
  const double h0 = ref_->heading_at(s0);
  const double h1 = ref_->heading_at(s1);
  return math::wrap_angle(h1 - h0) / (s1 - s0);
}

double FrenetFrame::curvature_at(double s, double ds,
                                 std::size_t segment_hint) const noexcept {
  // Same clamp arithmetic and evaluation order as the unhinted overload;
  // only the segment search seed differs, and the seeded walk returns the
  // identical segment (see Polyline::segment_index_near).
  const double s0 = s - 0.5 * ds < 0.0 ? 0.0 : s - 0.5 * ds;
  const double s1 = s0 + ds > ref_->length() ? ref_->length() : s0 + ds;
  if (s1 - s0 < 1e-9) return 0.0;
  const double h0 = ref_->heading_at(s0, segment_hint);
  const double h1 = ref_->heading_at(s1, segment_hint);
  return math::wrap_angle(h1 - h0) / (s1 - s0);
}

}  // namespace scaa::geom
