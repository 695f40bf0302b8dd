#include "geom/frenet.hpp"

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

}  // namespace scaa::geom
