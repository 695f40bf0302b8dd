#include "attack/context.hpp"

namespace scaa::attack {

ContextInference::ContextInference(msg::PubSubBus& bus, double half_width)
    : gps_(bus),
      model_(bus),
      radar_(bus),
      car_(bus),
      half_width_(half_width) {}

SafetyContext ContextInference::infer(double time) const noexcept {
  SafetyContext ctx;
  ctx.time = time;

  if (gps_.valid() && gps_.value().has_fix) ctx.speed = gps_.value().speed;

  if (radar_.valid() && radar_.value().lead_valid && ctx.speed > 0.5) {
    ctx.lead_valid = true;
    ctx.hwt = radar_.value().lead_distance / ctx.speed;
    // RS = ego - lead (paper's sign convention): positive when closing.
    ctx.rel_speed = -radar_.value().lead_rel_speed;
  }

  if (model_.valid()) {
    const auto& m = model_.value();
    ctx.perception_valid =
        m.left_line_prob > 0.2 && m.right_line_prob > 0.2;
    if (ctx.perception_valid) {
      // Lane-line offsets are measured from the vehicle centre; the edge
      // distance that matters for departure is from the body side.
      ctx.d_left = m.left_lane_line - half_width_;
      ctx.d_right = -m.right_lane_line - half_width_;
    }
  }

  if (car_.valid()) {
    ctx.cruise_enabled = car_.value().cruise_enabled;
    ctx.cruise_speed = car_.value().cruise_speed;
  }
  return ctx;
}

}  // namespace scaa::attack
