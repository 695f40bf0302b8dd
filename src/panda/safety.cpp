#include "panda/safety.hpp"

#include <cmath>

#include "can/database.hpp"

namespace scaa::panda {

PandaSafety::PandaSafety(const can::Database& db, PandaLimits limits)
    : limits_(limits),
      parser_(db),
      steer_angle_sig_(&db.signal(
          db.signal_handle("STEERING_CONTROL", can::sig::kSteerAngleCmd))),
      accel_sig_(&db.signal(
          db.signal_handle("GAS_BRAKE_COMMAND", can::sig::kAccelCmd))) {}

bool PandaSafety::check(const can::CanFrame& frame) {
  if (frame.id != can::msg_id::kSteeringControl &&
      frame.id != can::msg_id::kGasBrakeCommand)
    return true;  // only command frames are policed

  ++stats_.frames_checked;
  const auto* checked = parser_.validate(frame);
  if (checked == nullptr || !checked->checksum_ok) {
    ++stats_.checksum_rejects;
    ++stats_.frames_blocked;
    return false;
  }

  if (frame.id == can::msg_id::kSteeringControl) {
    const double angle_deg = steer_angle_sig_->decode(frame.data);
    bool ok = std::abs(angle_deg) <= limits_.max_steer_deg;
    if (ok && has_last_steer_)
      ok = std::abs(angle_deg - last_steer_deg_) <= limits_.max_steer_rate_deg;
    if (ok) {
      last_steer_deg_ = angle_deg;
      has_last_steer_ = true;
      return true;
    }
    ++stats_.frames_blocked;
    return false;
  }

  // GAS_BRAKE_COMMAND
  const double accel = accel_sig_->decode(frame.data);
  if (accel >= limits_.min_accel && accel <= limits_.max_accel) return true;
  ++stats_.frames_blocked;
  return false;
}

std::uint64_t PandaSafety::attach(can::CanBus& bus) {
  return bus.attach_interceptor(
      [this](can::CanFrame& frame) { return check(frame); });
}

}  // namespace scaa::panda
