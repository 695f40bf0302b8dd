#include "can/database.hpp"

#include <stdexcept>

#include "can/checksum.hpp"
#include "can/dbc_text.hpp"

namespace scaa::can {

namespace {

/// The simulated car's DBC: the one source of its CAN layouts, in the
/// format the paper's attacker reads (Fig. 4). Every message carries a
/// Honda checksum + rolling counter, which the DBC grammar cannot say;
/// simulated_car() tags them after parsing.
constexpr const char* kSimulatedCarDbc = R"dbc(VERSION ""

BS_:

BU_: EON CAR

BO_ 228 STEERING_CONTROL: 5 EON
 SG_ STEER_ANGLE_CMD : 7|16@0- (0.01,0) [-327.68|327.67] "deg" CAR
 SG_ STEER_ENABLED : 23|1@0+ (1,0) [0|1] "" CAR

BO_ 506 GAS_BRAKE_COMMAND: 6 EON
 SG_ ACCEL_CMD : 7|16@0- (0.001,0) [-32.768|32.767] "m/s^2" CAR
 SG_ BRAKE_REQUEST : 23|1@0+ (1,0) [0|1] "" CAR

BO_ 344 SPEED: 4 EON
 SG_ SPEED : 7|16@0+ (0.01,0) [0|655.35] "m/s" CAR

BO_ 342 STEER_ANGLE_SENSOR: 4 EON
 SG_ STEER_ANGLE : 7|16@0- (0.01,0) [-327.68|327.67] "deg" CAR

BO_ 780 ACC_HUD: 3 EON
 SG_ FCW : 7|1@0+ (1,0) [0|1] "" CAR

CM_ BO_ 228 "Lateral command: road-wheel angle request, +left, and enable flag";
CM_ BO_ 506 "Longitudinal command: acceleration request";
CM_ BO_ 344 "Wheel-speed derived vehicle speed (sensor to ADAS)";
CM_ BO_ 342 "Steering angle sensor";
CM_ BO_ 780 "HUD message carrying the FCW flag (ADAS to dash)";
)dbc";

}  // namespace

Database::Database(std::vector<DbcMessage> messages)
    : msgs_(std::move(messages)) {
  id_sums_.reserve(msgs_.size());
  for (const auto& m : msgs_) {
    if (m.size == 0 || m.size > kMaxDlc)
      throw std::invalid_argument("Database: message size must be 1..8");
    // The rule parse_dbc applies to text, for hand-built layouts too.
    for (const DbcSignal& sig : m.signals) {
      if (sig.min_dlc() > m.size)
        throw std::invalid_argument("Database: signal " + sig.name() +
                                    " runs past " + m.name + "'s " +
                                    std::to_string(m.size) + " bytes");
    }
    id_sums_.push_back(static_cast<std::uint8_t>(can::id_nibble_sum(m.id)));
  }
  schema_ = MessageSchema(msgs_);
}

const DbcMessage* Database::by_id(std::uint32_t id) const noexcept {
  const MessageHandle h = schema_.message_by_id(id);
  return h.valid() ? &msgs_[h.index] : nullptr;
}

const DbcMessage* Database::by_name(const std::string& name) const noexcept {
  const MessageHandle h = schema_.message_by_name(name);
  return h.valid() ? &msgs_[h.index] : nullptr;
}

MessageHandle Database::handle(const std::string& message_name) const {
  const MessageHandle h = schema_.message_by_name(message_name);
  if (!h.valid())
    throw std::invalid_argument("Database: unknown message " + message_name);
  return h;
}

SignalHandle Database::signal_handle(const std::string& message_name,
                                     const std::string& signal_name) const {
  const SignalHandle h =
      schema_.signal_by_name(handle(message_name), signal_name);
  if (!h.valid())
    throw std::invalid_argument("Database: unknown signal " + signal_name +
                                " in " + message_name);
  return h;
}

Database Database::simulated_car() {
  std::vector<DbcMessage> msgs = parse_dbc(kSimulatedCarDbc);
  for (DbcMessage& m : msgs) m.checksum = ChecksumKind::kHonda;
  return Database(std::move(msgs));
}

}  // namespace scaa::can
