#pragma once

/// @file database.hpp
/// The opendbc-like database for the simulated car.
///
/// The car's layouts have one source: the DBC text committed in
/// database.cpp, which simulated_car() parses (can/dbc_text.hpp). Message
/// ids and layouts follow the Honda convention the paper shows (steering
/// control at 0xE4, Fig. 4). Physical units on the wire:
///   STEERING_CONTROL.STEER_ANGLE_CMD   centi-degrees (signed, +left)
///   GAS_BRAKE_COMMAND.ACCEL_CMD        milli-m/s^2 (signed)
///   SPEED.SPEED                        centi-m/s
/// Every message carries a Honda checksum + rolling counter. The constants
/// below name what the text declares; a test pins them to it.

#include <optional>
#include <vector>

#include "can/dbc.hpp"
#include "can/schema.hpp"

namespace scaa::can {

/// Well-known message ids of the simulated car.
namespace msg_id {
inline constexpr std::uint32_t kSteeringControl = 0xE4;
inline constexpr std::uint32_t kGasBrakeCommand = 0x1FA;
inline constexpr std::uint32_t kSpeed = 0x158;
inline constexpr std::uint32_t kSteerAngleSensor = 0x156;
inline constexpr std::uint32_t kAccHud = 0x30C;
}  // namespace msg_id

/// Signal names (single source of truth for packer/parser call sites).
namespace sig {
inline constexpr const char* kSteerAngleCmd = "STEER_ANGLE_CMD";
inline constexpr const char* kSteerEnabled = "STEER_ENABLED";
inline constexpr const char* kAccelCmd = "ACCEL_CMD";
inline constexpr const char* kBrakeRequest = "BRAKE_REQUEST";
inline constexpr const char* kSpeed = "SPEED";
inline constexpr const char* kSteerAngle = "STEER_ANGLE";
inline constexpr const char* kFcw = "FCW";
}  // namespace sig

/// In-memory DBC database: lookup by id or name, plus the precompiled
/// MessageSchema that the allocation-free codec paths resolve through.
class Database {
 public:
  /// Throws std::invalid_argument for a message size outside 1..8 or a
  /// signal that runs past its message's size.
  explicit Database(std::vector<DbcMessage> messages);

  /// Message layout by CAN id; nullptr when unknown. O(1).
  const DbcMessage* by_id(std::uint32_t id) const noexcept;

  /// Message layout by name; nullptr when unknown.
  const DbcMessage* by_name(const std::string& name) const noexcept;

  /// All messages.
  const std::vector<DbcMessage>& messages() const noexcept { return msgs_; }

  /// The precompiled name/id lookup tables.
  const MessageSchema& schema() const noexcept { return schema_; }

  /// Message layout for a valid handle (no bounds check: handles come from
  /// this database's schema, resolved once at setup).
  const DbcMessage& message(MessageHandle h) const noexcept {
    return msgs_[h.index];
  }

  /// Signal layout for a valid handle.
  const DbcSignal& signal(SignalHandle h) const noexcept {
    return msgs_[h.message].signals[h.signal];
  }

  /// Nibble sum of the message's id (can::id_nibble_sum), the fixed
  /// address part of its Honda checksum.
  unsigned id_nibble_sum(MessageHandle h) const noexcept {
    return id_sums_[h.index];
  }

  /// Resolve a message name to a handle; throws std::invalid_argument for
  /// unknown names (setup-time API: fail loudly, once).
  MessageHandle handle(const std::string& message_name) const;

  /// Resolve a (message, signal) name pair; throws std::invalid_argument
  /// when either is unknown.
  SignalHandle signal_handle(const std::string& message_name,
                             const std::string& signal_name) const;

  /// Build the database for the simulated car: parse its DBC text and tag
  /// every message with the Honda checksum, which DBC cannot express.
  static Database simulated_car();

 private:
  std::vector<DbcMessage> msgs_;
  std::vector<std::uint8_t> id_sums_;  ///< per message index
  MessageSchema schema_;
};

}  // namespace scaa::can
