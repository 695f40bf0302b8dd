#pragma once

/// @file can_attacker.hpp
/// CAN-level command corruption with checksum repair (paper Fig. 4).

#include <cstdint>

#include "attack/value_corruption.hpp"
#include "can/bus.hpp"
#include "can/packer.hpp"

namespace scaa::attack {

/// Intercepts actuator command frames on the CAN bus and rewrites the
/// targeted signals, then recomputes the Honda checksum so the corrupted
/// frame still validates at the receiver. Positioned like the paper's
/// malware: after the ADAS software (and, on the simulated rig, after the
/// bypassed Panda), before the actuators.
class CanAttacker {
 public:
  /// @p db must outlive the attacker.
  explicit CanAttacker(const can::Database& db);

  /// Attach to @p bus as an interceptor; returns the attachment id.
  std::uint64_t attach(can::CanBus& bus);

  /// Set the corruption to apply from now on (empty = passthrough).
  void set_values(const AttackValues& values) noexcept { values_ = values; }

  /// Back to the freshly constructed state — passthrough values, zeroed
  /// counters — keeping the resolved signal layouts (the database is fixed
  /// for the attacker's lifetime) and any bus attachment.
  void reset() noexcept {
    values_ = AttackValues{};
    corrupted_ = 0;
    last_original_steer_ = 0.0;
  }

  /// Frames actually modified so far.
  std::uint64_t frames_corrupted() const noexcept { return corrupted_; }

  /// The steering command observed on the wire this cycle, before
  /// corruption [rad] (used by tests; attacker-visible anyway by tapping).
  double last_original_steer() const noexcept { return last_original_steer_; }

 private:
  bool intercept(can::CanFrame& frame);

  // Signal layouts resolved once from the (public) DBC at construction —
  // the recon step of the paper's attacker; interception is then
  // allocation- and lookup-free. The database must outlive the attacker.
  const can::DbcSignal* steer_angle_sig_;
  const can::DbcSignal* accel_sig_;
  const can::DbcSignal* brake_request_sig_;
  unsigned steer_id_sum_;      ///< address part of each frame's checksum
  unsigned gas_brake_id_sum_;
  AttackValues values_;
  std::uint64_t corrupted_ = 0;
  double last_original_steer_ = 0.0;
};

}  // namespace scaa::attack
