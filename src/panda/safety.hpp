#pragma once

/// @file safety.hpp
/// Panda-style firmware safety checks on outgoing actuator CAN frames.
///
/// Comma.ai's Panda OBD adapter enforces per-message envelopes in firmware,
/// independent of the OpenPilot process. The paper notes that when OpenPilot
/// runs against CARLA the Panda hardware is bypassed, so these checks are
/// NOT enforced in the simulation loop — but the attacker treats them as
/// the constraint set for strategic value corruption (Eq. 1) so the attack
/// would also survive on a real car. We therefore implement the checker
/// both (a) as an optional bus interceptor and (b) as a queryable limit set.

#include <cstdint>

#include "can/bus.hpp"
#include "can/packer.hpp"

namespace scaa::panda {

/// The firmware envelope (matches adas::SafetyLimits where they overlap;
/// kept separate because on a real car these are independent
/// implementations — and an attacker positioned after Panda bypasses them).
struct PandaLimits {
  double max_accel = 2.0;    ///< [m/s^2]
  double min_accel = -3.5;   ///< [m/s^2]
  double max_steer_deg = 0.75;       ///< [deg] absolute angle command
  double max_steer_rate_deg = 0.5;   ///< [deg] per-frame angle delta
};

/// Statistics of enforcement decisions.
struct PandaStats {
  std::uint64_t frames_checked = 0;
  std::uint64_t frames_blocked = 0;
  std::uint64_t checksum_rejects = 0;
};

/// Frame-level safety checker. Attach to a CanBus as an interceptor with
/// `attach(bus)`, or call `check()` directly.
class PandaSafety {
 public:
  PandaSafety(const can::Database& db, PandaLimits limits);

  /// Validate one frame. Returns false when the frame must be blocked
  /// (limit violation or bad checksum). Non-command frames pass through.
  bool check(const can::CanFrame& frame);

  /// Attach as an interceptor on @p bus; returns the attachment id.
  std::uint64_t attach(can::CanBus& bus);

  /// Zero the statistics and per-message frame history for a new
  /// simulation, keeping the resolved signal handles and any bus
  /// attachment. Allocation-free.
  void reset() noexcept {
    stats_ = PandaStats{};
    parser_.reset();
    has_last_steer_ = false;
    last_steer_deg_ = 0.0;
  }

  /// Enforcement statistics.
  const PandaStats& stats() const noexcept { return stats_; }

  /// The envelope (the attacker's Eq. 1 constraint set).
  const PandaLimits& limits() const noexcept { return limits_; }

 private:
  PandaLimits limits_;
  PandaStats stats_;
  can::CanParser parser_;
  // Signals resolved once: check() validates the frame and decodes the
  // one signal it polices, allocation-free (firmware has no heap either).
  // Borrowed from the database.
  const can::DbcSignal* steer_angle_sig_;
  const can::DbcSignal* accel_sig_;
  bool has_last_steer_ = false;
  double last_steer_deg_ = 0.0;
};

}  // namespace scaa::panda
