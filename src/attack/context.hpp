#pragma once

/// @file context.hpp
/// Eavesdropping and safety-context inference (paper §III-C, steps 1-2).
///
/// The attacker subscribes — without any authentication, because the
/// messaging layer has none — to `gpsLocationExternal`, `modelV2`,
/// `radarState` and `carState`, and derives the human-interpretable state
/// variables of the safety specification (Headway Time, Relative Speed,
/// the distances to the current lane's edges) plus the ADAS's own cruise
/// state: whether it is engaged and its set speed.

#include "msg/bus.hpp"

namespace scaa::attack {

/// The inferred safety context (Table I's variables).
struct SafetyContext {
  double time = 0.0;        ///< simulation time [s]
  double speed = 0.0;       ///< Ego speed from GPS [m/s]
  bool lead_valid = false;
  double hwt = 1e9;         ///< Headway Time = distance / ego speed [s]
  double rel_speed = 0.0;   ///< RS = ego speed - lead speed [m/s]
  double d_left = 1e9;      ///< distance from body side to left lane edge [m]
  double d_right = 1e9;     ///< distance from body side to right lane edge [m]
  bool perception_valid = false;  ///< lane-line data fresh
  bool cruise_enabled = true;  ///< carState: ADAS engaged (true until heard)
  double cruise_speed = 0.0;   ///< carState: set speed [m/s]; 0 until heard
};

/// Passive eavesdropper: latches the newest message on each relevant topic
/// and computes the context on demand.
class ContextInference {
 public:
  /// Subscribes to the four topics on @p bus; @p half_width is the target
  /// car's half body width (public spec sheet data).
  ContextInference(msg::PubSubBus& bus, double half_width);

  /// Forget everything eavesdropped so far (new simulation on the same
  /// bus): the four latches clear while their subscriptions stay attached.
  void reset(double half_width) noexcept {
    gps_.reset();
    model_.reset();
    radar_.reset();
    car_.reset();
    half_width_ = half_width;
  }

  /// Compute the current context at simulation time @p time.
  SafetyContext infer(double time) const noexcept;

  /// Raw message access (for tests and the value-corruption stage).
  const msg::GpsLocationExternal& gps() const noexcept { return gps_.value(); }
  const msg::RadarState& radar() const noexcept { return radar_.value(); }
  const msg::ModelV2& model() const noexcept { return model_.value(); }

 private:
  msg::Latest<msg::GpsLocationExternal> gps_;
  msg::Latest<msg::ModelV2> model_;
  msg::Latest<msg::RadarState> radar_;
  msg::Latest<msg::CarState> car_;
  double half_width_;
};

}  // namespace scaa::attack
