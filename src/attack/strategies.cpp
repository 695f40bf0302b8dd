#include "attack/strategies.hpp"

namespace scaa::attack {

std::string to_string(AttackType type) {
  switch (type) {
    case AttackType::kAcceleration: return "Acceleration";
    case AttackType::kDeceleration: return "Deceleration";
    case AttackType::kSteeringLeft: return "Steering-Left";
    case AttackType::kSteeringRight: return "Steering-Right";
    case AttackType::kAccelerationSteering: return "Acceleration-Steering";
    case AttackType::kDecelerationSteering: return "Deceleration-Steering";
  }
  return "?";
}

std::string to_string(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kNone: return "No Attacks";
    case StrategyKind::kRandomStDur: return "Random-ST+DUR";
    case StrategyKind::kRandomSt: return "Random-ST";
    case StrategyKind::kRandomDur: return "Random-DUR";
    case StrategyKind::kContextAware: return "Context-Aware";
  }
  return "?";
}

AttackChannels channels_of(AttackType type) noexcept {
  switch (type) {
    case AttackType::kAcceleration: return {true, false, false};
    case AttackType::kDeceleration: return {false, true, false};
    case AttackType::kSteeringLeft:
    case AttackType::kSteeringRight: return {false, false, true};
    case AttackType::kAccelerationSteering: return {true, false, true};
    case AttackType::kDecelerationSteering: return {false, true, true};
  }
  return {};
}

namespace {

// Table III timing [s].
constexpr double kMinStart = 5.0;  ///< also the context starts' warm-up
constexpr double kMaxStart = 40.0;
constexpr double kMinDuration = 0.5;
constexpr double kMaxDuration = 2.5;
constexpr double kFixedDuration = 2.5;  ///< Random-ST: driver reaction time

/// Fixed steering direction of pure steering types; 0 for combined types
/// (their direction is decided at activation).
int fixed_direction(AttackType type) noexcept {
  if (type == AttackType::kSteeringLeft) return 1;
  if (type == AttackType::kSteeringRight) return -1;
  return 0;
}

/// Shared context-trigger logic: does the current context enable this
/// attack type, and with which steering direction?
ActivationDecision context_trigger(AttackType type,
                                   const SafetyContext& ctx,
                                   const ContextMatch& match) noexcept {
  ActivationDecision d;
  const AttackChannels ch = channels_of(type);

  bool longitudinal_ok = false;
  if (ch.accel)
    longitudinal_ok = match.enabled(UnsafeAction::kAcceleration);
  if (ch.brake)
    longitudinal_ok = match.enabled(UnsafeAction::kDeceleration);

  int steer_dir = 0;
  if (ch.steer) {
    if (type == AttackType::kSteeringLeft &&
        match.enabled(UnsafeAction::kSteerLeft))
      steer_dir = 1;
    else if (type == AttackType::kSteeringRight &&
             match.enabled(UnsafeAction::kSteerRight))
      steer_dir = -1;
    else if (type == AttackType::kAccelerationSteering ||
             type == AttackType::kDecelerationSteering) {
      // Combined types take either lane-edge rule; pick the matched side,
      // or (when triggered longitudinally) the nearer edge.
      if (match.enabled(UnsafeAction::kSteerLeft)) steer_dir = 1;
      else if (match.enabled(UnsafeAction::kSteerRight)) steer_dir = -1;
      else if (longitudinal_ok)
        steer_dir = ctx.d_left < ctx.d_right ? 1 : -1;
    }
  }

  if (ch.steer && !ch.accel && !ch.brake) {
    d.active = steer_dir != 0;
  } else if (ch.steer) {
    // Combined: active when either the longitudinal rule or an edge rule
    // matches; both channels are injected while active (Table II).
    d.active = longitudinal_ok || steer_dir != 0;
    if (d.active && steer_dir == 0)
      steer_dir = ctx.d_left < ctx.d_right ? 1 : -1;
  } else {
    d.active = longitudinal_ok;
  }
  d.steer_direction = steer_dir;
  return d;
}

}  // namespace

Strategy::Strategy(StrategyKind kind, AttackType type,
                   const StrategyParams& params, util::Rng rng)
    : type_(type) {
  // The draw order below is part of the seeded contract.
  switch (kind) {
    case StrategyKind::kNone:
      return;
    case StrategyKind::kRandomStDur:
    case StrategyKind::kRandomSt:
      start_ = params.forced_start >= 0.0
                   ? params.forced_start
                   : rng.uniform(kMinStart, kMaxStart);
      duration_ = params.forced_duration >= 0.0 ? params.forced_duration
                  : kind == StrategyKind::kRandomStDur
                      ? rng.uniform(kMinDuration, kMaxDuration)
                      : kFixedDuration;
      direction_ = fixed_direction(type);
      if (direction_ == 0) direction_ = rng.bernoulli(0.5) ? 1 : -1;
      return;
    case StrategyKind::kRandomDur:
      context_start_ = true;
      duration_ = rng.uniform(kMinDuration, kMaxDuration);
      return;
    case StrategyKind::kContextAware:
      // Latches: once the system is being driven toward the hazard the
      // enabling context keeps holding (closing gap keeps HWT shrinking, a
      // crossed lane edge keeps d_edge <= 0.1 m, braking keeps RS <= 0), so
      // only the driver's takeover or the end of the scenario ends it.
      context_start_ = true;
      duration_ = kNever;
      return;
  }
}

ActivationDecision Strategy::decide(const SafetyContext& ctx,
                                    const ContextMatch& match,
                                    double time) noexcept {
  if (!ctx.cruise_enabled) stopped_ = true;
  if (stopped_) return {};
  // Context starts sit out the startup transient (the same lower bound
  // the random windows use).
  if (context_start_ && start_ == kNever && time >= kMinStart) {
    const ActivationDecision d = context_trigger(type_, ctx, match);
    if (d.active) {
      start_ = time;
      direction_ = d.steer_direction;
    }
  }
  if (!(time >= start_ && time < start_ + duration_)) return {};
  if (first_activation_ < 0.0) first_activation_ = time;
  return {true, channels_of(type_).steer ? direction_ : 0};
}

}  // namespace scaa::attack
