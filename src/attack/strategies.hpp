#pragma once

/// @file strategies.hpp
/// Attack types (paper Table II) and activation strategies (Table III).

#include <cstdint>
#include <limits>
#include <string>

#include "attack/context_table.hpp"
#include "util/rng.hpp"

namespace scaa::attack {

/// The six fault-injection attack types of Table II.
enum class AttackType : std::uint8_t {
  kAcceleration = 0,
  kDeceleration,
  kSteeringLeft,
  kSteeringRight,
  kAccelerationSteering,
  kDecelerationSteering,
};

/// All attack types, for iteration in campaigns.
inline constexpr AttackType kAllAttackTypes[] = {
    AttackType::kAcceleration,        AttackType::kDeceleration,
    AttackType::kSteeringLeft,        AttackType::kSteeringRight,
    AttackType::kAccelerationSteering, AttackType::kDecelerationSteering,
};

/// The four activation strategies of Table III (plus "no attack").
enum class StrategyKind : std::uint8_t {
  kNone = 0,        ///< baseline: no attack at all
  kRandomStDur,     ///< random start time and random duration
  kRandomSt,        ///< random start time, fixed 2.5 s duration
  kRandomDur,       ///< context-aware start time, random duration
  kContextAware,    ///< context-aware start time and duration
};

std::string to_string(AttackType type);
std::string to_string(StrategyKind kind);

/// Which output channels an attack type touches.
struct AttackChannels {
  bool accel = false;   ///< corrupt the gas/accel command upward
  bool brake = false;   ///< corrupt the brake command (forced decel)
  bool steer = false;   ///< corrupt the steering command
};

/// Channel map of each attack type.
AttackChannels channels_of(AttackType type) noexcept;

/// Per-step activation decision produced by a strategy.
struct ActivationDecision {
  bool active = false;
  int steer_direction = 0;  ///< +1 left, -1 right, 0 unused
};

/// The one strategy knob an experiment sets: when >= 0, the window
/// strategies (Random-ST+DUR, Random-ST) use these instead of random
/// draws — the hook the Fig. 8 parameter-space sweep uses to place grid
/// points. Every other Table III timing value is a constant of Strategy.
struct StrategyParams {
  double forced_start = -1.0;     ///< [s]
  double forced_duration = -1.0;  ///< [s]
};

/// An activation strategy of Table III: decides, every control cycle,
/// whether the attack is live. It never chooses values — that is the
/// corruption stage. A plain copyable value made of a start rule and a
/// duration:
///  * start: a window start drawn uniformly from 5-40 s (or forced), or
///    the first context match at or after 5 s;
///  * duration: drawn uniformly from 0.5-2.5 s, a fixed 2.5 s (the driver
///    reaction time), or unbounded for Context-Aware.
/// The attack stops for good once the eavesdropped carState reports the
/// ADAS disengaged (SafetyContext::cruise_enabled false): the driver has
/// taken over.
class Strategy {
 public:
  /// No attack (the Table IV baseline): never active.
  Strategy() = default;

  /// Strategy @p kind attacking with @p type; @p rng seeds this
  /// simulation's draws (start time, duration, steering direction).
  Strategy(StrategyKind kind, AttackType type, const StrategyParams& params,
           util::Rng rng);

  /// Decide for the current cycle.
  ActivationDecision decide(const SafetyContext& ctx,
                            const ContextMatch& match, double time) noexcept;

  /// First time the attack went active; negative when never.
  double first_activation() const noexcept { return first_activation_; }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  AttackType type_ = AttackType::kAcceleration;
  bool context_start_ = false;  ///< start at the first context match
  double start_ = kNever;       ///< window start or trigger time [s]
  double duration_ = 0.0;       ///< [s]
  int direction_ = 0;           ///< steering direction while active
  bool stopped_ = false;        ///< the driver took over
  double first_activation_ = -1.0;
};

}  // namespace scaa::attack
