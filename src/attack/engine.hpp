#pragma once

/// @file engine.hpp
/// The attack engine: eavesdrop -> infer context -> select activation ->
/// corrupt values -> rewrite CAN frames (paper Fig. 1 and §III-C).
///
/// Everything the attacker knows, and where it comes from:
///  * eavesdropped each cycle from the unauthenticated pub/sub bus:
///    `gpsLocationExternal` (ego speed), `modelV2` (lane lines),
///    `radarState` (lead gap and relative speed) and `carState` (whether
///    the ADAS is engaged — the driver-takeover stop rule — and its set
///    speed, the Eq. 1 ceiling);
///  * reconnaissance the paper grants: the DBC (signal layouts of the
///    command frames), the target car's `half_width` (spec sheet), the
///    Table I thresholds (AttackConfig::table) and the Table III timing
///    constants (Strategy);
///  * experiment control: Fig. 8's forced window
///    (AttackConfig::strategy_params).
/// Its only output is the rewritten CAN command frames. It reads no
/// simulator state and is told nothing by the World.

#include "attack/can_attacker.hpp"
#include "attack/context.hpp"
#include "attack/context_table.hpp"
#include "attack/strategies.hpp"
#include "attack/value_corruption.hpp"

namespace scaa::attack {

/// Full configuration of one attack campaign element.
struct AttackConfig {
  StrategyKind strategy = StrategyKind::kContextAware;
  AttackType type = AttackType::kAcceleration;
  bool strategic_values = true;   ///< Eq. 1-3 corruption vs. fixed maxima
  ContextTableParams table;       ///< Table I thresholds
  StrategyParams strategy_params; ///< Fig. 8's forced window
};

/// Per-simulation attack statistics.
struct AttackStats {
  double first_activation = -1.0;  ///< [s]; negative = never activated
  bool active_now = false;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t cycles_active = 0;
};

/// Orchestrates one attack instance inside a simulation.
class AttackEngine {
 public:
  /// Wires the eavesdropper into @p msg_bus and the corruptor into
  /// @p can_bus, then reset()s. @p half_width is the target vehicle's half
  /// body width (public spec data used for lane-edge distance inference).
  AttackEngine(const AttackConfig& config, msg::PubSubBus& msg_bus,
               can::CanBus& can_bus, const can::Database& db,
               double half_width, util::Rng rng);

  /// Arm for a new simulation on the same buses and database: the
  /// eavesdropped latches clear (subscriptions stay attached), the
  /// strategy is re-drawn from @p rng, and all counters zero.
  /// Allocation-free.
  void reset(const AttackConfig& config, double half_width, util::Rng rng);

  /// Run one cycle at simulation @p time; must be called after sensors
  /// publish and before the ADAS command frames for this cycle are needed
  /// (the interceptor state persists until changed).
  void step(double time, double dt);

  /// Statistics for the metrics layer.
  AttackStats stats() const noexcept;

 private:
  AttackType type_ = AttackType::kAcceleration;
  ContextInference inference_;
  ContextTable table_;
  Strategy strategy_;
  ValueCorruption corruption_;
  CanAttacker attacker_;
  std::uint64_t cycles_active_ = 0;
  bool active_now_ = false;
};

}  // namespace scaa::attack
