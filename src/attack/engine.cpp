#include "attack/engine.hpp"

namespace scaa::attack {

namespace {

/// The strategy must trigger on the rules of the engine's attack type;
/// keep the two in sync no matter how the config was assembled.
StrategyParams synced_params(const AttackConfig& config) noexcept {
  StrategyParams p = config.strategy_params;
  p.type = config.type;
  return p;
}

}  // namespace

AttackEngine::AttackEngine(const AttackConfig& config, msg::PubSubBus& msg_bus,
                           can::CanBus& can_bus, const can::Database& db,
                           double half_width, util::Rng rng)
    : config_(config),
      inference_(msg_bus, half_width),
      table_(config.table),
      strategy_(config.strategy, synced_params(config), rng),
      corruption_(config.strategic_values,
                  config.strategic_values ? CorruptionLimits::strategic()
                                          : CorruptionLimits::fixed(),
                  config.cruise_speed),
      attacker_(db) {
  attacker_.attach(can_bus);
}

void AttackEngine::reset(const AttackConfig& config, double half_width,
                         util::Rng rng) {
  // Same member values the constructor produces, minus the bus wiring:
  // the eavesdropper subscriptions and the CAN interceptor stay attached
  // (the attacker's foothold survives a World reset by design).
  config_ = config;
  inference_.reset(half_width);
  table_ = ContextTable(config.table);
  strategy_.emplace(config.strategy, synced_params(config), rng);
  corruption_ = ValueCorruption(config.strategic_values,
                                config.strategic_values
                                    ? CorruptionLimits::strategic()
                                    : CorruptionLimits::fixed(),
                                config.cruise_speed);
  attacker_.reset();
  cycles_active_ = 0;
  active_now_ = false;
}

void AttackEngine::step(double time, double dt) {
  const SafetyContext context = inference_.infer(time);
  const ContextMatch match = table_.match(context);
  const ActivationDecision decision = strategy_->decide(context, match, time);
  active_now_ = decision.active;
  if (decision.active) ++cycles_active_;

  const AttackValues values = corruption_.compute(
      decision, config_.type, context.speed, dt);
  attacker_.set_values(values);
}

void AttackEngine::notify_driver_engaged(double time) noexcept {
  strategy_->notify_driver_engaged(time);
}

AttackStats AttackEngine::stats() const noexcept {
  AttackStats s;
  s.first_activation = strategy_->first_activation();
  s.active_now = active_now_;
  s.frames_corrupted = attacker_.frames_corrupted();
  s.cycles_active = cycles_active_;
  return s;
}

}  // namespace scaa::attack
