#include "attack/engine.hpp"

namespace scaa::attack {

AttackEngine::AttackEngine(const AttackConfig& config, msg::PubSubBus& msg_bus,
                           can::CanBus& can_bus, const can::Database& db,
                           double half_width, util::Rng rng)
    : inference_(msg_bus, half_width), table_(config.table), attacker_(db) {
  attacker_.attach(can_bus);
  reset(config, half_width, rng);
}

void AttackEngine::reset(const AttackConfig& config, double half_width,
                         util::Rng rng) {
  // The eavesdropper subscriptions and the CAN interceptor stay attached
  // (the attacker's foothold survives a World reset by design).
  type_ = config.type;
  inference_.reset(half_width);
  table_ = ContextTable(config.table);
  strategy_ = Strategy(config.strategy, config.type, config.strategy_params,
                       rng);
  corruption_ = ValueCorruption(config.strategic_values);
  attacker_.reset();
  cycles_active_ = 0;
  active_now_ = false;
}

void AttackEngine::step(double time, double dt) {
  const SafetyContext context = inference_.infer(time);
  const ContextMatch match = table_.match(context);
  const ActivationDecision decision = strategy_.decide(context, match, time);
  active_now_ = decision.active;
  if (decision.active) ++cycles_active_;

  const AttackValues values = corruption_.compute(
      decision, type_, context.speed, context.cruise_speed, dt);
  attacker_.set_values(values);
}

AttackStats AttackEngine::stats() const noexcept {
  AttackStats s;
  s.first_activation = strategy_.first_activation();
  s.active_now = active_now_;
  s.frames_corrupted = attacker_.frames_corrupted();
  s.cycles_active = cycles_active_;
  return s;
}

}  // namespace scaa::attack
