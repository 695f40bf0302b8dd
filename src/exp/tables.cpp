#include "exp/tables.hpp"

#include <stdexcept>

namespace scaa::exp {

std::map<attack::AttackType, TypeOutcome> pair_driver_outcomes(
    const std::vector<CampaignResult>& with_driver,
    const std::vector<CampaignResult>& without_driver) {
  if (with_driver.size() != without_driver.size())
    throw std::invalid_argument(
        "pair_driver_outcomes: campaigns differ in size");

  std::map<attack::AttackType, std::vector<CampaignResult>> by_type;
  std::map<attack::AttackType, TypeOutcome> out;

  for (std::size_t i = 0; i < with_driver.size(); ++i) {
    const auto& on = with_driver[i];
    const auto& off = without_driver[i];
    if (on.item.type != off.item.type || on.item.seed != off.item.seed)
      throw std::invalid_argument(
          "pair_driver_outcomes: campaigns are not the same grid");

    auto& slot = out[on.item.type];
    by_type[on.item.type].push_back(on);

    if (off.summary.any_hazard) ++slot.nodriver_hazards;
    if (off.summary.any_accident) ++slot.nodriver_accidents;
    if (off.summary.any_hazard && !on.summary.any_hazard)
      ++slot.prevented_hazards;
    if (off.summary.any_accident && !on.summary.any_accident)
      ++slot.prevented_accidents;
    if (on.summary.any_hazard && !off.summary.any_hazard) ++slot.new_hazards;
    // "New hazard" also counts a hazard *class* the attack did not produce
    // without the driver (e.g. stopping in-lane after an evasive brake).
    else if (on.summary.any_hazard && off.summary.any_hazard &&
             on.summary.first_hazard != off.summary.first_hazard)
      ++slot.new_hazards;
    if (on.summary.driver_engaged && off.summary.any_hazard &&
        !on.summary.any_hazard)
      ++slot.driver_preventions;
  }

  for (auto& [type, slot] : out) slot.agg = aggregate(by_type[type]);
  return out;
}

}  // namespace scaa::exp
