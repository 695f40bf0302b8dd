#pragma once

/// @file tables.hpp
/// Table V's driver-on/driver-off pairing of campaign results.

#include <map>
#include <vector>

#include "exp/campaign.hpp"

namespace scaa::exp {

/// Per-attack-type slice for Table V.
struct TypeOutcome {
  Aggregate agg;                      ///< driver-on results
  std::size_t prevented_hazards = 0;  ///< hazard w/o driver, none with driver
  std::size_t new_hazards = 0;        ///< hazard type only with driver
  std::size_t prevented_accidents = 0;
  std::size_t driver_preventions = 0; ///< driver engaged & target hazard avoided
  std::size_t nodriver_hazards = 0;   ///< reference: hazards with driver off
  std::size_t nodriver_accidents = 0;
};

/// Pair driver-on and driver-off campaigns item-by-item (same seeds!) to
/// compute the prevention columns of Table V. Both vectors must be the same
/// grid in the same order.
std::map<attack::AttackType, TypeOutcome> pair_driver_outcomes(
    const std::vector<CampaignResult>& with_driver,
    const std::vector<CampaignResult>& without_driver);

}  // namespace scaa::exp
