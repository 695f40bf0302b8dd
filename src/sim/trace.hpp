#pragma once

/// @file trace.hpp
/// Per-step trace recording for figures (Fig. 7) and debugging.

#include <cstddef>
#include <vector>

namespace scaa::sim {

/// One recorded step.
struct TraceRow {
  double time = 0.0;
  double ego_s = 0.0;
  double ego_d = 0.0;
  double ego_speed = 0.0;
  double ego_accel = 0.0;
  double ego_steer = 0.0;
  double lane_center = 0.0;
  double lane_left = 0.0;    ///< lateral position of the ego lane's left line
  double lane_right = 0.0;   ///< lateral position of the ego lane's right line
  double lead_gap = -1.0;    ///< [m]; negative when no lead
  double accel_cmd = 0.0;    ///< command as executed (post-attack)
  double steer_cmd = 0.0;    ///< command as executed (post-attack) [rad]
  bool attack_active = false;
  bool alert_active = false;
  bool driver_engaged = false;
};

/// Growable trace of recorded steps.
class Trace {
 public:
  void add(const TraceRow& row) { rows_.push_back(row); }
  const std::vector<TraceRow>& rows() const noexcept { return rows_; }
  std::size_t size() const noexcept { return rows_.size(); }
  void reserve(std::size_t n) { rows_.reserve(n); }

  /// Keep only every @p n-th row (thins the trace for plotting).
  void decimate(std::size_t n);

 private:
  std::vector<TraceRow> rows_;
};

}  // namespace scaa::sim
