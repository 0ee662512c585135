// Knobs for the drift-triggered re-optimization loop.
//
// One struct shared by ReoptimizePolicy, exp::ScenarioSpec and scenario_cli,
// so spec files and CLI flags stay mechanically in sync. Kept dependency-free
// so embedders (exp::ScenarioSpec in particular) can hold it by value.
#pragma once

#include <cstdint>

namespace sdmbox::control {

/// Configuration of the measurement-driven re-optimization loop (paper §III.E:
/// the controller periodically re-solves the load-balancing LP when measured
/// traffic drifts from the matrix the current plan was optimized for).
struct ReoptimizeOptions {
  /// Seconds between drift evaluations. Embedders that gate the loop on a
  /// spec treat 0 as "loop disabled".
  double epoch_period = 0.5;

  /// Total-variation drift (in [0,1]) between the reference load shares and
  /// the current window that triggers a re-plan.
  double drift_threshold = 0.1;

  /// Epochs that must elapse after a solve before the next trigger
  /// (hysteresis against re-solving on every report).
  int cooldown_epochs = 2;

  /// Minimum load reports that must arrive in a window before it is trusted.
  std::uint64_t min_reports = 1;

  friend bool operator==(const ReoptimizeOptions&, const ReoptimizeOptions&) = default;
};

}  // namespace sdmbox::control
