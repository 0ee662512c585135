// Measurement-epoch study (§III.C: "Periodically, all policy proxies send
// their measured traffic volumes to the controller").
//
// The controller never sees the future: in epoch i it balances with split
// ratios computed from epoch i-1's proxy reports. This driver replays a
// sequence of (possibly drifting) workloads under three regimes and records
// the realized max load per epoch:
//   * oracle      — LP solved on the epoch's own traffic (upper bound on
//                    what re-optimization can achieve),
//   * reoptimized — LP solved on the previous epoch's measurement (the
//                    paper's actual operating mode),
//   * stale       — LP solved once on epoch 0 and never refreshed.
// The gap stale-vs-reoptimized quantifies why periodic measurement matters.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analytic/load_evaluator.hpp"
#include "core/controller.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::analytic {

struct EpochOutcome {
  std::uint64_t max_load = 0;     // realized max over all middleboxes
  std::uint64_t total_packets = 0;
  double lambda = 0;              // the LP's own prediction for its input traffic
};

struct EpochStudy {
  std::vector<EpochOutcome> oracle;
  std::vector<EpochOutcome> reoptimized;
  std::vector<EpochOutcome> stale;
};

/// Run the study over `epochs` workloads (all against the same network,
/// deployment and policies). Epoch 0 of `reoptimized` uses its own
/// measurement (there is no prior epoch), like `oracle`.
EpochStudy run_epoch_study(const net::GeneratedNetwork& network, core::Deployment& deployment,
                           const policy::PolicyList& policies, core::Controller& controller,
                           const std::vector<workload::GeneratedFlows>& epochs);

/// One epoch of a policy-driven (closed-loop) replay.
struct PolicyEpoch {
  EpochOutcome outcome;
  bool solved = false;           // the plan serving this epoch came from a fresh solve
  std::size_t pushes = 0;        // devices whose serialized slice changed on that solve
  std::uint64_t push_bytes = 0;  // bytes of those changed slices (plan churn)
  std::size_t lp_pivots = 0;     // simplex pivots of that solve
  bool lp_warm_started = false;  // that solve re-used the previous basis
  /// Per-middlebox realized loads (deployment order) — what a drift
  /// detector watches.
  std::vector<double> loads;
};

struct PolicyStudy {
  std::vector<PolicyEpoch> epochs;
  std::uint64_t solves = 0;  // LP solves across the run (>= 1: the bootstrap)
  std::uint64_t pushes = 0;
  std::uint64_t push_bytes = 0;
  std::uint64_t lp_pivots = 0;
  std::uint64_t lp_warm_starts = 0;  // solves that re-used the previous basis
};

/// Decides, AFTER epoch `epoch` realized `loads` under the current plan and
/// measured `measured`, whether the next epoch should run on a plan freshly
/// solved from that measurement (true) or keep the current plan (false).
/// This is where control::DriftDetector plugs in.
using ReplanDecision = std::function<bool(
    std::size_t epoch, const std::vector<double>& loads, const workload::TrafficMatrix& measured)>;

/// Replay `epochs` under a caller-provided replan policy — the analytic twin
/// of the online control::ReoptimizePolicy loop. Epoch 0 always solves on
/// its own measurement (bootstrap, like run_epoch_study's reoptimized arm);
/// from then on `should_replan` gates every re-solve. Pushes are counted by
/// fingerprint comparison of per-device serialized slices — the same
/// differential-distribution rule ControllerAgent::replan applies, so the
/// bench's push counts are directly comparable to the online loop's.
/// Capacity is normalized exactly as in run_epoch_study so λ values and
/// realized loads compare across arms.
PolicyStudy run_policy_study(const net::GeneratedNetwork& network, core::Deployment& deployment,
                             const policy::PolicyList& policies, core::Controller& controller,
                             const std::vector<workload::GeneratedFlows>& epochs,
                             const ReplanDecision& should_replan);

}  // namespace sdmbox::analytic
