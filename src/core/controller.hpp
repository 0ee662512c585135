// The middlebox controller (§III.A-C).
//
// Pre-configures the software-defined middleboxes and policy proxies; it is
// NOT on the per-flow path (the paper's key architectural difference from
// SDN controllers). Responsibilities:
//  * from the topology and middlebox placement, compute for every proxy/
//    middlebox x and every function e ∈ Π_x the candidate set M_x^e — the
//    k_e closest middleboxes implementing e (k_e = 1 degenerates to the
//    hot-potato assignment m_x^e);
//  * distribute to each device its relevant policy slice P_x: proxies get
//    policies whose source field overlaps their subnet, middleboxes get
//    policies whose action list mentions a function they implement;
//  * under load balancing, ingest proxy traffic reports and solve the
//    Eq. (2) LP (or Eq. (1) for the ablation), then distribute split ratios.
#pragma once

#include "core/deployment.hpp"
#include "core/lp_formulations.hpp"
#include "core/plan.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::core {

struct ControllerParams {
  /// Candidate-set sizes per function; the paper's evaluation uses
  /// FW=4, IDS=4, WP=2, TM=2 (§IV.A). A function not listed gets 1.
  std::vector<std::pair<policy::FunctionId, std::size_t>> k = {
      {policy::kFirewall, 4},
      {policy::kIntrusionDetection, 4},
      {policy::kWebProxy, 2},
      {policy::kTrafficMeasure, 2},
  };
  /// Use the per-(s,d,p) Eq. (1) instead of Eq. (2) (ablation only).
  bool use_eq1 = false;
  /// Warm-start each load-balancing solve from the previous compile's
  /// optimal basis (sparse engine only). The solver falls back to a cold
  /// start whenever the cached basis no longer fits the new instance, so
  /// this is always safe — it only changes how many pivots a re-solve
  /// takes, never the optimal λ. On by default: the closed loop's drift and
  /// measurement re-solves are the common case and they start one basis
  /// exchange away from the previous optimum.
  bool warm_start_lb = true;
  FormulationOptions lp;
};

class Controller {
public:
  /// The network, deployment and policies must outlive the controller.
  /// Validates that every function referenced by a policy is deployed and
  /// that no action list repeats a function.
  Controller(const net::GeneratedNetwork& network, const Deployment& deployment,
             const policy::PolicyList& policies, ControllerParams params = {});

  /// Per-device configuration (assignments + P_x), computed at construction.
  const std::unordered_map<std::uint32_t, NodeConfig>& configs() const noexcept {
    return configs_;
  }

  /// Recompute all assignments against the deployment's CURRENT operational
  /// state (middleboxes marked failed are excluded from every m_x^e and
  /// M_x^e). Call after Deployment::set_failed, then compile fresh plans —
  /// this is the controller-driven failure recovery that makes enforcement
  /// dependable. Throws if a function some policy needs has no live
  /// implementer left.
  void recompute();

  /// Locally patch assignments after a SINGLE middlebox failure (the node
  /// must already be marked failed in the deployment): candidate sets are
  /// rebuilt only for devices whose sets reference `failed`, and only for
  /// the functions it implemented. Equivalent to recompute() — candidate
  /// ranking uses static shortest-path distances, and removing one node
  /// from a ranked list leaves every other candidate's rank unchanged — but
  /// it leaves unaffected NodeConfigs untouched so their encoded slices
  /// stay byte-identical. Returns the affected devices in ascending id
  /// order. Throws (like recompute()) when a function some policy needs has
  /// no live implementer left.
  std::vector<net::NodeId> patch_failed_node(net::NodeId failed);

  /// Solver-side facts about one compile(), for callers that report them
  /// (ReplanOutcome, benches). All zero when the strategy needed no LP.
  struct SolveInfo {
    double lambda = 0;
    LpBuildStats stats;
    std::size_t pivots = 0;
    /// True when the LP re-used the previous compile's basis (warm start).
    bool warm_started = false;
  };

  /// Compile a full enforcement plan. `traffic` is required for
  /// kLoadBalanced (the proxies' measurement reports) and ignored otherwise.
  /// When `solve_out` is non-null it receives the LP solver stats.
  EnforcementPlan compile(StrategyKind strategy,
                          const workload::TrafficMatrix* traffic = nullptr,
                          SolveInfo* solve_out = nullptr) const;

  /// Solve the load-balancing LP and return ratios + solver metrics.
  RatioResult solve_load_balancing(const workload::TrafficMatrix& traffic) const;

  const ControllerParams& params() const noexcept { return params_; }
  const Deployment& deployment() const noexcept { return deployment_; }

private:
  void compute_assignments();
  std::size_t k_for(policy::FunctionId e) const noexcept;

  const net::GeneratedNetwork& network_;
  const Deployment& deployment_;
  const policy::PolicyList& policies_;
  ControllerParams params_;
  std::unordered_map<std::uint32_t, NodeConfig> configs_;
  /// Basis of the last optimal primary LB solve, kept for warm_start_lb.
  /// Mutable: caching the previous optimum does not change what compile()
  /// computes, only how fast the solver reaches it.
  mutable lp::Basis last_lb_basis_;
};

}  // namespace sdmbox::core
