// Load-balancing LP formulations (§III.C).
//
// One chain builder emits both. A commodity is policy-p traffic from its
// sources through p's chain to its destinations: first-hop variables from
// each source into M_s^e, t_{e,p}(x,y) between consecutive functions'
// middleboxes, final hops out, with source, destination and conservation
// rows, and objective min λ with per-middlebox capacity rows
// load(x) <= λ·C(x). A middlebox that no upstream candidate set can deliver
// the commodity to gets no variables.
//
// Eq. (2) — the controller's formulation: one commodity per policy, fed by
// every proxy. Two exact reductions keep instances small on the 400-proxy
// Waxman graph (both proved in DESIGN.md §6 and asserted by tests):
//  * source aggregation — proxies with identical candidate sets M_s^e for a
//    policy's first function are interchangeable; we solve per-group and
//    de-aggregate proportionally;
//  * destination aggregation — per-destination final-hop constraints can be
//    merged into one per policy, since no other constraint distinguishes
//    destinations and any aggregate split de-aggregates proportionally.
//
// Eq. (1) — the same network with one commodity per active (s,d,p), fed by
// proxy s alone; Eq. (2) is its sum over (s,d). The controller never solves
// it: the formulation ablation (bench/ablation_lp_formulations) assembles
// Eq. (1) plans from solve_eq1 with load_balanced_plan. Its per-(s,d) ratios
// are also summed into aggregate fallback entries of the same table.
//
// A forced local continuation (a box that implements the next function
// itself) is an LP variable but no ratio: the box never reads one there.
#pragma once

#include <unordered_map>

#include "core/plan.hpp"
#include "lp/simplex.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::core {

struct FormulationInputs {
  const net::GeneratedNetwork& network;
  const Deployment& deployment;
  const policy::PolicyList& policies;
  /// Candidate sets per proxy/middlebox as compiled by the controller.
  const std::unordered_map<std::uint32_t, NodeConfig>& configs;
  const workload::TrafficMatrix& traffic;
};

struct LpBuildStats {
  std::size_t variables = 0;
  std::size_t constraints = 0;
  std::size_t nonzeros = 0;
};

struct RatioResult {
  /// Split ratios per sending device, keyed by NodeId.v.
  std::unordered_map<std::uint32_t, SplitRatioTable> ratios;
  double lambda = 0;
  lp::SolveStatus status = lp::SolveStatus::kIterationLimit;
  LpBuildStats stats;
  std::size_t pivots = 0;
  /// Optimal basis of the PRIMARY λ-solve (not the lexicographic second
  /// pass, whose model has extra dev variables): feed it back through
  /// FormulationOptions::simplex.warm_start to re-solve a same-shaped
  /// instance from the previous optimum.
  lp::Basis basis;
  /// True when the solver accepted a warm-start basis for the primary solve.
  bool warm_started = false;
};

/// Both formulations always run the lexicographic fair-share second pass
/// (Table III's max ≈ min per type), and Eq. (2) always builds every policy
/// and source, traffic or not, so its shape — and a cached warm-start basis
/// — survives changes in the matrix's sparsity (DESIGN.md §6, §14).
struct FormulationOptions {
  /// Eq. (2): merge sources with identical first-hop candidate sets.
  bool aggregate_sources = true;
  /// Include the paper's redundant aggregate-conservation equalities
  /// (they never change the optimum; a test asserts that).
  bool include_redundant_constraints = false;
  lp::SimplexOptions simplex;
};

/// Build and solve Eq. (2); extract split ratios for every proxy/middlebox.
RatioResult solve_eq2(const FormulationInputs& in, const FormulationOptions& opt = {});

/// Build and solve Eq. (1); ratios are marginalized over (s, d).
RatioResult solve_eq1(const FormulationInputs& in, const FormulationOptions& opt = {});

/// A load-balanced plan: `configs` (the controller's candidate sets and
/// policy slices) with each sending device's ratios from `lp` installed in
/// its config, and lp's λ. The one assembler of LB plans, for Eq. (2) and
/// Eq. (1) alike.
EnforcementPlan load_balanced_plan(const std::unordered_map<std::uint32_t, NodeConfig>& configs,
                                   const RatioResult& lp);

/// Model-size metrics without solving (for the formulation ablation at
/// scales where Eq. (1) is too large to solve).
LpBuildStats measure_eq2(const FormulationInputs& in, const FormulationOptions& opt = {});
LpBuildStats measure_eq1(const FormulationInputs& in, const FormulationOptions& opt = {});

}  // namespace sdmbox::core
