// Shared scaffolding for the figure/table benches: builds the §IV.A
// evaluation scenario (topology + middlebox deployment + 3-class policies +
// power-law workload + controller) from one seed, and evaluates per-type
// max/min loads for HP / Rand / LB with the flow-level evaluator (proved
// load-equivalent to the packet simulator by tests/integration_test.cpp).
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "analytic/load_evaluator.hpp"
#include "core/agents.hpp"
#include "core/controller.hpp"
#include "net/topologies.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"
#include "workload/flow_gen.hpp"
#include "workload/policy_gen.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::bench {

struct EvalScenario {
  net::GeneratedNetwork network;
  policy::FunctionCatalog catalog = policy::FunctionCatalog::standard();
  core::Deployment deployment;
  workload::GeneratedPolicies gen;
  std::unique_ptr<core::Controller> controller;
};

struct EvalParams {
  std::uint64_t seed = 2019;          // the paper's publication year
  bool waxman = false;
  std::size_t policies_per_class = 4;
  core::ControllerParams controller;  // k = {FW 4, IDS 4, WP 2, TM 2} (paper)
};

/// Build the topology + deployment + policies + controller once; workloads
/// of different volumes are then generated against it.
inline EvalScenario build_eval_scenario(const EvalParams& params = {}) {
  EvalScenario s;
  util::Rng rng(params.seed);
  if (params.waxman) {
    net::WaxmanParams wp;  // paper defaults: 400 edge, 25 core, degree 4
    wp.seed = params.seed;
    s.network = net::make_waxman_topology(wp);
  } else {
    s.network = net::make_campus_topology();  // 2 gw, 16 core, 10 edge
  }
  s.deployment = core::deploy_middleboxes(s.network, s.catalog, core::DeploymentParams{}, rng);
  workload::PolicyGenParams pp;
  pp.many_to_one = params.policies_per_class;
  pp.one_to_many = params.policies_per_class;
  pp.one_to_one = params.policies_per_class;
  s.gen = workload::generate_policies(s.network, pp, rng);
  s.controller =
      std::make_unique<core::Controller>(s.network, s.deployment, s.gen.policies, params.controller);
  return s;
}

/// One workload at a target volume, measured.
struct Workload {
  workload::GeneratedFlows flows;
  workload::TrafficMatrix traffic;
};

inline Workload make_workload(const EvalScenario& s, std::uint64_t target_packets,
                              std::uint64_t seed) {
  Workload w;
  util::Rng rng(seed);
  workload::FlowGenParams fp;
  fp.target_total_packets = target_packets;
  w.flows = workload::generate_flows(s.network, s.gen, fp, rng);
  w.traffic = workload::TrafficMatrix::measure(s.gen.policies, w.flows.flows);
  return w;
}

/// Per-function max/min loads for one strategy on one workload.
struct StrategyLoads {
  std::vector<analytic::TypeLoadSummary> by_type;
  double lambda = 0;  // LB only
};

inline StrategyLoads evaluate_strategy(EvalScenario& s, const Workload& w,
                                       core::StrategyKind strategy) {
  // λ <= 1 feasibility: capacities normalized to the offered load.
  s.deployment.set_uniform_capacity(std::max(1.0, w.traffic.grand_total()));
  const core::EnforcementPlan plan = s.controller->compile(
      strategy, strategy == core::StrategyKind::kLoadBalanced ? &w.traffic : nullptr);
  const auto report =
      analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, w.flows.flows);
  StrategyLoads out;
  out.by_type = analytic::summarize_by_function(report, s.deployment, s.catalog);
  out.lambda = plan.lambda;
  return out;
}

inline const analytic::TypeLoadSummary& type_summary(const StrategyLoads& loads,
                                                     policy::FunctionId e) {
  for (const auto& t : loads.by_type) {
    if (t.function == e) return t;
  }
  SDM_CHECK_MSG(false, "function type missing from load summary");
  __builtin_unreachable();
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Telemetry escape hatch shared by the benches: when SDMBOX_METRICS_OUT is
/// set, render `registry` for the path's extension (.json / .csv / .prom)
/// and write it there; a no-op otherwise, so the tables stay the benches'
/// only default output. Repeated calls overwrite — in a sweep, the file
/// holds the last configuration's values.
inline void dump_metrics(const obs::MetricsRegistry& registry,
                         const obs::EpochRecorder* series = nullptr) {
  const char* path = std::getenv("SDMBOX_METRICS_OUT");
  if (path == nullptr || *path == '\0') return;
  obs::write_file(path, obs::render_for_path(registry, series, path));
  std::fprintf(stderr, "metrics (%zu series) written to %s\n", registry.size(), path);
}

}  // namespace sdmbox::bench
