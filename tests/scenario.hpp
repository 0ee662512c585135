// Shared end-to-end test scenario: campus (or Waxman) network + the paper's
// middlebox deployment + three-class policies + a measured workload + a
// controller. Everything derives from one seed.
#pragma once

#include <memory>

#include "core/controller.hpp"
#include "core/deployment.hpp"
#include "net/topologies.hpp"
#include "workload/flow_gen.hpp"
#include "workload/policy_gen.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::testing {

struct Scenario {
  net::GeneratedNetwork network;
  policy::FunctionCatalog catalog = policy::FunctionCatalog::standard();
  core::Deployment deployment;
  workload::GeneratedPolicies gen;
  workload::GeneratedFlows flows;
  workload::TrafficMatrix traffic;
  std::unique_ptr<core::Controller> controller;
};

struct ScenarioParams {
  std::uint64_t seed = 1;
  std::uint64_t target_packets = 200000;
  std::size_t policies_per_class = 3;
  std::size_t hosts_per_subnet = 1;
  bool waxman = false;
  net::ProxyMode proxy_mode = net::ProxyMode::kInPath;
  core::ControllerParams controller;
};

inline Scenario make_scenario(const ScenarioParams& sp = {}) {
  Scenario s;
  util::Rng rng(sp.seed);
  if (sp.waxman) {
    net::WaxmanParams wp;
    wp.core_count = 10;
    wp.edge_count = 40;
    wp.core_degree = 3;
    wp.hosts_per_subnet = sp.hosts_per_subnet;
    wp.seed = sp.seed;
    wp.proxy_mode = sp.proxy_mode;
    s.network = net::make_waxman_topology(wp);
  } else {
    net::CampusParams cp;
    cp.hosts_per_subnet = sp.hosts_per_subnet;
    cp.proxy_mode = sp.proxy_mode;
    s.network = net::make_campus_topology(cp);
  }
  s.deployment = core::deploy_middleboxes(s.network, s.catalog, core::DeploymentParams{}, rng);

  workload::PolicyGenParams pp;
  pp.many_to_one = sp.policies_per_class;
  pp.one_to_many = sp.policies_per_class;
  pp.one_to_one = sp.policies_per_class;
  s.gen = workload::generate_policies(s.network, pp, rng);

  workload::FlowGenParams fp;
  fp.target_total_packets = sp.target_packets;
  s.flows = workload::generate_flows(s.network, s.gen, fp, rng);
  s.traffic = workload::TrafficMatrix::measure(s.gen.policies, s.flows.flows);

  // LP feasibility: normalize capacities to the total offered load so the
  // λ <= 1 bound can always be met.
  s.deployment.set_uniform_capacity(std::max(1.0, s.traffic.grand_total()));
  s.controller =
      std::make_unique<core::Controller>(s.network, s.deployment, s.gen.policies, sp.controller);
  return s;
}

/// The LP inputs of a scenario: its world, the controller's candidate sets
/// and the measured traffic.
inline core::FormulationInputs lp_inputs(const Scenario& s) {
  return {s.network, s.deployment, s.gen.policies, s.controller->configs(), s.traffic};
}

/// An Eq. (1) load-balanced plan, assembled as ablation A1 assembles it: the
/// controller's candidate sets with core::solve_eq1's ratios and λ.
inline core::EnforcementPlan compile_eq1(const Scenario& s) {
  const core::RatioResult lp = core::solve_eq1(lp_inputs(s));
  SDM_CHECK_MSG(lp.status == lp::SolveStatus::kOptimal, "Eq. (1) LP not optimal");
  return core::load_balanced_plan(s.controller->configs(), lp);
}

}  // namespace sdmbox::testing
