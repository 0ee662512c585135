// Incremental re-optimization: warm-started LB re-solves (same optimum,
// fewer pivots), local plan patching on a single middlebox failure
// (equivalent assignments, untouched devices byte-identical), and the
// scoped replan path that pushes only the affected device slices.
#include <gtest/gtest.h>

#include <algorithm>

#include "control/codec.hpp"
#include "control/endpoints.hpp"
#include "core/plan.hpp"
#include "scenario.hpp"

namespace sdmbox::core {
namespace {

using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::make_scenario;

/// A traffic matrix with a shifted class mix, generated identically for any
/// scenario built from the same ScenarioParams (fresh RNG, same network).
workload::TrafficMatrix drifted_traffic(const Scenario& s, std::uint64_t seed) {
  util::Rng rng(seed);
  workload::FlowGenParams fp;
  fp.target_total_packets = 100000;
  fp.class_weights[0] = 9.0;
  const auto flows = workload::generate_flows(s.network, s.gen, fp, rng);
  return workload::TrafficMatrix::measure(s.gen.policies, flows.flows);
}

TEST(WarmStart, ReSolveMatchesColdOptimumWithFewerPivots) {
  ScenarioParams sp;
  sp.seed = 401;
  sp.target_packets = 100000;
  Scenario warm = make_scenario(sp);  // warm_start_lb defaults on
  ASSERT_TRUE(warm.controller->params().warm_start_lb);

  // The very first LB solve has no basis to reuse: always cold.
  Controller::SolveInfo first;
  warm.controller->compile(StrategyKind::kLoadBalanced, &warm.traffic, &first);
  EXPECT_FALSE(first.warm_started);
  EXPECT_GT(first.pivots, 0u);

  // Re-solve on a drifted matrix: warm-started from the previous basis.
  const auto drifted = drifted_traffic(warm, 77);
  Controller::SolveInfo warm_info;
  const auto warm_plan =
      warm.controller->compile(StrategyKind::kLoadBalanced, &drifted, &warm_info);
  EXPECT_TRUE(warm_info.warm_started);

  // Cold twin: identical world, warm starts disabled, same drifted matrix.
  ScenarioParams cold_sp = sp;
  cold_sp.controller.warm_start_lb = false;
  Scenario cold = make_scenario(cold_sp);
  cold.controller->compile(StrategyKind::kLoadBalanced, &cold.traffic);
  const auto cold_drifted = drifted_traffic(cold, 77);
  Controller::SolveInfo cold_info;
  const auto cold_plan =
      cold.controller->compile(StrategyKind::kLoadBalanced, &cold_drifted, &cold_info);
  EXPECT_FALSE(cold_info.warm_started);

  // Warm starting changes the pivot count, never the optimal λ.
  EXPECT_LT(warm_info.pivots, cold_info.pivots);
  EXPECT_NEAR(warm_plan.lambda, cold_plan.lambda,
              1e-9 * std::max(1.0, std::abs(cold_plan.lambda)));
}

/// A middlebox that (a) appears in some other device's candidate list, so
/// failing it actually perturbs assignments, and (b) shares every function
/// with a surviving implementer, so patching it cannot throw.
net::NodeId pick_patchable_victim(const Scenario& s) {
  for (const auto& m : s.deployment.middleboxes()) {
    bool redundant = true;
    for (const policy::FunctionId fn : m.functions.to_vector()) {
      if (s.deployment.implementers(fn).size() < 2) redundant = false;
    }
    if (!redundant) continue;
    for (const auto& [node_v, cfg] : s.controller->configs()) {
      if (net::NodeId{node_v} == m.node) continue;
      for (const auto& list : cfg.candidates) {
        if (std::find(list.begin(), list.end(), m.node) != list.end()) return m.node;
      }
    }
  }
  return {};
}

TEST(PatchFailure, NodePatchMatchesFullRecompute) {
  ScenarioParams sp;
  sp.seed = 402;
  sp.target_packets = 1000;
  Scenario patched = make_scenario(sp);
  Scenario full = make_scenario(sp);

  const net::NodeId victim = pick_patchable_victim(patched);
  ASSERT_TRUE(victim.valid());
  const auto before = patched.controller->configs();  // pre-failure snapshot

  patched.deployment.set_failed(victim, true);
  full.deployment.set_failed(victim, true);
  const std::vector<net::NodeId> affected = patched.controller->patch_failed_node(victim);
  full.controller->recompute();
  EXPECT_FALSE(affected.empty());

  // Equivalence: the patch lands on exactly the assignments a full
  // recompute produces, for every device.
  const auto& pa = patched.controller->configs();
  const auto& pb = full.controller->configs();
  ASSERT_EQ(pa.size(), pb.size());
  for (const auto& [node_v, cfg] : pa) {
    const NodeConfig& twin = pb.at(node_v);
    EXPECT_EQ(cfg.candidates, twin.candidates) << "device " << node_v;
    EXPECT_EQ(cfg.relevant_policies, twin.relevant_policies) << "device " << node_v;
  }

  // Scope: the affected list is exactly the devices whose candidates
  // changed (ascending id), and everything else is untouched.
  for (std::size_t i = 0; i + 1 < affected.size(); ++i) {
    EXPECT_LT(affected[i].v, affected[i + 1].v);
  }
  for (const auto& [node_v, cfg] : pa) {
    const bool changed = cfg.candidates != before.at(node_v).candidates;
    const bool listed =
        std::find(affected.begin(), affected.end(), net::NodeId{node_v}) != affected.end();
    EXPECT_EQ(changed, listed) << "device " << node_v;
  }
}

TEST(ScopedReplan, PushesOnlyAffectedSlicesAndMatchesFullRecompute) {
  ScenarioParams sp;
  sp.seed = 403;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  Scenario twin = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);

  const net::NodeId controller_node = control::add_controller_host(s.network);
  const net::RoutingTables routing = net::RoutingTables::compute(s.network.topo);
  const net::AddressResolver resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);
  control::ControlPlane cp =
      control::install_control_plane(simnet, s.network, s.deployment, s.gen.policies,
                                     *s.controller, controller_node, initial, core::AgentOptions{});
  cp.controller->replan(simnet, control::ReplanRequest{
                                    .trigger = control::ReplanTrigger::kInitial,
                                    .plan = &initial});
  simnet.run();

  const net::NodeId victim = pick_patchable_victim(s);
  ASSERT_TRUE(victim.valid());
  // The devices a correct patch must touch: exactly those whose current
  // candidate lists reference the victim.
  std::size_t expected_affected = 0;
  for (const auto& [node_v, cfg] : initial.configs) {
    for (const auto& list : cfg.candidates) {
      if (std::find(list.begin(), list.end(), victim) != list.end()) {
        ++expected_affected;
        break;
      }
    }
  }
  ASSERT_GT(expected_affected, 0u);

  s.deployment.set_failed(victim, true);
  const control::ReplanOutcome out = cp.controller->replan(
      simnet, control::ReplanRequest{.trigger = control::ReplanTrigger::kFailure,
                                     .failed_node = victim});
  simnet.run();

  EXPECT_TRUE(out.patched);
  EXPECT_FALSE(out.solved);
  EXPECT_EQ(out.devices_patched, expected_affected);
  // Unaffected slices are byte-identical to what the fleet already runs, so
  // the differential push skips them: pushes == affected devices.
  EXPECT_EQ(out.pushes_sent, expected_affected);
  EXPECT_LT(out.pushes_sent, initial.configs.size());

  // Slice equivalence against the full kFailure path on a twin world.
  twin.deployment.set_failed(victim, true);
  twin.controller->recompute();
  const auto full = twin.controller->compile(StrategyKind::kHotPotato);
  ASSERT_EQ(out.plan.configs.size(), full.configs.size());
  for (const auto& [node_v, cfg] : full.configs) {
    const net::NodeId device{node_v};
    EXPECT_EQ(control::encode_device_config(slice_for_device(out.plan, device, 0)),
              control::encode_device_config(slice_for_device(full, device, 0)))
        << "device " << node_v;
  }
}

}  // namespace
}  // namespace sdmbox::core
