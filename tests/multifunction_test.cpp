// Consolidated (multi-function) middleboxes: a box implementing consecutive
// chain functions processes them locally — the paper's Π_x excludes a box's
// own functions from needing any next-hop assignment (§III.B). These tests
// cover deployment, controller assignments, local continuation in both the
// analytic evaluator and the packet data plane, and label switching.
#include <gtest/gtest.h>

#include <algorithm>

#include "analytic/load_evaluator.hpp"
#include "core/agents.hpp"
#include "core/validate.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"

namespace sdmbox::core {
namespace {

using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;

/// Campus scenario with 5 plain FW, 5 plain IDS and 2 consolidated FW+IDS
/// boxes (so |M^FW| = |M^IDS| = 7, like the paper), plus the usual WP/TM.
Scenario make_combo_scenario(std::uint64_t seed = 51, std::uint64_t packets = 50000) {
  Scenario s;
  util::Rng rng(seed);
  net::CampusParams cp;
  cp.hosts_per_subnet = 1;
  s.network = net::make_campus_topology(cp);
  DeploymentParams dp;
  dp.counts = {{policy::kFirewall, 5},
               {policy::kIntrusionDetection, 5},
               {policy::kWebProxy, 4},
               {policy::kTrafficMeasure, 4}};
  dp.combos = {{policy::FunctionSet::of({policy::kFirewall, policy::kIntrusionDetection}), 2}};
  s.deployment = deploy_middleboxes(s.network, s.catalog, dp, rng);

  workload::PolicyGenParams pp;
  pp.many_to_one = 3;
  pp.one_to_many = 3;
  pp.one_to_one = 3;
  s.gen = workload::generate_policies(s.network, pp, rng);

  workload::FlowGenParams fp;
  fp.target_total_packets = packets;
  s.flows = workload::generate_flows(s.network, s.gen, fp, rng);
  s.traffic = workload::TrafficMatrix::measure(s.gen.policies, s.flows.flows);
  s.deployment.set_uniform_capacity(std::max(1.0, s.traffic.grand_total()));
  s.controller = std::make_unique<Controller>(s.network, s.deployment, s.gen.policies);
  return s;
}

net::NodeId first_combo(const Scenario& s) {
  for (const auto& m : s.deployment.middleboxes()) {
    if (m.functions.size() > 1) return m.node;
  }
  return net::NodeId{};
}

TEST(ComboDeployment, CombosCountTowardEveryFunction) {
  const Scenario s = make_combo_scenario();
  EXPECT_EQ(s.deployment.size(), 20u);  // 5+5+4+4 + 2 combos
  EXPECT_EQ(s.deployment.implementers(policy::kFirewall).size(), 7u);
  EXPECT_EQ(s.deployment.implementers(policy::kIntrusionDetection).size(), 7u);
  const net::NodeId combo = first_combo(s);
  ASSERT_TRUE(combo.valid());
  const auto& fw = s.deployment.implementers(policy::kFirewall);
  const auto& ids = s.deployment.implementers(policy::kIntrusionDetection);
  EXPECT_NE(std::find(fw.begin(), fw.end(), combo), fw.end());
  EXPECT_NE(std::find(ids.begin(), ids.end(), combo), ids.end());
}

TEST(ComboController, NoCandidatesForOwnFunctionsButOthersFilled) {
  const Scenario s = make_combo_scenario();
  const net::NodeId combo = first_combo(s);
  const NodeConfig& cfg = s.controller->configs().at(combo.v);
  EXPECT_TRUE(cfg.own_functions.contains(policy::kFirewall));
  EXPECT_TRUE(cfg.own_functions.contains(policy::kIntrusionDetection));
  EXPECT_TRUE(cfg.candidates_for(policy::kFirewall).empty());
  EXPECT_TRUE(cfg.candidates_for(policy::kIntrusionDetection).empty());
  EXPECT_EQ(cfg.candidates_for(policy::kWebProxy).size(), 2u);
  EXPECT_EQ(cfg.candidates_for(policy::kTrafficMeasure).size(), 2u);
}

TEST(ComboStrategy, LocalContinuationReturnsSelf) {
  const Scenario s = make_combo_scenario();
  const net::NodeId combo = first_combo(s);
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  // Any policy whose chain contains IDS: from the combo box, the "next hop"
  // for IDS is the box itself.
  for (const auto& p : s.gen.policies.all()) {
    if (p.action_index(policy::kIntrusionDetection) < 0) continue;
    packet::FlowId f;
    f.src = net::IpAddress(s.network.subnets[0].base().value() + 3);
    f.dst = net::IpAddress(s.network.subnets[1].base().value() + 3);
    EXPECT_EQ(select_next_hop(plan, combo, p, policy::kIntrusionDetection, f), combo);
    break;
  }
}

TEST(ComboAnalytic, ChainLoadsCountEachFunctionApplication) {
  // With FW -> IDS handled by one box, that box's load counts twice per
  // packet; total per-function loads still equal the demand.
  ScenarioParams dummy;
  Scenario s = make_combo_scenario(52, 200000);
  (void)dummy;
  for (const StrategyKind strategy :
       {StrategyKind::kHotPotato, StrategyKind::kRandom, StrategyKind::kLoadBalanced}) {
    const auto plan = s.controller->compile(
        strategy, strategy == StrategyKind::kLoadBalanced ? &s.traffic : nullptr);
    const auto report =
        analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);
    const auto summaries = analytic::summarize_by_function(report, s.deployment, s.catalog);
    for (const auto& summary : summaries) {
      double expected = 0;
      for (const auto& p : s.gen.policies.all()) {
        if (p.action_index(summary.function) >= 0) expected += s.traffic.total(p.id);
      }
      EXPECT_DOUBLE_EQ(static_cast<double>(summary.total_load), expected)
          << summary.function_name << " under " << to_string(strategy);
    }
  }
}

struct Harness {
  explicit Harness(Scenario& s, const EnforcementPlan& plan, const AgentOptions& options = {})
      : routing(net::RoutingTables::compute(s.network.topo)),
        resolver(net::AddressResolver::build(s.network.topo)),
        simnet(s.network.topo, routing, resolver),
        agents(install_agents(simnet, s.network, s.deployment, s.gen.policies, plan, options)) {}

  net::RoutingTables routing;
  net::AddressResolver resolver;
  sim::SimNetwork simnet;
  InstalledAgents agents;
};

void inject_all(Harness& h, const Scenario& s, double spacing = 0.0) {
  double t = 0;
  for (const auto& f : s.flows.flows) {
    for (std::uint64_t j = 0; j < f.packets; ++j) {
      packet::Packet p;
      p.inner.src = f.id.src;
      p.inner.dst = f.id.dst;
      p.src_port = f.id.src_port;
      p.dst_port = f.id.dst_port;
      p.payload_bytes = 300;
      p.flow_seq = j;
      h.simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)], p, t);
      t += spacing;
    }
  }
}

class ComboDesEquivalence : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ComboDesEquivalence, LoadsMatchAnalyticExactly) {
  Scenario s = make_combo_scenario(53, 3000);
  const StrategyKind strategy = GetParam();
  const auto plan = s.controller->compile(
      strategy, strategy == StrategyKind::kLoadBalanced ? &s.traffic : nullptr);
  const auto expected =
      analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);
  Harness h(s, plan);
  inject_all(h, s);
  h.simnet.run();
  for (std::size_t i = 0; i < s.deployment.size(); ++i) {
    const auto& m = s.deployment.middleboxes()[i];
    EXPECT_EQ(h.agents.middleboxes[i]->counters().processed_packets, expected.load_of(m.node))
        << m.name;
    EXPECT_EQ(h.agents.middleboxes[i]->counters().anomalies, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, ComboDesEquivalence,
                         ::testing::Values(StrategyKind::kHotPotato, StrategyKind::kRandom,
                                           StrategyKind::kLoadBalanced),
                         [](const auto& info) {
                           switch (info.param) {
                             case StrategyKind::kHotPotato: return std::string("HotPotato");
                             case StrategyKind::kRandom: return std::string("Random");
                             case StrategyKind::kLoadBalanced: return std::string("LoadBalanced");
                           }
                           return std::string("Unknown");
                         });

TEST(ComboLabelSwitching, LoadsMatchAndSegmentsRecorded) {
  Scenario s = make_combo_scenario(54, 1500);
  const auto plan = s.controller->compile(StrategyKind::kRandom);
  const auto expected =
      analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);
  AgentOptions opt;
  opt.enable_label_switching = true;
  Harness h(s, plan, opt);
  inject_all(h, s, 5e-3);  // spaced: most packets go label-switched
  h.simnet.run();
  std::uint64_t switched = 0;
  bool saw_two_function_segment = false;
  for (std::size_t i = 0; i < s.deployment.size(); ++i) {
    const auto& m = s.deployment.middleboxes()[i];
    EXPECT_EQ(h.agents.middleboxes[i]->counters().processed_packets, expected.load_of(m.node))
        << m.name;
    EXPECT_EQ(h.agents.middleboxes[i]->counters().anomalies, 0u);
    switched += h.agents.middleboxes[i]->counters().label_switched_in;
    if (m.functions.size() > 1 && h.agents.middleboxes[i]->counters().processed_packets > 0) {
      saw_two_function_segment = true;
    }
  }
  EXPECT_GT(switched, 0u);
  EXPECT_TRUE(saw_two_function_segment);
}

TEST(ComboLp, SolvesOptimallyWithConsolidatedBoxes) {
  Scenario s = make_combo_scenario(55, 100000);
  const RatioResult r = s.controller->solve_load_balancing(s.traffic);
  EXPECT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(r.lambda, 0.0);
  EXPECT_LE(r.lambda, 1.0);
}

TEST(ComboLp, LoadBalancedPlanPassesValidation) {
  // A box that implements the next function itself continues locally
  // without reading a ratio, so the LP's forced self-transition must leave
  // no share there: validate_plan rejects a share outside M_x^e.
  Scenario s = make_combo_scenario(51, 100000);
  const auto plan = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  for (const auto& [from, cfg] : plan.configs) {
    cfg.ratios.for_each([&](policy::FunctionId e, policy::PolicyId p, int, int,
                            const std::vector<SplitRatioTable::Share>& shares) {
      for (const auto& share : shares) {
        EXPECT_NE(share.to.v, from) << "function " << int{e.v} << ", policy " << p.v;
      }
    });
  }
  EXPECT_EQ(validate_plan(plan, s.network, s.deployment, s.gen.policies),
            std::vector<std::string>{});
}

}  // namespace
}  // namespace sdmbox::core
