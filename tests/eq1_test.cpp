// Eq. (1) per-(s,d,p) enforcement end to end: detailed split ratios are
// extracted from the Eq. (1) LP, take precedence in selection, survive the
// control-plane codec, and drive the packet data plane identically to the
// analytic evaluator.
#include <gtest/gtest.h>

#include "analytic/load_evaluator.hpp"
#include "control/codec.hpp"
#include "core/agents.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"

namespace sdmbox::core {
namespace {

using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::compile_eq1;
using sdmbox::testing::make_scenario;

ScenarioParams eq1_params(std::uint64_t seed, std::uint64_t packets) {
  ScenarioParams sp;
  sp.seed = seed;
  sp.target_packets = packets;
  return sp;
}

TEST(Eq1Ratios, DetailedEntriesAreExtracted) {
  Scenario s = make_scenario(eq1_params(91, 100000));
  const auto plan = compile_eq1(s);
  std::size_t detailed = 0, aggregate = 0;
  for (const auto& [node, cfg] : plan.configs) {
    detailed += cfg.ratios.detailed_size();
    aggregate += cfg.ratios.size() - cfg.ratios.detailed_size();
  }
  EXPECT_GT(detailed, 0u);
  EXPECT_GT(aggregate, 0u);  // aggregate fallback is populated too
}

TEST(Eq1Ratios, DetailedSelectionTakesPrecedence) {
  const policy::PolicyId p{0};
  const net::NodeId a{10}, b{11};
  NodeConfig cfg;
  cfg.node = net::NodeId{1};
  cfg.candidates[policy::kFirewall.v] = {a, b};
  cfg.ratios.set(policy::kFirewall, p, {{a, 1.0}});        // aggregate: all to a
  cfg.ratios.set(policy::kFirewall, p, {{b, 1.0}}, 3, 7);  // (3,7): all to b

  policy::Policy pol;
  pol.id = p;
  pol.actions = {policy::kFirewall};

  packet::FlowId flow;
  flow.src = net::IpAddress(10, 1, 0, 1);
  flow.dst = net::IpAddress(10, 2, 0, 1);
  EXPECT_EQ(
      select_next_hop(StrategyKind::kLoadBalanced, cfg, pol, policy::kFirewall, flow, 3, 7), b);
  // Other (s,d) pairs fall back to the aggregate entry.
  EXPECT_EQ(
      select_next_hop(StrategyKind::kLoadBalanced, cfg, pol, policy::kFirewall, flow, 4, 7), a);
  EXPECT_EQ(
      select_next_hop(StrategyKind::kLoadBalanced, cfg, pol, policy::kFirewall, flow, -1, -1),
      a);
}

TEST(Eq1Ratios, CodecRoundTripsDetailedEntries) {
  DeviceConfig cfg;
  cfg.strategy = StrategyKind::kLoadBalanced;
  cfg.version = 7;
  cfg.node.node = net::NodeId{5};
  cfg.node.candidates[policy::kFirewall.v] = {net::NodeId{10}, net::NodeId{11}};
  cfg.node.ratios.set(policy::kFirewall, policy::PolicyId{0}, {{net::NodeId{10}, 1.0}});
  cfg.node.ratios.set(policy::kFirewall, policy::PolicyId{0},
                      {{net::NodeId{11}, 0.5}, {net::NodeId{10}, 0.5}}, 2, 9);
  const auto bytes = control::encode_device_config(cfg);
  const auto decoded = control::decode_device_config(bytes);
  ASSERT_TRUE(decoded.has_value());
  const SplitRatioTable& ratios = decoded->node.ratios;
  EXPECT_EQ(ratios.detailed_size(), 1u);
  const auto* shares = ratios.find(policy::kFirewall, policy::PolicyId{0}, 2, 9);
  ASSERT_NE(shares, nullptr);
  ASSERT_EQ(shares->size(), 2u);
  // A pair without its own entry resolves to the aggregate entry.
  const auto* fallback = ratios.find(policy::kFirewall, policy::PolicyId{0}, 2, 8);
  ASSERT_NE(fallback, nullptr);
  EXPECT_EQ(fallback, ratios.find(policy::kFirewall, policy::PolicyId{0}));
  ASSERT_EQ(fallback->size(), 1u);
  EXPECT_EQ(fallback->front().to, net::NodeId{10});
}

TEST(Eq1Enforcement, ConservesDemandAndApproachesLambda) {
  Scenario s = make_scenario(eq1_params(92, 300000));
  const auto plan = compile_eq1(s);
  const auto report =
      analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);
  const auto summaries = analytic::summarize_by_function(report, s.deployment, s.catalog);
  for (const auto& su : summaries) {
    double expected = 0;
    for (const auto& p : s.gen.policies.all()) {
      if (p.action_index(su.function) >= 0) expected += s.traffic.total(p.id);
    }
    EXPECT_DOUBLE_EQ(static_cast<double>(su.total_load), expected) << su.function_name;
  }
  std::uint64_t max_load = 0;
  for (const auto& m : s.deployment.middleboxes()) {
    max_load = std::max(max_load, report.load_of(m.node));
  }
  const double bound = plan.lambda * s.deployment.middleboxes().front().capacity;
  EXPECT_LT(static_cast<double>(max_load), 1.4 * bound);
}

TEST(Eq1Enforcement, DesMatchesAnalyticExactly) {
  Scenario s = make_scenario(eq1_params(93, 3000));
  const auto plan = compile_eq1(s);
  const auto expected =
      analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);

  const auto routing = net::RoutingTables::compute(s.network.topo);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);
  const auto agents =
      install_agents(simnet, s.network, s.deployment, s.gen.policies, plan, AgentOptions{});
  for (const auto& f : s.flows.flows) {
    for (std::uint64_t j = 0; j < f.packets; ++j) {
      packet::Packet p;
      p.inner.src = f.id.src;
      p.inner.dst = f.id.dst;
      p.src_port = f.id.src_port;
      p.dst_port = f.id.dst_port;
      p.payload_bytes = 250;
      p.flow_seq = j;
      simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)], p, 0.0);
    }
  }
  simnet.run();
  for (std::size_t i = 0; i < s.deployment.size(); ++i) {
    EXPECT_EQ(agents.middleboxes[i]->counters().processed_packets,
              expected.load_of(s.deployment.middleboxes()[i].node))
        << s.deployment.middleboxes()[i].name;
    EXPECT_EQ(agents.middleboxes[i]->counters().anomalies, 0u);
  }
}

TEST(Eq1Enforcement, MatchesEq2RealizedMaxLoadClosely) {
  // The paper's justification for Eq. (2): same balancing power, far fewer
  // variables. Realized max loads from both data planes should be within a
  // few percent on the same workload.
  Scenario s = make_scenario(eq1_params(94, 300000));

  const auto max_of = [&](const EnforcementPlan& plan) {
    const auto report =
        analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);
    std::uint64_t max_load = 0;
    for (const auto& m : s.deployment.middleboxes()) {
      max_load = std::max(max_load, report.load_of(m.node));
    }
    return max_load;
  };
  const double a = static_cast<double>(max_of(compile_eq1(s)));
  const double b = static_cast<double>(
      max_of(s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic)));
  EXPECT_NEAR(a / b, 1.0, 0.15);
}

}  // namespace
}  // namespace sdmbox::core
