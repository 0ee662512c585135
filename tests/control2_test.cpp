// Differential config distribution with acknowledgments, and enforcement
// surviving routing reconvergence after a link failure — the architectural
// payoff of being policy-transparent to the routers (§I: routers "perform
// their operations oblivious to policy enforcement").
#include <gtest/gtest.h>

#include "analytic/load_evaluator.hpp"
#include "control/endpoints.hpp"
#include "scenario.hpp"

namespace sdmbox {
namespace {

using core::StrategyKind;
using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::make_scenario;

struct Loop {
  explicit Loop(Scenario& s, const core::EnforcementPlan& initial)
      : controller_node(control::add_controller_host(s.network)),
        routing(net::RoutingTables::compute(s.network.topo)),
        resolver(net::AddressResolver::build(s.network.topo)),
        simnet(s.network.topo, routing, resolver),
        cp(control::install_control_plane(simnet, s.network, s.deployment, s.gen.policies,
                                          *s.controller, controller_node, initial,
                                          core::AgentOptions{})) {}

  net::NodeId controller_node;
  net::RoutingTables routing;
  net::AddressResolver resolver;
  sim::SimNetwork simnet;
  control::ControlPlane cp;
};

// ---------------------------------------------------------------------------
// Differential pushes + acks
// ---------------------------------------------------------------------------

TEST(DifferentialPush, UnchangedPlanSendsNothingTheSecondTime) {
  ScenarioParams sp;
  sp.seed = 81;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);
  const auto plan = s.controller->compile(StrategyKind::kRandom);

  const std::size_t first =
      loop.cp.controller
          ->replan(loop.simnet, control::ReplanRequest{
                                    .trigger = control::ReplanTrigger::kInitial,
                                    .plan = &plan})
          .pushes_sent;
  loop.simnet.run();
  EXPECT_EQ(first, s.network.proxies.size() + s.deployment.size());
  // Every applied push is acknowledged in-band.
  EXPECT_EQ(loop.cp.controller->acks_received(), first);

  const std::size_t second =
      loop.cp.controller
          ->replan(loop.simnet, control::ReplanRequest{
                                    .trigger = control::ReplanTrigger::kInitial,
                                    .plan = &plan})
          .pushes_sent;
  loop.simnet.run();
  EXPECT_EQ(second, 0u);
  EXPECT_EQ(loop.cp.controller->pushes_skipped_unchanged(), first);
  EXPECT_EQ(loop.cp.controller->acks_received(), first);  // no new acks
}

TEST(DifferentialPush, OnlyChangedSlicesTravel) {
  ScenarioParams sp;
  sp.seed = 82;
  sp.target_packets = 50000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);

  // Push an LB plan, then an LB plan from slightly different traffic: the
  // candidate sets (most of each slice) are identical, so some devices —
  // at minimum those whose ratios didn't change — are skipped.
  const auto lb1 = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  loop.cp.controller->replan(loop.simnet,
                             control::ReplanRequest{
                                 .trigger = control::ReplanTrigger::kInitial,
                                 .plan = &lb1});
  loop.simnet.run();
  const control::ReplanOutcome again = loop.cp.controller->replan(
      loop.simnet, control::ReplanRequest{
                       .trigger = control::ReplanTrigger::kInitial, .plan = &lb1});
  EXPECT_EQ(again.pushes_sent, 0u);
  EXPECT_GT(again.pushes_skipped, 0u);

  // Same strategy, same candidates, different ratios: pushes happen again,
  // but only for devices with LP shares.
  util::Rng rng(9);
  workload::FlowGenParams fp;
  fp.target_total_packets = 50000;
  fp.class_weights[0] = 3.0;
  const auto flows2 = workload::generate_flows(s.network, s.gen, fp, rng);
  const auto traffic2 = workload::TrafficMatrix::measure(s.gen.policies, flows2.flows);
  const auto lb2 = s.controller->compile(StrategyKind::kLoadBalanced, &traffic2);
  const std::size_t changed =
      loop.cp.controller
          ->replan(loop.simnet, control::ReplanRequest{
                                    .trigger = control::ReplanTrigger::kInitial,
                                    .plan = &lb2})
          .pushes_sent;
  EXPECT_GT(changed, 0u);
  EXPECT_LT(changed, s.network.proxies.size() + s.deployment.size() + 1);
  EXPECT_GT(loop.cp.controller->push_bytes_sent(), 0u);
}

// ---------------------------------------------------------------------------
// Reliable channel: sequence-number and payload rejection paths
// ---------------------------------------------------------------------------

TEST(ReliableChannel, StaleDuplicateAndTruncatedPushesAreRejected) {
  ScenarioParams sp;
  sp.seed = 84;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);

  control::ManagedDevice* dev = loop.cp.middleboxes[0];
  const net::NodeId node = s.deployment.middleboxes()[0].node;
  const net::IpAddress dev_addr = s.network.topo.node(node).address;
  const net::IpAddress ctrl_addr = loop.cp.controller->address();

  auto push = [&](std::uint64_t seq, std::vector<std::uint8_t> payload, double at) {
    packet::Packet pkt;
    pkt.kind = packet::PacketKind::kConfigPush;
    pkt.inner.src = ctrl_addr;
    pkt.inner.dst = dev_addr;
    pkt.inner.protocol = packet::kProtoUdp;
    pkt.payload_bytes = static_cast<std::uint32_t>(payload.size());
    packet::ControlBody& body = loop.simnet.new_control(pkt);
    body.seq = seq;
    body.payload = std::make_shared<const std::vector<std::uint8_t>>(std::move(payload));
    loop.simnet.inject(node, pkt, at);
  };

  const auto v1 = control::encode_device_config(core::slice_for_device(initial, node, 1));
  const auto v2 = control::encode_device_config(core::slice_for_device(initial, node, 2));
  std::vector<std::uint8_t> truncated(v2.begin(), v2.begin() + v2.size() / 2);

  push(5, v1, 0.1);         // fresh: applied + acked
  push(5, v1, 0.2);         // duplicate: re-acked, NOT re-applied
  push(3, v2, 0.3);         // stale seq: silently rejected (no ack)
  push(7, truncated, 0.4);  // fresh seq, garbage payload: rejected, seq not consumed
  push(8, v2, 0.5);         // fresh again: applied + acked
  loop.simnet.run();

  const control::ControlCounters& c = dev->counters();
  EXPECT_EQ(c.configs_applied, 2u);
  EXPECT_EQ(c.configs_duplicate, 1u);
  EXPECT_EQ(c.configs_rejected, 2u);
  EXPECT_EQ(c.acks_sent, 3u);  // two applies + one duplicate re-ack; rejects stay silent
  // The applied config was never corrupted: the device ends on version 2.
  EXPECT_EQ(dev->config_version(), 2u);
  // All three acks reached the controller (none matched an outstanding push,
  // since these were hand-crafted).
  EXPECT_EQ(loop.cp.controller->acks_received(), 3u);
}

TEST(ReliableChannel, LostAcksAreRetransmittedUntilConfirmed) {
  // Drop ~all early control traffic on the controller's access link; the
  // exponential-backoff retransmission must still complete the rollout.
  ScenarioParams sp;
  sp.seed = 86;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);

  const net::NodeId attach =
      s.network.gateways.empty() ? s.network.core_routers.front() : s.network.gateways.front();
  const net::LinkId ctrl_link = s.network.topo.find_link(attach, loop.controller_node);
  ASSERT_TRUE(ctrl_link.valid());
  loop.simnet.set_link_loss(ctrl_link, 0.5);
  loop.simnet.simulator().schedule_at(2.0, [&] { loop.simnet.set_link_loss(ctrl_link, 0.0); });

  const auto plan = s.controller->compile(StrategyKind::kRandom);
  const std::size_t pushed =
      loop.cp.controller
          ->replan(loop.simnet, control::ReplanRequest{
                                    .trigger = control::ReplanTrigger::kInitial,
                                    .plan = &plan})
          .pushes_sent;
  loop.simnet.run();

  EXPECT_EQ(pushed, s.network.proxies.size() + s.deployment.size());
  EXPECT_GT(loop.cp.controller->retransmissions(), 0u);
  EXPECT_EQ(loop.cp.controller->outstanding_pushes(), 0u);
  EXPECT_EQ(loop.cp.controller->pushes_abandoned(), 0u);
  // Lost acks mean duplicate pushes at the devices — re-acked, never
  // double-applied: every device still ends on exactly one applied config.
  for (const auto* d : loop.cp.middleboxes) {
    EXPECT_EQ(d->counters().configs_applied, 1u);
  }
  EXPECT_GT(loop.simnet.counters().dropped_link_loss, 0u);
}

// ---------------------------------------------------------------------------
// Routing reconvergence under link failure
// ---------------------------------------------------------------------------

TEST(LinkFailure, RoutingRoutesAroundDownLinks) {
  const auto network = net::make_campus_topology();
  // Fail one of edge0's two uplinks.
  const net::NodeId edge = network.edge_routers[0];
  net::LinkId victim;
  for (const auto& adj : network.topo.neighbors(edge)) {
    if (network.topo.node(adj.neighbor).kind == net::NodeKind::kCoreRouter) {
      victim = adj.link;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  std::vector<bool> down(network.topo.link_count(), false);
  down[victim.v] = true;
  const auto before = net::RoutingTables::compute(network.topo);
  const auto after = net::RoutingTables::compute(network.topo, &down);
  // Still fully reachable (redundant uplink), possibly at higher cost.
  for (std::size_t d = 1; d < network.edge_routers.size(); ++d) {
    EXPECT_LT(after.distance(edge, network.edge_routers[d]),
              net::ShortestPathTree::kInfinity);
    EXPECT_GE(after.distance(edge, network.edge_routers[d]),
              before.distance(edge, network.edge_routers[d]));
  }
  // The failed link is never used.
  for (std::size_t d = 0; d < network.edge_routers.size(); ++d) {
    const auto hop = after.next_hop(edge, network.edge_routers[d]);
    EXPECT_NE(hop.link, victim);
  }
}

TEST(LinkFailure, EnforcementSurvivesReconvergenceWithoutControllerAction) {
  // The paper's transparency claim: routers reconverge after a link failure
  // and the SDM plan — tunnels addressed to middlebox ADDRESSES — keeps
  // working with zero controller involvement and identical loads.
  ScenarioParams sp;
  sp.seed = 83;
  sp.target_packets = 3000;
  Scenario s = make_scenario(sp);
  const auto plan = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  const auto expected =
      analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);

  // Fail one core<->gateway link; recompute routing (OSPF reconverged).
  net::LinkId victim = s.network.topo.find_link(s.network.core_routers[0], s.network.gateways[0]);
  ASSERT_TRUE(victim.valid());
  std::vector<bool> down(s.network.topo.link_count(), false);
  down[victim.v] = true;
  const auto routing = net::RoutingTables::compute(s.network.topo, &down);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);
  const auto agents =
      core::install_agents(simnet, s.network, s.deployment, s.gen.policies, plan, {});
  for (const auto& f : s.flows.flows) {
    for (std::uint64_t j = 0; j < f.packets; ++j) {
      packet::Packet p;
      p.inner.src = f.id.src;
      p.inner.dst = f.id.dst;
      p.src_port = f.id.src_port;
      p.dst_port = f.id.dst_port;
      p.payload_bytes = 200;
      p.flow_seq = j;
      simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)], p, 0.0);
    }
  }
  simnet.run();
  // The failed link carried nothing; loads are bit-identical to the
  // pre-failure plan's prediction; everything was delivered.
  EXPECT_EQ(simnet.link_counters(victim).packets, 0u);
  EXPECT_EQ(simnet.counters().dropped_no_route, 0u);
  for (std::size_t i = 0; i < s.deployment.size(); ++i) {
    EXPECT_EQ(agents.middleboxes[i]->counters().processed_packets,
              expected.load_of(s.deployment.middleboxes()[i].node));
  }
}

}  // namespace
}  // namespace sdmbox
