#include <gtest/gtest.h>

#include <algorithm>

#include "analytic/load_evaluator.hpp"
#include "core/agents.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"

namespace sdmbox::core {
namespace {

using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::make_scenario;

/// DES harness on top of a Scenario: routing tables + resolver are computed
/// AFTER middlebox deployment so the middlebox nodes are routable.
struct Harness {
  explicit Harness(Scenario& s, const EnforcementPlan& plan, const AgentOptions& options)
      : routing(net::RoutingTables::compute(s.network.topo)),
        resolver(net::AddressResolver::build(s.network.topo)),
        simnet(s.network.topo, routing, resolver),
        agents(install_agents(simnet, s.network, s.deployment, s.gen.policies, plan, options)) {}

  net::RoutingTables routing;
  net::AddressResolver resolver;
  sim::SimNetwork simnet;
  InstalledAgents agents;
};

packet::Packet make_packet(const packet::FlowId& flow, std::uint64_t seq = 0,
                           std::uint32_t payload = 500) {
  packet::Packet p;
  p.inner.src = flow.src;
  p.inner.dst = flow.dst;
  p.inner.protocol = flow.protocol;
  p.src_port = flow.src_port;
  p.dst_port = flow.dst_port;
  p.payload_bytes = payload;
  p.flow_seq = seq;
  return p;
}

/// Inject all packets of a flow at its source proxy, `spacing` seconds apart.
void inject_flow(Harness& h, const Scenario& s, const workload::FlowRecord& f, double start,
                 double spacing, std::uint32_t payload = 500) {
  const net::NodeId proxy = s.network.proxies[static_cast<std::size_t>(f.src_subnet)];
  for (std::uint64_t j = 0; j < f.packets; ++j) {
    h.simnet.inject(proxy, make_packet(f.id, j, payload),
                    start + static_cast<double>(j) * spacing);
  }
}

class AgentsTest : public ::testing::Test {
protected:
  AgentsTest() {
    ScenarioParams sp;
    sp.seed = 4;
    sp.target_packets = 3000;  // small flow set; DES-sized
    s = make_scenario(sp);
  }

  /// A flow generated for the first many-to-one policy (chain FW->IDS->WP).
  const workload::FlowRecord& mto_flow() const {
    const auto infos = s.gen.of_class(workload::PolicyClass::kManyToOne);
    for (const auto& f : s.flows.flows) {
      for (const auto* info : infos) {
        if (f.intended == info->id && f.packets >= 3) return f;
      }
    }
    SDM_CHECK_MSG(false, "no suitable many-to-one flow in scenario");
    __builtin_unreachable();
  }

  Scenario s;
};

// ---------------------------------------------------------------------------
// Basic chain enforcement (§III.B)
// ---------------------------------------------------------------------------

TEST_F(AgentsTest, SinglePacketTraversesFullChainInOrder) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, AgentOptions{});
  const auto& f = mto_flow();
  const auto& pol = s.gen.policies.at(f.intended);
  ASSERT_EQ(pol.actions.size(), 3u);  // FW -> IDS -> WP

  h.simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)],
                  make_packet(f.id), 0.0);
  h.simnet.run();

  // Exactly one middlebox of each chained type processed the packet, and it
  // is the hot-potato (closest) choice at every step.
  net::NodeId at = s.network.proxies[static_cast<std::size_t>(f.src_subnet)];
  for (const auto e : pol.actions) {
    const net::NodeId expect = select_next_hop(plan, at, pol, e, f.id);
    std::uint64_t processed_total = 0;
    for (std::size_t i = 0; i < s.deployment.size(); ++i) {
      const auto& m = s.deployment.middleboxes()[i];
      if (!m.functions.contains(e)) continue;
      const auto& c = h.agents.middleboxes[i]->counters();
      processed_total += c.processed_packets;
      EXPECT_EQ(c.processed_packets, m.node == expect ? 1u : 0u) << m.name;
      EXPECT_EQ(c.anomalies, 0u);
    }
    EXPECT_EQ(processed_total, 1u);
    at = expect;
  }
  EXPECT_EQ(h.simnet.counters().delivered, 1u);
}

TEST_F(AgentsTest, ChainTailReleasesPacketTowardDestination) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, AgentOptions{});
  const auto& f = mto_flow();
  h.simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)],
                  make_packet(f.id), 0.0);
  h.simnet.run();
  // The destination subnet's proxy saw the packet arrive (in-path inbound).
  const auto* dst_proxy =
      h.agents.proxies[static_cast<std::size_t>(f.dst_subnet)];
  EXPECT_EQ(dst_proxy->counters().inbound_packets, 1u);
  EXPECT_EQ(h.simnet.counters().dropped_no_route, 0u);
  EXPECT_EQ(h.simnet.counters().dropped_ttl, 0u);
}

TEST_F(AgentsTest, NonMatchingTrafficBypassesMiddleboxes) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, AgentOptions{});
  packet::FlowId f;
  f.src = net::IpAddress(s.network.subnets[0].base().value() + 9);
  f.dst = net::IpAddress(s.network.subnets[1].base().value() + 9);
  f.src_port = 50000;
  f.dst_port = 45000;  // matches no generated policy
  h.simnet.inject(s.network.proxies[0], make_packet(f), 0.0);
  h.simnet.run();
  EXPECT_EQ(h.simnet.counters().delivered, 1u);
  EXPECT_EQ(h.agents.proxies[0]->counters().permit_packets, 1u);
  for (const auto* m : h.agents.middleboxes) EXPECT_EQ(m->counters().processed_packets, 0u);
}

TEST_F(AgentsTest, IntraSubnetTrafficIsNotEnforced) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, AgentOptions{});
  packet::FlowId f;
  f.src = net::IpAddress(s.network.subnets[0].base().value() + 9);
  f.dst = s.network.topo.node(s.network.hosts[0][0]).address;  // same subnet
  f.dst_port = 80;
  h.simnet.inject(s.network.proxies[0], make_packet(f), 0.0);
  h.simnet.run();
  EXPECT_EQ(h.agents.proxies[0]->counters().outbound_packets, 0u);
  EXPECT_EQ(h.simnet.node_counters(s.network.hosts[0][0]).packets_delivered, 1u);
}

// ---------------------------------------------------------------------------
// Flow cache (§III.D)
// ---------------------------------------------------------------------------

TEST_F(AgentsTest, FlowCacheClassifiesOnlyFirstPacket) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, AgentOptions{});
  workload::FlowRecord f = mto_flow();
  f.packets = 10;
  inject_flow(h, s, f, 0.0, 1e-3);
  h.simnet.run();
  const auto& proxy = *h.agents.proxies[static_cast<std::size_t>(f.src_subnet)];
  EXPECT_EQ(proxy.counters().outbound_packets, 10u);
  EXPECT_EQ(proxy.device_counters().classifier_lookups, 1u);
  EXPECT_EQ(proxy.flow_table().stats().hits, 9u);
  // Each middlebox on the chain classified once too.
  for (const auto* m : h.agents.middleboxes) {
    if (m->counters().processed_packets > 0) {
      EXPECT_EQ(m->device_counters().classifier_lookups, 1u);
    }
  }
}

TEST_F(AgentsTest, WithoutFlowCacheEveryPacketIsClassified) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  AgentOptions opt;
  opt.enable_flow_cache = false;
  Harness h(s, plan, opt);
  workload::FlowRecord f = mto_flow();
  f.packets = 10;
  inject_flow(h, s, f, 0.0, 1e-3);
  h.simnet.run();
  EXPECT_EQ(h.agents.proxies[static_cast<std::size_t>(f.src_subnet)]
                ->device_counters()
                .classifier_lookups,
            10u);
}

TEST_F(AgentsTest, NegativeCacheShortCircuitsNonMatchingFlows) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, AgentOptions{});
  packet::FlowId f;
  f.src = net::IpAddress(s.network.subnets[0].base().value() + 9);
  f.dst = net::IpAddress(s.network.subnets[1].base().value() + 9);
  f.src_port = 50000;
  f.dst_port = 45000;
  for (int j = 0; j < 5; ++j) {
    h.simnet.inject(s.network.proxies[0], make_packet(f, static_cast<std::uint64_t>(j)),
                    static_cast<double>(j) * 1e-3);
  }
  h.simnet.run();
  const auto& proxy = *h.agents.proxies[0];
  EXPECT_EQ(proxy.device_counters().classifier_lookups, 1u);
  EXPECT_EQ(proxy.flow_table().stats().negative_hits, 4u);
  EXPECT_EQ(proxy.counters().permit_packets, 5u);
}

// ---------------------------------------------------------------------------
// Label switching (§III.E)
// ---------------------------------------------------------------------------

class LabelSwitchingTest : public AgentsTest {
protected:
  AgentOptions ls_options() const {
    AgentOptions opt;
    opt.enable_label_switching = true;
    return opt;
  }
};

TEST_F(LabelSwitchingTest, FirstPacketTunnelsLaterPacketsSwitch) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, ls_options());
  workload::FlowRecord f = mto_flow();
  f.packets = 5;
  // Wide spacing: the confirmation (one chain RTT, sub-millisecond) lands
  // before packet 2.
  inject_flow(h, s, f, 0.0, 0.1);
  h.simnet.run();

  const auto& proxy = *h.agents.proxies[static_cast<std::size_t>(f.src_subnet)];
  EXPECT_EQ(proxy.counters().confirmations, 1u);
  EXPECT_EQ(proxy.counters().tunneled_packets, 1u);
  EXPECT_EQ(proxy.counters().label_switched_packets, 4u);

  // Middleboxes on the chain saw 1 tunneled + 4 switched packets each.
  std::uint64_t switched_total = 0, confirms = 0;
  for (const auto* m : h.agents.middleboxes) {
    switched_total += m->counters().label_switched_in;
    confirms += m->counters().confirmations_sent;
    EXPECT_EQ(m->counters().anomalies, 0u);
  }
  EXPECT_EQ(switched_total, 4u * 3u);  // 4 packets x 3-hop chain
  EXPECT_EQ(confirms, 1u);
  // All 5 data packets reached the destination subnet.
  EXPECT_EQ(h.agents.proxies[static_cast<std::size_t>(f.dst_subnet)]->counters().inbound_packets,
            5u);
}

TEST_F(LabelSwitchingTest, SwitchedPacketsFollowTheSameChain) {
  const auto plan = s.controller->compile(StrategyKind::kRandom);
  Harness h(s, plan, ls_options());
  workload::FlowRecord f = mto_flow();
  f.packets = 6;
  inject_flow(h, s, f, 0.0, 0.1);
  h.simnet.run();
  // Per-middlebox totals: each box that saw the flow saw all 6 packets.
  for (const auto* m : h.agents.middleboxes) {
    const auto p = m->counters().processed_packets;
    EXPECT_TRUE(p == 0 || p == 6) << p;
  }
}

TEST_F(LabelSwitchingTest, BackToBackPacketsAllTunnelUntilConfirmation) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, ls_options());
  workload::FlowRecord f = mto_flow();
  f.packets = 4;
  inject_flow(h, s, f, 0.0, 1e-7);  // far faster than the chain RTT
  h.simnet.run();
  const auto& proxy = *h.agents.proxies[static_cast<std::size_t>(f.src_subnet)];
  EXPECT_EQ(proxy.counters().tunneled_packets, 4u);
  EXPECT_EQ(proxy.counters().label_switched_packets, 0u);
  // Still exactly one confirmation: the tail inserts its label entry once.
  EXPECT_EQ(proxy.counters().confirmations, 1u);
  EXPECT_EQ(h.agents.proxies[static_cast<std::size_t>(f.dst_subnet)]->counters().inbound_packets,
            4u);
}

TEST_F(LabelSwitchingTest, StaleConfirmationLeavesTheRecreatedEntryTunneled) {
  // A confirmation of label L1 can still be in flight when the proxy drops
  // the flow's entry. The entry re-created in its place holds L2, which no
  // box may have bound yet, so L1's confirmation must not switch it. The
  // proxy is handed each packet directly and the simulator never runs, so
  // the chain's own confirmations never arrive.
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, ls_options());
  const workload::FlowRecord& f = mto_flow();
  ProxyAgent& proxy = *h.agents.proxies[static_cast<std::size_t>(f.src_subnet)];
  const auto control = [&](packet::PacketKind kind, std::uint16_t label) {
    packet::Packet p;
    p.kind = kind;
    p.inner.src = s.network.topo.node(s.deployment.middleboxes().front().node).address;
    p.inner.dst = proxy.address();
    p.inner.protocol = packet::kProtoUdp;
    p.payload_bytes = 16;
    packet::ControlBody& body = h.simnet.new_control(p);
    body.seq = label;
    body.flow = f.id;
    return p;
  };
  const auto deliver = [&](packet::Packet p) { proxy.on_packet(h.simnet, std::move(p), {}); };

  // A fresh table hands out labels 1, 2, ... in order.
  deliver(make_packet(f.id, 0));  // tunneled under label 1
  deliver(control(packet::PacketKind::kLabelTeardown, 1));
  ASSERT_EQ(proxy.flow_table().size(), 0u);
  deliver(make_packet(f.id, 1));  // the re-created entry tunnels under label 2
  deliver(control(packet::PacketKind::kLabelConfirm, 1));
  deliver(make_packet(f.id, 2));
  EXPECT_EQ(proxy.counters().tunneled_packets, 3u);
  EXPECT_EQ(proxy.counters().label_switched_packets, 0u);

  // The live label's confirmation switches the flow.
  deliver(control(packet::PacketKind::kLabelConfirm, 2));
  deliver(make_packet(f.id, 3));
  EXPECT_EQ(proxy.counters().tunneled_packets, 3u);
  EXPECT_EQ(proxy.counters().label_switched_packets, 1u);
  EXPECT_EQ(proxy.counters().confirmations, 2u);
}

TEST_F(LabelSwitchingTest, LabelEntriesPopulateAlongTheChain) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, ls_options());
  workload::FlowRecord f = mto_flow();
  f.packets = 2;
  inject_flow(h, s, f, 0.0, 0.1);
  h.simnet.run();
  std::size_t boxes_with_entries = 0, tails = 0;
  for (const auto* m : h.agents.middleboxes) {
    if (m->label_table().size() > 0) {
      ++boxes_with_entries;
      tails += m->counters().chain_tails > 0;
    }
  }
  EXPECT_EQ(boxes_with_entries, 3u);  // FW, IDS, WP of the chain
  EXPECT_EQ(tails, 1u);
}

TEST_F(LabelSwitchingTest, AvoidsFragmentationForSubsequentPackets) {
  // Payload sized so the bare packet fits the 1500-byte MTU but the
  // IP-over-IP encapsulated version does not (§III.E's exact concern).
  const std::uint32_t payload = 1500 - packet::kIpv4HeaderBytes - packet::kL4HeaderBytes;

  const auto count_frag_events = [&](bool label_switching) {
    const auto plan = s.controller->compile(StrategyKind::kHotPotato);
    AgentOptions opt;
    opt.enable_label_switching = label_switching;
    Harness h(s, plan, opt);
    workload::FlowRecord f = mto_flow();
    f.packets = 10;
    inject_flow(h, s, f, 0.0, 0.1, payload);
    h.simnet.run();
    std::uint64_t events = 0;
    for (std::uint32_t l = 0; l < s.network.topo.link_count(); ++l) {
      events += h.simnet.link_counters(net::LinkId{l}).fragmentation_events;
    }
    EXPECT_EQ(h.agents.proxies[static_cast<std::size_t>(f.dst_subnet)]
                  ->counters()
                  .inbound_packets,
              10u);
    return events;
  };

  const std::uint64_t with_ls = count_frag_events(true);
  const std::uint64_t without_ls = count_frag_events(false);
  EXPECT_GT(without_ls, 0u);
  EXPECT_LT(with_ls, without_ls);
  // Only the single tunneled first packet may fragment under label switching.
  EXPECT_LE(with_ls, without_ls / 5);
}

// ---------------------------------------------------------------------------
// Agent option validation
// ---------------------------------------------------------------------------

TEST_F(AgentsTest, SubnetIndicesMustFitAFlowEntry) {
  // A flow entry caches subnet indices as int16_t, so indices 0..32,767
  // fit and a network of 32,769 subnets is refused.
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  Harness h(s, plan, AgentOptions{});
  net::GeneratedNetwork crowded = s.network;
  crowded.subnets.clear();
  for (std::uint32_t i = 0; i <= 32768; ++i) {
    crowded.subnets.emplace_back(net::IpAddress(i << 2), 30);
  }
  EXPECT_THROW(install_agents(h.simnet, crowded, s.deployment, s.gen.policies, plan, {}),
               ContractViolation);
}

TEST_F(AgentsTest, LabelSwitchingRequiresFlowCache) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  AgentOptions opt;
  opt.enable_flow_cache = false;
  opt.enable_label_switching = true;
  EXPECT_THROW(ProxyAgent(s.network, 0, s.gen.policies, plan, opt), ContractViolation);
}

}  // namespace
}  // namespace sdmbox::core
