// Plan-level helpers: device slicing, ratio-table iteration, delivery
// observer hooks, and strategy edge cases not covered elsewhere.
#include <gtest/gtest.h>

#include <tuple>

#include "core/strategy.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"

namespace sdmbox {
namespace {

using core::StrategyKind;
using sdmbox::testing::Scenario;
using sdmbox::testing::make_scenario;

// ---------------------------------------------------------------------------
// slice_for_device / for_each
// ---------------------------------------------------------------------------

TEST(PlanSlice, CarriesExactlyTheDevicesEntries) {
  Scenario s = make_scenario();
  const auto plan = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  const net::NodeId proxy = s.network.proxies[0];
  const auto slice = core::slice_for_device(plan, proxy, 5);
  EXPECT_EQ(slice.version, 5u);
  EXPECT_EQ(slice.strategy, StrategyKind::kLoadBalanced);
  EXPECT_EQ(slice.node.node, proxy);
  // The slice carries the device's own split ratios, entry for entry.
  const core::SplitRatioTable& held = plan.config(proxy).ratios;
  EXPECT_GT(held.size(), 0u);
  EXPECT_EQ(slice.node.ratios.size(), held.size());
  EXPECT_EQ(slice.node.ratios.total_shares(), held.total_shares());
  held.for_each([&](policy::FunctionId e, policy::PolicyId p, int src, int dst,
                    const std::vector<core::SplitRatioTable::Share>& shares) {
    const auto* sliced = slice.node.ratios.find(e, p, src, dst);
    ASSERT_NE(sliced, nullptr);
    ASSERT_EQ(sliced->size(), shares.size());
    for (std::size_t i = 0; i < shares.size(); ++i) {
      EXPECT_EQ((*sliced)[i].to, shares[i].to);
      EXPECT_EQ((*sliced)[i].weight, shares[i].weight);
    }
  });
}

TEST(PlanSlice, HotPotatoSliceHasNoRatios) {
  Scenario s = make_scenario();
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  const auto slice = core::slice_for_device(plan, s.network.proxies[1]);
  EXPECT_EQ(slice.node.ratios.size(), 0u);
  EXPECT_EQ(slice.node.ratios.detailed_size(), 0u);
}

TEST(RatioTable, ForEachVisitsEverything) {
  // Set out of key order; for_each visits (e, p, s, d) ascending, each
  // aggregate entry before its (s, d) entries.
  core::SplitRatioTable t;
  t.set(policy::kWebProxy, policy::PolicyId{3}, {{net::NodeId{8}, 2.0}});
  t.set(policy::kFirewall, policy::PolicyId{0}, {{net::NodeId{7}, 1.0}}, 2, 5);
  t.set(policy::kFirewall, policy::PolicyId{0}, {{net::NodeId{9}, 1.0}});
  std::vector<std::tuple<std::uint8_t, std::uint32_t, int, int, double>> visited;
  t.for_each([&](policy::FunctionId e, policy::PolicyId p, int src, int dst,
                 const std::vector<core::SplitRatioTable::Share>& shares) {
    ASSERT_EQ(shares.size(), 1u);
    visited.emplace_back(e.v, p.v, src, dst, shares[0].weight);
  });
  const decltype(visited) expected = {{policy::kFirewall.v, 0, -1, -1, 1.0},
                                      {policy::kFirewall.v, 0, 2, 5, 1.0},
                                      {policy::kWebProxy.v, 3, -1, -1, 2.0}};
  EXPECT_EQ(visited, expected);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.detailed_size(), 1u);
  EXPECT_EQ(t.total_shares(), 3u);
}

// ---------------------------------------------------------------------------
// Strategy edge cases
// ---------------------------------------------------------------------------

TEST(StrategyEdge, SingleCandidateAlwaysWins) {
  core::NodeConfig cfg;
  cfg.node = net::NodeId{1};
  cfg.candidates[policy::kFirewall.v] = {net::NodeId{42}};
  policy::Policy p;
  p.id = policy::PolicyId{0};
  p.actions = {policy::kFirewall};
  packet::FlowId f;
  for (const auto strategy :
       {StrategyKind::kHotPotato, StrategyKind::kRandom, StrategyKind::kLoadBalanced}) {
    EXPECT_EQ(core::select_next_hop(strategy, cfg, p, policy::kFirewall, f), net::NodeId{42});
  }
}

TEST(StrategyEdge, NoCandidatesYieldsInvalid) {
  core::NodeConfig cfg;
  cfg.node = net::NodeId{1};
  policy::Policy p;
  p.id = policy::PolicyId{0};
  packet::FlowId f;
  EXPECT_FALSE(
      core::select_next_hop(StrategyKind::kHotPotato, cfg, p, policy::kFirewall, f).valid());
}

TEST(StrategyEdge, ExtremeWeightSkewStillPicksBoth) {
  // A 1e6:1 weight skew: the heavy candidate dominates but the light one is
  // still reachable for SOME flow (the bracket scheme never zeroes it).
  core::NodeConfig cfg;
  cfg.node = net::NodeId{1};
  const net::NodeId heavy{10}, light{11};
  cfg.candidates[policy::kFirewall.v] = {heavy, light};
  cfg.ratios.set(policy::kFirewall, policy::PolicyId{0}, {{heavy, 1e6}, {light, 1.0}});
  policy::Policy p;
  p.id = policy::PolicyId{0};
  p.actions = {policy::kFirewall};
  int heavy_count = 0;
  util::Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    packet::FlowId f;
    f.src = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
    f.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
    heavy_count +=
        core::select_next_hop(StrategyKind::kLoadBalanced, cfg, p, policy::kFirewall, f) == heavy;
  }
  EXPECT_GT(heavy_count, 99800);
  EXPECT_LT(heavy_count, 100000);  // the light candidate got something
}

// ---------------------------------------------------------------------------
// Delivery observer
// ---------------------------------------------------------------------------

TEST(DeliveryObserver, SeesEveryDeliveredPacketWithPositiveLatency) {
  const auto network = net::make_campus_topology();
  const auto routing = net::RoutingTables::compute(network.topo);
  const auto resolver = net::AddressResolver::build(network.topo);
  sim::SimNetwork simnet(network.topo, routing, resolver);
  std::size_t observed = 0;
  simnet.on_delivered([&](const packet::Packet& pkt, sim::SimTime latency) {
    ++observed;
    EXPECT_GT(latency, 0.0);
    EXPECT_EQ(pkt.kind, packet::PacketKind::kData);
  });
  for (int i = 0; i < 7; ++i) {
    packet::Packet p;
    p.inner.src = network.topo.node(network.hosts[0][0]).address;
    p.inner.dst = network.topo.node(network.hosts[3][0]).address;
    p.payload_bytes = 100;
    simnet.inject(network.hosts[0][0], p, static_cast<double>(i) * 1e-3);
  }
  simnet.run();
  EXPECT_EQ(observed, 7u);
  EXPECT_EQ(simnet.counters().delivered, 7u);
}

}  // namespace
}  // namespace sdmbox
