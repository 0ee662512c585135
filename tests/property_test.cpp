// Cross-cutting property tests:
//  * FlowTable fuzz against a simple reference model (map + timestamps),
//  * routing invariants on random Waxman graphs (symmetry, triangle
//    inequality, next-hop descent, loop-freedom),
//  * path-stretch sanity (enforced >= direct; HP minimal among strategies),
//  * distribution-footprint accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "analytic/load_evaluator.hpp"
#include "net/routing.hpp"
#include "net/topologies.hpp"
#include "scenario.hpp"
#include "tables/flow_table.hpp"
#include "util/rng.hpp"

namespace sdmbox {
namespace {

// ---------------------------------------------------------------------------
// FlowTable fuzz vs reference model
// ---------------------------------------------------------------------------

struct ReferenceModel {
  struct Entry {
    policy::PolicyId pol;
    double last_used;
  };
  std::map<std::uint64_t, Entry> entries;  // key: flow discriminator
  double timeout;

  explicit ReferenceModel(double t) : timeout(t) {}

  bool lookup(std::uint64_t key, double now) {
    auto it = entries.find(key);
    if (it == entries.end()) return false;
    if (now - it->second.last_used > timeout) {
      entries.erase(it);
      return false;
    }
    it->second.last_used = now;
    return true;
  }
  void insert(std::uint64_t key, policy::PolicyId pol, double now) {
    entries[key] = Entry{pol, now};
  }
};

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableFuzz, AgreesWithReferenceModel) {
  util::Rng rng(GetParam());
  const double timeout = 5.0 + static_cast<double>(rng.next_below(20));
  // Unbounded capacity so the reference model (which has no LRU) applies.
  tables::FlowTable table(timeout, 1 << 20);
  ReferenceModel ref(timeout);

  double now = 0;
  for (int op = 0; op < 20000; ++op) {
    now += rng.next_exponential(1.0);
    const std::uint64_t key = rng.next_below(200);  // small key space -> collisions
    packet::FlowId f;
    f.src = net::IpAddress(static_cast<std::uint32_t>(key * 7919 + 1));
    f.dst = net::IpAddress(10, 0, 0, 1);
    f.src_port = static_cast<std::uint16_t>(key);
    switch (rng.next_below(3)) {
      case 0: {  // lookup
        const bool table_hit = table.lookup(f, now) != nullptr;
        const bool ref_hit = ref.lookup(key, now);
        ASSERT_EQ(table_hit, ref_hit) << "op " << op << " key " << key << " now " << now;
        break;
      }
      case 1: {  // insert
        const policy::PolicyId pol{static_cast<std::uint32_t>(rng.next_below(10))};
        table.insert(f, pol, now);
        ref.insert(key, pol, now);
        break;
      }
      case 2: {  // invalidate one policy's flows, idle or not
        const policy::PolicyId pol{static_cast<std::uint32_t>(rng.next_below(10))};
        const std::size_t erased =
            table.invalidate_where([&](const tables::FlowEntry& e) { return e.policy == pol; });
        std::size_t ref_erased = 0;
        for (auto it = ref.entries.begin(); it != ref.entries.end();) {
          if (it->second.pol == pol) {
            it = ref.entries.erase(it);
            ++ref_erased;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(erased, ref_erased) << "op " << op << " policy " << pol.v;
        ASSERT_EQ(table.size(), ref.entries.size());
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz, ::testing::Range<std::uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Routing invariants on random graphs
// ---------------------------------------------------------------------------

class RoutingInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingInvariants, HoldOnRandomWaxmanGraphs) {
  net::WaxmanParams wp;
  wp.core_count = 8;
  wp.edge_count = 12;
  wp.core_degree = 3;
  wp.seed = GetParam();
  const auto network = net::make_waxman_topology(wp);
  const auto rt = net::RoutingTables::compute(network.topo);

  std::vector<net::NodeId> routers;
  for (const auto n : network.core_routers) routers.push_back(n);
  for (const auto n : network.edge_routers) routers.push_back(n);

  for (const auto a : routers) {
    for (const auto b : routers) {
      // Symmetry on an undirected graph.
      EXPECT_DOUBLE_EQ(rt.distance(a, b), rt.distance(b, a));
      if (a == b) continue;
      // Next-hop descent: each hop strictly reduces the remaining distance.
      const net::NextHop hop = rt.next_hop(a, b);
      ASSERT_TRUE(hop.valid());
      EXPECT_LT(rt.distance(hop.node, b), rt.distance(a, b));
      // Paths compose and are loop-free (path() asserts internally too).
      const auto path = rt.path(a, b);
      ASSERT_GE(path.size(), 2u);
      std::vector<std::uint32_t> ids;
      for (const auto n : path) ids.push_back(n.v);
      std::sort(ids.begin(), ids.end());
      EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end()) << "loop in path";
      // Triangle inequality through a random waypoint.
      const auto c = routers[(a.v + b.v) % routers.size()];
      EXPECT_LE(rt.distance(a, b), rt.distance(a, c) + rt.distance(c, b) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingInvariants, ::testing::Range<std::uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Path stretch
// ---------------------------------------------------------------------------

TEST(PathStretch, EnforcedAtLeastDirectAndHpMinimal) {
  sdmbox::testing::ScenarioParams sp;
  sp.target_packets = 200000;
  auto s = sdmbox::testing::make_scenario(sp);
  const auto routing = net::RoutingTables::compute(s.network.topo);

  double hp_hops = 0, rand_hops = 0, lb_hops = 0;
  for (const auto strategy : {core::StrategyKind::kHotPotato, core::StrategyKind::kRandom,
                              core::StrategyKind::kLoadBalanced}) {
    const auto plan = s.controller->compile(
        strategy, strategy == core::StrategyKind::kLoadBalanced ? &s.traffic : nullptr);
    const auto r = analytic::evaluate_path_stretch(s.network, s.gen.policies, plan, routing,
                                                   s.flows.flows);
    EXPECT_GT(r.matched_packets, 0u);
    EXPECT_GE(r.enforced_hops, r.direct_hops);  // detours never shorten paths
    EXPECT_GE(r.stretch(), 1.0);
    if (strategy == core::StrategyKind::kHotPotato) hp_hops = r.enforced_hops;
    if (strategy == core::StrategyKind::kRandom) rand_hops = r.enforced_hops;
    if (strategy == core::StrategyKind::kLoadBalanced) lb_hops = r.enforced_hops;
  }
  // HP picks the closest box at every step: no strategy can beat it on hops.
  EXPECT_LE(hp_hops, rand_hops + 1e-9);
  EXPECT_LE(hp_hops, lb_hops + 1e-9);
}

// ---------------------------------------------------------------------------
// Distribution footprint
// ---------------------------------------------------------------------------

TEST(DistributionFootprint, CountsMatchPlanContents) {
  auto s = sdmbox::testing::make_scenario();
  const auto hp = s.controller->compile(core::StrategyKind::kHotPotato);
  const auto fp_hp = core::measure_distribution(hp);
  EXPECT_EQ(fp_hp.devices, s.network.proxies.size() + s.deployment.size());
  EXPECT_EQ(fp_hp.ratio_entries, 0u);
  EXPECT_GT(fp_hp.candidate_entries, 0u);
  EXPECT_GT(fp_hp.policy_entries, 0u);
  EXPECT_EQ(fp_hp.total_bytes,
            fp_hp.candidate_entries * core::DistributionFootprint::kCandidateBytes +
                fp_hp.policy_entries * core::DistributionFootprint::kPolicyBytes);

  const auto lb = s.controller->compile(core::StrategyKind::kLoadBalanced, &s.traffic);
  const auto fp_lb = core::measure_distribution(lb);
  EXPECT_GT(fp_lb.ratio_entries, 0u);
  EXPECT_GT(fp_lb.total_bytes, fp_hp.total_bytes);  // ratios ride along
  EXPECT_EQ(fp_lb.candidate_entries, fp_hp.candidate_entries);
}

}  // namespace
}  // namespace sdmbox
