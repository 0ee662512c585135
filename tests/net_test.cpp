#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "exp/world.hpp"
#include "net/ip.hpp"
#include "net/routing.hpp"
#include "net/shortest_path.hpp"
#include "net/topologies.hpp"
#include "net/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdmbox::net {
namespace {

// ---------------------------------------------------------------------------
// IpAddress / Prefix
// ---------------------------------------------------------------------------

TEST(IpAddress, OctetConstructionAndAccess) {
  const IpAddress a(10, 1, 2, 3);
  EXPECT_EQ(a.octet(0), 10);
  EXPECT_EQ(a.octet(1), 1);
  EXPECT_EQ(a.octet(2), 2);
  EXPECT_EQ(a.octet(3), 3);
  EXPECT_EQ(a.value(), 0x0a010203u);
}

TEST(IpAddress, ParseRoundTrip) {
  const auto a = IpAddress::parse("192.168.4.250");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "192.168.4.250");
}

TEST(IpAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.256").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4x").has_value());
}

TEST(Prefix, MasksHostBits) {
  const Prefix p(IpAddress(10, 1, 2, 3), 16);
  EXPECT_EQ(p.base().to_string(), "10.1.0.0");
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, ContainsAddress) {
  const Prefix p(IpAddress(10, 1, 0, 0), 16);
  EXPECT_TRUE(p.contains(IpAddress(10, 1, 200, 9)));
  EXPECT_FALSE(p.contains(IpAddress(10, 2, 0, 1)));
}

TEST(Prefix, WildcardContainsEverything) {
  EXPECT_TRUE(Prefix::wildcard().contains(IpAddress(0, 0, 0, 0)));
  EXPECT_TRUE(Prefix::wildcard().contains(IpAddress(255, 255, 255, 255)));
  EXPECT_TRUE(Prefix::wildcard().is_wildcard());
}

TEST(Prefix, HostPrefixMatchesOnlyItself) {
  const Prefix p = Prefix::host(IpAddress(1, 2, 3, 4));
  EXPECT_TRUE(p.contains(IpAddress(1, 2, 3, 4)));
  EXPECT_FALSE(p.contains(IpAddress(1, 2, 3, 5)));
}

TEST(Prefix, ContainsPrefix) {
  const Prefix wide(IpAddress(10, 0, 0, 0), 8);
  const Prefix narrow(IpAddress(10, 1, 0, 0), 16);
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
}

TEST(Prefix, OverlapsIsSymmetricContainment) {
  const Prefix a(IpAddress(10, 0, 0, 0), 8);
  const Prefix b(IpAddress(10, 5, 0, 0), 16);
  const Prefix c(IpAddress(11, 0, 0, 0), 8);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
}

TEST(Prefix, FirstAndLast) {
  const Prefix p(IpAddress(10, 1, 16, 0), 20);
  EXPECT_EQ(p.first().to_string(), "10.1.16.0");
  EXPECT_EQ(p.last().to_string(), "10.1.31.255");
}

TEST(Prefix, ParseForms) {
  const auto p = Prefix::parse("10.1.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 16);
  const auto host = Prefix::parse("1.2.3.4");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->length(), 32);
  EXPECT_FALSE(Prefix::parse("1.2.3.4/33").has_value());
  EXPECT_FALSE(Prefix::parse("1.2.3/8").has_value());
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

class TopologyTest : public ::testing::Test {
protected:
  Topology topo;
  NodeId a = topo.add_node(NodeKind::kCoreRouter, "a", IpAddress(172, 16, 0, 1));
  NodeId b = topo.add_node(NodeKind::kCoreRouter, "b", IpAddress(172, 16, 0, 2));
  NodeId c = topo.add_node(NodeKind::kEdgeRouter, "c", IpAddress(172, 16, 0, 3));
};

TEST_F(TopologyTest, NodesAndLinksAreIndexed) {
  const LinkId l = topo.add_link(a, b);
  EXPECT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.link(l).a, a);
  EXPECT_EQ(topo.link(l).other(a), b);
}

TEST_F(TopologyTest, AdjacencyIsBidirectional) {
  topo.add_link(a, b);
  ASSERT_EQ(topo.neighbors(a).size(), 1u);
  ASSERT_EQ(topo.neighbors(b).size(), 1u);
  EXPECT_EQ(topo.neighbors(a)[0].neighbor, b);
  EXPECT_EQ(topo.neighbors(b)[0].neighbor, a);
}

TEST_F(TopologyTest, SelfLinkRejected) { EXPECT_THROW(topo.add_link(a, a), ContractViolation); }

TEST_F(TopologyTest, NonPositiveCostRejected) {
  EXPECT_THROW(topo.add_link(a, b, LinkParams{.cost = 0}), ContractViolation);
}

TEST_F(TopologyTest, SubnetOnlyOnEdgeRouters) {
  topo.set_subnet(c, Prefix(IpAddress(10, 1, 0, 0), 20));
  EXPECT_TRUE(topo.node(c).has_subnet);
  EXPECT_THROW(topo.set_subnet(a, Prefix(IpAddress(10, 2, 0, 0), 20)), ContractViolation);
}

TEST_F(TopologyTest, NodesOfKind) {
  const auto cores = topo.nodes_of_kind(NodeKind::kCoreRouter);
  EXPECT_EQ(cores.size(), 2u);
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::kHost).size(), 0u);
}

TEST_F(TopologyTest, FindLink) {
  const LinkId l = topo.add_link(a, b);
  EXPECT_EQ(topo.find_link(a, b), l);
  EXPECT_EQ(topo.find_link(b, a), l);
  EXPECT_FALSE(topo.find_link(a, c).valid());
}

TEST_F(TopologyTest, Connectivity) {
  EXPECT_FALSE(topo.is_connected());
  topo.add_link(a, b);
  topo.add_link(b, c);
  EXPECT_TRUE(topo.is_connected());
}

// ---------------------------------------------------------------------------
// Dijkstra
// ---------------------------------------------------------------------------

TEST(Dijkstra, LineGraphDistances) {
  Topology t;
  const NodeId n0 = t.add_node(NodeKind::kCoreRouter, "0", IpAddress(1));
  const NodeId n1 = t.add_node(NodeKind::kCoreRouter, "1", IpAddress(2));
  const NodeId n2 = t.add_node(NodeKind::kCoreRouter, "2", IpAddress(3));
  t.add_link(n0, n1);
  t.add_link(n1, n2);
  const auto tree = dijkstra(t, n0);
  EXPECT_EQ(tree.distance[n0.v], 0);
  EXPECT_EQ(tree.distance[n1.v], 1);
  EXPECT_EQ(tree.distance[n2.v], 2);
  EXPECT_EQ(tree.path_to(n2), (std::vector<NodeId>{n0, n1, n2}));
}

TEST(Dijkstra, RespectsLinkCosts) {
  Topology t;
  const NodeId s = t.add_node(NodeKind::kCoreRouter, "s", IpAddress(1));
  const NodeId m = t.add_node(NodeKind::kCoreRouter, "m", IpAddress(2));
  const NodeId d = t.add_node(NodeKind::kCoreRouter, "d", IpAddress(3));
  t.add_link(s, d, LinkParams{.cost = 10});
  t.add_link(s, m, LinkParams{.cost = 3});
  t.add_link(m, d, LinkParams{.cost = 3});
  const auto tree = dijkstra(t, s);
  EXPECT_EQ(tree.distance[d.v], 6);  // via m, not the direct cost-10 link
  EXPECT_EQ(tree.path_to(d), (std::vector<NodeId>{s, m, d}));
}

TEST(Dijkstra, UnreachableNodeIsInfinite) {
  Topology t;
  const NodeId s = t.add_node(NodeKind::kCoreRouter, "s", IpAddress(1));
  const NodeId iso = t.add_node(NodeKind::kCoreRouter, "iso", IpAddress(2));
  const auto tree = dijkstra(t, s);
  EXPECT_FALSE(tree.reachable(iso));
  EXPECT_TRUE(tree.path_to(iso).empty());
}

TEST(Dijkstra, LeavesDoNotForwardTransit) {
  // s -- host -- d : the only path passes a host, which must not forward.
  Topology t;
  const NodeId s = t.add_node(NodeKind::kCoreRouter, "s", IpAddress(1));
  const NodeId h = t.add_node(NodeKind::kHost, "h", IpAddress(2));
  const NodeId d = t.add_node(NodeKind::kCoreRouter, "d", IpAddress(3));
  t.add_link(s, h);
  t.add_link(h, d);
  const auto tree = dijkstra(t, s);
  EXPECT_TRUE(tree.reachable(h));
  EXPECT_FALSE(tree.reachable(d));
}

TEST(Dijkstra, MiddleboxesAreLeavesButProxiesForward) {
  Topology t;
  const NodeId s = t.add_node(NodeKind::kCoreRouter, "s", IpAddress(1));
  const NodeId mb = t.add_node(NodeKind::kMiddlebox, "mb", IpAddress(2));
  const NodeId px = t.add_node(NodeKind::kPolicyProxy, "px", IpAddress(3));
  const NodeId d1 = t.add_node(NodeKind::kCoreRouter, "d1", IpAddress(4));
  const NodeId d2 = t.add_node(NodeKind::kCoreRouter, "d2", IpAddress(5));
  t.add_link(s, mb);
  t.add_link(mb, d1);  // only via middlebox: unreachable
  t.add_link(s, px);
  t.add_link(px, d2);  // via in-path proxy: reachable
  const auto tree = dijkstra(t, s);
  EXPECT_FALSE(tree.reachable(d1));
  EXPECT_TRUE(tree.reachable(d2));
}

TEST(Dijkstra, LeafAsSourceStillExpands) {
  Topology t;
  const NodeId h = t.add_node(NodeKind::kHost, "h", IpAddress(1));
  const NodeId r = t.add_node(NodeKind::kCoreRouter, "r", IpAddress(2));
  t.add_link(h, r);
  const auto tree = dijkstra(t, h);
  EXPECT_TRUE(tree.reachable(r));
}

TEST(Dijkstra, EqualCostTieBreakIsDeterministic) {
  // Two equal-cost paths s->a->d and s->b->d; predecessor of d must be the
  // smaller NodeId (a) every time.
  Topology t;
  const NodeId s = t.add_node(NodeKind::kCoreRouter, "s", IpAddress(1));
  const NodeId a = t.add_node(NodeKind::kCoreRouter, "a", IpAddress(2));
  const NodeId b = t.add_node(NodeKind::kCoreRouter, "b", IpAddress(3));
  const NodeId d = t.add_node(NodeKind::kCoreRouter, "d", IpAddress(4));
  t.add_link(s, a);
  t.add_link(s, b);
  t.add_link(a, d);
  t.add_link(b, d);
  for (int i = 0; i < 5; ++i) {
    const auto tree = dijkstra(t, s);
    EXPECT_EQ(tree.predecessor[d.v], a);
  }
}

// ---------------------------------------------------------------------------
// RoutingTables / AddressResolver
// ---------------------------------------------------------------------------

TEST(Routing, NextHopsComposeIntoShortestPaths) {
  const auto net = make_campus_topology();
  const auto rt = RoutingTables::compute(net.topo);
  const NodeId from = net.edge_routers[0];
  const NodeId to = net.edge_routers[7];
  const auto path = rt.path(from, to);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front(), from);
  EXPECT_EQ(path.back(), to);
  // Path length matches the Dijkstra distance (unit costs).
  EXPECT_DOUBLE_EQ(rt.distance(from, to), static_cast<double>(path.size() - 1));
}

TEST(Routing, DistanceIsSymmetricOnUndirectedGraph) {
  const auto net = make_campus_topology();
  const auto rt = RoutingTables::compute(net.topo);
  for (std::size_t i = 0; i < 5; ++i) {
    const NodeId a = net.edge_routers[i];
    const NodeId b = net.core_routers[i];
    EXPECT_DOUBLE_EQ(rt.distance(a, b), rt.distance(b, a));
  }
}

TEST(Routing, SelfNextHopInvalid) {
  const auto net = make_campus_topology();
  const auto rt = RoutingTables::compute(net.topo);
  EXPECT_FALSE(rt.next_hop(net.gateways[0], net.gateways[0]).valid());
}

/// Equal next hops and bit-equal distances.
bool same_entry(NextHop a, double a_dist, NextHop b, double b_dist) {
  return a.node == b.node && a.link == b.link &&
         std::bit_cast<std::uint64_t>(a_dist) == std::bit_cast<std::uint64_t>(b_dist);
}

/// The tables the plain way: one net::dijkstra per source, the predecessor
/// walk from each destination back to the source, and find_link's first
/// adjacency towards the hop found. Checks `rt` against them for every pair
/// (equal next hop, bit-equal distance) and returns how many pairs are
/// reachable, so callers can see the check was not vacuous.
std::size_t expect_matches_per_source_dijkstra(const RoutingTables& rt, const Topology& topo,
                                               const std::vector<bool>* down,
                                               const std::string& what) {
  const std::uint32_t n = static_cast<std::uint32_t>(topo.node_count());
  EXPECT_EQ(rt.node_count(), n) << what;
  std::size_t reachable = 0;
  std::size_t mismatches = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const ShortestPathTree tree = dijkstra(topo, NodeId{s}, down);
    for (std::uint32_t d = 0; d < n; ++d) {
      NextHop want;
      if (d != s && tree.reachable(NodeId{d})) {
        NodeId hop{d};
        while (tree.predecessor[hop.v] != NodeId{s}) hop = tree.predecessor[hop.v];
        want = NextHop{hop, topo.find_link(NodeId{s}, hop)};
        ++reachable;
      }
      const NextHop got = rt.next_hop(NodeId{s}, NodeId{d});
      const double got_dist = rt.distance(NodeId{s}, NodeId{d});
      if (same_entry(got, got_dist, want, tree.distance[d])) continue;
      if (++mismatches <= 3) {
        ADD_FAILURE() << what << ": " << s << " -> " << d << " got hop " << got.node.v << " link "
                      << got.link.v << " dist " << got_dist << ", want hop " << want.node.v
                      << " link " << want.link.v << " dist " << tree.distance[d];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << what;
  return reachable;
}

/// A seeded random topology of 1-40 nodes: every NodeKind, integer,
/// fractional and (rarely) infinite costs, a random forest whose pendant
/// chains run several hops deep, and, unless it stays a pure forest, cross
/// links that close cycles and parallel twins of existing links.
Topology random_topology(util::Rng& rng) {
  Topology t;
  const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.next_below(40));
  // Mostly forwarding nodes, so long routes exist.
  static constexpr NodeKind kKinds[] = {
      NodeKind::kGatewayRouter, NodeKind::kCoreRouter, NodeKind::kEdgeRouter,
      NodeKind::kCoreRouter,    NodeKind::kEdgeRouter, NodeKind::kPolicyProxy,
      NodeKind::kPolicyProxy,   NodeKind::kHost,       NodeKind::kMiddlebox};
  for (std::uint32_t i = 0; i < n; ++i) {
    t.add_node(kKinds[rng.pick_index(std::size(kKinds))], std::to_string(i), IpAddress(i + 1));
  }
  const auto link = [&](std::uint32_t a, std::uint32_t b) {
    double cost = rng.next_bool(0.5) ? static_cast<double>(1 + rng.next_below(4))
                                     : 0.1 * static_cast<double>(1 + rng.next_below(30));
    if (rng.next_bool(0.01)) cost = ShortestPathTree::kInfinity;
    t.add_link(NodeId{a}, NodeId{b}, LinkParams{.cost = cost});
  };
  // Each node hangs off an earlier one, or starts a part of its own.
  for (std::uint32_t i = 1; i < n; ++i) {
    if (!rng.next_bool(0.1)) link(i, static_cast<std::uint32_t>(rng.next_below(i)));
  }
  const std::uint64_t extra_per_node = rng.next_below(3);  // 0: a pure forest
  if (extra_per_node == 0 || t.link_count() == 0) return t;
  for (std::uint64_t e = 0; e < extra_per_node * n / 2; ++e) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(n));
    const auto b = static_cast<std::uint32_t>(rng.next_below(n));
    if (a != b) link(a, b);
  }
  for (std::uint64_t e = rng.next_below(4); e > 0; --e) {
    const Link twin = t.link(LinkId{static_cast<std::uint32_t>(rng.pick_index(t.link_count()))});
    link(twin.a.v, twin.b.v);
  }
  return t;
}

/// Two identical tables: equal next hops and bit-equal distances everywhere.
void expect_same_tables(const RoutingTables& a, const RoutingTables& b, const std::string& what) {
  ASSERT_EQ(a.node_count(), b.node_count()) << what;
  std::size_t differ = 0;
  for (std::uint32_t s = 0; s < a.node_count(); ++s) {
    for (std::uint32_t d = 0; d < a.node_count(); ++d) {
      differ += !same_entry(a.next_hop(NodeId{s}, NodeId{d}), a.distance(NodeId{s}, NodeId{d}),
                            b.next_hop(NodeId{s}, NodeId{d}), b.distance(NodeId{s}, NodeId{d}));
    }
  }
  EXPECT_EQ(differ, 0u) << what;
}

TEST(Routing, MatchesPerSourceDijkstra) {
  util::Rng rng(0x2c0e5eedULL);
  std::size_t reachable = 0;
  for (int i = 0; i < 1500; ++i) {
    const Topology topo = random_topology(rng);
    std::vector<bool> down(topo.link_count(), false);
    const bool masked = rng.next_bool(0.6);
    if (masked) {
      const double p = 0.1 + 0.2 * static_cast<double>(rng.next_below(3));
      for (std::size_t l = 0; l < down.size(); ++l) down[l] = rng.next_bool(p);
    }
    const std::vector<bool>* mask = masked ? &down : nullptr;
    reachable += expect_matches_per_source_dijkstra(RoutingTables::compute(topo, mask), topo,
                                                    mask, "random topology " + std::to_string(i));
  }
  EXPECT_GT(reachable, 100000u);

  // The generated worlds, controller host included, as World routes them.
  for (const exp::TopologyKind kind : {exp::TopologyKind::kWaxman, exp::TopologyKind::kCampus}) {
    exp::ScenarioSpec spec;
    spec.topology = kind;
    spec.seed = 2019;
    const auto w = exp::build_world(spec);
    w->prepare_sim();
    const Topology& topo = w->network.topo;
    const std::size_t n = topo.node_count();
    EXPECT_EQ(expect_matches_per_source_dijkstra(w->routing, topo, nullptr, "world"), n * (n - 1));
  }
}

TEST(Routing, RecomputeRoundTripMatchesFreshCompute) {
  const auto net = make_campus_topology();
  const LinkId core_link = net.topo.find_link(net.core_routers[0], net.gateways[0]);
  ASSERT_TRUE(core_link.valid());
  std::vector<bool> down(net.topo.link_count(), false);
  RoutingTables rt = RoutingTables::compute(net.topo, &down);
  const double before = rt.distance(net.core_routers[0], net.gateways[0]);

  down[core_link.v] = true;
  rt.recompute(net.topo, &down);
  EXPECT_GT(rt.distance(net.core_routers[0], net.gateways[0]), before);
  expect_same_tables(rt, RoutingTables::compute(net.topo, &down), "link down");

  down[core_link.v] = false;
  rt.recompute(net.topo, &down);
  expect_same_tables(rt, RoutingTables::compute(net.topo), "link back up");
}

TEST(Routing, DownLinkMaskMustCoverEveryLink) {
  const auto net = make_campus_topology();
  const std::vector<bool> short_mask(net.topo.link_count() - 1, false);
  EXPECT_THROW(RoutingTables::compute(net.topo, &short_mask), ContractViolation);
  EXPECT_THROW(dijkstra(net.topo, net.gateways[0], &short_mask), ContractViolation);
  const std::vector<bool> full_mask(net.topo.link_count(), false);
  EXPECT_NO_THROW(RoutingTables::compute(net.topo, &full_mask));
}

TEST(Resolver, ExactDeviceAddress) {
  const auto net = make_campus_topology();
  const auto res = AddressResolver::build(net.topo);
  const NodeId gw = net.gateways[0];
  const auto found = res.resolve(net.topo.node(gw).address);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, gw);
}

TEST(Resolver, SubnetAddressesResolveToProxy) {
  const auto net = make_campus_topology();
  const auto res = AddressResolver::build(net.topo);
  // An arbitrary (non-device) host address in subnet 3 terminates at proxy 3
  // because the proxy is deployed in-path.
  const IpAddress addr(net.subnets[3].base().value() + 77);
  const auto found = res.resolve(addr);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, net.proxies[3]);
}

TEST(Resolver, UnknownAddressIsNullopt) {
  const auto net = make_campus_topology();
  const auto res = AddressResolver::build(net.topo);
  EXPECT_FALSE(res.resolve(IpAddress(203, 0, 113, 7)).has_value());
}

/// The resolver's reference semantics, written the plain way: an exact
/// device match (the lowest NodeId wins a shared address), else the first
/// stub subnet containing the address in (length desc, base asc) order.
class LinearResolver {
public:
  explicit LinearResolver(const Topology& topo) {
    for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
      const Node& node = topo.node(NodeId{i});
      exact_.emplace(node.address.value(), NodeId{i});
      if (node.kind == NodeKind::kEdgeRouter && node.has_subnet) {
        subnets_.push_back(Entry{node.subnet, node.subnet_terminal});
      }
    }
    std::sort(subnets_.begin(), subnets_.end(), [](const Entry& a, const Entry& b) {
      if (a.prefix.length() != b.prefix.length()) return a.prefix.length() > b.prefix.length();
      return a.prefix.base() < b.prefix.base();
    });
  }

  std::optional<NodeId> resolve(IpAddress a) const {
    if (const auto it = exact_.find(a.value()); it != exact_.end()) return it->second;
    for (const Entry& e : subnets_) {
      if (e.prefix.contains(a)) return e.terminal;
    }
    return std::nullopt;
  }

private:
  struct Entry {
    Prefix prefix;
    NodeId terminal;
  };
  std::map<std::uint32_t, NodeId> exact_;
  std::vector<Entry> subnets_;
};

/// Probe the lookup at every address where its answer can change: a-1, a
/// and a+1 around each device address, first-1, first, last and last+1 of
/// each stub subnet, and both ends of the address space. Returns the number
/// of probes that resolved, so callers can see the probes were not vacuous.
std::size_t expect_matches_reference(const Topology& topo) {
  const AddressResolver res = AddressResolver::build(topo);
  const LinearResolver ref(topo);
  std::vector<std::uint32_t> probes{0, ~std::uint32_t{0}};
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    const Node& node = topo.node(NodeId{i});
    const std::uint32_t a = node.address.value();
    probes.insert(probes.end(), {a - 1, a, a + 1});
    if (!node.has_subnet) continue;
    const std::uint32_t first = node.subnet.first().value();
    const std::uint32_t last = node.subnet.last().value();
    probes.insert(probes.end(), {first - 1, first, last, last + 1});
  }
  std::size_t resolved = 0;
  for (const std::uint32_t v : probes) {
    const IpAddress a(v);
    EXPECT_EQ(res.resolve(a), ref.resolve(a)) << a.to_string();
    if (ref.resolve(a)) ++resolved;
  }
  return resolved;
}

TEST(Resolver, MatchesLinearReferenceAtEveryBoundary) {
  const auto campus = make_campus_topology();
  EXPECT_GT(expect_matches_reference(campus.topo), campus.topo.node_count());

  CampusParams off_path;
  off_path.proxy_mode = ProxyMode::kOffPath;
  const auto off = make_campus_topology(off_path);
  EXPECT_GT(expect_matches_reference(off.topo), off.topo.node_count());

  const auto waxman = make_waxman_topology();
  EXPECT_GT(expect_matches_reference(waxman.topo), waxman.topo.node_count());

  // A /16 that contains a /24 owned by another edge router, a device inside
  // the /24, two devices sharing one address, and devices at both ends of
  // the address space.
  Topology topo;
  const NodeId wide = topo.add_node(NodeKind::kEdgeRouter, "wide", IpAddress(172, 16, 0, 1));
  const NodeId narrow = topo.add_node(NodeKind::kEdgeRouter, "narrow", IpAddress(172, 16, 0, 2));
  const NodeId proxy = topo.add_node(NodeKind::kPolicyProxy, "proxy", IpAddress(10, 1, 2, 1));
  const NodeId dup_a = topo.add_node(NodeKind::kHost, "dup_a", IpAddress(10, 1, 9, 9));
  const NodeId dup_b = topo.add_node(NodeKind::kHost, "dup_b", IpAddress(10, 1, 9, 9));
  topo.add_node(NodeKind::kHost, "top", IpAddress(255, 255, 255, 255));
  topo.add_node(NodeKind::kHost, "bottom", IpAddress(0, 0, 0, 0));
  topo.set_subnet(wide, Prefix(IpAddress(10, 1, 0, 0), 16));
  topo.set_subnet(narrow, Prefix(IpAddress(10, 1, 2, 0), 24), proxy);
  EXPECT_GT(expect_matches_reference(topo), topo.node_count());

  const AddressResolver res = AddressResolver::build(topo);
  EXPECT_EQ(res.resolve(IpAddress(10, 1, 2, 77)), proxy);
  EXPECT_EQ(res.resolve(IpAddress(10, 1, 3, 0)), wide);
  EXPECT_EQ(res.resolve(IpAddress(10, 1, 2, 1)), proxy);
  EXPECT_EQ(res.resolve(IpAddress(10, 1, 9, 9)), dup_a);
  EXPECT_NE(res.resolve(IpAddress(10, 1, 9, 9)), dup_b);
  EXPECT_FALSE(res.resolve(IpAddress(10, 2, 0, 0)).has_value());
  // A resolver that was never built matches nothing.
  EXPECT_FALSE(AddressResolver{}.resolve(IpAddress(10, 1, 2, 77)).has_value());
}

// ---------------------------------------------------------------------------
// Topology generators
// ---------------------------------------------------------------------------

TEST(Campus, MatchesPaperInventory) {
  const auto net = make_campus_topology();
  EXPECT_EQ(net.gateways.size(), 2u);
  EXPECT_EQ(net.core_routers.size(), 16u);
  EXPECT_EQ(net.edge_routers.size(), 10u);
  EXPECT_EQ(net.proxies.size(), 10u);
  EXPECT_EQ(net.subnets.size(), 10u);
  EXPECT_TRUE(net.topo.is_connected());
}

TEST(Campus, EveryCoreConnectsToBothGateways) {
  const auto net = make_campus_topology();
  for (const NodeId core : net.core_routers) {
    for (const NodeId gw : net.gateways) {
      EXPECT_TRUE(net.topo.find_link(core, gw).valid());
    }
  }
}

TEST(Campus, EdgeRoutersHaveRedundantUplinks) {
  const auto net = make_campus_topology();
  for (const NodeId edge : net.edge_routers) {
    std::size_t core_links = 0;
    for (const auto& adj : net.topo.neighbors(edge)) {
      core_links += net.topo.node(adj.neighbor).kind == NodeKind::kCoreRouter;
    }
    EXPECT_EQ(core_links, 2u);
  }
}

TEST(Campus, ProxiesAreInPath) {
  const auto net = make_campus_topology();
  for (std::size_t i = 0; i < net.proxies.size(); ++i) {
    EXPECT_TRUE(net.topo.find_link(net.edge_routers[i], net.proxies[i]).valid());
    EXPECT_EQ(net.topo.node(net.proxies[i]).kind, NodeKind::kPolicyProxy);
    // Hosts hang off the proxy, not the edge router.
    for (const NodeId host : net.hosts[i]) {
      EXPECT_TRUE(net.topo.find_link(net.proxies[i], host).valid());
    }
  }
}

TEST(Campus, SubnetsAreDisjoint) {
  const auto net = make_campus_topology();
  for (std::size_t i = 0; i < net.subnets.size(); ++i) {
    for (std::size_t j = i + 1; j < net.subnets.size(); ++j) {
      EXPECT_FALSE(net.subnets[i].overlaps(net.subnets[j]));
    }
  }
}

TEST(Campus, ProxyAddressInsideItsSubnet) {
  const auto net = make_campus_topology();
  for (std::size_t i = 0; i < net.proxies.size(); ++i) {
    EXPECT_TRUE(net.subnets[i].contains(net.topo.node(net.proxies[i]).address));
  }
}

TEST(Campus, SubnetIndexOfProxy) {
  const auto net = make_campus_topology();
  EXPECT_EQ(net.subnet_index_of_proxy(net.proxies[4]), 4);
  EXPECT_EQ(net.subnet_index_of_proxy(net.edge_routers[0]), -1);
}

TEST(Waxman, MatchesPaperInventory) {
  WaxmanParams p;
  const auto net = make_waxman_topology(p);
  EXPECT_EQ(net.core_routers.size(), 25u);
  EXPECT_EQ(net.edge_routers.size(), 400u);
  EXPECT_EQ(net.proxies.size(), 400u);
  EXPECT_TRUE(net.topo.is_connected());
}

TEST(Waxman, EdgeRoutersSpreadEvenly) {
  const auto net = make_waxman_topology();
  std::vector<std::size_t> per_core(net.core_routers.size(), 0);
  for (const NodeId edge : net.edge_routers) {
    for (const auto& adj : net.topo.neighbors(edge)) {
      const auto it = std::find(net.core_routers.begin(), net.core_routers.end(), adj.neighbor);
      if (it != net.core_routers.end()) {
        ++per_core[static_cast<std::size_t>(it - net.core_routers.begin())];
      }
    }
  }
  for (const std::size_t n : per_core) EXPECT_EQ(n, 400u / 25u);
}

TEST(Waxman, CoreDegreeAtLeastTarget) {
  const auto net = make_waxman_topology();
  for (const NodeId core : net.core_routers) {
    std::size_t core_links = 0;
    for (const auto& adj : net.topo.neighbors(core)) {
      core_links += net.topo.node(adj.neighbor).kind == NodeKind::kCoreRouter;
    }
    EXPECT_GE(core_links, 4u);
  }
}

TEST(Waxman, DeterministicForFixedSeed) {
  WaxmanParams p;
  p.seed = 99;
  const auto a = make_waxman_topology(p);
  const auto b = make_waxman_topology(p);
  EXPECT_EQ(a.topo.link_count(), b.topo.link_count());
  for (std::uint32_t i = 0; i < a.topo.link_count(); ++i) {
    EXPECT_EQ(a.topo.link(LinkId{i}).a, b.topo.link(LinkId{i}).a);
    EXPECT_EQ(a.topo.link(LinkId{i}).b, b.topo.link(LinkId{i}).b);
  }
}

TEST(Waxman, DifferentSeedsGiveDifferentWiring) {
  WaxmanParams pa, pb;
  pa.seed = 1;
  pb.seed = 2;
  const auto a = make_waxman_topology(pa);
  const auto b = make_waxman_topology(pb);
  bool any_diff = a.topo.link_count() != b.topo.link_count();
  for (std::uint32_t i = 0; !any_diff && i < a.topo.link_count(); ++i) {
    any_diff = a.topo.link(LinkId{i}).a != b.topo.link(LinkId{i}).a ||
               a.topo.link(LinkId{i}).b != b.topo.link(LinkId{i}).b;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Waxman, SmallConfigurationsWork) {
  WaxmanParams p;
  p.core_count = 3;
  p.edge_count = 6;
  p.core_degree = 2;
  const auto net = make_waxman_topology(p);
  EXPECT_TRUE(net.topo.is_connected());
  EXPECT_EQ(net.edge_routers.size(), 6u);
}

TEST(AddressPlanTest, SubnetsAndDevicesDisjoint) {
  AddressPlan plan;
  const IpAddress dev = plan.next_device();
  const Prefix sub = plan.next_subnet();
  EXPECT_FALSE(sub.contains(dev));
  EXPECT_TRUE(sub.contains(plan.host_in(sub, 0)));
  EXPECT_TRUE(sub.contains(plan.host_in(sub, 100)));
}

}  // namespace
}  // namespace sdmbox::net
