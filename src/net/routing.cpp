#include "net/routing.hpp"

#include <algorithm>

namespace sdmbox::net {

RoutingTables RoutingTables::compute(const Topology& topo,
                                     const std::vector<bool>* down_links) {
  RoutingTables rt;
  const std::size_t n = topo.node_count();
  rt.next_.assign(n, std::vector<NextHop>(n));
  rt.dist_.assign(n, std::vector<double>(n, ShortestPathTree::kInfinity));

  for (std::uint32_t src = 0; src < n; ++src) {
    const ShortestPathTree tree = dijkstra(topo, NodeId{src}, down_links);
    for (std::uint32_t dst = 0; dst < n; ++dst) {
      rt.dist_[src][dst] = tree.distance[dst];
      if (dst == src || !tree.reachable(NodeId{dst})) continue;
      // Walk predecessors from dst back to src to find the first hop.
      NodeId hop{dst};
      while (tree.predecessor[hop.v] != NodeId{src}) {
        hop = tree.predecessor[hop.v];
        SDM_CHECK_MSG(hop.valid(), "broken predecessor chain");
      }
      rt.next_[src][dst] = NextHop{hop, topo.find_link(NodeId{src}, hop)};
    }
  }
  return rt;
}

std::vector<NodeId> RoutingTables::path(NodeId from, NodeId to) const {
  std::vector<NodeId> out;
  if (from.v >= next_.size() || to.v >= next_.size()) return out;
  if (distance(from, to) == ShortestPathTree::kInfinity) return out;
  out.push_back(from);
  NodeId cur = from;
  while (cur != to) {
    const NextHop hop = next_hop(cur, to);
    if (!hop.valid()) return {};
    cur = hop.node;
    out.push_back(cur);
    SDM_CHECK_MSG(out.size() <= next_.size(), "forwarding loop detected");
  }
  return out;
}

AddressResolver AddressResolver::build(const Topology& topo) {
  // Stub subnets terminate at the node the topology declared (the in-path
  // proxy for in-path deployments, the edge router for off-path ones).
  struct SubnetEntry {
    Prefix prefix;
    NodeId terminal;
    NodeId edge_router;
  };
  std::vector<SubnetEntry> subnets;
  // Cut points in 64-bit arithmetic: 255.255.255.255 + 1 must not wrap.
  std::vector<std::uint64_t> cuts{0};
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    const Node& node = topo.node(NodeId{i});
    cuts.push_back(node.address.value());
    cuts.push_back(std::uint64_t{node.address.value()} + 1);
    if (node.kind != NodeKind::kEdgeRouter || !node.has_subnet) continue;
    subnets.push_back(SubnetEntry{node.subnet, node.subnet_terminal, NodeId{i}});
    cuts.push_back(node.subnet.first().value());
    cuts.push_back(std::uint64_t{node.subnet.last().value()} + 1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (cuts.back() > ~std::uint32_t{0}) cuts.pop_back();

  std::vector<Interval> cells;
  cells.reserve(cuts.size());
  for (const std::uint64_t c : cuts) {
    cells.push_back(Interval{static_cast<std::uint32_t>(c), NodeId{}, NodeId{}});
  }
  const auto cell_at = [&](std::uint32_t a) {
    return static_cast<std::size_t>(
        std::upper_bound(cuts.begin(), cuts.end(), std::uint64_t{a}) - cuts.begin() - 1);
  };

  // Longest prefix first (ties by base); the first entry in this order that
  // contains an address owns it. Painting the entries in reverse order lets
  // that first entry paint last.
  std::sort(subnets.begin(), subnets.end(), [](const SubnetEntry& a, const SubnetEntry& b) {
    if (a.prefix.length() != b.prefix.length()) return a.prefix.length() > b.prefix.length();
    return a.prefix.base() < b.prefix.base();
  });
  for (auto it = subnets.rbegin(); it != subnets.rend(); ++it) {
    const std::size_t end = cell_at(it->prefix.last().value());
    for (std::size_t c = cell_at(it->prefix.first().value()); c <= end; ++c) {
      cells[c].terminal = it->terminal;
      cells[c].edge_router = it->edge_router;
    }
  }
  // An exact device match beats every prefix; the lowest NodeId wins a
  // duplicate address, so it paints last.
  for (std::uint32_t i = static_cast<std::uint32_t>(topo.node_count()); i-- > 0;) {
    cells[cell_at(topo.node(NodeId{i}).address.value())].terminal = NodeId{i};
  }

  // Merge equal neighbours: each run keeps its first cell, the lowest start.
  cells.erase(std::unique(cells.begin(), cells.end(),
                          [](const Interval& a, const Interval& b) {
                            return a.terminal == b.terminal && a.edge_router == b.edge_router;
                          }),
              cells.end());
  AddressResolver r;
  r.intervals_ = std::move(cells);
  return r;
}

const AddressResolver::Interval& AddressResolver::interval_of(IpAddress a) const {
  static constexpr Interval kNoMatch{0, NodeId{}, NodeId{}};
  if (intervals_.empty()) return kNoMatch;
  // intervals_ starts at address 0, so some interval holds `a`.
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), a.value(),
      [](std::uint32_t v, const Interval& iv) { return v < iv.first; });
  return *(it - 1);
}

std::optional<NodeId> AddressResolver::resolve(IpAddress a) const {
  const NodeId n = interval_of(a).terminal;
  return n.valid() ? std::optional<NodeId>(n) : std::nullopt;
}

std::optional<NodeId> AddressResolver::owning_edge_router(IpAddress a) const {
  const NodeId n = interval_of(a).edge_router;
  return n.valid() ? std::optional<NodeId>(n) : std::nullopt;
}

}  // namespace sdmbox::net
