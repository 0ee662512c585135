#include "net/routing.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

namespace sdmbox::net {

namespace {

constexpr double kInf = ShortestPathTree::kInfinity;

bool is_live(const std::vector<bool>* down_links, LinkId l) {
  return down_links == nullptr || !(*down_links)[l.v];
}

/// The pendant trees of one link state: what repeatedly removing nodes with
/// one distinct live neighbour peels off. What is left is the 2-core, plus
/// one node per tree-shaped component.
struct Peel {
  std::vector<NodeId> parent;        // the neighbour a peeled node hangs off; invalid in the core
  std::vector<double> up_cost;       // cheapest live link to that parent
  std::vector<std::uint32_t> order;  // peeled nodes, leaves first
};

Peel peel(const Topology& topo, const std::vector<bool>* down_links) {
  const std::size_t n = topo.node_count();
  Peel out;
  out.parent.assign(n, NodeId{});
  out.up_cost.assign(n, kInf);
  out.order.reserve(n);

  // Distinct live neighbours not yet peeled.
  std::vector<std::uint32_t> degree(n, 0);
  std::vector<std::uint32_t> seen(n, NodeId::kInvalid);
  std::vector<std::uint32_t> queue;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (const Adjacency& adj : topo.neighbors(NodeId{u})) {
      if (!is_live(down_links, adj.link) || seen[adj.neighbor.v] == u) continue;
      seen[adj.neighbor.v] = u;
      ++degree[u];
    }
    if (degree[u] == 1) queue.push_back(u);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t v = queue[head];
    if (degree[v] != 1) continue;  // its last neighbour was peeled first
    NodeId p;
    for (const Adjacency& adj : topo.neighbors(NodeId{v})) {
      if (!is_live(down_links, adj.link) || out.parent[adj.neighbor.v].valid()) continue;
      p = adj.neighbor;
      out.up_cost[v] = std::min(out.up_cost[v], topo.link(adj.link).params.cost);
    }
    out.parent[v] = p;
    out.order.push_back(v);
    degree[v] = 0;
    if (--degree[p.v] == 1) queue.push_back(p.v);
  }
  return out;
}

}  // namespace

RoutingTables RoutingTables::compute(const Topology& topo,
                                     const std::vector<bool>* down_links) {
  SDM_CHECK(down_links == nullptr || down_links->size() == topo.link_count());
  const std::size_t n = topo.node_count();
  RoutingTables rt;
  rt.n_ = n;
  rt.next_.assign(n * n, NextHop{});
  rt.dist_.assign(n * n, kInf);

  // A peeled node's only route to the rest of the network runs through its
  // parent, so Dijkstra runs over the 2-core alone and each tree hangs off
  // its core node with one addition per hop, in the order a per-node
  // net::dijkstra would sum it.
  const Peel pendant = peel(topo, down_links);
  std::vector<char> forwards(n);
  for (std::uint32_t u = 0; u < n; ++u) forwards[u] = is_forwarding(topo.node(NodeId{u}).kind);

  // The core in increasing id order, so local ids tie-break like global ones.
  std::vector<std::uint32_t> core;
  std::vector<std::uint32_t> local(n, NodeId::kInvalid);
  for (std::uint32_t u = 0; u < n; ++u) {
    if (pendant.parent[u].valid()) continue;
    local[u] = static_cast<std::uint32_t>(core.size());
    core.push_back(u);
  }
  struct Arc {
    std::uint32_t to;  // local id
    double cost;
  };
  std::vector<std::uint32_t> first_arc{0};
  std::vector<Arc> arcs;
  for (const std::uint32_t u : core) {
    for (const Adjacency& adj : topo.neighbors(NodeId{u})) {
      if (!is_live(down_links, adj.link) || local[adj.neighbor.v] == NodeId::kInvalid) continue;
      arcs.push_back(Arc{local[adj.neighbor.v], topo.link(adj.link).params.cost});
    }
    first_arc.push_back(static_cast<std::uint32_t>(arcs.size()));
  }

  const std::size_t c = core.size();
  std::vector<double> cdist(c);
  std::vector<std::uint32_t> cpred(c);
  std::vector<char> done(c);
  using Entry = std::pair<double, std::uint32_t>;
  std::vector<Entry> heap;

  for (std::uint32_t s = 0; s < n; ++s) {
    double* dist = &rt.dist_[s * n];
    NextHop* next = &rt.next_[s * n];
    // The first hop towards x, whose predecessor p on the path is settled.
    const auto hop_via = [&](std::uint32_t x, std::uint32_t p) {
      next[x] = p == s ? NextHop{NodeId{x}, topo.find_link(NodeId{s}, NodeId{x})} : next[p];
    };
    dist[s] = 0.0;

    // Climb from a peeled source to its core node while each hop forwards;
    // the source itself always expands.
    std::uint32_t at = s;
    bool expands = true;
    while (expands && pendant.parent[at].valid()) {
      const std::uint32_t p = pendant.parent[at].v;
      dist[p] = dist[at] + pendant.up_cost[at];
      if (dist[p] == kInf) break;
      hop_via(p, at);
      expands = forwards[p];
      at = p;
    }

    // Dijkstra over the core from where the climb entered it, with the
    // relaxation rule of net::dijkstra: smallest-id predecessor on equal
    // cost, and a leaf expands only as the source.
    if (expands && !pendant.parent[at].valid()) {
      const std::uint32_t root = local[at];
      std::fill(cdist.begin(), cdist.end(), kInf);
      std::fill(cpred.begin(), cpred.end(), NodeId::kInvalid);
      std::fill(done.begin(), done.end(), 0);
      cdist[root] = dist[at];
      heap.assign(1, Entry{cdist[root], root});
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const auto [d, u] = heap.back();
        heap.pop_back();
        if (d == kInf) break;  // the rest is unreachable
        if (done[u]) continue;
        done[u] = 1;
        const std::uint32_t ug = core[u];
        if (u != root) {
          dist[ug] = d;
          hop_via(ug, core[cpred[u]]);
          if (!forwards[ug]) continue;
        }
        for (std::uint32_t a = first_arc[u]; a < first_arc[u + 1]; ++a) {
          const double alt = d + arcs[a].cost;
          const std::uint32_t v = arcs[a].to;
          if (alt < cdist[v] || (alt == cdist[v] && u < cpred[v])) {
            cdist[v] = alt;
            cpred[v] = u;
            heap.emplace_back(alt, v);
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          }
        }
      }
    }

    // Fill the trees top-down. The source and its climb are already set; a
    // node is reached only through a parent that is reached and expands.
    for (auto it = pendant.order.rbegin(); it != pendant.order.rend(); ++it) {
      const std::uint32_t v = *it;
      if (dist[v] < kInf) continue;
      const std::uint32_t p = pendant.parent[v].v;
      if (dist[p] == kInf || !(forwards[p] || p == s)) continue;
      dist[v] = dist[p] + pendant.up_cost[v];
      if (dist[v] < kInf) hop_via(v, p);
    }
  }
  return rt;
}

std::vector<NodeId> RoutingTables::path(NodeId from, NodeId to) const {
  std::vector<NodeId> out;
  if (from.v >= n_ || to.v >= n_) return out;
  if (distance(from, to) == ShortestPathTree::kInfinity) return out;
  out.push_back(from);
  NodeId cur = from;
  while (cur != to) {
    const NextHop hop = next_hop(cur, to);
    if (!hop.valid()) return {};
    cur = hop.node;
    out.push_back(cur);
    SDM_CHECK_MSG(out.size() <= n_, "forwarding loop detected");
  }
  return out;
}

AddressResolver AddressResolver::build(const Topology& topo) {
  // Stub subnets terminate at the node the topology declared (the in-path
  // proxy for in-path deployments, the edge router for off-path ones).
  struct SubnetEntry {
    Prefix prefix;
    NodeId terminal;
  };
  std::vector<SubnetEntry> subnets;
  // Cut points in 64-bit arithmetic: 255.255.255.255 + 1 must not wrap.
  std::vector<std::uint64_t> cuts{0};
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    const Node& node = topo.node(NodeId{i});
    cuts.push_back(node.address.value());
    cuts.push_back(std::uint64_t{node.address.value()} + 1);
    if (node.kind != NodeKind::kEdgeRouter || !node.has_subnet) continue;
    subnets.push_back(SubnetEntry{node.subnet, node.subnet_terminal});
    cuts.push_back(node.subnet.first().value());
    cuts.push_back(std::uint64_t{node.subnet.last().value()} + 1);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (cuts.back() > ~std::uint32_t{0}) cuts.pop_back();

  std::vector<Interval> cells;
  cells.reserve(cuts.size());
  for (const std::uint64_t c : cuts) {
    cells.push_back(Interval{static_cast<std::uint32_t>(c), NodeId{}});
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
                            return a.terminal == b.terminal;
                          }),
              cells.end());
  AddressResolver r;
  r.intervals_ = std::move(cells);
  return r;
}

std::optional<NodeId> AddressResolver::resolve(IpAddress a) const {
  if (intervals_.empty()) return std::nullopt;
  // intervals_ starts at address 0, so some interval holds `a`.
  const auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), a.value(),
      [](std::uint32_t v, const Interval& iv) { return v < iv.first; });
  const NodeId n = (it - 1)->terminal;
  return n.valid() ? std::optional<NodeId>(n) : std::nullopt;
}

}  // namespace sdmbox::net
