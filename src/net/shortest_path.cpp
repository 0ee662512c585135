#include "net/shortest_path.hpp"

#include <algorithm>
#include <queue>

namespace sdmbox::net {

std::vector<NodeId> ShortestPathTree::path_to(NodeId dest) const {
  if (!reachable(dest)) return {};
  std::vector<NodeId> rev;
  for (NodeId n = dest; n.valid(); n = predecessor[n.v]) {
    rev.push_back(n);
    if (n == source) break;
  }
  std::reverse(rev.begin(), rev.end());
  return rev;
}

ShortestPathTree dijkstra(const Topology& topo, NodeId source,
                          const std::vector<bool>* down_links) {
  const std::size_t n = topo.node_count();
  SDM_CHECK(source.v < n);
  SDM_CHECK(down_links == nullptr || down_links->size() == topo.link_count());
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(n, ShortestPathTree::kInfinity);
  tree.predecessor.assign(n, NodeId{});
  tree.distance[source.v] = 0.0;

  // (distance, node) min-heap; stale entries skipped on pop. Tie-break on
  // node id keeps extraction order deterministic for equal distances.
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source.v);
  std::vector<bool> done(n, false);

  while (!heap.empty()) {
    const auto [dist, uv] = heap.top();
    heap.pop();
    if (done[uv]) continue;
    done[uv] = true;
    const NodeId u{uv};
    // Leaf devices (hosts, middleboxes) do not forward transit traffic:
    // expand their neighbors only when the leaf is the source itself.
    if (!is_forwarding(topo.node(u).kind) && u != source) continue;
    for (const auto& adj : topo.neighbors(u)) {
      if (down_links != nullptr && (*down_links)[adj.link.v]) continue;
      const double alt = dist + topo.link(adj.link).params.cost;
      auto& cur = tree.distance[adj.neighbor.v];
      // Strictly-better relaxation, or equal-cost with smaller predecessor id
      // (deterministic equal-cost tie-break).
      if (alt < cur || (alt == cur && u < tree.predecessor[adj.neighbor.v])) {
        cur = alt;
        tree.predecessor[adj.neighbor.v] = u;
        heap.emplace(alt, adj.neighbor.v);
      }
    }
  }
  return tree;
}

}  // namespace sdmbox::net
