// Dijkstra shortest paths over the topology.
//
// Used twice: (1) by the routing substrate to build per-router forwarding
// tables — our stand-in for OSPF's link-state SPF computation — and (2) by
// the middlebox controller to find each node's closest middleboxes m_x^e and
// candidate sets M_x^e (§III.B/C of the paper).
//
// Tie-breaking is deterministic: among equal-cost alternatives we prefer the
// path whose predecessor has the smaller NodeId. This pins down OSPF's
// implementation-defined equal-cost choice so runs are reproducible.
#pragma once

#include <limits>
#include <vector>

#include "net/topology.hpp"

namespace sdmbox::net {

/// Result of a single-source shortest-path computation.
struct ShortestPathTree {
  NodeId source;
  std::vector<double> distance;    // indexed by NodeId.v; infinity if unreachable
  std::vector<NodeId> predecessor; // invalid for source / unreachable
  std::vector<LinkId> via_link;    // link towards predecessor

  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  bool reachable(NodeId n) const noexcept {
    return distance[n.v] < kInfinity;
  }

  /// Node sequence source..dest inclusive; empty if unreachable.
  std::vector<NodeId> path_to(NodeId dest) const;
};

/// Dijkstra from `source`. Only router nodes forward transit traffic; non-router
/// nodes (hosts, proxies, middleboxes) are leaves — paths may start or end at
/// them but never pass through them, mirroring real stub devices.
/// `down_links` (optional, indexed by LinkId.v) excludes failed links — the
/// converged state after the routing protocol routes around a link failure.
ShortestPathTree dijkstra(const Topology& topo, NodeId source,
                          const std::vector<bool>* down_links = nullptr);

/// The k nodes from `candidates` closest to `from` (ties by NodeId), in
/// increasing distance order. Unreachable candidates are skipped; fewer than k
/// results are returned if not enough candidates are reachable.
std::vector<NodeId> k_closest(const ShortestPathTree& tree, const std::vector<NodeId>& candidates,
                              std::size_t k);

}  // namespace sdmbox::net
