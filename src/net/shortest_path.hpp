// Dijkstra shortest paths over the topology.
//
// Used by the middlebox controller to find each node's closest middleboxes
// m_x^e and candidate sets M_x^e (§III.B/C of the paper). Its rule is also the
// routing substrate's: RoutingTables (our stand-in for OSPF's link-state SPF
// computation) gives the tables per-node runs of this function would, and
// the tests hold it to that.
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
/// `down_links` (optional, indexed by LinkId.v, one entry per link) excludes
/// failed links — the converged state after the routing protocol routes
/// around a link failure.
ShortestPathTree dijkstra(const Topology& topo, NodeId source,
                          const std::vector<bool>* down_links = nullptr);

}  // namespace sdmbox::net
