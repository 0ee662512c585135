// Forwarding tables and address resolution — the "traditional routing" substrate.
//
// This is the piece the paper deliberately does NOT modify: routers run a
// classical link-state protocol (OSPF in the paper), forwarding every packet
// toward its destination address along shortest paths, oblivious to
// middlebox policies. We model the converged state of that protocol: each
// node gets a next-hop table over all destination nodes, the one per-node
// Dijkstra trees with deterministic equal-cost tie-breaking would give.
// Only the 2-core needs Dijkstra: pendant trees (proxies, middleboxes,
// single-homed routers) are filled in from the node they hang off.
//
// AddressResolver maps packet destination addresses to the topology node
// that terminates them: exact match on device (interface) addresses first,
// then longest-prefix match over the stub subnets originated by edge
// routers, mirroring how OSPF advertises stub prefixes. A stub subnet
// resolves to its terminal (the in-path proxy, else the edge router); which
// subnet holds a flow's address is the agents' question, answered from
// GeneratedNetwork::subnets.
#pragma once

#include <optional>
#include <vector>

#include "net/shortest_path.hpp"
#include "net/topology.hpp"

namespace sdmbox::net {

/// Next-hop entry: neighbor to forward to and the connecting link.
struct NextHop {
  NodeId node;
  LinkId link;
  bool valid() const noexcept { return node.valid(); }
};

/// Converged forwarding state for the whole network.
class RoutingTables {
public:
  /// Build forwarding tables for every node from link-state shortest paths.
  /// `down_links` (indexed by LinkId.v, one entry per link) models the
  /// converged state after the routing protocol detected those link failures.
  static RoutingTables compute(const Topology& topo,
                               const std::vector<bool>* down_links = nullptr);

  /// Reconverge in place against the current link state — the "OSPF detects a
  /// link event and floods new LSAs" hook. Consumers that hold a reference to
  /// this object (e.g. a running SimNetwork) observe the new tables on their
  /// next lookup, which models routers cutting over to the freshly converged
  /// forwarding state.
  void recompute(const Topology& topo, const std::vector<bool>* down_links = nullptr) {
    *this = compute(topo, down_links);
  }

  /// Next hop at `at` towards destination node `dest`; invalid if unreachable
  /// or at == dest.
  NextHop next_hop(NodeId at, NodeId dest) const {
    SDM_CHECK(at.v < n_ && dest.v < n_);
    return next_[at.v * n_ + dest.v];
  }

  /// Shortest-path cost between two nodes (infinity if unreachable).
  double distance(NodeId from, NodeId to) const {
    SDM_CHECK(from.v < n_ && to.v < n_);
    return dist_[from.v * n_ + to.v];
  }

  /// Full node path from -> to (inclusive); empty if unreachable.
  std::vector<NodeId> path(NodeId from, NodeId to) const;

  std::size_t node_count() const noexcept { return n_; }

private:
  // Row-major n_ x n_: next_[u * n_ + d] = next hop at u towards d;
  // dist_[u * n_ + d] = shortest cost.
  std::size_t n_ = 0;
  std::vector<NextHop> next_;
  std::vector<double> dist_;
};

/// Maps IP addresses to the topology node that terminates them.
class AddressResolver {
public:
  /// Index all device addresses and stub subnets in the topology. Stub
  /// subnets resolve to `subnet_terminal(edge_router)` — the in-path policy
  /// proxy when one is attached, else the edge router itself.
  static AddressResolver build(const Topology& topo);

  /// Resolve an address: exact device match first, then longest-prefix match
  /// over stub subnets. nullopt if nothing matches.
  std::optional<NodeId> resolve(IpAddress a) const;

private:
  // The answer is fixed between consecutive cut points (every device
  // address a and a+1, every subnet's first and last+1), so build() computes
  // it once per interval and a lookup is one binary search.
  struct Interval {
    std::uint32_t first;  // lowest address of the interval
    NodeId terminal;      // resolve(); invalid when nothing matches
  };

  // Sorted by `first`, neighbours with equal terminals merged, the first
  // starting at 0.0.0.0; empty in a default-constructed resolver, which
  // matches nothing.
  std::vector<Interval> intervals_;
};

}  // namespace sdmbox::net
