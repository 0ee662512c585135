// Evaluation topologies from §IV.A of the paper.
//
// 1. Campus: a real-world campus network — two Internet gateways, 16 core
//    routers each connected to both gateways, and 10 edge routers each
//    connecting one stub network to the core.
// 2. Waxman: 25 core routers placed uniformly at random in a 100x100 region,
//    interconnected with probability exponentially decreasing in Euclidean
//    distance (Waxman 1988) with 4 core-core links per core router, and 400
//    edge routers spread evenly across the cores.
//
// Both generators attach one in-path policy proxy per edge router (guarding
// that router's stub subnet) and optionally a few hosts per subnet.
// Middlebox placement is a deployment concern and lives in core/deployment.
//
// Addressing scheme (documented so traffic descriptors in tests are readable):
//   device interfaces:  172.16.0.0/12, allocated sequentially
//   stub subnet i:      10.(i+1 >> 4).((i+1) & 15 << 4).0/20  (base 10.0.16.0)
//   proxy of subnet i:  first host address of the subnet
//   hosts of subnet i:  subsequent addresses
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "util/rng.hpp"

namespace sdmbox::net {

/// How policy proxies are wired to their edge routers (§III.A, Figure 2):
/// in-path proxies sit between the edge router and the stub network (hosts
/// hang off the proxy); off-path proxies hang off the edge router, which
/// loops every received packet through the proxy and back.
enum class ProxyMode : std::uint8_t { kInPath, kOffPath };

/// A generated network with its role inventory. proxies[i] guards
/// subnets[i], which is originated by edge_routers[i].
struct GeneratedNetwork {
  Topology topo;
  std::vector<NodeId> gateways;
  std::vector<NodeId> core_routers;
  std::vector<NodeId> edge_routers;
  std::vector<NodeId> proxies;             // parallel to edge_routers
  std::vector<Prefix> subnets;             // parallel to edge_routers
  std::vector<std::vector<NodeId>> hosts;  // parallel to edge_routers
  ProxyMode proxy_mode = ProxyMode::kInPath;

  /// The subnet index guarded by `proxy`, or -1.
  int subnet_index_of_proxy(NodeId proxy) const noexcept;
};

/// Hands out device addresses and stub subnets deterministically. The
/// subnet slice width is configurable: /20 slices of 10.0.0.0/8 give 4095
/// subnets (the historical default, kept for byte-identical campus/Waxman
/// addressing), /22 slices give 16383 — enough for 10k-router scale worlds.
class AddressPlan {
public:
  explicit AddressPlan(std::uint8_t subnet_prefix_len = 20);

  IpAddress next_device();        // from 172.16.0.0/12
  Prefix next_subnet();           // /len slices of 10.0.0.0/8
  IpAddress host_in(const Prefix& subnet, std::uint32_t index) const;

  /// Subnets this plan can hand out before exhausting 10.0.0.0/8.
  std::uint32_t max_subnets() const noexcept { return (1u << (subnet_prefix_len_ - 8)) - 1; }

private:
  std::uint8_t subnet_prefix_len_;
  std::uint32_t device_count_ = 0;
  std::uint32_t subnet_count_ = 0;
};

/// Redundant core uplinks per campus edge router, spread round-robin over
/// the cores: a campus needs at least this many core routers.
inline constexpr std::size_t kCampusUplinksPerEdge = 2;

struct CampusParams {
  std::size_t core_count = 16;
  std::size_t edge_count = 10;
  std::size_t hosts_per_subnet = 2;
  ProxyMode proxy_mode = ProxyMode::kInPath;
  LinkParams core_link{};           // gateway-core and core-core fabric
  LinkParams stub_link{};           // edge-proxy and proxy-host
};

/// Build the campus topology of §IV.A: two gateways, and edge-core uplinks
/// with default LinkParams. Deterministic (no randomness needed).
GeneratedNetwork make_campus_topology(const CampusParams& params = {});

struct WaxmanParams {
  std::size_t core_count = 25;
  std::size_t edge_count = 400;
  std::size_t core_degree = 4;      // core-core links per core router
  std::size_t hosts_per_subnet = 0;
  ProxyMode proxy_mode = ProxyMode::kInPath;
  LinkParams core_link{};
  LinkParams stub_link{};
  std::uint64_t seed = 1;
  /// Stub subnet slice width. The default /20 caps edge_count at 4094; use
  /// /22 for 10k-router worlds. Changing it changes every stub address, so
  /// it is a new-world knob, not a drop-in toggle.
  std::uint8_t subnet_prefix_len = 20;
};

/// Build a Waxman random topology per §IV.A: cores in a 100x100 region,
/// locality parameter 0.4, edge-core links with default LinkParams.
/// Deterministic for a fixed seed; the core graph is post-processed to
/// guarantee connectivity.
GeneratedNetwork make_waxman_topology(const WaxmanParams& params = {});

}  // namespace sdmbox::net
