#include "net/topologies.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>

namespace sdmbox::net {

int GeneratedNetwork::subnet_index_of_proxy(NodeId proxy) const noexcept {
  for (std::size_t i = 0; i < proxies.size(); ++i) {
    if (proxies[i] == proxy) return static_cast<int>(i);
  }
  return -1;
}

IpAddress AddressPlan::next_device() {
  // 172.16.0.0/12 gives us 2^20 device addresses; allocate sequentially
  // starting at 172.16.0.1.
  ++device_count_;
  SDM_CHECK_MSG(device_count_ < (1u << 20), "device address space exhausted");
  return IpAddress((172u << 24) | (16u << 16) | device_count_);
}

AddressPlan::AddressPlan(std::uint8_t subnet_prefix_len)
    : subnet_prefix_len_(subnet_prefix_len) {
  // Slices must fit inside 10.0.0.0/8 and leave room for base+broadcast+2
  // usable hosts per subnet (random_host needs span >= 1 at /28).
  SDM_CHECK_MSG(subnet_prefix_len_ > 8 && subnet_prefix_len_ <= 28,
                "subnet prefix length must be in (8, 28]");
}

Prefix AddressPlan::next_subnet() {
  ++subnet_count_;
  SDM_CHECK_MSG(subnet_count_ <= max_subnets(), "subnet address space exhausted");
  const std::uint32_t base = (10u << 24) | (subnet_count_ << (32 - subnet_prefix_len_));
  return Prefix(IpAddress(base), subnet_prefix_len_);
}

IpAddress AddressPlan::host_in(const Prefix& subnet, std::uint32_t index) const {
  SDM_CHECK_MSG(index + 1 < (1u << (32 - subnet.length())), "host index out of subnet range");
  return IpAddress(subnet.base().value() + 1 + index);
}

namespace {

constexpr std::size_t kCampusGateways = 2;  // §IV.A: two Internet gateways
constexpr double kWaxmanRegion = 100.0;     // core coordinates in [0, region)^2
constexpr double kWaxmanAlpha = 0.4;        // Waxman locality parameter

/// Attach a proxy and hosts behind an edge router; records them in the
/// GeneratedNetwork inventory. In-path (Figure 2 proxy x): hosts hang off
/// the proxy, which sits between the edge router and the subnet. Off-path
/// (Figure 2 proxy y): hosts hang off the edge router, the proxy is a leaf
/// the router loops traffic through.
void attach_stub(GeneratedNetwork& net, AddressPlan& plan, NodeId edge, std::size_t host_count,
                 const LinkParams& stub_link, ProxyMode mode) {
  const Prefix subnet = plan.next_subnet();
  const std::size_t idx = net.subnets.size();
  const NodeId proxy = net.topo.add_node(NodeKind::kPolicyProxy, "proxy" + std::to_string(idx),
                                         plan.host_in(subnet, 0));
  net.topo.add_link(edge, proxy, stub_link);
  net.topo.set_subnet(edge, subnet, mode == ProxyMode::kInPath ? proxy : edge);
  const NodeId host_attach = mode == ProxyMode::kInPath ? proxy : edge;
  std::vector<NodeId> hosts;
  for (std::size_t h = 0; h < host_count; ++h) {
    const NodeId host = net.topo.add_node(
        NodeKind::kHost, "h" + std::to_string(idx) + "." + std::to_string(h),
        plan.host_in(subnet, 1 + static_cast<std::uint32_t>(h)));
    net.topo.add_link(host_attach, host, stub_link);
    hosts.push_back(host);
  }
  net.subnets.push_back(subnet);
  net.proxies.push_back(proxy);
  net.hosts.push_back(std::move(hosts));
}

}  // namespace

GeneratedNetwork make_campus_topology(const CampusParams& params) {
  SDM_CHECK(params.core_count >= kCampusUplinksPerEdge && params.edge_count >= 1);
  GeneratedNetwork net;
  net.proxy_mode = params.proxy_mode;
  AddressPlan plan;

  for (std::size_t g = 0; g < kCampusGateways; ++g) {
    net.gateways.push_back(
        net.topo.add_node(NodeKind::kGatewayRouter, "gw" + std::to_string(g), plan.next_device()));
  }
  for (std::size_t c = 0; c < params.core_count; ++c) {
    const NodeId core =
        net.topo.add_node(NodeKind::kCoreRouter, "core" + std::to_string(c), plan.next_device());
    net.core_routers.push_back(core);
    // Each core router connects to both (all) gateways — §IV.A.
    for (NodeId gw : net.gateways) net.topo.add_link(core, gw, params.core_link);
  }
  for (std::size_t e = 0; e < params.edge_count; ++e) {
    const NodeId edge =
        net.topo.add_node(NodeKind::kEdgeRouter, "edge" + std::to_string(e), plan.next_device());
    net.edge_routers.push_back(edge);
    // Redundant uplinks spread round-robin across the cores.
    for (std::size_t u = 0; u < kCampusUplinksPerEdge; ++u) {
      const std::size_t c = (e * kCampusUplinksPerEdge + u) % params.core_count;
      net.topo.add_link(edge, net.core_routers[c], LinkParams{});
    }
    attach_stub(net, plan, edge, params.hosts_per_subnet, params.stub_link, params.proxy_mode);
  }
  SDM_CHECK(net.topo.is_connected());
  return net;
}

GeneratedNetwork make_waxman_topology(const WaxmanParams& params) {
  SDM_CHECK(params.core_count >= 2 && params.edge_count >= 1);
  SDM_CHECK(params.core_degree >= 1 && params.core_degree < params.core_count);
  GeneratedNetwork net;
  net.proxy_mode = params.proxy_mode;
  AddressPlan plan(params.subnet_prefix_len);
  SDM_CHECK_MSG(params.edge_count < plan.max_subnets(),
                "edge_count exceeds the subnet space; widen subnet_prefix_len");
  util::Rng rng(params.seed);

  // Place core routers at random coordinates in the region.
  std::vector<std::pair<double, double>> pos(params.core_count);
  for (auto& p : pos) p = {rng.next_double() * kWaxmanRegion, rng.next_double() * kWaxmanRegion};
  const auto dist = [&](std::size_t i, std::size_t j) {
    const double dx = pos[i].first - pos[j].first;
    const double dy = pos[i].second - pos[j].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  const double scale = kWaxmanRegion * std::numbers::sqrt2;  // max possible distance

  for (std::size_t c = 0; c < params.core_count; ++c) {
    net.core_routers.push_back(
        net.topo.add_node(NodeKind::kCoreRouter, "core" + std::to_string(c), plan.next_device()));
  }

  // Waxman-style wiring with a fixed per-core link budget: each core draws
  // neighbors with probability weight exp(-d / (alpha * L)) until it has
  // core_degree incident core links (counting links added by earlier cores).
  std::vector<std::size_t> degree(params.core_count, 0);
  std::vector<std::vector<bool>> linked(params.core_count,
                                        std::vector<bool>(params.core_count, false));
  for (std::size_t u = 0; u < params.core_count; ++u) {
    while (degree[u] < params.core_degree) {
      double total = 0.0;
      std::vector<std::pair<std::size_t, double>> weights;
      for (std::size_t v = 0; v < params.core_count; ++v) {
        if (v == u || linked[u][v]) continue;
        const double w = std::exp(-dist(u, v) / (kWaxmanAlpha * scale));
        weights.emplace_back(v, w);
        total += w;
      }
      if (weights.empty()) break;  // u already linked to everyone
      double r = rng.next_double() * total;
      std::size_t chosen = weights.back().first;
      for (const auto& [v, w] : weights) {
        if (r < w) {
          chosen = v;
          break;
        }
        r -= w;
      }
      linked[u][chosen] = linked[chosen][u] = true;
      ++degree[u];
      ++degree[chosen];
      LinkParams lp = params.core_link;
      lp.delay_us = 1.0 + dist(u, chosen) * 5.0;  // ~5 us per distance unit
      net.topo.add_link(net.core_routers[u], net.core_routers[chosen], lp);
    }
  }

  // Guarantee a connected core: union components by linking their closest pair.
  std::vector<std::size_t> comp(params.core_count);
  std::iota(comp.begin(), comp.end(), 0);
  const auto find = [&](std::size_t x) {
    while (comp[x] != x) x = comp[x] = comp[comp[x]];
    return x;
  };
  for (std::size_t u = 0; u < params.core_count; ++u) {
    for (std::size_t v = 0; v < params.core_count; ++v) {
      if (linked[u][v]) comp[find(u)] = find(v);
    }
  }
  for (;;) {
    std::size_t best_u = 0, best_v = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t u = 0; u < params.core_count; ++u) {
      for (std::size_t v = u + 1; v < params.core_count; ++v) {
        if (find(u) != find(v) && dist(u, v) < best_d) {
          best_d = dist(u, v);
          best_u = u;
          best_v = v;
        }
      }
    }
    if (best_d == std::numeric_limits<double>::infinity()) break;  // single component
    linked[best_u][best_v] = linked[best_v][best_u] = true;
    comp[find(best_u)] = find(best_v);
    LinkParams lp = params.core_link;
    lp.delay_us = 1.0 + best_d * 5.0;
    net.topo.add_link(net.core_routers[best_u], net.core_routers[best_v], lp);
  }

  // Spread edge routers evenly: core c hosts edges c, c+|cores|, c+2|cores|, ...
  for (std::size_t e = 0; e < params.edge_count; ++e) {
    const NodeId edge =
        net.topo.add_node(NodeKind::kEdgeRouter, "edge" + std::to_string(e), plan.next_device());
    net.edge_routers.push_back(edge);
    net.topo.add_link(edge, net.core_routers[e % params.core_count], LinkParams{});
    attach_stub(net, plan, edge, params.hosts_per_subnet, params.stub_link, params.proxy_mode);
  }
  SDM_CHECK(net.topo.is_connected());
  return net;
}

}  // namespace sdmbox::net
