#include "verify/chaosgen.hpp"

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace sdmbox::verify {
namespace {

constexpr double kStart = 1.5;     // first fault no earlier than this
constexpr double kHorizon = 12.0;  // every element restored by this time
constexpr int kCrashPairs = 2;     // middlebox crash/restart pairs
constexpr int kLinkFlaps = 2;      // link down/up pairs on redundant router links
constexpr int kLossEpisodes = 1;   // transient probabilistic-loss windows
constexpr double kMinOutage = 0.3;
constexpr double kMaxLoss = 0.3;   // peak loss rate of a loss episode

/// Bridges: links whose loss splits their component. One iterative DFS
/// tracks each node's low link (the earliest discovery time its subtree
/// reaches over a non-tree link); a tree link is a bridge when its child's
/// subtree reaches nothing above the child. Only the tree link itself is
/// skipped on the way back, so a parallel twin keeps both links off the list.
std::vector<bool> bridges(const net::Topology& topo) {
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};
  const std::size_t n = topo.node_count();
  std::vector<bool> bridge(topo.link_count(), false);
  std::vector<std::uint32_t> found(n, kUnseen);
  std::vector<std::uint32_t> low(n, kUnseen);
  struct Frame {
    std::uint32_t node;
    net::LinkId via;   // tree link from the parent; invalid at a root
    std::size_t next;  // next adjacency to visit
  };
  std::vector<Frame> stack;
  std::uint32_t clock = 0;
  for (std::uint32_t root = 0; root < n; ++root) {
    if (found[root] != kUnseen) continue;
    found[root] = low[root] = clock++;
    stack.push_back(Frame{root, net::LinkId{}, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto adj = topo.neighbors(net::NodeId{f.node});
      if (f.next < adj.size()) {
        const net::Adjacency a = adj[f.next++];
        if (a.link == f.via) continue;
        const std::uint32_t w = a.neighbor.v;
        if (found[w] == kUnseen) {
          found[w] = low[w] = clock++;
          stack.push_back(Frame{w, a.link, 0});
        } else {
          low[f.node] = std::min(low[f.node], found[w]);
        }
        continue;
      }
      const Frame child = f;
      stack.pop_back();
      if (stack.empty()) continue;
      const std::uint32_t parent = stack.back().node;
      low[parent] = std::min(low[parent], low[child.node]);
      if (low[child.node] > found[parent]) bridge[child.via.v] = true;
    }
  }
  return bridge;
}

/// Links safe to flap: both endpoints are pure forwarders (gateway / core /
/// edge routers) and the link is no bridge, so the network reroutes around
/// it. Stub links to hosts, proxies or middleboxes, and a single-homed edge
/// router's uplink, would isolate an element outright instead of forcing a
/// reroute.
std::vector<net::LinkId> flappable_links(const net::Topology& topo) {
  const std::vector<bool> bridge = bridges(topo);
  std::vector<net::LinkId> out;
  for (std::uint32_t i = 0; i < topo.link_count(); ++i) {
    const net::LinkId id{i};
    const net::Link& l = topo.link(id);
    if (net::is_router(topo.node(l.a).kind) && net::is_router(topo.node(l.b).kind) &&
        !bridge[i]) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace

sim::FaultSchedule generate_chaos(const net::GeneratedNetwork& network,
                                  const core::Deployment& deployment, std::uint64_t seed) {
  sim::FaultSchedule schedule;
  constexpr double kSpan = kHorizon - kStart;

  // Distinct stream per concern so adding flaps never reshuffles crashes.
  util::Rng crash_rng(util::mix64(seed ^ 0xc4a55eedULL));
  util::Rng link_rng(util::mix64(seed ^ 0xf1a95eedULL));
  util::Rng loss_rng(util::mix64(seed ^ 0x1055edULL));

  std::vector<net::NodeId> boxes;
  for (const core::MiddleboxInfo& m : deployment.middleboxes()) boxes.push_back(m.node);

  // Crash/restart pairs in disjoint time slices: each victim is down for a
  // random sub-window of its slice and guaranteed back up before the next
  // fault of this class — no compounding, every schedule recoverable.
  if (!boxes.empty()) {
    constexpr double slice = kSpan / kCrashPairs;
    for (int i = 0; i < kCrashPairs; ++i) {
      const net::NodeId victim = boxes[crash_rng.pick_index(boxes.size())];
      const double s = kStart + slice * i;
      const double down = s + crash_rng.next_double() * slice * 0.4;
      const double outage = kMinOutage + crash_rng.next_double() * (slice * 0.5 - kMinOutage);
      schedule.crash_node(down, victim);
      schedule.restart_node(down + std::max(kMinOutage, outage), victim);
    }
  }

  const std::vector<net::LinkId> links = flappable_links(network.topo);
  if (!links.empty()) {
    constexpr double slice = kSpan / kLinkFlaps;
    for (int i = 0; i < kLinkFlaps; ++i) {
      const net::LinkId link = links[link_rng.pick_index(links.size())];
      const double s = kStart + slice * i;
      const double down = s + link_rng.next_double() * slice * 0.4;
      const double outage = kMinOutage + link_rng.next_double() * (slice * 0.5 - kMinOutage);
      schedule.link_down(down, link);
      schedule.link_up(down + std::max(kMinOutage, outage), link);
    }

    constexpr double loss_slice = kSpan / kLossEpisodes;
    for (int i = 0; i < kLossEpisodes; ++i) {
      const net::LinkId link = links[loss_rng.pick_index(links.size())];
      const double s = kStart + loss_slice * i;
      const double begin = s + loss_rng.next_double() * loss_slice * 0.4;
      const double length =
          kMinOutage + loss_rng.next_double() * (loss_slice * 0.5 - kMinOutage);
      const double rate = 0.05 + loss_rng.next_double() * (kMaxLoss - 0.05);
      schedule.link_loss(begin, link, rate);
      schedule.link_loss(begin + std::max(kMinOutage, length), link, 0.0);
    }
  }

  return schedule;
}

}  // namespace sdmbox::verify
