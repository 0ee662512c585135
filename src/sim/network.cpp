#include "sim/network.hpp"

#include <algorithm>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sdmbox::sim {
namespace {
// Trace hook: one pointer test when tracing is off; the sampler gate is
// inside record().
inline void trace(obs::PathTracer* t, obs::Hop hop, const packet::Packet& pkt, double at,
                  net::NodeId node, std::uint64_t detail = 0) {
  if (t != nullptr) t->record(hop, pkt.flow_id(), at, node, detail, pkt.flow_seq);
}
}  // namespace

void SimNetwork::on_packet_event(PacketEvent ev) {
  handle_at_node(ev.node, std::move(ev.pkt), ev.injected_at, ev.origin, ev.from, ev.dest_hint);
}

SimNetwork::SimNetwork(const net::Topology& topo, const net::RoutingTables& routing,
                       const net::AddressResolver& resolver)
    : topo_(topo), routing_(routing), resolver_(resolver) {
  sim_.set_packet_sink(this);
  agents_.resize(topo.node_count());
  node_up_.assign(topo.node_count(), true);
  link_up_.assign(topo.link_count(), true);
  link_loss_.assign(topo.link_count(), 0.0);
  node_counters_.resize(topo.node_count());
  link_counters_.resize(topo.link_count());
  link_free_at_.resize(topo.link_count(), 0.0);
}

void SimNetwork::attach(net::NodeId node, std::unique_ptr<NodeAgent> agent) {
  SDM_CHECK(node.v < agents_.size());
  agents_[node.v] = std::move(agent);
}

void SimNetwork::inject(net::NodeId node, packet::Packet pkt, SimTime at) {
  ++counters_.injected;
  trace(tracer_, obs::Hop::kInjected, pkt, at, node);
  sim_.schedule_packet_at(at, std::move(pkt), node, net::NodeId{}, net::NodeId{},
                          /*injected_at=*/at, /*origin=*/true);
}

void SimNetwork::set_node_up(net::NodeId node, bool up) {
  SDM_CHECK(node.v < node_up_.size());
  node_up_[node.v] = up;
}

bool SimNetwork::node_up(net::NodeId node) const {
  SDM_CHECK(node.v < node_up_.size());
  return node_up_[node.v];
}

void SimNetwork::set_link_up(net::LinkId link, bool up) {
  SDM_CHECK(link.v < link_up_.size());
  link_up_[link.v] = up;
}

bool SimNetwork::link_up(net::LinkId link) const {
  SDM_CHECK(link.v < link_up_.size());
  return link_up_[link.v];
}

void SimNetwork::set_link_loss(net::LinkId link, double rate) {
  SDM_CHECK(link.v < link_loss_.size());
  SDM_CHECK_MSG(rate >= 0.0 && rate <= 1.0, "loss rate must be a probability");
  link_loss_[link.v] = rate;
}

double SimNetwork::link_loss(net::LinkId link) const {
  SDM_CHECK(link.v < link_loss_.size());
  return link_loss_[link.v];
}

void SimNetwork::handle_at_node(net::NodeId node, packet::Packet&& pkt, SimTime injected_at,
                                bool origin, net::NodeId from, net::NodeId dest_hint) {
  if (!node_up_[node.v]) {
    // Crash-stop: the node is dark; whatever reaches it is lost.
    ++node_counters_[node.v].packets_dropped;
    ++counters_.dropped_node_down;
    trace(tracer_, obs::Hop::kDropNodeDown, pkt, sim_.now(), node);
    return;
  }
  ++node_counters_[node.v].packets_seen;
  current_injected_at_ = injected_at;
  if (agents_[node.v]) {
    agents_[node.v]->on_packet(*this, std::move(pkt), from);
    return;
  }
  // No agent: routers forward; the packet's addressed terminal consumes it;
  // leaves emit their own traffic but sink transit that reaches them. The
  // hint carried through the wire is the same value the resolver would
  // return (headers are immutable in flight), so reuse it when present.
  const auto dest = dest_hint.valid() ? std::optional<net::NodeId>(dest_hint)
                                      : resolver_.resolve(pkt.routing_header().dst);
  if (dest && *dest == node) {
    deliver(node, pkt);
    return;
  }
  if (origin || net::is_forwarding(topo_.node(node).kind)) {
    // The destination is already resolved above — reuse it instead of paying
    // a second resolver probe per hop (forward() is the agent entry point).
    if (!dest) {
      ++node_counters_[node.v].packets_dropped;
      ++counters_.dropped_no_route;
      trace(tracer_, obs::Hop::kDropNoRoute, pkt, sim_.now(), node);
      return;
    }
    forward_resolved(node, std::move(pkt), *dest);
    return;
  }
  deliver(node, pkt);
}

void SimNetwork::forward(net::NodeId at_node, packet::Packet pkt) {
  const auto dest = resolver_.resolve(pkt.routing_header().dst);
  if (!dest) {
    ++node_counters_[at_node.v].packets_dropped;
    ++counters_.dropped_no_route;
    trace(tracer_, obs::Hop::kDropNoRoute, pkt, sim_.now(), at_node);
    return;
  }
  forward_resolved(at_node, std::move(pkt), *dest);
}

void SimNetwork::forward_resolved(net::NodeId at_node, packet::Packet&& pkt, net::NodeId dest) {
  if (dest == at_node) {
    deliver(at_node, pkt);
    return;
  }
  // TTL check on the header the network routes on.
  packet::Ipv4Header& h = pkt.outer ? *pkt.outer : pkt.inner;
  if (h.ttl == 0) {
    ++node_counters_[at_node.v].packets_dropped;
    ++counters_.dropped_ttl;
    trace(tracer_, obs::Hop::kDropTtl, pkt, sim_.now(), at_node);
    return;
  }
  --h.ttl;
  const net::NextHop hop = routing_.next_hop(at_node, dest);
  if (!hop.valid()) {
    ++node_counters_[at_node.v].packets_dropped;
    ++counters_.dropped_no_route;
    trace(tracer_, obs::Hop::kDropNoRoute, pkt, sim_.now(), at_node);
    return;
  }
  // The routing tables store the egress link next to the next-hop node, so
  // the forwarding path skips transmit()'s adjacency scan, and the resolved
  // destination rides along to spare the next hop its resolver probe.
  transmit_on(hop.link, at_node, hop.node, std::move(pkt), dest);
}

void SimNetwork::transmit(net::NodeId from, net::NodeId to, packet::Packet pkt) {
  const net::LinkId link = topo_.find_link(from, to);
  SDM_CHECK_MSG(link.valid(), "transmit between non-adjacent nodes");
  transmit_on(link, from, to, std::move(pkt), net::NodeId{});
}

void SimNetwork::transmit_on(net::LinkId link, net::NodeId from, net::NodeId to,
                             packet::Packet&& pkt, net::NodeId dest_hint) {
  const net::LinkParams& lp = topo_.link(link).params;
  LinkCounters& lc = link_counters_[link.v];

  if (!link_up_[link.v]) {
    // The link is dark: whatever is committed to it is lost. Routing only
    // steers around the failure once RoutingTables::recompute ran — until
    // then this is the crash window the dependability loop must cover.
    ++lc.fault_drops;
    ++node_counters_[from.v].packets_dropped;
    ++counters_.dropped_link_down;
    trace(tracer_, obs::Hop::kDropLinkDown, pkt, sim_.now(), from, to.v);
    return;
  }

  // Fragmentation accounting: payload above the MTU costs one extra IP
  // header per additional fragment on the wire.
  const std::uint32_t wire = pkt.wire_bytes();
  const std::uint32_t frags = packet::fragments_needed(wire, lp.mtu);
  if (frags == 0) {  // unfragmentable (pathological MTU): drop
    ++node_counters_[from.v].packets_dropped;
    ++counters_.dropped_no_route;
    return;
  }

  // One shared (half-duplex) serialization horizon per link.
  SimTime& free_at = link_free_at_[link.v];
  const std::uint64_t tx_bytes = wire + (frags - 1) * packet::kIpv4HeaderBytes;
  const double tx_time = static_cast<double>(tx_bytes) * 8.0 / lp.bandwidth_bps;
  const SimTime start = std::max(sim_.now(), free_at);
  // Drop-tail: the backlog (everything already committed to the link) must
  // fit the configured buffer, measured in bytes at line rate.
  const double backlog_s = start - sim_.now();
  if (lp.queue_limit_bytes > 0) {
    const double backlog_bytes = backlog_s * lp.bandwidth_bps / 8.0;
    if (backlog_bytes + static_cast<double>(tx_bytes) >
        static_cast<double>(lp.queue_limit_bytes)) {
      ++lc.queue_drops;
      ++node_counters_[from.v].packets_dropped;
      ++counters_.dropped_queue;
      trace(tracer_, obs::Hop::kDropQueue, pkt, sim_.now(), from, to.v);
      return;
    }
  }

  // Accounting for traffic that actually enters the wire.
  ++lc.packets;
  lc.fragments += frags;
  lc.bytes += tx_bytes;
  if (frags > 1) ++lc.fragmentation_events;
  lc.max_backlog_s = std::max(lc.max_backlog_s, backlog_s);
  free_at = start + tx_time;
  // Probabilistic wire loss: the packet occupied the link (bytes above are
  // charged) but never arrives. Drawn only for lossy links, so fault-free
  // runs consume no randomness and stay bit-identical to the seed behavior.
  if (link_loss_[link.v] > 0 && loss_rng_.next_bool(link_loss_[link.v])) {
    ++lc.fault_drops;
    ++node_counters_[from.v].packets_dropped;
    ++counters_.dropped_link_loss;
    trace(tracer_, obs::Hop::kDropLinkLoss, pkt, sim_.now(), from, to.v);
    return;
  }
  const SimTime arrival = start + tx_time + lp.delay_us * 1e-6;
  // One calendar lane per link (0 is the general lane):
  // successive arrivals over a link are monotone because the serialization
  // horizon includes every earlier transmission, so link traffic appends in
  // O(1) instead of churning the overflow heap.
  const std::uint32_t lane = static_cast<std::uint32_t>(link.v) + 1;
  sim_.schedule_packet_at(arrival, std::move(pkt), to, from, dest_hint, current_injected_at_,
                          /*origin=*/false, lane);
}

void SimNetwork::deliver(net::NodeId at_node, const packet::Packet& pkt) {
  ++node_counters_[at_node.v].packets_delivered;
  ++counters_.delivered;
  const SimTime latency = sim_.now() - current_injected_at_;
  counters_.total_latency += latency;
  trace(tracer_, obs::Hop::kDelivered, pkt, sim_.now(), at_node);
  if (delivery_observer_) delivery_observer_(pkt, latency);
}

void SimNetwork::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels net_labels{{"subsystem", "net"}};
  registry.expose_counter("net_injected", net_labels, &counters_.injected);
  registry.expose_counter("net_delivered", net_labels, &counters_.delivered);
  registry.expose_counter("net_dropped_ttl", net_labels, &counters_.dropped_ttl);
  registry.expose_counter("net_dropped_no_route", net_labels, &counters_.dropped_no_route);
  registry.expose_counter("net_dropped_node_down", net_labels, &counters_.dropped_node_down);
  registry.expose_counter("net_dropped_queue", net_labels, &counters_.dropped_queue);
  registry.expose_counter("net_dropped_link_down", net_labels, &counters_.dropped_link_down);
  registry.expose_counter("net_dropped_link_loss", net_labels, &counters_.dropped_link_loss);
  registry.expose_gauge("net_latency_total_s", net_labels,
                        [this] { return counters_.total_latency; });
  registry.expose_gauge("net_mean_latency_s", net_labels, [this] {
    return counters_.delivered == 0
               ? 0.0
               : counters_.total_latency / static_cast<double>(counters_.delivered);
  });

  // Per-device load for every forwarding node; host leaves stay out so a
  // campus topology doesn't register hundreds of near-identical series.
  for (std::size_t i = 0; i < topo_.node_count(); ++i) {
    const net::Node& node = topo_.node(net::NodeId{static_cast<std::uint32_t>(i)});
    if (node.kind == net::NodeKind::kHost) continue;
    obs::Labels dev{{"device", node.name}, {"subsystem", "net"}};
    registry.expose_counter("node_packets_seen", dev, &node_counters_[i].packets_seen);
    registry.expose_counter("node_packets_delivered", dev,
                            &node_counters_[i].packets_delivered);
    registry.expose_counter("node_packets_dropped", dev, &node_counters_[i].packets_dropped);
  }

  // Link totals as aggregate gauges: per-link series would dwarf everything
  // else, and the eval questions ("how much wire overhead?") are aggregate.
  registry.expose_gauge("link_bytes_total", net_labels, [this] {
    std::uint64_t total = 0;
    for (const LinkCounters& lc : link_counters_) total += lc.bytes;
    return static_cast<double>(total);
  });
  registry.expose_gauge("link_fragmentation_events_total", net_labels, [this] {
    std::uint64_t total = 0;
    for (const LinkCounters& lc : link_counters_) total += lc.fragmentation_events;
    return static_cast<double>(total);
  });
  registry.expose_gauge("link_queue_drops_total", net_labels, [this] {
    std::uint64_t total = 0;
    for (const LinkCounters& lc : link_counters_) total += lc.queue_drops;
    return static_cast<double>(total);
  });
  registry.expose_gauge("link_fault_drops_total", net_labels, [this] {
    std::uint64_t total = 0;
    for (const LinkCounters& lc : link_counters_) total += lc.fault_drops;
    return static_cast<double>(total);
  });
}

}  // namespace sdmbox::sim
