#include "core/agents.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sdmbox::core {

using packet::Packet;
using policy::PolicyId;

namespace {
// Trace hook: one pointer test when tracing is off.
inline void trace(sim::SimNetwork& net, obs::Hop hop, const packet::FlowId& flow, double at,
                  net::NodeId node, std::uint64_t detail = 0, std::uint64_t seq = 0) {
  if (obs::PathTracer* t = net.tracer()) t->record(hop, flow, at, node, detail, seq);
}
}  // namespace

// ---------------------------------------------------------------------------
// PeerHealth
// ---------------------------------------------------------------------------

void PeerHealth::on_use(sim::SimNetwork& net, net::NodeId self, net::IpAddress self_addr,
                        net::NodeId peer, net::IpAddress peer_addr) {
  if (!params_.enabled) return;
  const sim::SimTime now = net.simulator().now();
  Peer& p = peer_state(peer);
  if (p.probe_outstanding || now - p.last_probe_at < params_.min_probe_gap ||
      now < p.blacklisted_until) {
    return;
  }
  const std::uint64_t seq = ++p.seq;
  p.probe_outstanding = true;
  p.last_probe_at = now;
  ++counters_.probes_sent;

  Packet probe;
  probe.kind = packet::PacketKind::kHeartbeat;
  probe.inner.src = self_addr;
  probe.inner.dst = peer_addr;
  probe.inner.protocol = packet::kProtoUdp;
  probe.payload_bytes = 8;
  net.new_control(probe).seq = seq;
  net.forward(self, probe);

  net.simulator().schedule_in(params_.probe_timeout, [this, &net, peer, peer_addr, seq] {
    Peer& q = peer_state(peer);
    if (q.acked >= seq) return;  // answered in time
    q.probe_outstanding = false;
    ++q.misses;
    const sim::SimTime when = net.simulator().now();
    if (q.misses >= params_.miss_threshold && when >= q.blacklisted_until) {
      q.blacklisted_until = when + params_.blacklist_hold;
      ++counters_.blacklists;
      if (hook_) hook_(net, peer, peer_addr);
    }
  });
}

void PeerHealth::on_reply(net::NodeId peer, sim::SimTime now) {
  if (!params_.enabled) return;
  Peer& p = peer_state(peer);
  ++counters_.replies;
  p.acked = p.seq;
  p.probe_outstanding = false;
  if (p.misses >= params_.miss_threshold) ++counters_.revivals;
  p.misses = 0;
  p.blacklisted_until = now;  // usable again immediately
}

bool PeerHealth::blacklisted(net::NodeId peer, sim::SimTime now) const {
  if (!params_.enabled) return false;
  for (const auto& [id, p] : peers_) {
    if (id == peer.v) return now < p.blacklisted_until;
  }
  return false;
}

PeerHealth::Peer& PeerHealth::peer_state(net::NodeId peer) {
  for (auto& [id, p] : peers_) {
    if (id == peer.v) return p;
  }
  return peers_.emplace_back(peer.v, Peer{}).second;
}

void PeerHealth::register_metrics(obs::MetricsRegistry& registry,
                                  const obs::Labels& base) const {
  registry.expose_counter("peer_probes_sent", base, &counters_.probes_sent);
  registry.expose_counter("peer_replies", base, &counters_.replies);
  registry.expose_counter("peer_blacklists", base, &counters_.blacklists);
  registry.expose_counter("peer_revivals", base, &counters_.revivals);
}

// ---------------------------------------------------------------------------
// DeviceAgent
// ---------------------------------------------------------------------------

DeviceAgent::DeviceAgent(const net::GeneratedNetwork& network, net::NodeId self,
                         const policy::PolicyList& policies, const EnforcementPlan& plan,
                         const AgentOptions& options)
    : network_(network),
      policies_(policies),
      options_(options),
      self_(self),
      address_(network.topo.node(self).address),
      flow_table_(options.flow_idle_timeout, options.flow_table_capacity),
      peer_health_(options.peer_health) {
  apply_config(slice_for_device(plan, self_));
}

const std::string& DeviceAgent::name() const { return network_.topo.node(self_).name; }

bool DeviceAgent::apply_config(DeviceConfig config) {
  if (classifier_ != nullptr && config.version <= config_.version) return false;
  SDM_CHECK_MSG(config.node.node == self_, "config pushed to the wrong device");
  config_ = std::move(config);
  classifier_ = policy::make_trie_classifier(
      policies_.subset_pointers(config_.node.relevant_policies));
  return true;
}

int DeviceAgent::subnet_of(net::IpAddress a) const noexcept {
  // The subnets ascend and are disjoint (checked by install_devices), so the
  // only one that can contain `a` is the last whose base is <= a.
  const std::vector<net::Prefix>& subnets = network_.subnets;
  const auto it = std::upper_bound(subnets.begin(), subnets.end(), a,
                                   [](net::IpAddress v, const net::Prefix& p) {
                                     return v < p.first();
                                   });
  if (it == subnets.begin() || !std::prev(it)->contains(a)) return -1;
  return static_cast<int>(std::prev(it) - subnets.begin());
}

DeviceAgent::Classified DeviceAgent::classify(sim::SimNetwork& net, const packet::FlowId& flow,
                                              sim::SimTime now, std::uint64_t seq,
                                              std::optional<int> src_subnet) {
  Classified out;
  std::uint64_t flow_hash = 0;
  if (options_.enable_flow_cache) {
    // One 5-tuple hash per packet: the miss path reuses it for the insert.
    flow_hash = tables::FlowTable::hash_of(flow);
    if (tables::FlowEntry* entry = flow_table_.lookup(flow, flow_hash, now)) {
      trace(net, obs::Hop::kCacheHit, flow, now, self_, 0, seq);
      out.pol = entry->is_negative() ? nullptr : &policies_.at(entry->policy);
      out.entry = entry;
      out.src_subnet = entry->src_subnet;
      out.dst_subnet = entry->dst_subnet;
      return out;
    }
    trace(net, obs::Hop::kCacheMiss, flow, now, self_, 0, seq);
  }
  ++device_counters_.classifier_lookups;
  out.pol = classifier_->first_match(flow);
  trace(net, obs::Hop::kClassified, flow, now, self_, out.pol ? out.pol->id.v : 0, seq);
  out.src_subnet = src_subnet ? *src_subnet : subnet_of(flow.src);
  out.dst_subnet = subnet_of(flow.dst);
  if (options_.enable_flow_cache) {
    out.entry = &flow_table_.insert(flow, flow_hash, out.pol ? out.pol->id : PolicyId{}, now);
    // install_devices checks that every subnet index fits.
    out.entry->src_subnet = static_cast<std::int16_t>(out.src_subnet);
    out.entry->dst_subnet = static_cast<std::int16_t>(out.dst_subnet);
  }
  return out;
}

net::NodeId DeviceAgent::failover(sim::SimNetwork& net, net::NodeId pick, policy::FunctionId e,
                                  const packet::FlowId& flow, sim::SimTime now,
                                  std::uint64_t seq) {
  if (!options_.peer_health.enabled || !peer_health_.blacklisted(pick, now)) return pick;
  const std::vector<net::NodeId>& cands = config_.node.candidates_for(e);
  std::size_t at = 0;
  while (at < cands.size() && cands[at] != pick) ++at;
  for (std::size_t step = 1; step <= cands.size(); ++step) {
    const net::NodeId alt = cands[(at + step) % cands.size()];
    if (peer_health_.blacklisted(alt, now)) continue;  // `pick` itself included
    ++device_counters_.failover_reroutes;
    trace(net, obs::Hop::kFailoverReroute, flow, now, self_, alt.v, seq);
    return alt;
  }
  return pick;
}

bool DeviceAgent::handle_liveness(sim::SimNetwork& net, const Packet& pkt) {
  if (pkt.kind == packet::PacketKind::kHeartbeat) {
    // Reply with a kHeartbeatAck echoing the probe's sequence to the prober.
    ++device_counters_.heartbeats_answered;
    Packet ack;
    ack.kind = packet::PacketKind::kHeartbeatAck;
    ack.inner.src = address_;
    ack.inner.dst = pkt.inner.src;
    ack.inner.protocol = packet::kProtoUdp;
    ack.payload_bytes = 8;
    const std::uint64_t seq = net.control(pkt).seq;
    net.new_control(ack).seq = seq;
    net.forward(self_, ack);
    net.deliver(self_, pkt);
    return true;
  }
  if (pkt.kind == packet::PacketKind::kHeartbeatAck) {
    if (const auto peer = net.resolver().resolve(pkt.inner.src)) {
      peer_health_.on_reply(*peer, net.simulator().now());
    }
    net.deliver(self_, pkt);
    return true;
  }
  return false;
}

void DeviceAgent::register_device_metrics(obs::MetricsRegistry& registry,
                                          const obs::Labels& base) const {
  flow_table_.register_metrics(registry,
                               obs::Labels{{"device", name()}, {"subsystem", "flow_cache"}});
  peer_health_.register_metrics(registry, base);
}

// ---------------------------------------------------------------------------
// ProxyAgent
// ---------------------------------------------------------------------------

ProxyAgent::ProxyAgent(const net::GeneratedNetwork& network, std::size_t subnet_index,
                       const policy::PolicyList& policies, const EnforcementPlan& plan,
                       AgentOptions options)
    : DeviceAgent(network, network.proxies.at(subnet_index), policies, plan, options),
      subnet_index_(subnet_index),
      subnet_(network.subnets.at(subnet_index)) {
  SDM_CHECK_MSG(!options_.enable_label_switching || options_.enable_flow_cache,
                "label switching requires the flow cache (labels live in flow entries)");
  // Flows pinned (tunneled or label-switched) to a box declared locally dead
  // must re-establish through a live candidate: drop their cache entries so
  // the next packet reclassifies and reselects.
  peer_health_.on_blacklist([this](sim::SimNetwork& net, net::NodeId peer, net::IpAddress) {
    const sim::SimTime now = net.simulator().now();
    flow_table_.invalidate_where([&](const tables::FlowEntry& e) {
      if (e.next_hop_node != peer.v) return false;
      // Labeled bindings die with the entry: make the teardown visible in
      // traces (the riskiest window — the label may be reallocated next).
      if (e.label != 0) trace(net, obs::Hop::kLabelTeardown, e.flow, now, self_, e.label);
      return true;
    });
  });
}

void ProxyAgent::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels base{{"device", name()}, {"subsystem", "proxy"}};
  registry.expose_counter("proxy_outbound_packets", base, &counters_.outbound_packets);
  registry.expose_counter("proxy_inbound_packets", base, &counters_.inbound_packets);
  registry.expose_counter("proxy_classifier_lookups", base,
                          &device_counters_.classifier_lookups);
  registry.expose_counter("proxy_tunneled_packets", base, &counters_.tunneled_packets);
  registry.expose_counter("proxy_label_switched_packets", base,
                          &counters_.label_switched_packets);
  registry.expose_counter("proxy_permit_packets", base, &counters_.permit_packets);
  registry.expose_counter("proxy_denied_packets", base, &counters_.denied_packets);
  registry.expose_counter("proxy_confirmations", base, &counters_.confirmations);
  registry.expose_counter("proxy_heartbeats_answered", base,
                          &device_counters_.heartbeats_answered);
  registry.expose_counter("proxy_failover_reroutes", base, &device_counters_.failover_reroutes);
  registry.expose_counter("proxy_teardowns_received", base, &counters_.teardowns_received);
  register_device_metrics(registry, base);
}

std::vector<ProxyAgent::Measurement> ProxyAgent::measurements() const {
  std::vector<Measurement> out;
  out.reserve(measure_.size());
  for (const auto& [key, packets] : measure_) {
    out.push_back(Measurement{policy::PolicyId{static_cast<std::uint32_t>(key >> 32)},
                              static_cast<std::int32_t>(key & 0xffffffff), packets});
  }
  return out;
}

void ProxyAgent::on_packet(sim::SimNetwork& net, Packet pkt, net::NodeId /*from*/) {
  const tables::SimTime now = net.simulator().now();

  // Label-switching confirmation from a chain tail (§III.E).
  if (pkt.kind == packet::PacketKind::kLabelConfirm && pkt.routing_header().dst == address_) {
    ++counters_.confirmations;
    const packet::ControlBody& body = net.control(pkt);
    flow_table_.confirm_label(body.flow, static_cast<std::uint16_t>(body.seq), now);
    net.deliver(self_, pkt);
    return;
  }

  if (pkt.routing_header().dst == address_) {
    if (handle_liveness(net, pkt)) return;
    if (pkt.kind == packet::PacketKind::kLabelTeardown) {
      // A middlebox downstream lost the chain for this label: forget the
      // flow so its next packet re-establishes through a live candidate.
      ++counters_.teardowns_received;
      const auto label = static_cast<std::uint16_t>(net.control(pkt).seq);
      flow_table_.invalidate_where([&](const tables::FlowEntry& e) {
        if (e.label == 0 || e.label != label) return false;
        trace(net, obs::Hop::kLabelTeardown, e.flow, now, self_, e.label);
        return true;
      });
      net.deliver(self_, pkt);
      return;
    }
  }

  const bool outbound =
      !pkt.tunneled && subnet_.contains(pkt.inner.src) && !subnet_.contains(pkt.inner.dst);
  if (!outbound) {
    ++counters_.inbound_packets;
    if (pkt.routing_header().dst == address_) {
      net.deliver(self_, pkt);
    } else {
      net.forward(self_, pkt);
    }
    return;
  }
  ++counters_.outbound_packets;
  handle_outbound(net, pkt);
}

void ProxyAgent::handle_outbound(sim::SimNetwork& net, Packet pkt) {
  const tables::SimTime now = net.simulator().now();
  const packet::FlowId flow = pkt.flow_id();
  const Classified c = classify(net, flow, now, pkt.flow_seq, subnet_index());
  tables::FlowEntry* entry = c.entry;

  // Measurement (§III.C): per-policy outbound volume with destination
  // breakdown, reported to the controller on request.
  if (c.pol != nullptr) {
    ++measure_[(std::uint64_t{c.pol->id.v} << 32) | static_cast<std::uint32_t>(c.dst_subnet)];
  }

  if (c.pol == nullptr || c.pol->actions.empty()) {
    if (c.pol != nullptr && c.pol->deny) {
      // Deny rule: the proxy drops the packet inline. Only data packets are
      // classified, and a data packet has no control body to release.
      SDM_CHECK(pkt.control == 0);
      ++counters_.denied_packets;
      trace(net, obs::Hop::kDenied, flow, now, self_, c.pol->id.v, pkt.flow_seq);
      return;
    }
    // No policy, or an explicit permit: plain routing.
    ++counters_.permit_packets;
    trace(net, obs::Hop::kPermitted, flow, now, self_, 0, pkt.flow_seq);
    net.forward(self_, pkt);
    return;
  }

  const policy::Policy& pol = *c.pol;
  const policy::FunctionId first_fn = pol.actions.front();
  net::NodeId first;
  const bool pinned = options_.enable_label_switching && entry != nullptr &&
                      entry->label_switched && net::NodeId{entry->next_hop_node}.valid();
  if (pinned) {
    // Confirmed switched chains are pinned: the downstream label tables bind
    // this label to the hop sequence established at setup, so re-running
    // selection (a replan may have shifted split ratios since) would steer
    // labeled packets to a box holding no matching entry. Blacklisting the
    // pinned box drops this entry, which un-pins the flow.
    first = net::NodeId{entry->next_hop_node};
  } else {
    first = select_next_hop(config_, pol, first_fn, flow, c.src_subnet, c.dst_subnet);
    SDM_CHECK_MSG(first.valid(), "no candidate middlebox for first chain function");
    first = failover(net, first, first_fn, flow, now, pkt.flow_seq);
  }
  const net::IpAddress first_addr = net.topology().node(first).address;
  if (entry != nullptr) entry->next_hop_node = first.v;
  peer_health_.on_use(net, self_, address_, first, first_addr);

  if (options_.enable_label_switching) {
    SDM_CHECK(entry != nullptr);
    if (entry->label == 0) flow_table_.allocate_label(*entry);
    if (entry->label_switched) {
      // Switched path (§III.E): embed the label, rewrite the destination to
      // the first middlebox, and send without an outer header.
      packet::set_label(pkt.inner, entry->label);
      pkt.inner.dst = first_addr;
      ++counters_.label_switched_packets;
      trace(net, obs::Hop::kLabelSwitchTx, flow, now, self_, entry->label, pkt.flow_seq);
      net.forward(self_, pkt);
      return;
    }
    // Chain not confirmed yet: tunnel, but carry the label so middleboxes
    // can populate their label tables.
    packet::set_label(pkt.inner, entry->label);
  }

  pkt.chain_pos = 0;  // service index: the first middlebox serves action 0
  pkt.encapsulate(address_, first_addr);
  ++counters_.tunneled_packets;
  trace(net, obs::Hop::kTunnelEncap, flow, now, self_, first.v, pkt.flow_seq);
  net.forward(self_, pkt);
}

// ---------------------------------------------------------------------------
// MiddleboxAgent
// ---------------------------------------------------------------------------

MiddleboxAgent::MiddleboxAgent(const net::GeneratedNetwork& network, const MiddleboxInfo& info,
                               const policy::PolicyList& policies, const EnforcementPlan& plan,
                               AgentOptions options)
    : DeviceAgent(network, info.node, policies, plan, options),
      functions_(info.functions),
      label_table_(options.flow_idle_timeout) {
  SDM_CHECK_MSG(!functions_.empty(), "middlebox agent needs at least one function");
  // A pinned next hop stopped answering: chains switched through it are
  // broken mid-path, and only the owning proxy can re-establish them. Drop
  // the label entries and tell each proxy which label died (§III.E soft
  // state plus an explicit invalidation, so recovery need not wait for the
  // idle timeout).
  peer_health_.on_blacklist([this](sim::SimNetwork& net, net::NodeId, net::IpAddress peer_addr) {
    for (const auto& [key, entry] : label_table_.invalidate_next_hop(peer_addr)) {
      // Make the teardown visible in traces under the label's owning source
      // (label entries don't keep the full 5-tuple; the proxy-side teardown
      // carries the exact flows).
      packet::FlowId torn;
      torn.src = key.src;
      torn.dst = entry.proxy_addr;
      trace(net, obs::Hop::kLabelTeardown, torn, net.simulator().now(), self_, key.label);
      Packet teardown;
      teardown.kind = packet::PacketKind::kLabelTeardown;
      teardown.inner.src = address_;
      teardown.inner.dst = entry.proxy_addr;
      teardown.inner.protocol = packet::kProtoUdp;
      teardown.payload_bytes = 8;
      net.new_control(teardown).seq = key.label;  // labels are locally unique per proxy
      ++counters_.teardowns_sent;
      net.forward(self_, teardown);
    }
  });
}

void MiddleboxAgent::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels base{{"device", name()}, {"subsystem", "middlebox"}};
  registry.expose_counter("mbx_processed_packets", base, &counters_.processed_packets);
  registry.expose_counter("mbx_classifier_lookups", base, &device_counters_.classifier_lookups);
  registry.expose_counter("mbx_tunneled_out", base, &counters_.tunneled_out);
  registry.expose_counter("mbx_label_switched_in", base, &counters_.label_switched_in);
  registry.expose_counter("mbx_chain_tails", base, &counters_.chain_tails);
  registry.expose_counter("mbx_confirmations_sent", base, &counters_.confirmations_sent);
  registry.expose_counter("mbx_cache_responses", base, &counters_.cache_responses);
  registry.expose_counter("mbx_anomalies", base, &counters_.anomalies);
  registry.expose_counter("mbx_heartbeats_answered", base,
                          &device_counters_.heartbeats_answered);
  registry.expose_counter("mbx_failover_reroutes", base, &device_counters_.failover_reroutes);
  registry.expose_counter("mbx_teardowns_sent", base, &counters_.teardowns_sent);
  label_table_.register_metrics(registry,
                                obs::Labels{{"device", name()}, {"subsystem", "label_table"}});
  register_device_metrics(registry, base);
}

void MiddleboxAgent::on_packet(sim::SimNetwork& net, Packet pkt, net::NodeId /*from*/) {
  if (pkt.tunneled && pkt.outer_dst == address_) {
    handle_tunneled(net, pkt);
    return;
  }
  if (!pkt.tunneled && pkt.inner.dst == address_ && packet::has_label(pkt.inner)) {
    handle_switched(net, pkt);
    return;
  }
  if (!pkt.tunneled && pkt.inner.dst == address_ && handle_liveness(net, pkt)) return;
  // Anything else is misdirected: a middlebox is a leaf and should only see
  // traffic addressed to it. Count and sink.
  ++counters_.anomalies;
  trace(net, obs::Hop::kAnomaly, pkt.flow_id(), net.simulator().now(), self_, 0, pkt.flow_seq);
  net.deliver(self_, pkt);
}

tables::LabelEntry* MiddleboxAgent::bind_label(const tables::LabelKey& key,
                                               std::size_t functions, net::IpAddress proxy,
                                               sim::SimTime now) {
  SDM_CHECK(functions <= policy::kMaxFunctions);
  const std::uint64_t key_hash = tables::LabelTable::hash_of(key);
  if (label_table_.lookup(key, key_hash, now) != nullptr) return nullptr;
  tables::LabelEntry e;
  e.proxy_addr = proxy;
  e.functions_applied = static_cast<std::uint8_t>(functions);
  return &label_table_.insert(key, key_hash, e, now);
}

void MiddleboxAgent::handle_tunneled(sim::SimNetwork& net, Packet pkt) {
  const tables::SimTime now = net.simulator().now();
  const packet::Ipv4Header outer = pkt.decapsulate();  // outer.src = originating proxy

  const packet::FlowId flow = pkt.flow_id();
  trace(net, obs::Hop::kTunnelDecap, flow, now, self_, 0, pkt.flow_seq);
  const Classified c = classify(net, flow, now, pkt.flow_seq, std::nullopt);
  const policy::Policy* pol = c.pol;
  std::size_t position = pkt.chain_pos;
  if (pol == nullptr || position >= pol->actions.size() ||
      !functions_.contains(pol->actions[position])) {
    // The sender believed we serve this chain position but our policy view
    // disagrees (e.g. stale config). Fail open: forward toward the real
    // destination — still counting one processing pass.
    ++counters_.processed_packets;
    ++counters_.anomalies;
    trace(net, obs::Hop::kAnomaly, flow, now, self_, 0, pkt.flow_seq);
    net.forward(self_, pkt);
    return;
  }

  // Apply our function at the designated position, then keep applying
  // consecutive chain functions we also implement — a consolidated
  // middlebox never forwards to itself (Π_x excludes own functions).
  for (;;) {
    ++counters_.processed_packets;
    trace(net, obs::Hop::kFunctionApplied, flow, now, self_, pol->actions[position].v,
          pkt.flow_seq);
    // §III.F: a web proxy with the page cached answers the source directly;
    // the rest of the chain never sees the flow.
    if (pol->actions[position] == policy::kWebProxy &&
        wp_cache_hit(flow, options_.wp_cache_hit_rate)) {
      ++counters_.cache_responses;
      trace(net, obs::Hop::kWpCacheResponse, flow, now, self_, 0, pkt.flow_seq);
      std::swap(pkt.inner.src, pkt.inner.dst);
      std::swap(pkt.src_port, pkt.dst_port);
      packet::clear_label(pkt.inner);
      net.forward(self_, pkt);
      return;
    }
    if (position + 1 >= pol->actions.size() ||
        !functions_.contains(pol->actions[position + 1])) {
      break;
    }
    ++position;
  }

  const std::uint16_t label =
      options_.enable_label_switching ? packet::get_label(pkt.inner) : 0;
  const tables::LabelKey key{pkt.inner.src, label};
  const std::size_t functions = position - pkt.chain_pos + 1;
  const policy::FunctionId next_fn = pol->next_after(position);

  if (next_fn.valid()) {
    net::NodeId y = select_next_hop(config_, *pol, next_fn, flow, c.src_subnet, c.dst_subnet);
    SDM_CHECK_MSG(y.valid(), "no candidate middlebox for mid-chain function");
    SDM_CHECK_MSG(y != self_, "local continuation must not re-tunnel to self");
    y = failover(net, y, next_fn, flow, now, pkt.flow_seq);
    const net::IpAddress y_addr = net.topology().node(y).address;
    peer_health_.on_use(net, self_, address_, y, y_addr);
    if (label != 0) {
      if (tables::LabelEntry* e = bind_label(key, functions, outer.src, now)) {
        e->next_hop = y_addr;
      }
    }
    // Re-tunnel, preserving the proxy as the outer source (§III.E: the tail
    // learns the proxy address from it); the service index tells the next
    // box which chain position it serves.
    pkt.chain_pos = static_cast<std::uint8_t>(position + 1);
    pkt.encapsulate(outer.src, y_addr);
    ++counters_.tunneled_out;
    trace(net, obs::Hop::kTunnelEncap, flow, now, self_, y.v, pkt.flow_seq);
    net.forward(self_, pkt);
    return;
  }

  // Chain tail: record ⟨src|l, a, dst⟩, notify the proxy, release the packet
  // toward its true destination on plain routing (§III.B/E).
  ++counters_.chain_tails;
  trace(net, obs::Hop::kChainTail, flow, now, self_, 0, pkt.flow_seq);
  if (label != 0) {
    if (tables::LabelEntry* e = bind_label(key, functions, outer.src, now)) {
      e->final_dst = pkt.inner.dst;
      Packet confirm;
      confirm.kind = packet::PacketKind::kLabelConfirm;
      confirm.inner.src = address_;
      confirm.inner.dst = outer.src;  // the proxy
      confirm.inner.protocol = packet::kProtoUdp;
      confirm.payload_bytes = 16;
      packet::ControlBody& body = net.new_control(confirm);
      body.seq = label;
      body.flow = flow;
      ++counters_.confirmations_sent;
      net.forward(self_, confirm);
    }
    packet::clear_label(pkt.inner);
  }
  net.forward(self_, pkt);
}

void MiddleboxAgent::handle_switched(sim::SimNetwork& net, Packet pkt) {
  const tables::SimTime now = net.simulator().now();
  ++counters_.label_switched_in;

  const std::uint16_t label = packet::get_label(pkt.inner);
  const tables::LabelKey key{pkt.inner.src, label};
  tables::LabelEntry* entry = label_table_.lookup(key, now);
  // Switched packets carry a rewritten destination, so the 5-tuple on the
  // wire is not the flow the sampler keyed on. The chain tail can restore
  // the original destination from its entry; mid-chain records fall under
  // the rewritten tuple (best effort).
  packet::FlowId tflow = pkt.flow_id();
  if (entry != nullptr && entry->is_chain_tail()) tflow.dst = *entry->final_dst;
  trace(net, obs::Hop::kLabelSwitchRx, tflow, now, self_, label, pkt.flow_seq);
  counters_.processed_packets += entry != nullptr ? entry->functions_applied : 1;
  if (entry == nullptr) {
    // Soft state expired under us; without the original destination the
    // packet cannot be repaired here. Count and drop — the transport layer
    // retransmits and the proxy's next first-packet re-establishes state.
    // A labeled packet is a data packet: there is no control body to release.
    SDM_CHECK(pkt.control == 0);
    ++counters_.anomalies;
    trace(net, obs::Hop::kAnomaly, tflow, now, self_, label, pkt.flow_seq);
    return;
  }
  if (entry->is_chain_tail()) {
    pkt.inner.dst = *entry->final_dst;
    packet::clear_label(pkt.inner);
    ++counters_.chain_tails;
    trace(net, obs::Hop::kChainTail, tflow, now, self_, 0, pkt.flow_seq);
  } else {
    SDM_CHECK(entry->next_hop.has_value());
    const net::IpAddress nh = *entry->next_hop;
    // Switched packets never re-run selection, so the pinned next hop is the
    // one peer whose death this box would otherwise never notice: probe it.
    // (The blacklist hook then tears the pinned chains down via the proxy.)
    if (const auto peer = net.resolver().resolve(nh)) {
      peer_health_.on_use(net, self_, address_, *peer, nh);
    }
    pkt.inner.dst = nh;
  }
  net.forward(self_, pkt);
}

// ---------------------------------------------------------------------------
// EdgeLoopbackAgent
// ---------------------------------------------------------------------------

void EdgeLoopbackAgent::on_packet(sim::SimNetwork& net, Packet pkt, net::NodeId from) {
  if (from != proxy_) {
    // Loopback: every packet received on a non-proxy interface is handed to
    // the off-path proxy first (§III.A).
    ++looped_;
    net.transmit(self_, proxy_, pkt);
    return;
  }
  // Returned from the proxy: regular routing-table lookup and forwarding.
  const auto dest = net.resolver().resolve(pkt.routing_header().dst);
  if (dest && *dest == self_) {
    net.deliver(self_, pkt);
    return;
  }
  net.forward(self_, pkt);
}

// ---------------------------------------------------------------------------

InstalledAgents install_devices(sim::SimNetwork& net, const net::GeneratedNetwork& network,
                                const Deployment& deployment, const policy::PolicyList& policies,
                                const EnforcementPlan& plan, const AgentOptions& options,
                                const DeviceWrap& wrap) {
  const auto attach = [&](std::unique_ptr<DeviceAgent> agent) {
    const net::NodeId node = agent->node();
    if (wrap) {
      net.attach(node, wrap(std::move(agent)));
    } else {
      net.attach(node, std::move(agent));
    }
  };
  constexpr std::size_t kMaxSubnets = std::size_t{std::numeric_limits<std::int16_t>::max()} + 1;
  SDM_CHECK_MSG(network.subnets.size() <= kMaxSubnets,
                "subnet indices must fit a flow entry's 16-bit fields");
  for (std::size_t s = 1; s < network.subnets.size(); ++s) {
    SDM_CHECK_MSG(network.subnets[s - 1].last() < network.subnets[s].first(),
                  "stub subnets must ascend and be disjoint");
  }
  InstalledAgents out;
  for (std::size_t s = 0; s < network.proxies.size(); ++s) {
    auto agent = std::make_unique<ProxyAgent>(network, s, policies, plan, options);
    out.proxies.push_back(agent.get());
    attach(std::move(agent));
  }
  if (network.proxy_mode == net::ProxyMode::kOffPath) {
    for (std::size_t e = 0; e < network.edge_routers.size(); ++e) {
      auto agent =
          std::make_unique<EdgeLoopbackAgent>(network.edge_routers[e], network.proxies[e]);
      out.loopbacks.push_back(agent.get());
      net.attach(network.edge_routers[e], std::move(agent));
    }
  }
  for (const MiddleboxInfo& m : deployment.middleboxes()) {
    auto agent = std::make_unique<MiddleboxAgent>(network, m, policies, plan, options);
    out.middleboxes.push_back(agent.get());
    attach(std::move(agent));
  }
  return out;
}

InstalledAgents install_agents(sim::SimNetwork& net, const net::GeneratedNetwork& network,
                               const Deployment& deployment, const policy::PolicyList& policies,
                               const EnforcementPlan& plan, const AgentOptions& options) {
  return install_devices(net, network, deployment, policies, plan, options, nullptr);
}

}  // namespace sdmbox::core
