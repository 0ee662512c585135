// Packet-level network simulation over a Topology.
//
// SimNetwork wires the routing substrate (net::RoutingTables — the converged
// "OSPF" state) into the event engine: packets travel link by link with
// serialization + propagation delay, routers forward by destination-address
// lookup only (policy-oblivious, as the paper requires of the traditional
// network), and programmable agents attached to proxy/middlebox nodes
// implement the SDM enforcement plane on top.
//
// Fragmentation is modeled by accounting: when a packet's wire size exceeds
// a link MTU we count the fragmentation event and charge the extra per-
// fragment header bytes to the link, but deliver the packet whole — the
// paper's §III.E concern is the overhead, which this captures exactly,
// without needing reassembly buffers.
//
// Control packets carry a body (packet::ControlBody: sequence number, flow,
// serialized payload) that the network holds in a free-listed pool while
// the packet is in flight; the packet names it by id, so a hop moves only
// the 44-byte header. deliver() and every drop path here release the body.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "packet/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sdmbox::obs {
class MetricsRegistry;
class PathTracer;
enum class Hop : std::uint8_t;
}  // namespace sdmbox::obs

namespace sdmbox::sim {

class SimNetwork;

/// Behavior attached to a node. Routers need none (pure forwarding); the SDM
/// layer (core/) attaches proxy and middlebox agents.
class NodeAgent {
public:
  virtual ~NodeAgent() = default;

  /// Called when a packet arrives at this node (either addressed to it or
  /// transiting it). `from` is the neighbor the packet arrived from — the
  /// ingress interface — or an invalid NodeId for locally injected packets.
  /// The agent owns the packet from here: consume it, or hand it back to
  /// the network via forward()/transmit().
  virtual void on_packet(SimNetwork& net, packet::Packet pkt, net::NodeId from) = 0;
};

/// Per-node counters.
struct NodeCounters {
  std::uint64_t packets_seen = 0;      // every packet handled at this node
  std::uint64_t packets_delivered = 0; // consumed here as final destination
  std::uint64_t packets_dropped = 0;   // TTL expiry / no route
};

/// Per-link counters (both directions combined).
struct LinkCounters {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;             // wire bytes including fragment overhead
  std::uint64_t fragmentation_events = 0;
  std::uint64_t fragments = 0;         // total fragments emitted (>= packets)
  std::uint64_t queue_drops = 0;       // drop-tail losses (bounded queues only)
  std::uint64_t fault_drops = 0;       // lost to a down link or injected loss
  double max_backlog_s = 0;            // worst serialization backlog observed
};

struct NetworkCounters {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_node_down = 0; // arrived at a failed node
  std::uint64_t dropped_queue = 0;     // drop-tail losses across all links
  std::uint64_t dropped_link_down = 0; // transmitted onto a down link
  std::uint64_t dropped_link_loss = 0; // injected probabilistic wire loss
  double total_latency = 0;            // sum of delivery latencies (s)
};

class SimNetwork final : private PacketSink {
public:
  /// The topology, routing tables and resolver must outlive the network.
  SimNetwork(const net::Topology& topo, const net::RoutingTables& routing,
             const net::AddressResolver& resolver);

  /// Attach an agent to a node (replaces any previous agent).
  void attach(net::NodeId node, std::unique_ptr<NodeAgent> agent);

  /// Failure injection: a down node silently drops everything that reaches
  /// it (crash-stop). Used by the dependability tests/benches to model
  /// middlebox failure before the controller reacts.
  void set_node_up(net::NodeId node, bool up);
  bool node_up(net::NodeId node) const;

  /// Link failure injection: a down link loses everything transmitted onto
  /// it. Routing does NOT react here — pair with
  /// RoutingTables::recompute(topo, &down_links) to model OSPF reconvergence
  /// (sim::FaultInjector wires both together).
  void set_link_up(net::LinkId link, bool up);
  bool link_up(net::LinkId link) const;

  /// Per-link probabilistic packet loss in [0, 1]: each transmission onto the
  /// link is independently lost with probability `rate` (drawn from the
  /// seedable loss RNG, so runs stay deterministic). 0 disables loss.
  void set_link_loss(net::LinkId link, double rate);
  double link_loss(net::LinkId link) const;

  /// Reseed the loss RNG (call before the run for reproducible loss traces).
  void seed_loss(std::uint64_t seed) { loss_rng_ = util::Rng(seed); }

  /// Optional per-delivery observer: called with the delivered packet and
  /// its injection-to-delivery latency (latency studies, traces).
  using DeliveryObserver = std::function<void(const packet::Packet&, SimTime latency)>;
  void on_delivered(DeliveryObserver observer) { delivery_observer_ = std::move(observer); }

  /// Inject a packet into the network at `node` at time `at` (it is handled
  /// as if it had just arrived there). It is counted, and traced as injected
  /// at `at`, by this call.
  void inject(net::NodeId node, packet::Packet pkt, SimTime at);

  /// Inject a packet at `node` now and handle it there before returning:
  /// counted and traced as injected at now(), then handled as
  /// inject(node, pkt, now()) handles it when its event pops. For sources
  /// that build each packet when it comes due (exp::inject_wave): the packet
  /// never waits in the calendar, and its record lands in time order.
  void inject_now(net::NodeId node, packet::Packet pkt);

  /// Route one hop toward the packet's routing destination from `at_node`:
  /// resolve the destination, look up the next hop, and transmit. Drops (and
  /// counts) packets with no route or expired TTL.
  void forward(net::NodeId at_node, packet::Packet pkt);

  /// Transmit a packet on the link between `from` and its neighbor `to`
  /// (must be adjacent). Used by agents that make explicit next-hop choices.
  void transmit(net::NodeId from, net::NodeId to, packet::Packet pkt);

  /// Deliver a packet to its final destination node counters (agents call
  /// this when they terminate a packet) and release its control body.
  void deliver(net::NodeId at_node, const packet::Packet& pkt);

  /// Give a control packet a new, empty body and return it to fill in. The
  /// network holds the body while the packet is in flight and releases it
  /// when the packet is delivered or dropped, so an agent that consumes a
  /// control packet must deliver() it.
  packet::ControlBody& new_control(packet::Packet& pkt);

  /// The body of a control packet in flight.
  const packet::ControlBody& control(const packet::Packet& pkt) const;

  // The references the two calls return stay valid until the next
  // new_control(), which may grow the pool.

  /// The one event calendar: agents use it for now() and timers.
  Simulator& simulator() noexcept { return sim_; }
  const net::Topology& topology() const noexcept { return topo_; }
  const net::RoutingTables& routing() const noexcept { return routing_; }
  const net::AddressResolver& resolver() const noexcept { return resolver_; }

  const NodeCounters& node_counters(net::NodeId n) const { return node_counters_[n.v]; }
  const LinkCounters& link_counters(net::LinkId l) const { return link_counters_[l.v]; }
  const NetworkCounters& counters() const noexcept { return counters_; }

  /// Attach a path tracer (nullable; null disables tracing — the default, and
  /// free on the hot path: every hook is one pointer test). The tracer must
  /// outlive the network.
  void set_tracer(obs::PathTracer* tracer) noexcept { tracer_ = tracer; }
  obs::PathTracer* tracer() const noexcept { return tracer_; }

  /// Expose the network/node counters as registry views: net_* totals plus
  /// per-device node_packets_* for every forwarding node (hosts stay out —
  /// hundreds of leaf series would drown the dump).
  void register_metrics(obs::MetricsRegistry& registry) const;

  /// Run the event loop to completion (or until `until`).
  void run(SimTime until = Simulator::kForever) { sim_.run(until); }

private:
  void on_packet_event(const PacketEvent& ev) override;

  /// A packet without an ingress neighbor (`from` invalid) was generated
  /// here: a leaf node may emit its own traffic even though it never
  /// forwards transit traffic. `dest_hint`, when valid, is the
  /// already-resolved node for the packet's routing destination — exact,
  /// because nothing rewrites headers in flight — so intermediate hops skip
  /// the resolver probe entirely.
  void handle_at_node(net::NodeId node, packet::Packet pkt, SimTime injected_at,
                      net::NodeId from, net::NodeId dest_hint);
  /// forward() with the destination already resolved — handle_at_node has it
  /// in hand, so the pure-forwarding path resolves once per hop, not twice.
  void forward_resolved(net::NodeId at_node, packet::Packet& pkt, net::NodeId dest);
  /// transmit() with the link already known (the routing tables carry the
  /// egress LinkId next to the next-hop node, so the forwarding path skips
  /// the adjacency scan) and the resolved destination to carry to the far
  /// end of the wire.
  void transmit_on(net::LinkId link, net::NodeId from, net::NodeId to, const packet::Packet& pkt,
                   net::NodeId dest_hint);
  /// A packet lost at node `at`: count it there and in `counter`, trace it
  /// (`detail` is the far end for losses on a link), release its body.
  void drop(net::NodeId at, const packet::Packet& pkt, std::uint64_t& counter, obs::Hop hop,
            std::uint64_t detail = 0);
  void release_control(const packet::Packet& pkt);

  /// A control body, or (not `live`) a link of the pool's LIFO free list.
  struct ControlSlot {
    packet::ControlBody body;
    std::uint32_t next_free = 0;
    bool live = false;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  const net::Topology& topo_;
  const net::RoutingTables& routing_;
  const net::AddressResolver& resolver_;
  Simulator sim_;
  NetworkCounters counters_;
  SimTime current_injected_at_ = 0;  // of the packet being handled
  obs::PathTracer* tracer_ = nullptr;
  util::Rng loss_rng_{0x5dfa117ULL};  // "SD-fault"; reseed via seed_loss()
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::vector<bool> node_up_;
  std::vector<bool> link_up_;
  std::vector<double> link_loss_;
  std::vector<NodeCounters> node_counters_;
  std::vector<LinkCounters> link_counters_;
  std::vector<SimTime> link_free_at_;  // serialization horizon per link
  std::vector<ControlSlot> control_pool_;  // slot i holds body id i + 1
  std::uint32_t control_free_ = kNoSlot;
  DeliveryObserver delivery_observer_;
};

}  // namespace sdmbox::sim
