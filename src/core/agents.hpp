// Packet-level SDM data plane: the proxy and middlebox agents (§III.B-E).
//
// A policy proxy and a software-defined middlebox are the same kind of
// device, and DeviceAgent is what they share: the controller's slice
// (P_x, M_x^e, t(x,y)) and its classifier, the §III.D flow cache in front of
// it, local peer liveness with candidate failover, and the config-apply rule.
// The two roles add only their own packet handling:
//
// ProxyAgent guards one stub subnet in-path. For outbound packets it
// classifies (flow cache -> P_x classifier), tunnels policy traffic
// IP-over-IP to the chosen first middlebox, and — when label switching is
// enabled — allocates a per-flow label, embeds it in the header, and flips
// the flow to destination-rewrite forwarding once the chain tail's
// confirmation control packet arrives (§III.E).
//
// MiddleboxAgent performs its network function on every packet it receives,
// classifies the same way, picks the next middlebox with the plan's
// strategy, and either re-tunnels (keeping the proxy's address as the outer
// source, so the tail knows where to send the confirmation) or follows its
// label table for switched packets.
//
// Both agents are pure consumers of the compiled EnforcementPlan — they
// never talk to the controller at packet time, which is the paper's central
// scalability argument.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/controller.hpp"
#include "core/strategy.hpp"
#include "policy/classifier.hpp"
#include "sim/network.hpp"
#include "tables/flow_table.hpp"
#include "tables/label_table.hpp"

namespace sdmbox::obs {
class Labels;
}  // namespace sdmbox::obs

namespace sdmbox::core {

/// Local graceful degradation: each agent probes the middleboxes it tunnels
/// to (a kHeartbeat piggybacked on actual use) and, after `miss_threshold`
/// consecutive unanswered probes, blacklists the peer for `blacklist_hold`
/// seconds. While blacklisted, next-hop selection falls back to the next
/// candidate in M_x^e — the device reroutes around the failure on its own,
/// long before the controller's global recovery lands (§III.B's candidate
/// sets double as local failover lists).
struct PeerHealthParams {
  bool enabled = false;
  /// Seconds to wait for a kHeartbeatAck before counting a miss. Must cover
  /// the round trip to the farthest candidate.
  double probe_timeout = 0.2;
  /// Consecutive unanswered probes before the peer is blacklisted.
  int miss_threshold = 2;
  /// Seconds a blacklisted peer is avoided before it is probed again.
  double blacklist_hold = 5.0;
  /// Minimum spacing between probes to the same peer (probes ride on data
  /// packets, which can be far more frequent than useful probing).
  double min_probe_gap = 0.05;
};

struct AgentOptions {
  /// §III.D flow cache in front of the classifier.
  bool enable_flow_cache = true;
  /// §III.E label switching (requires the flow cache).
  bool enable_label_switching = false;
  double flow_idle_timeout = 30.0;
  std::size_t flow_table_capacity = 1 << 20;
  /// §III.F: probability that a WP middlebox serves a flow from cache, in
  /// which case it answers the source directly and the rest of the chain is
  /// skipped. 0 disables caching. Per-flow deterministic (see wp_cache_hit).
  double wp_cache_hit_rate = 0.0;
  /// Local failure detection + candidate fallback (off by default: the
  /// fault-free fast path must stay byte-identical to the seed behavior).
  PeerHealthParams peer_health;
};

struct PeerHealthCounters {
  std::uint64_t probes_sent = 0;
  std::uint64_t replies = 0;
  std::uint64_t blacklists = 0;  // peers declared locally dead
  std::uint64_t revivals = 0;    // blacklisted peers that answered again
};

/// Per-agent peer liveness tracker. Probes are piggybacked on use (on_use),
/// replies arrive through the owning agent's packet handler (on_reply), and
/// the blacklist hook runs the owner's invalidation (flow-cache / label-
/// table cleanup) exactly once per declaration.
class PeerHealth {
public:
  explicit PeerHealth(PeerHealthParams params) : params_(params) {}

  using BlacklistHook =
      std::function<void(sim::SimNetwork& net, net::NodeId peer, net::IpAddress peer_addr)>;
  void on_blacklist(BlacklistHook hook) { hook_ = std::move(hook); }

  /// The owner is about to send traffic from `self` to `peer`: probe it if
  /// one is due (no probe outstanding, gap elapsed, not blacklisted).
  void on_use(sim::SimNetwork& net, net::NodeId self, net::IpAddress self_addr,
              net::NodeId peer, net::IpAddress peer_addr);

  /// A kHeartbeatAck from `peer` arrived at the owner.
  void on_reply(net::NodeId peer, sim::SimTime now);

  bool blacklisted(net::NodeId peer, sim::SimTime now) const;

  const PeerHealthCounters& counters() const noexcept { return counters_; }

  /// Expose the probe bookkeeping as peer_* registry views under `base`.
  void register_metrics(obs::MetricsRegistry& registry, const obs::Labels& base) const;

private:
  struct Peer {
    std::uint64_t seq = 0;    // last probe sequence sent
    std::uint64_t acked = 0;  // highest probe sequence answered
    int misses = 0;
    bool probe_outstanding = false;
    sim::SimTime last_probe_at = -1e18;
    sim::SimTime blacklisted_until = -1e18;
  };

  /// The state of `peer`, created on first use.
  Peer& peer_state(net::NodeId peer);

  PeerHealthParams params_;
  BlacklistHook hook_;
  // (NodeId.v, state), in first-use order. An agent probes only the few
  // candidates it tunnels to, so a linear scan beats hashing.
  std::vector<std::pair<std::uint32_t, Peer>> peers_;
  PeerHealthCounters counters_;
};

/// Counters every SDM device keeps, whatever its role. Each role exposes
/// them under its own series prefix (proxy_* / mbx_*).
struct DeviceCounters {
  std::uint64_t classifier_lookups = 0;   // multi-field matches actually performed
  std::uint64_t heartbeats_answered = 0;  // liveness probes replied to
  std::uint64_t failover_reroutes = 0;    // packets steered past a blacklisted box
};

struct ProxyCounters {
  std::uint64_t outbound_packets = 0;
  std::uint64_t inbound_packets = 0;
  std::uint64_t tunneled_packets = 0;     // sent IP-over-IP
  std::uint64_t label_switched_packets = 0;
  std::uint64_t permit_packets = 0;       // matched a permit policy or nothing
  std::uint64_t denied_packets = 0;       // dropped by a deny policy
  std::uint64_t confirmations = 0;        // label confirmations received
  std::uint64_t teardowns_received = 0;   // kLabelTeardown notices from middleboxes
};

struct MiddleboxCounters {
  std::uint64_t processed_packets = 0;    // packets this middlebox applied its function to
  std::uint64_t tunneled_out = 0;
  std::uint64_t label_switched_in = 0;
  std::uint64_t chain_tails = 0;          // packets for which this box ended the chain
  std::uint64_t confirmations_sent = 0;
  std::uint64_t cache_responses = 0;      // WP only: packets answered from cache (§III.F)
  std::uint64_t anomalies = 0;            // packets this box could not interpret
  std::uint64_t teardowns_sent = 0;       // kLabelTeardown notices sent to proxies
};

/// The device core shared by both roles: node and address, the pushed
/// DeviceConfig, the P_x trie classifier built from it, the flow table, and
/// PeerHealth. All references must outlive the agent.
class DeviceAgent : public sim::NodeAgent {
public:
  // PeerHealth's hooks and timers hold the agent's address.
  DeviceAgent(const DeviceAgent&) = delete;
  DeviceAgent& operator=(const DeviceAgent&) = delete;

  /// Install a newer configuration (a control-plane push). Stale versions
  /// (<= current) are ignored; returns whether it was applied. The flow
  /// cache is kept — cached policies stay valid because policy ids are
  /// stable — but future selections use the new candidates/ratios.
  bool apply_config(DeviceConfig config);
  std::uint64_t config_version() const noexcept { return config_.version; }

  net::NodeId node() const noexcept { return self_; }
  net::IpAddress address() const noexcept { return address_; }
  /// This device's name in the topology.
  const std::string& name() const;

  const DeviceCounters& device_counters() const noexcept { return device_counters_; }
  const tables::FlowTable& flow_table() const noexcept { return flow_table_; }
  const PeerHealth& peer_health() const noexcept { return peer_health_; }

  /// Expose this device's series labeled with its name: the role's own
  /// (proxy_* or mbx_*), flow_cache_* and peer_*.
  virtual void register_metrics(obs::MetricsRegistry& registry) const = 0;

protected:
  /// Takes the initial configuration as `self`'s slice of `plan` (exactly
  /// what the controller would push).
  DeviceAgent(const net::GeneratedNetwork& network, net::NodeId self,
              const policy::PolicyList& policies, const EnforcementPlan& plan,
              const AgentOptions& options);

  /// A flow's policy of P_x (null when none matches) and its (source,
  /// destination) stub-subnet indices (-1 outside every subnet), which
  /// Eq. (1) split ratios and the proxy's measurement key on.
  struct Classified {
    const policy::Policy* pol = nullptr;
    tables::FlowEntry* entry = nullptr;  // the flow's cache entry; null without the cache
    int src_subnet = -1;
    int dst_subnet = -1;
  };
  /// §III.D: the flow cache, then on a miss the P_x classifier, with the
  /// kCacheMiss / kCacheHit / kClassified trace records. The policy and the
  /// subnet pair are cached together. `src_subnet` is the flow's source
  /// subnet when the caller already knows it (a proxy classifies only its
  /// own subnet's outbound flows); nullopt looks it up.
  Classified classify(sim::SimNetwork& net, const packet::FlowId& flow, sim::SimTime now,
                      std::uint64_t seq, std::optional<int> src_subnet);

  /// Replace a blacklisted `pick` with the next live candidate for `e`
  /// (wrapping past the end of M_x^e); keeps `pick` if every alternative is
  /// also blacklisted (fail open — a guess beats a guaranteed drop).
  net::NodeId failover(sim::SimNetwork& net, net::NodeId pick, policy::FunctionId e,
                       const packet::FlowId& flow, sim::SimTime now, std::uint64_t seq);

  /// Liveness traffic addressed to this device: answer a kHeartbeat, feed a
  /// kHeartbeatAck to PeerHealth, and sink either. False (packet untouched)
  /// for every other kind.
  bool handle_liveness(sim::SimNetwork& net, const packet::Packet& pkt);

  /// Register flow_cache_* and peer_* (the latter under `base`).
  void register_device_metrics(obs::MetricsRegistry& registry, const obs::Labels& base) const;

  const net::GeneratedNetwork& network_;
  const policy::PolicyList& policies_;
  AgentOptions options_;
  net::NodeId self_;
  net::IpAddress address_;
  DeviceConfig config_;
  std::unique_ptr<policy::Classifier> classifier_;
  tables::FlowTable flow_table_;
  PeerHealth peer_health_;
  DeviceCounters device_counters_;

private:
  int subnet_of(net::IpAddress a) const noexcept;
};

class ProxyAgent final : public DeviceAgent {
public:
  /// `subnet_index` locates this proxy's subnet in `network`.
  ProxyAgent(const net::GeneratedNetwork& network, std::size_t subnet_index,
             const policy::PolicyList& policies, const EnforcementPlan& plan,
             AgentOptions options);

  void on_packet(sim::SimNetwork& net, packet::Packet pkt, net::NodeId from) override;

  const ProxyCounters& counters() const noexcept { return counters_; }

  /// Expose proxy_*, flow_cache_* and peer_* series labeled with this device.
  void register_metrics(obs::MetricsRegistry& registry) const override;

  /// Measured outbound volumes since the last clear: (policy, dst_subnet)
  /// -> packets. What this proxy reports to the controller (§III.C).
  struct Measurement {
    policy::PolicyId policy;
    int dst_subnet;
    std::uint64_t packets;
  };
  std::vector<Measurement> measurements() const;
  void clear_measurements() { measure_.clear(); }
  int subnet_index() const noexcept { return static_cast<int>(subnet_index_); }

private:
  void handle_outbound(sim::SimNetwork& net, packet::Packet pkt);

  std::size_t subnet_index_;
  net::Prefix subnet_;
  ProxyCounters counters_;
  std::unordered_map<std::uint64_t, std::uint64_t> measure_;  // (policy<<32|subnet) -> packets
};

class MiddleboxAgent final : public DeviceAgent {
public:
  MiddleboxAgent(const net::GeneratedNetwork& network, const MiddleboxInfo& info,
                 const policy::PolicyList& policies, const EnforcementPlan& plan,
                 AgentOptions options);

  void on_packet(sim::SimNetwork& net, packet::Packet pkt, net::NodeId from) override;

  const MiddleboxCounters& counters() const noexcept { return counters_; }
  const tables::LabelTable& label_table() const noexcept { return label_table_; }

  /// Expose mbx_*, flow_cache_*, label_table_* and peer_* series labeled
  /// with this device.
  void register_metrics(obs::MetricsRegistry& registry) const override;

private:
  void handle_tunneled(sim::SimNetwork& net, packet::Packet pkt);
  void handle_switched(sim::SimNetwork& net, packet::Packet pkt);
  /// §III.E: bind ⟨src|label⟩ to the `functions` consecutive chain
  /// functions this box served for the proxy at `proxy`, unless the label is
  /// bound already. Returns the new entry for the caller to finish (next hop
  /// mid-chain, final destination at the tail); null when bound.
  tables::LabelEntry* bind_label(const tables::LabelKey& key, std::size_t functions,
                                 net::IpAddress proxy, sim::SimTime now);

  policy::FunctionSet functions_;
  tables::LabelTable label_table_;
  MiddleboxCounters counters_;
};

/// Edge-router behavior for OFF-PATH proxy deployments (§III.A, Figure 2's
/// proxy y): the router "is configured with a loopback interface that
/// forwards all received packets to proxy y and after receiving these
/// packets back, performs regular routing-table lookup and packet
/// forwarding". Packets arriving FROM the proxy interface are exempt from
/// the loopback (else they would cycle forever).
class EdgeLoopbackAgent final : public sim::NodeAgent {
public:
  EdgeLoopbackAgent(net::NodeId self, net::NodeId proxy) : self_(self), proxy_(proxy) {}

  void on_packet(sim::SimNetwork& net, packet::Packet pkt, net::NodeId from) override;

  std::uint64_t looped_packets() const noexcept { return looped_; }

private:
  net::NodeId self_;
  net::NodeId proxy_;
  std::uint64_t looped_ = 0;
};

/// Non-owning pointers to a network's installed agents, typed by role, for
/// counter inspection (the network — or the wrapper — owns the agents).
struct InstalledAgents {
  std::vector<ProxyAgent*> proxies;          // parallel to network.proxies
  std::vector<MiddleboxAgent*> middleboxes;  // parallel to deployment order
  std::vector<EdgeLoopbackAgent*> loopbacks;  // off-path mode only; parallel to edge_routers
};

/// Puts a proxy or middlebox agent behind another NodeAgent before it is
/// attached (the in-band control plane wraps each in a ManagedDevice).
using DeviceWrap =
    std::function<std::unique_ptr<sim::NodeAgent>(std::unique_ptr<DeviceAgent>)>;

/// Build and attach every agent of the network: a ProxyAgent per proxy
/// (network order), for off-path networks an EdgeLoopbackAgent per edge
/// router, then a MiddleboxAgent per deployed middlebox (deployment order).
/// `wrap`, when set, sees the proxies and then the middleboxes in that order.
InstalledAgents install_devices(sim::SimNetwork& net, const net::GeneratedNetwork& network,
                                const Deployment& deployment, const policy::PolicyList& policies,
                                const EnforcementPlan& plan, const AgentOptions& options,
                                const DeviceWrap& wrap);

/// install_devices with every agent attached bare.
InstalledAgents install_agents(sim::SimNetwork& net, const net::GeneratedNetwork& network,
                               const Deployment& deployment, const policy::PolicyList& policies,
                               const EnforcementPlan& plan, const AgentOptions& options);

}  // namespace sdmbox::core
