// Online enforcement-invariant oracle — the "dependable" in dependable
// policy enforcement, checked instead of assumed.
//
// The oracle is a live obs::TraceObserver: attached to the PathTracer it
// sees every sampled record the instant an agent emits it, independent of
// the bounded ring (which may wrap on long runs). From the record stream
// plus the controller's compiled state it asserts, per traced packet:
//
//  1. Chain completeness & order — every packet of a flow matched to a
//     chained policy visits every required function, in policy order,
//     before delivery. Failover and replans may change WHICH middlebox
//     serves a function, never skip or reorder one.
//  2. Isolation — no such packet reaches its destination without a complete
//     chain, including across label teardown/reuse and mid-replan windows.
//     Legitimate in-flight losses (crashed node, dark link, expired label
//     state) are accounted as drops, never silently excused as "enforced".
//  3. Label-path / IP-path equivalence — a label-switched packet's
//     middlebox hop sequence must equal a sequence its flow actually
//     established with tunneled (IP-over-IP) packets in the current label
//     epoch (epochs advance on teardown; §III.E soft state).
//
// Legal non-delivery outcomes the oracle accounts for instead of flagging:
// inline deny (kDenied), WP cache response truncating the chain (§III.F),
// every drop class, anomaly-sunk packets consumed away from the true
// destination, and packets still in flight at end of run.
//
// Two deliberate relaxations, both documented in DESIGN.md §11: a flow may
// establish SEVERAL box paths per epoch (failover during establishment), so
// a switched sequence passes if it matches ANY of them; and below trace
// rate 1.0 mid-chain switched records (whose on-wire 5-tuple is rewritten)
// may be unsampled, so strict label-path comparison only runs when the
// caller promises a complete stream (set_complete_stream).
//
// Determinism: the oracle is a pure function of the record stream, so
// same-seed runs produce identical reports, and attaching it never perturbs
// the run (observers cannot mutate the tracer; metrics are registered only
// in verify mode).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/deployment.hpp"
#include "core/plan.hpp"
#include "net/routing.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "policy/function.hpp"
#include "policy/policy.hpp"
#include "tables/flat_index.hpp"
#include "tables/slab.hpp"

namespace sdmbox::verify {

/// Invariant-violation classes the oracle distinguishes (one counter each).
enum class ViolationKind : std::uint8_t {
  kSkippedFunction,        // delivered with required chain functions unvisited
  kReorderedChain,         // functions applied out of policy order
  kUnexpectedFunction,     // function applied off-policy or by a non-implementer
  kDeliveredWithoutChain,  // chained-policy packet delivered with no chain evidence
  kLabelPathDivergence,    // switched hop sequence matches no established path
  kPostTeardownLabelUse,   // label path used after teardown without re-establishment
};
inline constexpr std::size_t kViolationKindCount = 6;

const char* to_string(ViolationKind k) noexcept;

struct Violation {
  ViolationKind kind = ViolationKind::kSkippedFunction;
  packet::FlowId flow;   // original 5-tuple of the offending packet
  std::uint64_t seq = 0; // packet index within the flow
  double at = 0;         // simulated time the violation became definite
  /// Human-readable account: what the policy required, what the packet did,
  /// hop by hop with times and device names.
  std::string narrative;
};

/// Everything the oracle concluded about one run.
struct VerifyReport {
  std::vector<Violation> violations;  // record order — deterministic

  // Packet accounting (every tracked packet lands in exactly one bucket).
  std::uint64_t records_seen = 0;
  std::uint64_t packets_tracked = 0;
  std::uint64_t packets_delivered_ok = 0;
  std::uint64_t packets_denied = 0;
  std::uint64_t packets_dropped = 0;       // legitimate in-flight losses
  std::uint64_t packets_wp_served = 0;     // §III.F legal chain truncation
  std::uint64_t packets_anomaly_sunk = 0;  // consumed away from the destination
  std::uint64_t packets_in_flight = 0;     // still open at finish()
  std::uint64_t packets_violating = 0;     // packets with >= 1 violation
  std::uint64_t packets_unverified = 0;    // ambiguous identity (alias collision)
  std::uint64_t untracked_records = 0;     // records matching no tracked packet
  std::uint64_t teardown_notices = 0;      // label-teardown records consumed
  std::uint64_t policy_conflicts = 0;      // re-classification disagreed with first
  /// Deliveries that happened while a replan was still rolling out or an
  /// unenforced fault episode was open (span tracer attached only): the
  /// paper's transient windows, tolerated but never uncounted.
  std::uint64_t packets_in_unenforced_window = 0;

  /// False when no record reached the oracle: nothing was verified.
  bool coverage_complete = true;
  std::string coverage_note;

  bool ok() const noexcept { return violations.empty() && coverage_complete; }
  /// One-paragraph human summary (counts + first violations).
  std::string summary() const;
};

/// Live enforcement-invariant checker. Construct over the run's compiled
/// state, attach to the tracer (tracer.set_observer(&oracle)), then finish()
/// to close accounting and read the report.
class InvariantOracle : public obs::TraceObserver {
public:
  /// The plan is not read: the invariants must hold under whichever plan is
  /// live, so the oracle keeps none.
  InvariantOracle(const net::GeneratedNetwork& network, const core::Deployment& deployment,
                  const policy::PolicyList& policies, const core::EnforcementPlan& /*plan*/,
                  const policy::FunctionCatalog* catalog = nullptr);

  /// Promise that every record of every traced flow reaches the oracle
  /// (trace rate 1.0, live attachment). Enables the strict label-path
  /// equivalence check; below rate 1.0 mid-chain switched records carry a
  /// rewritten 5-tuple the sampler may reject, so only the weaker
  /// subsequence check is sound. Default: strict.
  void set_complete_stream(bool complete) noexcept { complete_stream_ = complete; }

  /// Live entry point (TraceObserver).
  void on_record(const obs::TraceRecord& r) override;

  /// Close accounting (open packets become in-flight counts; no violations
  /// are emitted for them — their fate is unknown, not wrong). Idempotent.
  const VerifyReport& finish();

  const VerifyReport& report() const noexcept { return report_; }

  /// Expose verify_* series. Register only in verify mode so non-verify
  /// exports stay byte-identical. With a span tracer attached (before this
  /// call) also exposes conv_unenforced_window_packets.
  void register_metrics(obs::MetricsRegistry& registry) const;

  /// Cross-link the control-plane span tracer: each delivered-ok packet
  /// that lands while a replan span (or unenforced fault episode) is open
  /// is counted into packets_in_unenforced_window and attributed onto that
  /// span's `packets_in_window` attribute — "packets forwarded inside
  /// unenforced windows", per episode. Observation only.
  void set_span_tracer(obs::SpanTracer* spans) noexcept { spans_ = spans; }

private:
  static constexpr std::uint32_t kNil = tables::FlatIndex::kNil;

  enum class Mode : std::uint8_t {
    kOpen,      // injected, not yet classified into a path
    kPlain,     // permitted: plain routing, no chain required
    kDenied,    // inline deny at the proxy (terminal)
    kTunneled,  // IP-over-IP chain traversal
    kSwitched,  // label-switched chain traversal
  };

  // ---- per-packet state ----
  // Slab slots recycled through a LIFO free list, found through one
  // FlatIndex keyed by the destination-agnostic hash of (flow, seq): the
  // exact lookup and the mid-chain alias fallback walk the same probe chain.
  struct PacketState {
    packet::FlowId flow;  // original 5-tuple
    std::uint64_t seq = 0;
    std::uint64_t hash = 0;           // packet_hash(flow, seq): the index key
    std::uint32_t slot = 0;           // own slab index (per-slot storage base)
    std::uint32_t flow_slot = kNil;   // cached FlowState slot; kNil until first use
    std::uint32_t next_free = kNil;   // free-list link while dead
    std::uint32_t visited = 0;        // chain functions confirmed in order
    std::uint32_t path_epoch = 0;     // flow's teardown epoch at switch time
    /// Exact list lengths. The first `chain_cap_` entries live in per-slot
    /// storage; boxes past that spill to long_boxes_.
    std::uint32_t applied_count = 0;  // functions applied, in order
    std::uint32_t box_count = 0;      // distinct consecutive middlebox visits
    std::uint32_t history_head = kNil;  // chain in the history pool; fuels narratives
    std::uint32_t history_tail = kNil;
    std::uint32_t history_count = 0;    // capped at kHistoryCap
    std::uint16_t label = 0;
    Mode mode = Mode::kOpen;
    bool live = false;
    bool chain_tail = false;
    bool violated = false;
    bool anomaly = false;
    bool unverified = false;  // alias collision: identity ambiguous
    /// Owns the destination-agnostic alias that mid-chain switched records
    /// (rewritten destination) resolve through. At most one live packet per
    /// alias holds it.
    bool has_alias = false;
  };

  /// One hop of a packet's story in the shared, free-listed history pool.
  struct HistoryEntry {
    double at = 0;
    std::uint64_t detail = 0;
    net::NodeId node;
    obs::Hop hop = obs::Hop::kInjected;
    std::uint32_t next = kNil;
  };

  // ---- per-flow state ----
  struct FlowState {
    packet::FlowId flow;
    policy::PolicyId policy;      // committed matched policy
    bool policy_known = false;
    bool touched_proxy = false;   // flow crossed a policy proxy (in scope)
    std::uint64_t candidate = 0;  // last proxy kClassified detail, pre-commit
    bool has_candidate = false;
    std::uint32_t epoch = 0;      // bumped on label teardown
    double torn_at = -1;          // last teardown time; < 0 = never
    /// Box sequences completed by tunneled packets, indexed by epoch. A set
    /// per epoch: failover during establishment can legally install several.
    std::vector<std::vector<std::vector<net::NodeId>>> established;
  };

  PacketState* find_packet(const obs::TraceRecord& r);
  /// Slot for an injected packet, fresh or (re-injection) reset in place.
  PacketState& open_packet(const obs::TraceRecord& r);
  /// Return a packet's history entries and spilled boxes to their pools.
  void release(PacketState& ps);
  void push_history(PacketState& ps, const obs::TraceRecord& r);
  void push_box(PacketState& ps, net::NodeId box);
  std::span<const net::NodeId> boxes(const PacketState& ps) const;
  std::uint32_t find_flow(const packet::FlowId& flow, std::uint64_t hash) const noexcept;
  /// The packet's flow, created on first use and cached in the packet.
  FlowState& flow_state(PacketState& ps);
  /// Count a clean delivery, attributing it to any open replan/unenforced
  /// episode span.
  void note_delivered_ok();
  const policy::Policy* committed_policy(const FlowState& fs) const;

  void handle_classified(const obs::TraceRecord& r, FlowState& fs);
  void handle_teardown(const obs::TraceRecord& r);
  void handle_function(const obs::TraceRecord& r, PacketState& ps);
  void handle_chain_tail(PacketState& ps);
  void handle_delivered(const obs::TraceRecord& r, PacketState& ps);
  void finalize(PacketState& ps);  // free the slot after the terminal hop

  void violation(ViolationKind kind, const PacketState& ps, double at,
                 const std::string& cause);
  std::string describe_chain(const policy::Policy& pol) const;
  std::string function_name(policy::FunctionId fn) const;
  std::string node_name(net::NodeId n) const;
  std::string hop_story(const PacketState& ps) const;

  bool is_proxy(net::NodeId n) const noexcept;
  bool at_destination(net::NodeId n, const packet::FlowId& flow) const;
  bool implements(net::NodeId n, policy::FunctionId fn) const noexcept;

  const net::Topology* topo_;
  const policy::PolicyList* policies_;
  const policy::FunctionCatalog* catalog_;
  /// Same resolution the network delivers by: exact device address first,
  /// then longest-prefix stub subnet → terminal. Generated flows use host
  /// addresses without device nodes, so their delivery point is the
  /// destination subnet's terminal, not a node owning the exact address.
  net::AddressResolver resolver_;
  std::vector<bool> proxy_nodes_;                    // indexed by NodeId.v
  std::vector<policy::FunctionSet> box_functions_;   // indexed by NodeId.v; empty = no box
  /// Per-slot capacity of the applied/boxes storage: the longest chain in
  /// the policy list, so every required chain fits.
  std::uint32_t chain_cap_ = 0;

  bool complete_stream_ = true;
  bool finished_ = false;
  obs::SpanTracer* spans_ = nullptr;

  tables::StableSlab<FlowState> flows_;  // never shrinks: packets cache slots
  tables::FlatIndex flow_index_;         // FlowId hash → flows_ slot
  tables::StableSlab<PacketState> packets_;
  tables::FlatIndex packet_index_;       // packet_hash → packets_ slot
  std::uint32_t packet_free_ = kNil;
  std::vector<policy::FunctionId> applied_;  // chain_cap_ entries per packet slot
  std::vector<net::NodeId> boxes_;           // chain_cap_ entries per packet slot
  /// Full box lists of the rare packets whose boxes outgrew chain_cap_.
  std::unordered_map<std::uint32_t, std::vector<net::NodeId>> long_boxes_;
  tables::StableSlab<HistoryEntry> history_;
  std::uint32_t history_free_ = kNil;

  VerifyReport report_;
  std::array<std::uint64_t, kViolationKindCount> violation_counts_{};
};

}  // namespace sdmbox::verify
