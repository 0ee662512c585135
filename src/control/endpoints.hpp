// Control-plane endpoints running INSIDE the simulated network.
//
// This closes the paper's architecture loop end to end (§III.A/C): the
// controller is an ordinary host on the topology; configuration reaches the
// SDM devices as packets (kConfigPush carrying a serialized DeviceConfig),
// and the proxies' traffic measurements travel back as kMeasurementReport
// packets. No side channels: if the network can't deliver a config, the
// device keeps enforcing its previous one — exactly the failure semantics a
// real deployment would have.
//
// Pieces:
//  * ManagedDevice — wraps one device agent (proxy or middlebox); intercepts
//    config pushes addressed to the device, decodes and applies them, and
//    sends the measurement reports it is handed; everything else is
//    delegated to the wrapped agent untouched.
//  * ControllerAgent — collects measurement reports into a TrafficMatrix;
//    replan() is the single re-plan entry point (initial rollout, failure
//    recovery, §III.C measurement re-solve, drift-triggered re-solve): it
//    obtains a plan — compiled, precompiled, or locally PATCHED from the
//    last plan when the request scopes a kFailure replan to a single failed
//    node or link — serializes per-device slices and injects the changed
//    ones.
//  * install_control_plane — attaches a controller host node plus managed
//    devices over a whole GeneratedNetwork; send_reports has every proxy
//    report its measurements in-band.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "control/codec.hpp"
#include "core/agents.hpp"
#include "obs/span.hpp"
#include "sim/network.hpp"
#include "stats/histogram.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::control {

class HealthMonitor;

/// Deterministic model of LP solve cost, shared by the reoptimize loop's
/// reopt_* series and the controller's solve spans / conv_solve_latency:
/// measured wall time is machine-dependent, so exports derive solve cost
/// from the pivot count instead.
inline constexpr double kModeledSolveBaseMs = 0.5;
inline constexpr double kModeledMsPerPivot = 0.02;

inline double modeled_solve_ms(std::size_t pivots) noexcept {
  return kModeledSolveBaseMs + kModeledMsPerPivot * static_cast<double>(pivots);
}

struct ControlCounters {
  std::uint64_t configs_applied = 0;
  std::uint64_t configs_rejected = 0;   // malformed or stale (version or sequence)
  std::uint64_t configs_duplicate = 0;  // retransmitted pushes already applied (re-acked)
  std::uint64_t acks_sent = 0;
  std::uint64_t reports_sent = 0;
};

/// Wraps a device agent; owns it.
class ManagedDevice final : public sim::NodeAgent {
public:
  explicit ManagedDevice(std::unique_ptr<core::DeviceAgent> agent);

  void on_packet(sim::SimNetwork& net, packet::Packet pkt, net::NodeId from) override;

  /// Inject `report` toward `controller` as a kMeasurementReport packet.
  /// Returns the encoded report size in bytes.
  std::size_t send_report(sim::SimNetwork& net, net::IpAddress controller,
                          const MeasurementReport& report);

  const ControlCounters& counters() const noexcept { return counters_; }

  /// Expose this device's control_* series plus the wrapped agent's series.
  void register_metrics(obs::MetricsRegistry& registry) const;
  std::uint64_t config_version() const noexcept { return agent_->config_version(); }

private:
  net::NodeId node_;
  net::IpAddress address_;
  std::unique_ptr<core::DeviceAgent> agent_;
  /// Highest config sequence applied (0 = none yet). Duplicates are re-acked
  /// without re-applying; lower sequences are rejected as stale.
  std::uint64_t last_seq_ = 0;
  ControlCounters counters_;
};

/// Why the controller is re-planning. Carried through ReplanRequest into
/// ReplanOutcome so callers (and metrics) can attribute every rollout.
enum class ReplanTrigger : std::uint8_t {
  kInitial,      // bootstrap: distribute a precompiled plan
  kFailure,      // heartbeat-driven recovery: recompute assignments first
  kMeasurement,  // periodic §III.C re-solve from collected proxy reports
  kDrift,        // ReoptimizePolicy decided observed load drifted enough
};

const char* to_string(ReplanTrigger t) noexcept;

/// One request to the unified ControllerAgent::replan() entry point.
/// Common shapes:
///   initial rollout    -> {kInitial, .plan = &plan}
///   full recovery      -> {kFailure, .strategy = s, .recompute_assignments = true}
///   scoped recovery    -> {kFailure, .failed_node = box}  (local patch)
///   §III.C re-solve    -> {kMeasurement} (defaults)
struct ReplanRequest {
  ReplanTrigger trigger = ReplanTrigger::kMeasurement;
  /// Strategy to compile when `plan` is null. kLoadBalanced solves Eq. (2)
  /// on the reports collected since the last solve.
  core::StrategyKind strategy = core::StrategyKind::kLoadBalanced;
  /// Recompute assignments against the deployment's current operational
  /// state before compiling (failure recovery). Propagates the controller's
  /// ContractViolation when a needed function has no live implementer.
  bool recompute_assignments = false;
  /// Distribute this precompiled plan instead of compiling one. Must outlive
  /// the call.
  const core::EnforcementPlan* plan = nullptr;
  /// Single-failure scope, kFailure only: when set (and a plan has been
  /// distributed before), the replan PATCHES the current plan instead of
  /// recomputing + recompiling it — candidate sets are rebuilt only for
  /// devices whose candidate lists contain the failed middlebox, and split
  /// shares pointing at it are dropped (agents fall back to hot-potato there
  /// until the next solve). All other device slices stay byte-identical, so
  /// the differential push reaches only the affected devices. The box must
  /// already be marked failed in the deployment (HealthMonitor does this
  /// before calling). When no plan was ever distributed, the scope degrades
  /// to a full recompute. Link failures never come here: OSPF reconvergence
  /// absorbs them, because tunnels address middleboxes by IP.
  net::NodeId failed_node{};
};

/// What one replan() actually did.
struct ReplanOutcome {
  core::EnforcementPlan plan;  // the plan now considered current
  ReplanTrigger trigger = ReplanTrigger::kMeasurement;
  bool solved = false;      // an LP solve ran
  bool suppressed = false;  // zero-report measurement replan: no-op, plan == last_plan()
  std::size_t pushes_sent = 0;
  std::size_t pushes_skipped = 0;   // devices whose slice was unchanged
  std::uint64_t push_bytes = 0;     // rollout churn of this replan
  std::uint64_t reports_used = 0;   // proxy reports consumed by the solve
  double lambda = 0;                // LP objective (0 when no solve ran)
  std::size_t lp_pivots = 0;        // simplex pivots (0 when no solve ran)
  bool lp_warm_started = false;     // solve re-used the previous basis
  bool patched = false;             // plan locally patched, no recompile
  std::size_t devices_patched = 0;  // devices whose assignments the patch touched
};

/// The controller host's agent.
class ControllerAgent final : public sim::NodeAgent {
public:
  ControllerAgent(net::NodeId node, net::IpAddress address, core::Controller& controller,
                  const net::GeneratedNetwork& network);

  void on_packet(sim::SimNetwork& net, packet::Packet pkt, net::NodeId from) override;

  /// The one re-plan entry point: optionally recompute assignments, obtain a
  /// plan (precompiled, or compiled per `request.strategy`), and distribute
  /// it differentially — one sequenced kConfigPush per device whose slice
  /// CHANGED since the last push, retransmitted until acked: 0.1 s initial
  /// timeout, doubling per retry, abandoned after 6 retries (abandonment
  /// voids the device's differential fingerprint so the next replan resends
  /// its full slice).
  ///
  /// A kLoadBalanced compile with zero reports collected since the last
  /// solve is suppressed: solving Eq. (2) on an empty matrix would push a
  /// meaningless plan networkwide, so the call is a no-op returning
  /// last_plan() with outcome.suppressed set — except under kFailure, where
  /// a live plan is mandatory and the compile falls back to kHotPotato
  /// (equivalent to what an empty LB solve degenerates to at the agents,
  /// which fall back to hot-potato wherever ratios are absent).
  ReplanOutcome replan(sim::SimNetwork& net, const ReplanRequest& request);

  /// The controller this agent fronts (assignments, deployment, LP).
  const core::Controller& controller() const noexcept { return controller_; }

  /// Devices acknowledge applied configs; lets the controller see rollout
  /// completion instead of assuming it.
  std::uint64_t acks_received() const noexcept { return acks_; }
  std::uint64_t pushes_sent() const noexcept { return pushes_sent_; }
  std::uint64_t pushes_skipped_unchanged() const noexcept { return pushes_skipped_; }
  std::uint64_t push_bytes_sent() const noexcept { return push_bytes_; }

  /// Pushes sent but not yet acked (0 after a completed rollout).
  std::size_t outstanding_pushes() const noexcept { return pending_.size(); }
  std::uint64_t retransmissions() const noexcept { return retransmissions_; }
  std::uint64_t pushes_abandoned() const noexcept { return pushes_abandoned_; }
  std::uint64_t stale_acks() const noexcept { return stale_acks_; }

  /// Forget the differential-push state for `device` (and any pending
  /// retransmission): the next replan sends its full slice. Called when a
  /// device is declared failed or revived — its applied config can no longer
  /// be assumed to match what was last sent.
  void forget_device(net::NodeId device);

  /// The plan most recently distributed by replan() (empty before the first
  /// push) — what the controller currently believes the network enforces.
  const core::EnforcementPlan& last_plan() const noexcept { return last_plan_; }

  /// Wire the heartbeat monitor in: kHeartbeatAck packets addressed to the
  /// controller are handed to it (see control/health.hpp).
  void set_health_monitor(HealthMonitor* monitor) { health_ = monitor; }

  net::NodeId node() const noexcept { return node_; }

  /// Matrix assembled from reports received so far.
  const workload::TrafficMatrix& collected() const noexcept { return collected_; }
  std::uint64_t reports_received() const noexcept { return reports_received_; }
  /// Reports received since the last measurement/drift solve consumed the
  /// pool (the ReoptimizePolicy's min-reports gate reads this).
  std::uint64_t pending_reports() const noexcept { return pending_reports_; }
  std::uint64_t replans() const noexcept { return replans_; }
  /// Measurement replans turned into no-ops because zero reports had
  /// arrived since the last solve (the pool would have been empty).
  std::uint64_t replans_suppressed() const noexcept { return replans_suppressed_; }
  /// Failure replans resolved by the scoped patch path (no LP, no full
  /// recompute): only devices whose candidates held the failed box were
  /// repushed.
  std::uint64_t replans_patched() const noexcept { return replans_patched_; }
  std::uint64_t malformed_messages() const noexcept { return malformed_; }
  std::uint64_t current_version() const noexcept { return version_; }
  net::IpAddress address() const noexcept { return address_; }

  /// Expose the push/ack/report bookkeeping as ctrl_* registry views. When
  /// a span tracer is attached (set_spans BEFORE this call) additionally
  /// registers the conv_solve_latency / conv_push_latency /
  /// conv_total_unenforced_window histograms derived from spans.
  void register_metrics(obs::MetricsRegistry& registry) const;

  /// Attach a span tracer (+ the simulator clock, for span timestamps on
  /// paths that don't receive a SimNetwork, e.g. forget_device). Every
  /// replan then emits one `replan:<trigger>` span — parented under the
  /// episode on the tracer's context stack, if any — with `solve`,
  /// `plan_diff`, and per-device `push` children; push spans close at ack
  /// (gaining an `ack` instant child), supersede, abandonment, or
  /// forget_device. When the last outstanding push of a replan resolves,
  /// the replan span ends, conv_push_latency records the rollout time, and
  /// every episode the replan was acting for is closed — unenforced
  /// episodes record their full fault->plan-live window into
  /// conv_total_unenforced_window. Pure observation: attaching never
  /// changes protocol behavior.
  void set_spans(obs::SpanTracer* spans, const sim::Simulator* clock) noexcept {
    spans_ = spans;
    span_clock_ = clock;
  }

private:
  /// One push awaiting its ack, plus its spans (0 when no tracer is attached).
  struct PendingPush {
    std::uint64_t seq = 0;
    net::IpAddress device_addr;
    std::shared_ptr<const std::vector<std::uint8_t>> payload;
    int attempts = 1;  // sends so far (initial + retries)
    obs::SpanId push_span = 0;
    obs::SpanId replan_span = 0;
  };

  /// Open replan span -> rollout progress (outstanding pushes + the episode
  /// spans this replan acts for, snapshotted from the context stack).
  struct ReplanSpanState {
    double started_at = 0;
    std::size_t outstanding = 0;
    std::vector<obs::SpanId> episodes;
  };

  void send_push(sim::SimNetwork& net, const PendingPush& push);
  void schedule_retransmit(sim::SimNetwork& net, std::uint32_t device_v, std::uint64_t seq,
                           double rto);
  /// Differential distribution of `plan` (the push half of replan()).
  /// Returns the number of pushes sent; increments the config version.
  std::size_t distribute(sim::SimNetwork& net, const core::EnforcementPlan& plan);

  /// Close a push's span (ack / supersede / abandon / forget) and, when its
  /// replan has no outstanding pushes left, complete the replan span.
  void resolve_push_span(const PendingPush& push, double now, const char* how);
  void complete_replan_span(obs::SpanId replan_span, double now);

  net::NodeId node_;
  net::IpAddress address_;
  core::Controller& controller_;
  const net::GeneratedNetwork& network_;
  workload::TrafficMatrix collected_;
  std::uint64_t reports_received_ = 0;
  std::uint64_t pending_reports_ = 0;  // reports since the last consumed solve
  std::uint64_t replans_ = 0;
  std::uint64_t replans_suppressed_ = 0;
  std::uint64_t replans_patched_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t pushes_sent_ = 0;
  std::uint64_t pushes_skipped_ = 0;
  std::uint64_t push_bytes_ = 0;
  /// Last pushed slice per device, version field zeroed for comparison —
  /// the differential-push baseline.
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> last_pushed_;
  std::uint64_t push_seq_ = 0;  // global config-push sequence counter
  std::unordered_map<std::uint32_t, PendingPush> pending_;  // device node -> in-flight push
  std::unordered_map<std::uint32_t, std::uint32_t> addr_to_node_;  // device addr -> node
  std::uint64_t retransmissions_ = 0;
  std::uint64_t pushes_abandoned_ = 0;
  std::uint64_t stale_acks_ = 0;
  core::EnforcementPlan last_plan_;
  HealthMonitor* health_ = nullptr;
  obs::SpanTracer* spans_ = nullptr;
  const sim::Simulator* span_clock_ = nullptr;
  std::unordered_map<obs::SpanId, ReplanSpanState> replan_spans_;
  obs::SpanId current_replan_span_ = 0;  // set around distribute() by replan()
  stats::Histogram conv_solve_latency_;
  stats::Histogram conv_push_latency_;
  stats::Histogram conv_total_unenforced_window_;
};

struct ControlPlane {
  ControllerAgent* controller = nullptr;
  net::NodeId controller_node;
  /// The wrapped agents typed by role (plus the off-path edge loopbacks),
  /// for reading role counters.
  core::InstalledAgents agents;
  std::vector<ManagedDevice*> proxies;      // parallel to agents.proxies
  std::vector<ManagedDevice*> middleboxes;  // parallel to agents.middleboxes
};

/// Create a controller host attached to the network core, wrap every proxy
/// and middlebox in a ManagedDevice initialized from `initial_plan`, and
/// attach everything to `simnet`. Mutates the topology (adds the controller
/// node), so call before computing routing tables.
net::NodeId add_controller_host(net::GeneratedNetwork& network);

ControlPlane install_control_plane(sim::SimNetwork& simnet, net::GeneratedNetwork& network,
                                   const core::Deployment& deployment,
                                   const policy::PolicyList& policies,
                                   core::Controller& controller, net::NodeId controller_node,
                                   const core::EnforcementPlan& initial_plan,
                                   const core::AgentOptions& options);

/// Register the controller's and every managed device's series.
void register_metrics(obs::MetricsRegistry& registry, const ControlPlane& plane);

/// §III.C "periodically, all policy proxies send their measured traffic":
/// each proxy, in network order, packages its measurements as a report
/// packet to the controller and clears them. Returns the encoded bytes sent.
std::size_t send_reports(sim::SimNetwork& net, const ControlPlane& plane);

}  // namespace sdmbox::control
