// Controller-side failure detection: the heartbeat protocol that replaces
// the tests' omniscient `Deployment::set_failed` oracle with something a
// real deployment could run.
//
// The HealthMonitor lives next to the ControllerAgent on the controller
// host. Every `probe_period` it sends one sequenced kHeartbeat to each
// managed device over the simulated network (so probes share fate with the
// traffic they vouch for: a partitioned device IS a failed device from the
// controller's point of view). A device that fails to answer
// `miss_threshold` consecutive rounds is declared failed; middleboxes are
// marked in the Deployment and the controller pushes a recovery plan — the
// paper's dependability loop (§III.A "the controller re-configures the
// software-defined middleboxes"), closed end to end in-band. Each recovery
// is one kFailure replan: a round that declares one middlebox failed names
// it, and the controller patches only the candidate lists that change; a
// round with several, or a revival, recomputes every assignment and pushes
// hot-potato.
// Proxies are probed too: their failure can't be routed around (they ARE
// the subnet's enforcement point), but the operator still wants to know.
//
// Detection latency and false positives are first-class counters because
// the probe_period × miss_threshold trade-off is exactly what
// bench/ablation_detection_latency measures.
#pragma once

#include <unordered_map>
#include <vector>

#include "control/endpoints.hpp"
#include "stats/histogram.hpp"

namespace sdmbox::control {

struct HealthParams {
  /// Seconds between probe rounds.
  double probe_period = 0.25;
  /// Consecutive unanswered rounds before a device is declared failed.
  /// Worst-case detection latency ≈ (miss_threshold + 1) × probe_period.
  int miss_threshold = 3;
};

struct HealthCounters {
  std::uint64_t probes_sent = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t failures_declared = 0;
  std::uint64_t revivals_declared = 0;
  /// Failures declared while the node was actually up (the detector's
  /// specificity under control-channel loss).
  std::uint64_t false_positives = 0;
  std::uint64_t repushes = 0;           // recovery plans pushed
  std::uint64_t recompute_refused = 0;  // no live implementer left for some function
  /// Σ (declaration time - last reply time) over declared failures; divide
  /// by failures_declared for the mean detection latency.
  double detection_latency_total = 0;
};

class HealthMonitor {
public:
  /// A failure/revival declaration, in order.
  struct Event {
    net::NodeId node;
    sim::SimTime at = 0;
    bool failed = false;  // true = declared failed, false = revived
  };

  /// Monitors every middlebox of `deployment` and every proxy of `network`.
  /// `deployment` must be the instance the
  /// controller's recompute consults — declarations flow through
  /// Deployment::set_failed. Registers itself with `agent` for
  /// kHeartbeatAck dispatch; all references must outlive the monitor.
  HealthMonitor(ControllerAgent& agent, core::Deployment& deployment,
                const net::GeneratedNetwork& network, HealthParams params = {});

  /// Begin probing (idempotent). Call before or during the simulation run.
  void start(sim::SimNetwork& net);
  /// Stop after the current round — without this the periodic reschedule
  /// keeps the event calendar alive forever.
  void stop() { running_ = false; }

  /// Called by the ControllerAgent for every kHeartbeatAck it receives.
  void on_probe_reply(sim::SimNetwork& net, net::IpAddress from, std::uint64_t seq);

  bool declared_failed(net::NodeId node) const;
  const std::vector<Event>& log() const noexcept { return log_; }
  const HealthCounters& counters() const noexcept { return counters_; }
  const HealthParams& params() const noexcept { return params_; }

  /// Expose the detection bookkeeping as health_* registry views (probes,
  /// declarations, false positives, detection-latency total and mean). When
  /// a span tracer is attached (set_spans BEFORE this call) additionally
  /// registers the conv_detection_latency histogram derived from spans.
  void register_metrics(obs::MetricsRegistry& registry) const;

  /// Attach a span tracer: each declaration emits a `detect` child span
  /// under the fault's episode root (found via node-id correlation; a
  /// declaration with no matching fault — a false positive — opens its own
  /// episode root) and samples conv_detection_latency. Repush-triggering
  /// declarations park their episode on the tracer's context stack so the
  /// controller's replan span joins the same trace tree.
  void set_spans(obs::SpanTracer* spans) noexcept { spans_ = spans; }

  double mean_detection_latency() const noexcept {
    return counters_.failures_declared == 0
               ? 0.0
               : counters_.detection_latency_total /
                     static_cast<double>(counters_.failures_declared);
  }

private:
  struct Device {
    net::NodeId node;
    net::IpAddress address;
    bool is_proxy = false;
    std::uint64_t seq_sent = 0;   // last probe sequence sent to this device
    std::uint64_t seq_acked = 0;  // highest probe sequence it answered
    int misses = 0;               // consecutive unanswered rounds
    bool declared_failed = false;
    sim::SimTime last_reply_at = 0;
  };

  void round(sim::SimNetwork& net);
  /// The kFailure replan; `failed_node` (when valid) scopes it to a local patch.
  void repush(sim::SimNetwork& net, net::NodeId failed_node = {});
  /// Returns true when the declaration parked an episode span on the
  /// tracer's context stack (the caller pops after any repush).
  bool declare(sim::SimNetwork& net, Device& device, sim::SimTime now);

  ControllerAgent& agent_;
  core::Deployment& deployment_;
  HealthParams params_;
  obs::SpanTracer* spans_ = nullptr;
  stats::Histogram conv_detection_latency_;
  std::vector<Device> devices_;
  std::unordered_map<std::uint32_t, std::size_t> by_addr_;  // address -> devices_ index
  HealthCounters counters_;
  std::vector<Event> log_;
  bool running_ = false;
};

}  // namespace sdmbox::control
