// Spec → fully wired world.
//
// build_world() turns a ScenarioSpec into everything a run needs — topology,
// middlebox deployment, generated policies and flows, measured traffic
// matrix, controller, compiled plan — and prepare_sim() then wires the
// packet-level half on top: simulated network, in-band control plane, fault
// injector with the scripted chaos timeline, heartbeat health monitor,
// metrics registry, path tracer, epoch recorder, and (optionally) the
// drift-triggered re-optimisation loop. scenario_cli is this module plus
// printf; the sweep runner calls run_scenario() for the whole pipeline.
//
// Isolation contract: a World owns every piece of mutable state it touches.
// Nothing in build/prepare/run reads or writes process-global state (in
// particular, Worlds never attach the global log clock), so any number of
// Worlds may be built and run concurrently on different threads — the
// property the SweepRunner and the TSan CI job rely on.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/endpoints.hpp"
#include "control/health.hpp"
#include "control/reoptimize.hpp"
#include "core/controller.hpp"
#include "exp/spec.hpp"
#include "net/topologies.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/faults.hpp"
#include "verify/oracle.hpp"
#include "workload/flow_gen.hpp"
#include "workload/policy_gen.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::exp {

/// A spec that cannot be built (e.g. fail_one names an undeployed function).
/// what() is the operator-facing message.
class BuildError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// One metric flattened to `name{labels}` → scalar value. Deterministic
/// (name, labels) order — the registry's collection order.
using MetricsSnapshot = std::vector<std::pair<std::string, double>>;

class World {
public:
  // --- static part: populated by build_world ---
  ScenarioSpec spec;
  policy::FunctionCatalog catalog = policy::FunctionCatalog::standard();
  net::GeneratedNetwork network;
  core::Deployment deployment;
  workload::GeneratedPolicies gen;
  workload::GeneratedFlows flows;
  workload::TrafficMatrix traffic;
  std::unique_ptr<core::Controller> controller;
  core::EnforcementPlan plan;
  net::NodeId prefailed;  // middlebox failed via spec.fail_one (invalid if none)

  // --- sim part: populated by prepare_sim ---
  net::NodeId controller_node;
  net::RoutingTables routing;
  net::AddressResolver resolver;
  std::unique_ptr<sim::SimNetwork> simnet;
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::PathTracer> tracer;
  control::ControlPlane cp;
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<control::HealthMonitor> monitor;
  std::unique_ptr<obs::EpochRecorder> recorder;
  std::optional<control::ReoptimizePolicy> reopt;
  net::NodeId victim;  // chaos-script crash target (invalid when none found)
  /// Enforcement-invariant oracle, attached live to the tracer when
  /// spec.verify is set (null otherwise). run() finishes it; read
  /// oracle->report() afterwards.
  std::unique_ptr<verify::InvariantOracle> oracle;
  /// Control-plane span tracer, attached to the injector, health monitor,
  /// controller, drift loop and oracle when spec.spans is set (null
  /// otherwise). Export via obs::spans_to_json / render_spans_for_path.
  std::unique_ptr<obs::SpanTracer> spans;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Wire the packet-level half (idempotent: second call is rejected). The
  /// World must stay at its address from here on — the simulation holds
  /// references into it (build_world's unique_ptr guarantees that).
  void prepare_sim();

  /// Execute the scripted run: initial plan rollout, traffic waves at
  /// t = 1.0 / 2.2 / 4.3 / 12.0, faults per spec.faults, monitors stopped at
  /// t = 14.0, calendar drained. Requires prepare_sim(). One-shot.
  void run();

  /// Every registry value after (or during) a run, flattened.
  MetricsSnapshot snapshot() const;

  /// The run's trace export (obs::trace_to_json of the tracer's ring).
  std::string trace_json() const;
  /// Total sampled trace records, including any the ring overwrote.
  std::uint64_t trace_recorded() const { return tracer->sink().recorded(); }

private:
  void arm_faults();
  bool sim_prepared_ = false;
  bool ran_ = false;
};

/// Inject wave number `wave` of World::run's policy traffic at time `at`:
/// min(packets, 6) packets of every flow from its source proxy, 30 ms
/// apart. Each of the six stagger slots is one calendar event that builds
/// its packets when it fires and hands them to SimNetwork::inject_now in
/// flow order, so they are counted and traced when they enter the network.
/// `network` and `flows` must outlive the run.
void inject_wave(sim::SimNetwork& net, const net::GeneratedNetwork& network,
                 const workload::GeneratedFlows& flows, double at, std::uint64_t wave);

/// Build the static half of a world from `spec` (validated; throws
/// BuildError on an unbuildable spec). RNG use order matches scenario_cli
/// exactly: one master Rng drives deployment, policy and flow generation.
std::unique_ptr<World> build_world(const ScenarioSpec& spec);

/// The sweep runner's task body: build, wire, run, measure. Everything the
/// run touched dies with the World; only the snapshot survives.
MetricsSnapshot run_scenario(const ScenarioSpec& spec);

}  // namespace sdmbox::exp
