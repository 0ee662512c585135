#include "exp/world.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "verify/chaosgen.hpp"

namespace sdmbox::exp {
namespace {

/// The hot-potato target of proxy 0's first chained policy: a middlebox that
/// is guaranteed to carry traffic, so crashing it actually matters. Invalid
/// when no proxy-0 policy has a chain (the chaos script then skips the
/// crash). Lifted verbatim from scenario_cli so spec-driven runs pick the
/// same victim the CLI always picked.
net::NodeId pick_victim(const net::GeneratedNetwork& network, const policy::PolicyList& policies,
                        const core::EnforcementPlan& plan) {
  if (network.proxies.empty()) return {};
  const core::NodeConfig& cfg = plan.config(network.proxies[0]);
  for (const policy::PolicyId pid : cfg.relevant_policies) {
    const policy::Policy& pol = policies.at(pid);
    if (pol.deny || pol.actions.empty()) continue;
    const net::NodeId m = cfg.closest(pol.actions.front());
    if (m.valid()) return m;
  }
  return {};
}

}  // namespace

void inject_wave(sim::SimNetwork& net, const net::GeneratedNetwork& network,
                 const workload::GeneratedFlows& flows, double at, std::uint64_t wave) {
  // Each flow's packets are spread 30 ms apart so the burst overlaps the
  // peer-health probe timeouts. flow_seq is unique and nonzero per (flow,
  // packet) across waves: the invariant oracle keys packets on (flow, seq),
  // and 0 is the "no sequence" sentinel. Stagger slot j is one event that
  // builds every flow's j-th packet when it comes due and injects them in
  // flow order.
  constexpr std::uint64_t kSlots = 6;
  for (std::uint64_t j = 0; j < kSlots; ++j) {
    const auto slot = [&net, &network, &flows, wave, j] {
      for (const auto& f : flows.flows) {
        if (j >= f.packets) continue;
        packet::Packet p;
        p.inner.src = f.id.src;
        p.inner.dst = f.id.dst;
        p.src_port = f.id.src_port;
        p.dst_port = f.id.dst_port;
        p.payload_bytes = 200;
        p.flow_seq = static_cast<std::uint32_t>(wave * kSlots + j + 1);
        net.inject_now(network.proxies[static_cast<std::size_t>(f.src_subnet)], p);
      }
    };
    net.simulator().schedule_at(at + static_cast<double>(j) * 0.03, slot);
  }
}

std::unique_ptr<World> build_world(const ScenarioSpec& spec) {
  const std::string invalid = spec.validate();
  if (!invalid.empty()) throw BuildError("invalid scenario spec: " + invalid);

  auto world = std::make_unique<World>();
  World& w = *world;
  w.spec = spec;

  // Same master-RNG consumption order as scenario_cli: topology generators
  // take the seed by value, then deployment, policies and flows draw from
  // the one stream — byte-identical worlds for byte-identical specs.
  util::Rng rng(spec.seed);
  if (spec.topology == TopologyKind::kWaxman) {
    net::WaxmanParams wp;
    wp.seed = spec.seed;
    wp.edge_count = spec.waxman_edge_count;
    wp.core_count = spec.waxman_core_count;
    wp.proxy_mode = spec.off_path ? net::ProxyMode::kOffPath : net::ProxyMode::kInPath;
    w.network = net::make_waxman_topology(wp);
  } else {
    net::CampusParams cp;
    cp.edge_count = spec.campus_edge_count;
    cp.core_count = spec.campus_core_count;
    cp.proxy_mode = spec.off_path ? net::ProxyMode::kOffPath : net::ProxyMode::kInPath;
    w.network = net::make_campus_topology(cp);
  }
  w.deployment = core::deploy_middleboxes(w.network, w.catalog, core::DeploymentParams{}, rng);

  workload::PolicyGenParams pp;
  pp.many_to_one = pp.one_to_many = pp.one_to_one = spec.policies_per_class;
  w.gen = workload::generate_policies(w.network, pp, rng);

  workload::FlowGenParams fp;
  fp.target_total_packets = spec.packets;
  w.flows = workload::generate_flows(w.network, w.gen, fp, rng);
  w.traffic = workload::TrafficMatrix::measure(w.gen.policies, w.flows.flows);
  w.deployment.set_uniform_capacity(std::max(1.0, w.traffic.grand_total()));

  core::ControllerParams ctrl_params;
  ctrl_params.lp.simplex.engine = spec.lp_engine;
  ctrl_params.warm_start_lb = spec.lp_warm_start;
  w.controller =
      std::make_unique<core::Controller>(w.network, w.deployment, w.gen.policies, ctrl_params);
  if (!spec.fail_one.empty()) {
    const policy::FunctionId fn = w.catalog.find(spec.fail_one);
    if (!fn.valid() || w.deployment.implementers(fn).empty()) {
      throw BuildError("unknown or undeployed function for --fail-one: " + spec.fail_one);
    }
    w.prefailed = w.deployment.implementers(fn)[0];
    w.deployment.set_failed(w.prefailed, true);
    w.controller->recompute();
  }

  w.plan = w.controller->compile(
      spec.strategy,
      spec.strategy == core::StrategyKind::kLoadBalanced ? &w.traffic : nullptr);
  return world;
}

void World::prepare_sim() {
  SDM_CHECK_MSG(!sim_prepared_, "prepare_sim() is one-shot per world");
  SDM_CHECK_MSG(controller != nullptr, "world has no static part — use build_world()");
  sim_prepared_ = true;

  if (spec.faults == FaultScript::kChaos) victim = pick_victim(network, gen.policies, plan);

  controller_node = control::add_controller_host(network);
  routing = net::RoutingTables::compute(network.topo);
  resolver = net::AddressResolver::build(network.topo);
  simnet = std::make_unique<sim::SimNetwork>(network.topo, routing, resolver);

  tracer = std::make_unique<obs::PathTracer>(spec.trace_sample);
  simnet->set_tracer(tracer.get());

  // Span attachment is pure observation: the tracer draws no randomness and
  // schedules no events, so a spans-on run and a spans-off run stay
  // byte-identical except for the additive conv_* registry series (which
  // every component gates on the tracer being attached before
  // register_metrics — that ordering is load-bearing below).
  if (spec.spans) spans = std::make_unique<obs::SpanTracer>();

  if (spec.verify) {
    // Live attachment: the oracle sees every sampled record as it happens,
    // independent of ring capacity. Observers never mutate the sink, so
    // trace/metric exports stay byte-identical to a non-verify run (modulo
    // the verify_* series registered below).
    oracle = std::make_unique<verify::InvariantOracle>(network, deployment, gen.policies, plan,
                                                       &catalog);
    oracle->set_complete_stream(spec.trace_sample >= 1.0);
    tracer->set_observer(oracle.get());
    if (spans) oracle->set_span_tracer(spans.get());
  }

  core::AgentOptions opts;
  opts.enable_flow_cache = spec.flow_cache;
  opts.enable_label_switching = spec.label_switching;
  opts.wp_cache_hit_rate = spec.wp_cache_hit_rate;
  opts.peer_health.enabled = spec.peer_health;
  opts.peer_health.probe_timeout = 0.05;
  opts.peer_health.miss_threshold = 2;
  opts.peer_health.blacklist_hold = 5.0;
  opts.peer_health.min_probe_gap = 0.05;
  cp = control::install_control_plane(*simnet, network, deployment, gen.policies, *controller,
                                      controller_node, plan, opts);
  if (spans) cp.controller->set_spans(spans.get(), &simnet->simulator());

  injector = std::make_unique<sim::FaultInjector>(*simnet, &routing);
  if (spans) injector->set_spans(spans.get());
  arm_faults();

  control::HealthParams hp;
  hp.probe_period = 0.1;
  hp.miss_threshold = 8;
  monitor = std::make_unique<control::HealthMonitor>(*cp.controller, deployment, network, hp);
  if (spans) monitor->set_spans(spans.get());

  // One registry over every layer: the packet plane, the fault script, the
  // control plane (controller + every managed device), and the detector.
  simnet->register_metrics(registry);
  injector->register_metrics(registry);
  if (oracle) oracle->register_metrics(registry);
  control::register_metrics(registry, cp);
  monitor->register_metrics(registry);

  recorder = std::make_unique<obs::EpochRecorder>(registry, spec.epoch);

  // Drift-triggered re-optimisation rides on the recorder's load series; its
  // counters register before the recorder's first snapshot so every export
  // series spans the full run.
  if (spec.reopt.epoch_period > 0) {
    reopt.emplace(*cp.controller, cp, *recorder, spec.reopt);
    if (spans) reopt->set_spans(spans.get());
    reopt->register_metrics(registry);
  }
}

void World::arm_faults() {
  if (spec.faults == FaultScript::kGenerated) {
    // Seeded randomized schedule: one knob, many distinct fault timelines.
    // chaos_seed 0 reuses the master seed so `faults = generated` alone is
    // already a valid (and reproducible) spec.
    const std::uint64_t seed = spec.chaos_seed != 0 ? spec.chaos_seed : spec.seed;
    injector->arm(verify::generate_chaos(network, deployment, seed));
    return;
  }
  if (spec.faults != FaultScript::kChaos) return;
  // The chaos timeline shared with tests/chaos_test.cpp: victim crash at
  // 2.05 (restart 8.0), control-channel loss 2.5–6.0, core<->gateway link
  // flap 4.0–4.6.
  sim::FaultSchedule schedule;
  if (victim.valid()) schedule.crash_node(2.05, victim).restart_node(8.0, victim);
  if (!network.gateways.empty() && !network.core_routers.empty()) {
    const net::LinkId flap = network.topo.find_link(network.core_routers[0], network.gateways[0]);
    if (flap.valid()) schedule.link_down(4.0, flap).link_up(4.6, flap);
  }
  const net::NodeId attach =
      network.gateways.empty() ? network.core_routers.front() : network.gateways.front();
  const net::LinkId ctrl_link = network.topo.find_link(attach, controller_node);
  if (ctrl_link.valid()) schedule.link_loss(2.5, ctrl_link, 0.15).link_loss(6.0, ctrl_link, 0.0);
  injector->arm(schedule);
}

void World::run() {
  SDM_CHECK_MSG(sim_prepared_, "run() requires prepare_sim()");
  SDM_CHECK_MSG(!ran_, "run() is one-shot per world");
  ran_ = true;

  recorder->start(
      [&](double d, std::function<void()> fn) {
        simnet->simulator().schedule_in(d, std::move(fn));
      },
      [&] { return simnet->simulator().now(); });

  cp.controller->replan(*simnet, control::ReplanRequest{
                                     .trigger = control::ReplanTrigger::kInitial,
                                     .plan = &plan});
  monitor->start(*simnet);
  if (reopt) reopt->start(*simnet);

  inject_wave(*simnet, network, flows, 1.0, 0);
  inject_wave(*simnet, network, flows, 2.2, 1);
  inject_wave(*simnet, network, flows, 4.3, 2);
  inject_wave(*simnet, network, flows, 12.0, 3);

  simnet->simulator().schedule_at(14.0, [&] {
    monitor->stop();
    if (reopt) reopt->stop();
    recorder->stop();
  });
  simnet->run();
  if (oracle) oracle->finish();
}

std::string World::trace_json() const { return obs::trace_to_json(*tracer, &network.topo); }

MetricsSnapshot World::snapshot() const {
  MetricsSnapshot out;
  const auto samples = registry.collect();
  out.reserve(samples.size());
  for (const auto& s : samples) {
    out.emplace_back(s.name + s.labels.render(), s.value);
    // Histograms flatten to count (above) AND sum, so suite aggregation can
    // average totals (e.g. conv_total_unenforced_window_sum) across seeds.
    if (s.kind == obs::MetricKind::kHistogram) {
      out.emplace_back(s.name + "_sum" + s.labels.render(), s.histogram.sum);
    }
  }
  return out;
}

MetricsSnapshot run_scenario(const ScenarioSpec& spec) {
  auto world = build_world(spec);
  world->prepare_sim();
  world->run();
  return world->snapshot();
}

}  // namespace sdmbox::exp
