// The traced run: per-layer metrics, measured from outside the library by
// timing the benchmark's own calls into each src/ module's public functions,
// plus the ladder — the same seed and the same policy packets run through
// ever richer configurations, so rung differences per packet price a layer:
//   R0 bare SimNetwork forwarding        R3 R2 + faults=chaos
//   R1 R0 + core::install_agents         R4 R3 + tracer at 1.0 + spans
//   R2 R1 + control plane (datapath)     R5 R4 + oracle (chaos_verify)
#include <algorithm>
#include <array>
#include <memory>

#include "bench.hpp"
#include "core/agents.hpp"
#include "obs/trace.hpp"
#include "policy/classifier.hpp"
#include "util/rng.hpp"
#include "verify/oracle.hpp"

namespace perfbench {

using namespace sdmbox;

namespace {

/// Repetitions of each cheap set-up call; the metric is their median.
constexpr int kSetupReps = 5;
/// Replan cycles in the traced run (each has one cold compile).
constexpr int kReplanCycles = 2;
/// Interleaved rounds of the ladder; each per-layer time is a median.
constexpr int kLadderRounds = 3;
/// Minimum wall time of the classifier timing loop.
constexpr double kClassifySeconds = 0.2;

/// The agent options World::prepare_sim installs for a spec.
core::AgentOptions agent_options(const exp::ScenarioSpec& spec) {
  core::AgentOptions o;
  o.enable_flow_cache = spec.flow_cache;
  o.enable_label_switching = spec.label_switching;
  o.wp_cache_hit_rate = spec.wp_cache_hit_rate;
  o.peer_health.enabled = spec.peer_health;
  o.peer_health.probe_timeout = 0.05;
  o.peer_health.miss_threshold = 2;
  o.peer_health.blacklist_hold = 5.0;
  o.peer_health.min_probe_gap = 0.05;
  return o;
}

/// The policy packets of World::run's four waves, injected at the proxies.
void inject_waves(sim::SimNetwork& net, const exp::World& w) {
  const double at[] = {1.0, 2.2, 4.3, 12.0};
  for (std::uint64_t wave = 0; wave < 4; ++wave) {
    for (const auto& f : w.flows.flows) {
      const std::uint64_t n = std::min<std::uint64_t>(f.packets, 6);
      for (std::uint64_t j = 0; j < n; ++j) {
        packet::Packet p;
        p.inner.src = f.id.src;
        p.inner.dst = f.id.dst;
        p.src_port = f.id.src_port;
        p.dst_port = f.id.dst_port;
        p.payload_bytes = 200;
        p.flow_seq = wave * 6 + j + 1;
        net.inject(w.network.proxies[static_cast<std::size_t>(f.src_subnet)], p,
                   at[wave] + static_cast<double>(j) * 0.03);
      }
    }
  }
}

/// R0 / R1: a SimNetwork over the world's topology, with or without agents.
/// Returns the run time; stores the calendar's event count in `events`.
double bare_rung(const exp::World& w, bool agents, SpanLog& log, Result& r,
                 std::uint64_t* events = nullptr) {
  net::RoutingTables routing;
  {
    SpanLog::Scope s(log, "net.routing_compute");
    routing = net::RoutingTables::compute(w.network.topo);
  }
  const net::AddressResolver resolver = net::AddressResolver::build(w.network.topo);
  sim::SimNetwork net(w.network.topo, routing, resolver);
  if (agents) {
    core::install_agents(net, w.network, w.deployment, w.gen.policies, w.plan,
                         agent_options(w.spec));
  }
  inject_waves(net, w);
  SpanLog::Scope s(log, agents ? "ladder.r1" : "ladder.r0");
  net.run();
  const double t = s.stop();
  if (events != nullptr) *events = net.simulator().events_processed();
  const sim::NetworkCounters nc = net.counters();
  if (nc.dropped_ttl + nc.dropped_no_route + nc.dropped_queue != 0) {
    r.problem(std::string(agents ? "R1" : "R0") + " dropped packets");
  }
  return t;
}

/// Registry totals of the rung that matches the traced workload.
struct Shape {
  double fast_path_share = 0;
  double flow_cache_hit_ratio = 0;
  double flow_cache_invalidations = 0;
  double classifier_lookups = 0;
  double pushes = 0;
  double retransmissions = 0;
  double ack_ratio = 0;
};

Shape shape_of(const exp::World& w, std::uint64_t pkts) {
  const obs::MetricsRegistry& reg = w.registry;
  Shape s;
  s.fast_path_share = reg.total("proxy_label_switched_packets") / static_cast<double>(pkts);
  const double hits = reg.total("flow_cache_hits");
  const double lookups = hits + reg.total("flow_cache_misses");
  s.flow_cache_hit_ratio = lookups > 0 ? hits / lookups : 0;
  s.flow_cache_invalidations = reg.total("flow_cache_invalidations");
  s.classifier_lookups =
      reg.total("proxy_classifier_lookups") + reg.total("mbx_classifier_lookups");
  s.pushes = reg.total("ctrl_pushes_sent");
  s.retransmissions = reg.total("ctrl_retransmissions");
  s.ack_ratio = s.pushes > 0 ? reg.total("ctrl_acks_received") / s.pushes : 0;
  return s;
}

/// R2..R5: a World built from `spec`, run through World::run.
struct WorldRung {
  std::unique_ptr<exp::World> w;
  double run_s = 0;
};

WorldRung world_rung(const exp::ScenarioSpec& spec, const char* name, SpanLog& log, Result& r,
                     obs::TraceObserver* collect = nullptr) {
  WorldRung out;
  {
    SpanLog::Scope s(log, "exp.build_world");
    out.w = exp::build_world(spec);
  }
  {
    SpanLog::Scope s(log, "exp.prepare_sim");
    out.w->prepare_sim();
  }
  if (collect != nullptr) out.w->tracer->set_observer(collect);
  SpanLog::Scope s(log, name);
  out.w->run();
  out.run_s = s.stop();
  r.attempted += policy_packets(out.w->flows);
  r.failed += check_sim_world(*out.w, r);
  return out;
}

/// Replicates build_world's generator calls (same master-RNG order) so each
/// module's share of set-up gets its own span.
void setup_layers(const exp::World& ref, SpanLog& log, Result& r) {
  const exp::ScenarioSpec& spec = ref.spec;
  util::Rng rng(spec.seed);
  net::WaxmanParams wp;
  wp.seed = spec.seed;
  wp.edge_count = spec.waxman_edge_count;
  wp.core_count = spec.waxman_core_count;
  net::GeneratedNetwork network;
  {
    SpanLog::Scope s(log, "net.topology");
    network = net::make_waxman_topology(wp);
  }
  const policy::FunctionCatalog catalog = policy::FunctionCatalog::standard();
  core::Deployment deployment;
  {
    SpanLog::Scope s(log, "core.deploy");
    deployment = core::deploy_middleboxes(network, catalog, core::DeploymentParams{}, rng);
  }
  workload::PolicyGenParams pp;
  pp.many_to_one = pp.one_to_many = pp.one_to_one = spec.policies_per_class;
  workload::GeneratedPolicies gen;
  {
    SpanLog::Scope s(log, "workload.policies");
    gen = workload::generate_policies(network, pp, rng);
  }
  workload::FlowGenParams fp;
  fp.target_total_packets = spec.packets;
  workload::GeneratedFlows flows;
  {
    SpanLog::Scope s(log, "workload.flowgen");
    flows = workload::generate_flows(network, gen, fp, rng);
  }
  workload::TrafficMatrix traffic;
  {
    SpanLog::Scope s(log, "workload.measure");
    traffic = workload::TrafficMatrix::measure(gen.policies, flows.flows);
  }
  if (flows.flows.size() != ref.flows.flows.size() ||
      traffic.grand_total() != ref.traffic.grand_total()) {
    r.problem("replicated set-up differs from build_world");
  }
}

/// Trie classifiers over each proxy's policy slice, matched against every
/// flow's 5-tuple at its source proxy. Returns ns per lookup.
double classify_ns(const exp::World& w, SpanLog& log, Result& r) {
  std::vector<std::unique_ptr<policy::Classifier>> tries;
  for (const net::NodeId proxy : w.network.proxies) {
    std::vector<const policy::Policy*> view;
    for (const policy::PolicyId pid : w.plan.config(proxy).relevant_policies) {
      view.push_back(&w.gen.policies.at(pid));
    }
    tries.push_back(policy::make_trie_classifier(std::move(view)));
  }
  std::uint64_t lookups = 0, mismatches = 0;
  SpanLog::Scope s(log, "policy.classify");
  const auto t0 = Clock::now();
  do {
    for (const auto& f : w.flows.flows) {
      const policy::Policy* p =
          tries[static_cast<std::size_t>(f.src_subnet)]->first_match(f.id);
      if (f.intended.valid() && (p == nullptr || p->id != f.intended)) ++mismatches;
      ++lookups;
    }
  } while (seconds_since(t0) < kClassifySeconds);
  const double elapsed = s.stop();
  if (mismatches != 0) r.problem("classifier disagreed with the flows' intended policies");
  return 1e9 * elapsed / static_cast<double>(lookups);
}

}  // namespace

Result run_layers(const Options& opt, SpanLog& log) {
  Result r;
  const exp::ScenarioSpec base = waxman_spec(opt.seed);
  exp::ScenarioSpec faults = base;
  faults.faults = exp::FaultScript::kChaos;
  exp::ScenarioSpec traced = faults;
  traced.trace_sample = 1.0;
  traced.spans = true;
  const exp::ScenarioSpec verified = chaos_verify_spec(opt.seed);

  // ---- set-up layers and the controller (no simulation) ----
  std::unique_ptr<exp::World> w;
  {
    SpanLog::Scope s(log, "exp.build_world");
    w = exp::build_world(base);
  }
  const std::uint64_t pkts = policy_packets(w->flows);
  for (int i = 0; i < kSetupReps; ++i) {
    SpanLog::Scope s(log, "setup");
    setup_layers(*w, log, r);
  }
  const ReplanInputs in = make_replan_inputs(*w, opt.seed);
  std::vector<ReplanSample> replans;
  {
    SpanLog::Scope s(log, "replan_loop");
    for (int i = 0; i < kReplanCycles; ++i) replan_cycle(*w, in, log, replans, r);
  }
  const double classify = classify_ns(*w, log, r);

  // ---- the ladder, with the workload's own untraced unit of work ----
  // Rounds interleave every rung with the untraced unit, so slow drift in
  // machine speed hits all of them alike; each layer's cost is the median
  // over rounds of its paired rung difference.
  SpanLog off(false, 0);
  std::uint64_t bare_events = 0, trace_records = 0, spans_started = 0;
  std::vector<std::array<double, 6>> rounds;
  std::vector<double> export_ms, untraced_ms;
  double replay_ns = 0;
  Shape shape;
  verify::VerifyReport live;
  for (int round = 0; round < kLadderRounds; ++round) {
    SpanLog::Scope ladder(log, "ladder");
    std::array<double, 6> rung{};
    rung[0] = bare_rung(*w, false, log, r, &bare_events);
    rung[1] = bare_rung(*w, true, log, r);
    {
      WorldRung r2 = world_rung(base, "ladder.r2", log, r);
      rung[2] = r2.run_s;
      if (opt.workload == "datapath_waxman") shape = shape_of(*r2.w, pkts);
    }
    rung[3] = world_rung(faults, "ladder.r3", log, r).run_s;
    {
      obs::TraceCollector collector;
      WorldRung r4 = world_rung(traced, "ladder.r4", log, r, &collector);
      rung[4] = r4.run_s;
      trace_records = r4.w->trace_recorded();
      if (round == 0) {
        // Replay the collected stream into a fresh oracle; its verdict must
        // equal the live one at R5.
        const exp::World& x = *r4.w;
        verify::InvariantOracle oracle(x.network, x.deployment, x.gen.policies, x.plan,
                                       &x.catalog);
        oracle.set_complete_stream(true);
        SpanLog::Scope s(log, "verify.replay");
        for (const obs::TraceRecord& rec : collector.records()) oracle.on_record(rec);
        oracle.finish();
        replay_ns = 1e9 * s.stop() / static_cast<double>(collector.records().size());
        live = oracle.report();
      }
    }
    {
      WorldRung r5 = world_rung(verified, "ladder.r5", log, r);
      rung[5] = r5.run_s;
      const verify::VerifyReport& report = r5.w->oracle->report();
      if (!live.ok() || live.packets_tracked != report.packets_tracked ||
          live.packets_delivered_ok != report.packets_delivered_ok) {
        r.problem("oracle verdicts differ (replay vs live, or between rounds)");
      }
      live = report;
      spans_started = r5.w->spans->started();
      if (opt.workload != "datapath_waxman") shape = shape_of(*r5.w, pkts);
      SpanLog::Scope s(log, "obs.export");
      render_exports(*r5.w);
      export_ms.push_back(1e3 * s.stop());
    }
    rounds.push_back(rung);

    if (opt.workload == "replan_waxman") {
      std::vector<ReplanSample> plain;
      replan_cycle(*w, in, off, plain, r);
      std::vector<double> ms;
      for (const auto& p : plain) ms.push_back(p.ms);
      untraced_ms.push_back(median(ms));
    } else {
      auto x = exp::build_world(opt.workload == "datapath_waxman" ? base : verified);
      x->prepare_sim();
      const auto t0 = Clock::now();
      x->run();
      untraced_ms.push_back(1e3 * seconds_since(t0));
    }
  }

  // Median over rounds of rung k minus rung j (j < 0: rung k alone), in s.
  const auto rung_median = [&](int k, int j) {
    std::vector<double> v;
    for (const auto& rung : rounds) v.push_back(rung[k] - (j < 0 ? 0 : rung[j]));
    return median(v);
  };
  const double per_pkt = 1e9 / static_cast<double>(pkts);
  r.set("sim.bare_ns_per_pkt", rung_median(0, -1) * per_pkt, "ns");
  r.set("sim.hop_events_per_pkt", static_cast<double>(bare_events) / static_cast<double>(pkts),
        "count");
  r.set("core.agents_ns_per_pkt", rung_median(1, 0) * per_pkt, "ns");
  r.set("control.plane_ns_per_pkt", rung_median(2, 1) * per_pkt, "ns");
  r.set("sim.faults_ns_per_pkt", rung_median(3, 2) * per_pkt, "ns");
  r.set("obs.trace_ns_per_pkt", rung_median(4, 3) * per_pkt, "ns");
  r.set("verify.oracle_ns_per_pkt", rung_median(5, 4) * per_pkt, "ns");
  for (int k = 0; k < 6; ++k) {
    r.set("ladder.r" + std::to_string(k) + "_run_ms", 1e3 * rung_median(k, -1), "ms");
  }
  r.set("obs.trace_records", static_cast<double>(trace_records), "count");
  r.set("obs.spans_started", static_cast<double>(spans_started), "count");
  r.set("obs.export_ms", median(export_ms), "ms");
  r.set("verify.replay_ns_per_record", replay_ns, "ns");
  r.set("verify.packets_tracked", static_cast<double>(live.packets_tracked), "count");
  r.set("verify.unenforced_window_share",
        static_cast<double>(live.packets_in_unenforced_window) /
            static_cast<double>(live.packets_delivered_ok),
        "ratio");
  r.set("core.fast_path_share", shape.fast_path_share, "ratio");
  r.set("tables.flow_cache_hit_ratio", shape.flow_cache_hit_ratio, "ratio");
  r.set("tables.flow_cache_invalidations", shape.flow_cache_invalidations, "count");
  r.set("policy.classifier_lookups", shape.classifier_lookups, "count");
  r.set("control.pushes", shape.pushes, "count");
  r.set("control.retransmissions", shape.retransmissions, "count");
  r.set("control.ack_ratio", shape.ack_ratio, "ratio");

  // Tracing overhead: the traced unit (R2, R5, or the spanned replans)
  // against the same unit run untraced in the same rounds.
  double traced_ms = 0;
  if (opt.workload == "replan_waxman") {
    std::vector<double> ms;
    for (const auto& p : replans) ms.push_back(p.ms);
    traced_ms = median(ms);
  } else {
    traced_ms = 1e3 * rung_median(opt.workload == "datapath_waxman" ? 2 : 5, -1);
  }
  const double untraced = median(untraced_ms);
  r.set("bench.untraced_op_ms", untraced, "ms");
  r.set("bench.trace_overhead_share", (traced_ms - untraced) / untraced, "ratio");

  // ---- set-up and controller layers ----
  r.set("exp.build_world_ms", median(log.durations_ms("exp.build_world")), "ms");
  r.set("exp.prepare_sim_ms", median(log.durations_ms("exp.prepare_sim")), "ms");
  r.set("net.routing_compute_ms", median(log.durations_ms("net.routing_compute")), "ms");
  r.set("workload.flowgen_ms", median(log.durations_ms("workload.flowgen")), "ms");
  r.set("workload.measure_ms", median(log.durations_ms("workload.measure")), "ms");
  r.set("core.compile_cold_ms", median(log.durations_ms("core.compile_cold")), "ms");
  r.set("core.compile_warm_ms", median(log.durations_ms("core.compile_warm")), "ms");
  r.set("core.patch_ms", median(log.durations_ms("core.patch")), "ms");
  r.set("control.encode_ms", median(log.durations_ms("control.encode")), "ms");
  double pivots = 0, warm = 0;
  for (const ReplanSample& s : replans) {
    pivots += static_cast<double>(s.pivots);
    warm += s.warm_started ? 1 : 0;
  }
  const double solves = static_cast<double>(replans.size());
  r.set("lp.pivots_per_solve", pivots / solves, "count");
  r.set("lp.warm_start_ratio", warm / solves, "ratio");
  r.set("policy.classify_ns", classify, "ns");

  return r;
}

}  // namespace perfbench
