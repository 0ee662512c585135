// End-to-end dependability loop under a scripted fault schedule — and with
// NO failure-oracle calls: nobody tells the controller `set_failed`. The
// heartbeat monitor has to notice the crash over the (lossy) control
// channel, the reliable push channel has to land the recovery plan on every
// surviving device, the proxies' local peer health has to bridge the
// detection gap, and the whole run has to be bit-reproducible.
//
// The enforcement-invariant oracle rides along LIVE for the entire fault
// timeline (trace rate 1.0): crash windows, link flaps, lossy control
// channel, recovery — through all of it, no packet may be delivered with its
// chain skipped, reordered, or riding stale label state. Drops at dead nodes
// are legal; silent enforcement gaps are not.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "control/endpoints.hpp"
#include "control/health.hpp"
#include "core/validate.hpp"
#include "exp/world.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "scenario.hpp"
#include "sim/faults.hpp"
#include "verify/chaosgen.hpp"
#include "verify/oracle.hpp"

namespace sdmbox {
namespace {

using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::make_scenario;

// The hot-potato target of proxy 0's first chained policy: a middlebox that
// is guaranteed to carry traffic, so crashing it actually matters.
net::NodeId pick_victim(const Scenario& s, const core::EnforcementPlan& plan) {
  const core::NodeConfig& cfg = plan.config(s.network.proxies[0]);
  for (const policy::PolicyId pid : cfg.relevant_policies) {
    const policy::Policy& pol = s.gen.policies.at(pid);
    if (pol.deny || pol.actions.empty()) continue;
    const net::NodeId m = cfg.closest(pol.actions.front());
    if (m.valid()) return m;
  }
  return {};
}

struct ChaosOutcome {
  sim::SimTime crash_at = -1;
  sim::SimTime declared_at = -1;  // first heartbeat declaration of the victim
  sim::SimTime revived_at = -1;   // heartbeat revival of the victim
  std::uint64_t drops_total = 0;        // dropped_node_down over the whole run
  std::uint64_t drops_before_wave3 = 0; // same counter sampled at t=11.9
  std::uint64_t outstanding = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t acks = 0;
  std::uint64_t failures = 0;
  std::uint64_t revivals = 0;
  std::uint64_t repushes = 0;
  std::uint64_t refused = 0;
  // Sourced from the telemetry registry, not the component counter structs —
  // asserting on these proves the exported metrics carry the dependability
  // story end to end.
  double blacklists = 0;
  double reroutes = 0;
  double metric_failures = 0;
  double mean_detection_latency = -1;
  std::size_t failed_boxes_at_end = 0;
  std::string violations;   // validate_plan output on the final plan, joined
  std::string fingerprint;  // every counter in the system, for determinism
  std::string metrics_json;  // full registry export, for byte-identity
  // Live enforcement-invariant oracle, attached for the full fault timeline.
  std::string verify_summary;
  std::size_t verify_violations = 0;
  bool verify_coverage = false;
  std::uint64_t verify_tracked = 0;
  std::uint64_t verify_delivered_ok = 0;
  std::uint64_t verify_dropped = 0;
  std::uint64_t verify_window_packets = 0;
  // Control-plane span tree (empty / "" when the tracer was not attached).
  std::vector<obs::Span> spans;
  std::string spans_json;
  double conv_detection_sum = -1;      // conv_detection_latency histogram sum
  double detection_latency_total = 0;  // the monitor's own counter
};

// One full chaos run. Timeline (seconds):
//   0.00  initial plan pushed over the wire; heartbeat rounds begin
//   1.00  wave 1 — fault-free traffic establishes flow caches + label paths
//   2.05  victim middlebox crashes (crash-stop)
//   2.20  wave 2 — rides into the crash window; local failover must react
//   2.50  control-channel loss 15% on the controller's access link
//   2.90  (expected) heartbeat declaration + recovery plan rollout,
//         retransmitted through the lossy channel
//   4.00  core<->gateway link fails; routing reconverges
//   4.30  wave 3 — over reconverged routes, victim still blacklisted
//   4.60  link repaired; routing reconverges back
//   6.00  control-channel loss cleared
//   8.00  victim restarts; heartbeat revival folds it back in (full resync)
//  12.00  wave 4 — post-recovery traffic, must see zero node-down drops
//  14.00  monitor stopped; calendar drains
ChaosOutcome run_chaos(bool with_spans = true) {
  ScenarioParams sp;
  sp.seed = 85;
  sp.target_packets = 4000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(core::StrategyKind::kHotPotato);
  const net::NodeId victim = pick_victim(s, initial);
  SDM_CHECK_MSG(victim.valid(), "scenario has no chained policy at proxy 0");

  const net::NodeId controller_node = control::add_controller_host(s.network);
  net::RoutingTables routing = net::RoutingTables::compute(s.network.topo);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);

  // Trace EVERY flow and verify enforcement invariants live, throughout the
  // whole fault schedule — the point of the chaos run is that dependability
  // holds DURING the failures, not just after recovery.
  obs::PathTracer tracer(1.0);
  simnet.set_tracer(&tracer);
  verify::InvariantOracle oracle(s.network, s.deployment, s.gen.policies, initial, &s.catalog);
  oracle.set_complete_stream(true);
  tracer.set_observer(&oracle);

  // The span tracer rides along on the whole control plane (attachment must
  // precede register_metrics so the conv_* series are exposed).
  obs::SpanTracer spans;
  if (with_spans) oracle.set_span_tracer(&spans);

  core::AgentOptions opts;
  opts.enable_label_switching = true;
  opts.peer_health.enabled = true;
  opts.peer_health.probe_timeout = 0.05;
  opts.peer_health.miss_threshold = 2;
  opts.peer_health.blacklist_hold = 5.0;
  opts.peer_health.min_probe_gap = 0.05;
  auto cp = control::install_control_plane(simnet, s.network, s.deployment, s.gen.policies,
                                           *s.controller, controller_node, initial, opts);
  if (with_spans) cp.controller->set_spans(&spans, &simnet.simulator());

  sim::FaultInjector injector(simnet, &routing);
  if (with_spans) injector.set_spans(&spans);
  const net::LinkId flap =
      s.network.topo.find_link(s.network.core_routers[0], s.network.gateways[0]);
  const net::NodeId attach =
      s.network.gateways.empty() ? s.network.core_routers.front() : s.network.gateways.front();
  const net::LinkId ctrl_link = s.network.topo.find_link(attach, controller_node);
  SDM_CHECK(flap.valid() && ctrl_link.valid());
  sim::FaultSchedule schedule;
  schedule.crash_node(2.05, victim)
      .link_loss(2.5, ctrl_link, 0.15)
      .link_down(4.0, flap)
      .link_up(4.6, flap)
      .link_loss(6.0, ctrl_link, 0.0)
      .restart_node(8.0, victim);
  injector.arm(schedule);

  control::HealthParams hp;
  hp.probe_period = 0.1;
  hp.miss_threshold = 8;
  control::HealthMonitor monitor(*cp.controller, s.deployment, s.network, hp);
  if (with_spans) monitor.set_spans(&spans);

  // Everything observable goes through one registry, exactly as the CLI's
  // sim mode wires it; the assertions below read the exported values.
  obs::MetricsRegistry registry;
  simnet.register_metrics(registry);
  injector.register_metrics(registry);
  control::register_metrics(registry, cp);
  monitor.register_metrics(registry);

  // Push the initial plan over the wire (seeds the differential fingerprints
  // and proves the acked rollout on a healthy network), then start probing.
  cp.controller->replan(simnet, control::ReplanRequest{
                                    .trigger = control::ReplanTrigger::kInitial,
                                    .plan = &initial});
  monitor.start(simnet);

  exp::inject_wave(simnet, s.network, s.flows, 1.0, 0);
  exp::inject_wave(simnet, s.network, s.flows, 2.2, 1);
  exp::inject_wave(simnet, s.network, s.flows, 4.3, 2);
  exp::inject_wave(simnet, s.network, s.flows, 12.0, 3);

  std::uint64_t drops_at_11_9 = 0;
  simnet.simulator().schedule_at(
      11.9, [&] { drops_at_11_9 = simnet.counters().dropped_node_down; });
  simnet.simulator().schedule_at(14.0, [&] { monitor.stop(); });
  simnet.run();

  ChaosOutcome out;
  const verify::VerifyReport& vr = oracle.finish();
  out.verify_summary = vr.summary();
  out.verify_violations = vr.violations.size();
  out.verify_coverage = vr.coverage_complete;
  out.verify_tracked = vr.packets_tracked;
  out.verify_delivered_ok = vr.packets_delivered_ok;
  out.verify_dropped = vr.packets_dropped;
  out.verify_window_packets = vr.packets_in_unenforced_window;
  if (with_spans) {
    out.spans = spans.spans();
    out.spans_json = obs::spans_to_json(spans);
    for (const auto& sample : registry.collect()) {
      if (sample.name == "conv_detection_latency") out.conv_detection_sum = sample.histogram.sum;
    }
  }
  out.detection_latency_total = monitor.counters().detection_latency_total;
  out.crash_at = injector.crash_time(victim).value_or(-1);
  for (const auto& e : monitor.log()) {
    if (e.node != victim) continue;
    if (e.failed && out.declared_at < 0) out.declared_at = e.at;
    if (!e.failed) out.revived_at = e.at;
  }
  const auto& nc = simnet.counters();
  out.drops_total = nc.dropped_node_down;
  out.drops_before_wave3 = drops_at_11_9;
  out.outstanding = cp.controller->outstanding_pushes();
  out.abandoned = cp.controller->pushes_abandoned();
  out.acks = cp.controller->acks_received();
  const auto& hc = monitor.counters();
  out.failures = hc.failures_declared;
  out.revivals = hc.revivals_declared;
  out.repushes = hc.repushes;
  out.refused = hc.recompute_refused;
  out.blacklists = registry.total("peer_blacklists");
  out.reroutes =
      registry.total("proxy_failover_reroutes") + registry.total("mbx_failover_reroutes");
  out.metric_failures = registry.total("health_failures_declared");
  out.mean_detection_latency =
      registry.value("health_mean_detection_latency_s", obs::Labels{{"subsystem", "health"}})
          .value_or(-1);
  out.metrics_json = obs::to_json(registry);
  out.failed_boxes_at_end = s.deployment.failed_count();
  std::ostringstream vio;
  for (const auto& v : core::validate_plan(cp.controller->last_plan(), s.network, s.deployment,
                                           s.gen.policies)) {
    vio << v << '\n';
  }
  out.violations = vio.str();

  std::ostringstream fp;
  fp << nc.injected << ' ' << nc.delivered << ' ' << nc.dropped_ttl << ' '
     << nc.dropped_no_route << ' ' << nc.dropped_node_down << ' ' << nc.dropped_queue << ' '
     << nc.dropped_link_down << ' ' << nc.dropped_link_loss << ' ' << nc.total_latency << '\n';
  fp << cp.controller->acks_received() << ' ' << cp.controller->pushes_sent() << ' '
     << cp.controller->pushes_skipped_unchanged() << ' ' << cp.controller->push_bytes_sent()
     << ' ' << cp.controller->retransmissions() << ' ' << cp.controller->pushes_abandoned()
     << ' ' << cp.controller->stale_acks() << ' ' << cp.controller->outstanding_pushes()
     << '\n';
  fp << hc.probes_sent << ' ' << hc.replies_received << ' ' << hc.failures_declared << ' '
     << hc.revivals_declared << ' ' << hc.false_positives << ' ' << hc.repushes << ' '
     << hc.recompute_refused << ' ' << hc.detection_latency_total << '\n';
  const auto& ic = injector.counters();
  fp << ic.node_crashes << ' ' << ic.node_restarts << ' ' << ic.link_downs << ' '
     << ic.link_ups << ' ' << ic.loss_changes << ' ' << ic.reconvergences << '\n';
  for (std::size_t i = 0; i < cp.proxies.size(); ++i) {
    const auto& c = cp.proxies[i]->counters();
    const core::ProxyAgent& proxy = *cp.agents.proxies[i];
    const auto& ph = proxy.peer_health().counters();
    const auto& pc = proxy.counters();
    fp << c.configs_applied << ',' << c.configs_rejected << ',' << c.configs_duplicate << ','
       << ph.probes_sent << ',' << ph.blacklists << ',' << pc.outbound_packets << ','
       << proxy.device_counters().failover_reroutes << ',' << pc.teardowns_received << ' ';
  }
  fp << '\n';
  for (std::size_t i = 0; i < cp.middleboxes.size(); ++i) {
    const auto& c = cp.middleboxes[i]->counters();
    const core::MiddleboxAgent& mbx = *cp.agents.middleboxes[i];
    const auto& mc = mbx.counters();
    fp << c.configs_applied << ',' << c.configs_rejected << ',' << c.configs_duplicate << ','
       << mc.processed_packets << ',' << mbx.device_counters().failover_reroutes << ','
       << mc.teardowns_sent << ' ';
  }
  fp << '\n';
  out.fingerprint = fp.str();
  return out;
}

TEST(Chaos, DependabilityLoopSurvivesScriptedFailures) {
  const ChaosOutcome out = run_chaos();

  // The crash happened and was detected by heartbeats alone, within the
  // configured window: miss_threshold (8) rounds of probe_period (0.1 s)
  // after the crash, plus one round of slack.
  ASSERT_GE(out.crash_at, 0.0);
  ASSERT_GE(out.declared_at, 0.0) << "heartbeat monitor never declared the crashed middlebox";
  EXPECT_GE(out.declared_at, out.crash_at);
  EXPECT_LE(out.declared_at, out.crash_at + 0.9 + 0.1);

  // The exported telemetry tells the same story: the registry's detection
  // latency sits inside the configured window and its failure count matches
  // the monitor's own bookkeeping.
  EXPECT_EQ(out.metric_failures, static_cast<double>(out.failures));
  EXPECT_GT(out.mean_detection_latency, 0.0);
  EXPECT_LE(out.mean_detection_latency, 0.9 + 0.1);

  // The victim's restart was detected too, and the deployment ends clean.
  EXPECT_GE(out.revived_at, 8.0);
  EXPECT_EQ(out.failures, out.revivals);
  EXPECT_EQ(out.failed_boxes_at_end, 0u);

  // Recovery plans went out on every declaration/revival and every push was
  // acked by a surviving device despite 15% control-channel loss: nothing
  // outstanding, nothing abandoned.
  EXPECT_GE(out.repushes, 2u);
  EXPECT_EQ(out.refused, 0u);
  EXPECT_GT(out.acks, 0u);
  EXPECT_EQ(out.outstanding, 0u);
  EXPECT_EQ(out.abandoned, 0u);

  // The crash window really dropped packets at the dead box, the proxies'
  // local peer health blacklisted it and steered traffic past it, and the
  // post-recovery wave (injected at t=12) saw no node-down drops at all.
  EXPECT_GT(out.drops_total, 0u);
  EXPECT_GE(out.blacklists, 1.0);
  EXPECT_GE(out.reroutes, 1.0);
  EXPECT_EQ(out.drops_total, out.drops_before_wave3);

  // The final pushed plan is sound against the recovered deployment.
  EXPECT_EQ(out.violations, "");
}

TEST(Chaos, EnforcementInvariantsHoldThroughFaultTimeline) {
  const ChaosOutcome out = run_chaos();
  // The oracle watched every packet of every wave, live, across the crash,
  // both link events, and the lossy control channel: no packet was delivered
  // with its chain skipped, reordered, or on stale label state — while the
  // crash window's real losses are accounted as drops, not excused.
  EXPECT_EQ(out.verify_violations, 0u) << out.verify_summary;
  EXPECT_TRUE(out.verify_coverage);
  EXPECT_GT(out.verify_tracked, 0u);
  EXPECT_GT(out.verify_delivered_ok, 0u);
  EXPECT_GT(out.verify_dropped, 0u) << "the crash window should cost some in-flight packets";
}

TEST(Chaos, SameScheduleSameSeedIsBitIdentical) {
  const ChaosOutcome a = run_chaos();
  const ChaosOutcome b = run_chaos();
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.declared_at, b.declared_at);
  EXPECT_EQ(a.revived_at, b.revived_at);
  // The full telemetry export is byte-identical too — the property the
  // scenario CLI's --metrics-out dumps inherit.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  // The oracle is a pure function of the record stream, so its whole report
  // (counts AND narratives) reproduces bit-for-bit.
  EXPECT_EQ(a.verify_summary, b.verify_summary);
}

// Drop every line that mentions a conv_* series from a multi-line metrics
// JSON dump. The conv_* histograms are the ONLY additive difference a span
// tracer makes to the registry, so the filtered dumps must match exactly.
std::string strip_conv_lines(const std::string& json) {
  std::istringstream in(json);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("conv_") == std::string::npos) out << line << '\n';
  }
  return out.str();
}

// The tentpole acceptance: one causal, sim-clocked span tree per
// dependability episode — fault injection roots it, heartbeat detection,
// replan, LP solve, per-device pushes and acks hang under it, and the
// latencies embedded in the tree agree with the registry's counters.
TEST(ChaosSpans, EveryFaultEpisodeProducesACompleteSpanTree) {
  const ChaosOutcome out = run_chaos();
  ASSERT_FALSE(out.spans.empty());

  const auto children_of = [&](obs::SpanId parent, const std::string& name) {
    std::vector<const obs::Span*> found;
    for (const auto& s : out.spans) {
      if (s.parent == parent && s.name.compare(0, name.size(), name) == 0) found.push_back(&s);
    }
    return found;
  };

  // The scripted crash at t=2.05 roots an unenforced episode on the victim,
  // closed by the time the run ends (outstanding == 0 proves rollouts
  // completed, so no episode may be left open).
  const obs::Span* crash = nullptr;
  const obs::Span* restart = nullptr;
  for (const auto& s : out.spans) {
    if (s.name == "episode:crash") crash = &s;
    if (s.name == "episode:restart") restart = &s;
    if (s.name.compare(0, 7, "episode") == 0 || s.name.compare(0, 6, "replan") == 0 ||
        s.name == "push" || s.name == "detect") {
      EXPECT_FALSE(s.open()) << s.name << " span " << s.id << " never closed";
    }
  }
  ASSERT_NE(crash, nullptr);
  ASSERT_NE(restart, nullptr);
  EXPECT_EQ(crash->start, 2.05);
  EXPECT_FALSE(crash->device.empty());
  EXPECT_EQ(crash->attr_or("unenforced"), 1.0);
  EXPECT_GT(crash->attr_or("unenforced_window"), 0.0);
  EXPECT_EQ(restart->start, 8.0);
  EXPECT_EQ(restart->attr_or("unenforced"), 0.0);

  // fault -> detection: the detect child spans [last heartbeat reply, the
  // declaration], so its duration IS the detection latency the health
  // registry reports — and the conv_ histogram sums every one of them.
  const auto detects = children_of(crash->id, "detect");
  ASSERT_EQ(detects.size(), 1u);
  EXPECT_GT(detects[0]->duration(), 0.0);
  EXPECT_LE(detects[0]->duration(), 0.9 + 0.1);
  EXPECT_DOUBLE_EQ(out.conv_detection_sum, out.detection_latency_total);

  // detection -> replan -> solve -> per-device push -> ack, for BOTH
  // episodes (the crash recovery and the restart resync).
  for (const obs::Span* episode : {crash, restart}) {
    const auto replans = children_of(episode->id, "replan:");
    ASSERT_GE(replans.size(), 1u) << episode->name << " has no replan child";
    for (const obs::Span* replan : replans) {
      if (replan->attr_or("suppressed") != 0) continue;
      EXPECT_EQ(children_of(replan->id, "solve").size(), 1u);
      EXPECT_EQ(children_of(replan->id, "plan_diff").size(), 1u);
      const auto pushes = children_of(replan->id, "push");
      ASSERT_GE(pushes.size(), 1u);
      std::size_t acked = 0;
      for (const obs::Span* push : pushes) {
        EXPECT_FALSE(push->device.empty());
        const bool resolved_terminally = push->attr_or("superseded") != 0 ||
                                         push->attr_or("abandoned") != 0 ||
                                         push->attr_or("voided") != 0;
        const auto acks = children_of(push->id, "ack");
        EXPECT_TRUE(resolved_terminally || acks.size() == 1)
            << "push span " << push->id << " to " << push->device
            << " neither acked nor terminally resolved";
        acked += acks.size();
      }
      EXPECT_GE(acked, 1u) << "no push under " << replan->name << " was ever acked";
    }
  }

  // Oracle cross-link: every delivery the PR-6 oracle tolerated inside a
  // transient window is attributed onto exactly one concrete span.
  double attributed = 0;
  for (const auto& s : out.spans) attributed += s.attr_or("packets_in_window");
  EXPECT_EQ(attributed, static_cast<double>(out.verify_window_packets));
  EXPECT_GT(out.verify_window_packets, 0u);
}

// The obs determinism contract, both halves: attaching the tracer perturbs
// nothing (identical fingerprints; metrics identical modulo the additive
// conv_* series), and the span export itself reproduces byte-for-byte.
TEST(ChaosSpans, AttachmentIsPureObservationAndExportIsByteIdentical) {
  const ChaosOutcome on = run_chaos(true);
  const ChaosOutcome on2 = run_chaos(true);
  const ChaosOutcome off = run_chaos(false);

  EXPECT_EQ(on.fingerprint, off.fingerprint);
  EXPECT_EQ(on.declared_at, off.declared_at);
  EXPECT_EQ(on.revived_at, off.revived_at);
  EXPECT_EQ(on.verify_violations, off.verify_violations);
  EXPECT_EQ(on.verify_tracked, off.verify_tracked);
  EXPECT_EQ(on.verify_delivered_ok, off.verify_delivered_ok);
  EXPECT_EQ(strip_conv_lines(on.metrics_json), strip_conv_lines(off.metrics_json));
  EXPECT_NE(on.metrics_json, off.metrics_json) << "conv_* series should only exist with spans";

  EXPECT_FALSE(on.spans_json.empty());
  EXPECT_EQ(on.spans_json, on2.spans_json);
  EXPECT_TRUE(off.spans_json.empty());
  EXPECT_EQ(off.conv_detection_sum, -1) << "conv_* must not register without a tracer";
}

// The same dependability loop under GENERATED chaos: seeded random schedules
// instead of the hand-scripted timeline, oracle still attached throughout.
TEST(Chaos, GeneratedSchedulesKeepInvariants) {
  for (const std::uint64_t chaos_seed : {101ULL, 202ULL}) {
    ScenarioParams sp;
    sp.seed = 85;
    sp.target_packets = 4000;
    Scenario s = make_scenario(sp);
    const auto initial = s.controller->compile(core::StrategyKind::kHotPotato);

    const net::NodeId controller_node = control::add_controller_host(s.network);
    net::RoutingTables routing = net::RoutingTables::compute(s.network.topo);
    const auto resolver = net::AddressResolver::build(s.network.topo);
    sim::SimNetwork simnet(s.network.topo, routing, resolver);

    obs::PathTracer tracer(1.0);
    simnet.set_tracer(&tracer);
    verify::InvariantOracle oracle(s.network, s.deployment, s.gen.policies, initial,
                                   &s.catalog);
    tracer.set_observer(&oracle);

    core::AgentOptions opts;
    opts.enable_label_switching = true;
    opts.peer_health.enabled = true;
    auto cp = control::install_control_plane(simnet, s.network, s.deployment, s.gen.policies,
                                             *s.controller, controller_node, initial, opts);

    sim::FaultInjector injector(simnet, &routing);
    injector.arm(verify::generate_chaos(s.network, s.deployment, chaos_seed));

    cp.controller->replan(simnet, control::ReplanRequest{
                                      .trigger = control::ReplanTrigger::kInitial,
                                      .plan = &initial});
    exp::inject_wave(simnet, s.network, s.flows, 1.0, 0);
    exp::inject_wave(simnet, s.network, s.flows, 2.2, 1);
    exp::inject_wave(simnet, s.network, s.flows, 4.3, 2);
    exp::inject_wave(simnet, s.network, s.flows, 12.0, 3);
    simnet.run();

    const verify::VerifyReport& vr = oracle.finish();
    EXPECT_TRUE(vr.ok()) << "chaos seed " << chaos_seed << ": " << vr.summary();
    EXPECT_GT(vr.packets_tracked, 0u);
  }
}

}  // namespace
}  // namespace sdmbox
