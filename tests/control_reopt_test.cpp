// Closed-loop drift-triggered re-optimisation: the DriftDetector's trigger
// semantics (total-variation drift, observe-first seeding, cooldown,
// min-report gate), the online ReoptimizePolicy on the simulator calendar,
// the unified replan() API's zero-report suppression, and determinism of the
// loop's exported evidence.
#include <gtest/gtest.h>

#include "control/endpoints.hpp"
#include "control/reoptimize.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "scenario.hpp"

namespace sdmbox::control {
namespace {

using core::StrategyKind;
using Decision = DriftDetector::Decision;
using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::make_scenario;

// ---------------------------------------------------------------------------
// DriftDetector: the pure trigger core
// ---------------------------------------------------------------------------

TEST(DriftDetector, DriftIsTotalVariationOfNormalizedShares) {
  EXPECT_DOUBLE_EQ(DriftDetector::drift({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(DriftDetector::drift({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(DriftDetector::drift({3, 1}, {1, 1}), 0.25);
  // Scale invariance: uniform growth is not drift.
  EXPECT_DOUBLE_EQ(DriftDetector::drift({2, 2}, {2000, 2000}), 0.0);
  EXPECT_DOUBLE_EQ(DriftDetector::drift({3, 1}, {300, 100}), 0.0);
  // Empty against non-empty is maximal; empty against empty agrees.
  EXPECT_DOUBLE_EQ(DriftDetector::drift({0, 0}, {1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(DriftDetector::drift({0, 0}, {0, 0}), 0.0);
}

TEST(DriftDetector, SeedsOnFirstUsableWindowWithoutTriggering) {
  DriftDetector d(/*threshold=*/0.1, /*cooldown_epochs=*/2, /*min_reports=*/1);

  // An all-zero window never seeds the reference.
  EXPECT_EQ(d.evaluate({0, 0}, 5), Decision::kBelowThreshold);
  EXPECT_FALSE(d.has_reference());

  // First usable window: reference established, no solve.
  EXPECT_EQ(d.evaluate({6, 2}, 5), Decision::kSeeded);
  EXPECT_TRUE(d.has_reference());

  // Same distribution at a different scale: below threshold, never a trigger.
  EXPECT_EQ(d.evaluate({60, 20}, 5), Decision::kBelowThreshold);
  EXPECT_DOUBLE_EQ(d.last_drift(), 0.0);

  // A real shift in shares (0.75/0.25 -> 0.25/0.75 is drift 0.5) triggers.
  EXPECT_EQ(d.evaluate({2, 6}, 5), Decision::kTrigger);
  EXPECT_DOUBLE_EQ(d.last_drift(), 0.5);
}

TEST(DriftDetector, CooldownBlocksBackToBackSolves) {
  DriftDetector d(0.1, /*cooldown_epochs=*/3, 1);
  EXPECT_EQ(d.evaluate({6, 2}, 1), Decision::kSeeded);
  // The cooldown clock runs from construction, so even the first drift
  // comparison can land inside the window.
  EXPECT_EQ(d.evaluate({2, 6}, 1), Decision::kCooldown);
  EXPECT_EQ(d.evaluate({2, 6}, 1), Decision::kTrigger);
  d.mark_solved({2, 6});

  // Drift stays huge, but the next two evaluations sit inside the window.
  EXPECT_EQ(d.evaluate({6, 2}, 1), Decision::kCooldown);
  EXPECT_EQ(d.evaluate({6, 2}, 1), Decision::kCooldown);
  EXPECT_EQ(d.evaluate({6, 2}, 1), Decision::kTrigger);
}

TEST(DriftDetector, MinReportsGatesBeforeAnythingElse) {
  DriftDetector d(0.1, 1, /*min_reports=*/2);
  EXPECT_EQ(d.evaluate({6, 2}, 1), Decision::kTooFewReports);
  EXPECT_FALSE(d.has_reference());  // the gate fires before seeding
  EXPECT_EQ(d.evaluate({6, 2}, 2), Decision::kSeeded);
}

TEST(DriftDetector, GroupedDriftCatchesShiftsTheGlobalVectorHides) {
  ReoptimizeOptions opt;
  opt.drift_threshold = 0.2;
  opt.cooldown_epochs = 1;
  DriftDetector d(opt);
  // Boxes 0 and 1 implement one function; box 2 is a bystander.
  d.set_groups({{0, 1}});
  EXPECT_EQ(d.evaluate({4, 4, 8}, 1), Decision::kSeeded);
  // Globally {0.375, 0.125, 0.5} vs {0.25, 0.25, 0.5} is drift 0.125 —
  // under threshold. WITHIN the group the split went 0.5/0.5 -> 0.75/0.25:
  // drift 0.25, which is what invalidates that function's ratios.
  EXPECT_EQ(d.evaluate({6, 2, 8}, 1), Decision::kTrigger);
  EXPECT_DOUBLE_EQ(d.last_drift(), 0.25);
}

// ---------------------------------------------------------------------------
// The online loop on the simulator calendar
// ---------------------------------------------------------------------------

struct ReoptLoop {
  ReoptLoop(Scenario& s, const core::EnforcementPlan& initial, ReoptimizeOptions rp)
      : controller_node(control::add_controller_host(s.network)),
        routing(net::RoutingTables::compute(s.network.topo)),
        resolver(net::AddressResolver::build(s.network.topo)),
        simnet(s.network.topo, routing, resolver),
        cp(control::install_control_plane(simnet, s.network, s.deployment, s.gen.policies,
                                          *s.controller, controller_node, initial,
                                          core::AgentOptions{})),
        recorder(registry, rp.epoch_period),
        reopt(*cp.controller, cp, recorder, rp) {
    control::register_metrics(registry, cp);
    reopt.register_metrics(registry);
    recorder.start(
        [&](double d, std::function<void()> fn) {
          simnet.simulator().schedule_in(d, std::move(fn));
        },
        [&] { return simnet.simulator().now(); });
    cp.controller->replan(simnet, ReplanRequest{.trigger = ReplanTrigger::kInitial,
                                                .plan = &initial});
    reopt.start(simnet);
  }

  void stop_at(double t) {
    simnet.simulator().schedule_at(t, [this] {
      reopt.stop();
      recorder.stop();
    });
  }

  net::NodeId controller_node;
  net::RoutingTables routing;
  net::AddressResolver resolver;
  sim::SimNetwork simnet;
  control::ControlPlane cp;
  obs::MetricsRegistry registry;
  obs::EpochRecorder recorder;
  ReoptimizePolicy reopt;
};

// Spread each flow's packets (capped) evenly over [from, to] so per-epoch
// load windows see the same flow mix throughout the interval.
void inject_steady(ReoptLoop& loop, const Scenario& s, const workload::GeneratedFlows& flows,
                   double from, double to) {
  for (const auto& f : flows.flows) {
    const std::uint64_t n = std::min<std::uint64_t>(f.packets, 8);
    for (std::uint64_t j = 0; j < n; ++j) {
      packet::Packet p;
      p.inner.src = f.id.src;
      p.inner.dst = f.id.dst;
      p.src_port = f.id.src_port;
      p.dst_port = f.id.dst_port;
      p.payload_bytes = 200;
      p.flow_seq = j;
      loop.simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)], p,
                         from + (to - from) * (static_cast<double>(j) + 0.5) /
                                    static_cast<double>(n));
    }
  }
}

workload::GeneratedFlows shifted_flows(Scenario& s, double weight0, std::uint64_t seed) {
  util::Rng rng(seed);
  workload::FlowGenParams fp;
  fp.target_total_packets = 30000;
  fp.class_weights[0] = weight0;
  return workload::generate_flows(s.network, s.gen, fp, rng);
}

TEST(ReoptimizeLoop, SteadyTrafficNeverTriggers) {
  ScenarioParams sp;
  sp.seed = 91;
  sp.target_packets = 30000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);

  ReoptimizeOptions rp;
  rp.epoch_period = 0.5;
  // Grouped per-function drift renormalizes within small implementer sets,
  // so the early-window reference transient reads a few tenths higher than
  // the global vector would; steady traffic needs the wider margin.
  rp.drift_threshold = 0.4;
  rp.cooldown_epochs = 2;
  ReoptLoop loop(s, initial, rp);

  inject_steady(loop, s, s.flows, 0.3, 7.8);
  loop.stop_at(8.0);
  loop.simnet.run();

  const auto& rc = loop.reopt.counters();
  EXPECT_GE(rc.epochs, 10u);
  EXPECT_EQ(rc.triggered, 0u);
  EXPECT_EQ(rc.solves, 0u);
  EXPECT_EQ(rc.pushes, 0u);
  for (const auto& e : loop.reopt.log()) {
    EXPECT_NE(e.decision, Decision::kTrigger) << "epoch " << e.epoch;
    EXPECT_LE(e.drift, rp.drift_threshold) << "epoch " << e.epoch;
  }
  // Only the initial rollout ever replanned.
  EXPECT_EQ(loop.cp.controller->replans(), 1u);
  EXPECT_EQ(loop.cp.controller->current_version(), 1u);
}

TEST(ReoptimizeLoop, TrafficShiftTriggersAndCooldownSpacesSolves) {
  ScenarioParams sp;
  sp.seed = 92;
  sp.target_packets = 30000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);

  ReoptimizeOptions rp;
  rp.epoch_period = 0.5;
  rp.drift_threshold = 0.05;
  rp.cooldown_epochs = 3;
  ReoptLoop loop(s, initial, rp);

  // Phase 1: the scenario's own mix. Phase 2: class 0 dominates — the
  // per-middlebox share vector moves, which is exactly what should trigger.
  inject_steady(loop, s, s.flows, 0.3, 5.0);
  const auto shifted = shifted_flows(s, /*weight0=*/12.0, /*seed=*/17);
  inject_steady(loop, s, shifted, 5.2, 10.0);
  loop.stop_at(10.5);
  loop.simnet.run();

  const auto& rc = loop.reopt.counters();
  EXPECT_GE(rc.triggered, 1u);
  EXPECT_EQ(rc.triggered, rc.solves);
  EXPECT_GT(rc.pushes, 0u);
  EXPECT_GT(rc.push_bytes, 0u);

  // Hysteresis: consecutive solve epochs are at least cooldown apart.
  std::uint64_t last_trigger_epoch = 0;
  bool seen = false;
  for (const auto& e : loop.reopt.log()) {
    if (e.decision != Decision::kTrigger) continue;
    if (seen) {
      EXPECT_GE(e.epoch - last_trigger_epoch,
                static_cast<std::uint64_t>(rp.cooldown_epochs))
          << "solves " << last_trigger_epoch << " and " << e.epoch << " too close";
    }
    last_trigger_epoch = e.epoch;
    seen = true;
  }
  EXPECT_TRUE(seen);
  // The loop's replans ride the same unified entry point as everything else.
  EXPECT_EQ(loop.cp.controller->replans(), 1u + rc.triggered);
}

// ---------------------------------------------------------------------------
// replan() suppression on an empty report pool
// ---------------------------------------------------------------------------

TEST(Replan, ZeroReportMeasurementReplanIsANoOp) {
  ScenarioParams sp;
  sp.seed = 93;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  ReoptimizeOptions rp;
  ReoptLoop loop(s, initial, rp);
  loop.stop_at(0.4);
  loop.simnet.run();
  const std::uint64_t version_before = loop.cp.controller->current_version();

  ASSERT_EQ(loop.cp.controller->pending_reports(), 0u);
  const ReplanOutcome out = loop.cp.controller->replan(loop.simnet, ReplanRequest{});
  EXPECT_TRUE(out.suppressed);
  EXPECT_FALSE(out.solved);
  EXPECT_EQ(out.pushes_sent, 0u);
  EXPECT_EQ(out.reports_used, 0u);
  EXPECT_EQ(loop.cp.controller->replans_suppressed(), 1u);
  EXPECT_EQ(loop.cp.controller->current_version(), version_before);

  // A failure-triggered replan must never leave the fleet planless: with the
  // same empty pool it recovers with hot-potato instead of suppressing.
  const ReplanOutcome failure = loop.cp.controller->replan(
      loop.simnet, ReplanRequest{.trigger = ReplanTrigger::kFailure});
  EXPECT_FALSE(failure.suppressed);
  EXPECT_EQ(loop.cp.controller->last_plan().strategy, StrategyKind::kHotPotato);
}

TEST(Replan, ExplicitPlanAndFullRecoveryRideTheUnifiedEntryPoint) {
  ScenarioParams sp;
  sp.seed = 94;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);

  ReoptimizeOptions rp;
  ReoptLoop loop(s, initial, rp);
  loop.reopt.stop();
  loop.recorder.stop();
  loop.simnet.run();

  // Pushing an explicitly compiled plan is just a replan with the plan
  // attached — every device slice changes (new strategy), so every device
  // gets a push.
  const auto plan = s.controller->compile(StrategyKind::kRandom);
  const ReplanOutcome pushed = loop.cp.controller->replan(
      loop.simnet,
      ReplanRequest{.trigger = ReplanTrigger::kInitial, .plan = &plan});
  loop.simnet.run();
  EXPECT_EQ(pushed.pushes_sent, s.network.proxies.size() + s.deployment.size());
  EXPECT_FALSE(pushed.solved);

  // Unscoped failure recovery: recompute assignments, compile hot-potato.
  const ReplanOutcome recovered = loop.cp.controller->replan(
      loop.simnet, ReplanRequest{.trigger = ReplanTrigger::kFailure});
  loop.simnet.run();
  EXPECT_EQ(loop.cp.controller->last_plan().strategy, StrategyKind::kHotPotato);
  EXPECT_FALSE(recovered.patched);
  // A plan rides a kInitial replan and no other; both misuses are refused
  // before the replan counts.
  EXPECT_THROW(loop.cp.controller->replan(
                   loop.simnet, ReplanRequest{.trigger = ReplanTrigger::kInitial}),
               ContractViolation);
  EXPECT_THROW(loop.cp.controller->replan(
                   loop.simnet, ReplanRequest{.trigger = ReplanTrigger::kDrift, .plan = &plan}),
               ContractViolation);
  // Initial rollout + both explicit replans went through the one entry point.
  EXPECT_EQ(loop.cp.controller->replans(), 3u);
}

// ---------------------------------------------------------------------------
// Determinism: same seed, same closed loop, byte-identical evidence
// ---------------------------------------------------------------------------

std::string run_closed_loop_export(std::uint64_t seed) {
  ScenarioParams sp;
  sp.seed = seed;
  sp.target_packets = 20000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);

  ReoptimizeOptions rp;
  rp.epoch_period = 0.5;
  rp.drift_threshold = 0.05;
  rp.cooldown_epochs = 2;
  ReoptLoop loop(s, initial, rp);

  inject_steady(loop, s, s.flows, 0.3, 4.0);
  const auto shifted = shifted_flows(s, 10.0, seed + 1);
  inject_steady(loop, s, shifted, 4.2, 8.0);
  loop.stop_at(8.5);
  loop.simnet.run();
  return obs::to_json(loop.registry, &loop.recorder);
}

TEST(ReoptimizeLoop, SameSeedRunsExportByteIdenticalMetrics) {
  const std::string a = run_closed_loop_export(95);
  const std::string b = run_closed_loop_export(95);
  EXPECT_EQ(a, b);
  // The export carries the loop's evidence, including the modeled (not
  // wall-clock) solve cost series.
  EXPECT_NE(a.find("reopt_epochs"), std::string::npos);
  EXPECT_NE(a.find("reopt_solve_ms"), std::string::npos);
}

}  // namespace
}  // namespace sdmbox::control
