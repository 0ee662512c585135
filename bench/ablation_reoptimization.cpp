// Ablation A5: periodic re-optimization (§III.C — proxies report traffic
// periodically; the controller re-solves Eq. (2)). A drifting workload is
// replayed over measurement epochs; we compare the realized max middlebox
// load when the split ratios are (a) recomputed from the previous epoch's
// reports, (b) frozen at epoch 0, (c) solved on each epoch's own traffic
// (oracle), and (d) re-solved only when the drift-triggered closed loop
// (control::DriftDetector — the exact trigger core the online
// ReoptimizePolicy runs) decides the observed load distribution drifted
// away from what the current plan was solved for. The point of (d): load
// within a few percent of every-epoch re-solving at a fraction of the LP
// solves and config pushes. The drift arm also warm-starts every re-solve
// from the previous basis while the every-epoch arm solves cold, so the
// comparison doubles as the warm-vs-cold pivot ablation: fewer solves AND
// fewer pivots per solve.
#include "analytic/epoch_driver.hpp"
#include "common.hpp"
#include "control/reoptimize.hpp"
#include "exp/runner.hpp"

using namespace sdmbox;
using namespace sdmbox::bench;

namespace {

// Tuned against the 8-epoch drift below: low enough to catch each class-mix
// step within an epoch, high enough that plateau epochs — same mix, fresh
// flow-sampling noise — never retrigger.
constexpr double kDriftThreshold = 0.05;
constexpr int kCooldownEpochs = 1;

/// Register one arm's loop totals as reopt_* counters so the numbers quoted
/// below come out of the registry, exactly like the online loop's export.
void register_arm(obs::MetricsRegistry& registry, const std::string& arm,
                  const analytic::PolicyStudy& study) {
  const obs::Labels labels{{"arm", arm}, {"subsystem", "reoptimize"}};
  registry.counter("reopt_solves", labels).inc(study.solves);
  registry.counter("reopt_pushes", labels).inc(study.pushes);
  registry.counter("reopt_push_bytes", labels).inc(study.push_bytes);
  registry.counter("reopt_solve_pivots", labels).inc(study.lp_pivots);
  registry.counter("reopt_solve_warm_starts", labels).inc(study.lp_warm_starts);
}

double mean_max_load(const analytic::PolicyStudy& study) {
  double sum = 0;
  for (const auto& e : study.epochs) sum += static_cast<double>(e.outcome.max_load);
  return sum / static_cast<double>(study.epochs.size());
}

constexpr int kEpochs = 8;

/// The 8-epoch drifting workload: the class mix steps from many-to-one-heavy
/// to one-to-one-heavy every OTHER epoch, so each step is followed by a
/// plateau epoch with the same mix but fresh flow-sampling noise. The
/// plateaus are what separate the closed-loop arms: every-epoch re-solves on
/// pure noise and pushes the churned slices; the drift trigger sits them
/// out. Deterministic (fixed seed 404), so every arm that rebuilds it sees
/// byte-identical flows.
std::vector<workload::GeneratedFlows> build_drift_epochs(const EvalScenario& s) {
  std::vector<workload::GeneratedFlows> epochs;
  util::Rng rng(404);
  for (int i = 0; i < kEpochs; ++i) {
    const int step = 2 * (i / 2);
    workload::FlowGenParams fp;
    fp.target_total_packets = 2'000'000;
    fp.class_weights[0] = static_cast<double>(kEpochs - step);
    fp.class_weights[1] = 1.0;
    fp.class_weights[2] = static_cast<double>(1 + step);
    epochs.push_back(workload::generate_flows(s.network, s.gen, fp, rng));
  }
  return epochs;
}

enum class LoopArm { kEveryEpoch, kDrift };

/// One closed-loop arm, self-contained: rebuilds its own scenario and drift
/// epochs (both deterministic) so arms can run concurrently on the sweep
/// runner without sharing any mutable state. run_policy_study normalizes
/// capacity itself, so the numbers match the old shared-scenario loop.
analytic::PolicyStudy run_loop_arm(LoopArm arm) {
  // The every-epoch arm is the cold baseline; the drift arm re-solves from
  // the previous basis (the closed loop's default). Warm starts change the
  // pivot count, never the optimum, so load stays comparable across arms.
  EvalParams params;
  params.controller.warm_start_lb = arm == LoopArm::kDrift;
  EvalScenario s = build_eval_scenario(params);
  const auto epochs = build_drift_epochs(s);
  if (arm == LoopArm::kEveryEpoch) {
    return analytic::run_policy_study(
        s.network, s.deployment, s.gen.policies, *s.controller, epochs,
        [](std::size_t, const std::vector<double>&, const workload::TrafficMatrix&) {
          return true;
        });
  }
  control::DriftDetector detector(kDriftThreshold, kCooldownEpochs, /*min_reports=*/1);
  return analytic::run_policy_study(
      s.network, s.deployment, s.gen.policies, *s.controller, epochs,
      [&](std::size_t, const std::vector<double>& loads, const workload::TrafficMatrix&) {
        // One synthetic report per epoch: the analytic replay always has a
        // full measurement, so the report gate never suppresses here.
        if (detector.evaluate(loads, /*pending_reports=*/1) !=
            control::DriftDetector::Decision::kTrigger) {
          return false;
        }
        detector.mark_solved(loads);
        return true;
      });
}

}  // namespace

int main() {
  std::printf("=== Ablation A5: measurement epochs & re-optimization under traffic drift ===\n");
  std::printf("Campus topology; class mix drifts from many-to-one-heavy to one-to-one-heavy.\n\n");

  EvalScenario s = build_eval_scenario();
  const auto epochs = build_drift_epochs(s);

  const auto study = analytic::run_epoch_study(s.network, s.deployment, s.gen.policies,
                                               *s.controller, epochs);

  stats::TextTable table("Realized max middlebox load per epoch (packets, millions)");
  table.set_header({"epoch", "oracle(M)", "reoptimized(M)", "stale(M)", "stale penalty"});
  for (int i = 0; i < kEpochs; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const double reopt = static_cast<double>(study.reoptimized[idx].max_load);
    const double stale = static_cast<double>(study.stale[idx].max_load);
    table.add_row({std::to_string(i),
                   util::format_millions(static_cast<double>(study.oracle[idx].max_load)),
                   util::format_millions(reopt), util::format_millions(stale),
                   "+" + util::format_fixed(100.0 * (stale / reopt - 1.0), 1) + "%"});
  }
  std::printf("%s\n", table.to_string().c_str());

  // --- Closed-loop arms: every-epoch re-solve vs drift-triggered re-solve,
  // fanned out on the sweep runner (each arm rebuilds its own state).
  const exp::SweepRunner pool(2);
  const std::vector<LoopArm> arms = {LoopArm::kEveryEpoch, LoopArm::kDrift};
  const auto studies = pool.run<analytic::PolicyStudy>(
      arms.size(), [&](std::size_t i) { return run_loop_arm(arms[i]); });
  const analytic::PolicyStudy& every_epoch = studies[0];
  const analytic::PolicyStudy& drift = studies[1];

  obs::MetricsRegistry registry;
  register_arm(registry, "every_epoch", every_epoch);
  register_arm(registry, "drift", drift);

  stats::TextTable loop("Closed loop: every-epoch (cold) vs drift-triggered (warm) re-solve");
  loop.set_header({"epoch", "every-epoch(M)", "cold pivots", "drift(M)", "drift solved?"});
  for (int i = 0; i < kEpochs; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const auto& de = drift.epochs[idx];
    std::string solved = "-";
    if (de.solved) {
      solved = (de.lp_warm_started ? "warm, " : "cold, ") + std::to_string(de.lp_pivots) + " pv";
    }
    loop.add_row(
        {std::to_string(i),
         util::format_millions(static_cast<double>(every_epoch.epochs[idx].outcome.max_load)),
         std::to_string(every_epoch.epochs[idx].lp_pivots),
         util::format_millions(static_cast<double>(de.outcome.max_load)), solved});
  }
  std::printf("%s\n", loop.to_string().c_str());

  const auto arm_count = [&](const char* name, const char* arm) {
    return registry.value(name, obs::Labels{{"arm", arm}, {"subsystem", "reoptimize"}})
        .value_or(0.0);
  };
  const double every_mean = mean_max_load(every_epoch);
  const double drift_mean = mean_max_load(drift);
  const double load_ratio = drift_mean / every_mean;
  std::printf("registry counts   every-epoch: solves=%.0f pushes=%.0f push_bytes=%.0f "
              "pivots=%.0f warm=%.0f\n",
              arm_count("reopt_solves", "every_epoch"), arm_count("reopt_pushes", "every_epoch"),
              arm_count("reopt_push_bytes", "every_epoch"),
              arm_count("reopt_solve_pivots", "every_epoch"),
              arm_count("reopt_solve_warm_starts", "every_epoch"));
  std::printf("                  drift:       solves=%.0f pushes=%.0f push_bytes=%.0f "
              "pivots=%.0f warm=%.0f (threshold %.3g, cooldown %d)\n",
              arm_count("reopt_solves", "drift"), arm_count("reopt_pushes", "drift"),
              arm_count("reopt_push_bytes", "drift"), arm_count("reopt_solve_pivots", "drift"),
              arm_count("reopt_solve_warm_starts", "drift"), kDriftThreshold, kCooldownEpochs);
  std::printf("mean realized max load: drift/every-epoch = %.4f (drift %.3fM, every %.3fM)\n\n",
              load_ratio, drift_mean / 1e6, every_mean / 1e6);
  std::printf("Expected shape: reoptimized tracks the oracle within hash-granularity\n"
              "noise (one epoch of measurement lag), the stale plan degrades as traffic\n"
              "drifts, and the drift-triggered loop stays within ~5%% of every-epoch\n"
              "re-solving with strictly fewer LP solves, pivots and config pushes\n"
              "(its re-solves warm-start from the previous basis).\n");

  dump_metrics(registry);

  // The expected shape, enforced: the drift arm's warm starts engage, and it
  // costs fewer pivots and push bytes than the cold every-epoch arm at load
  // within 2% of it.
  SDM_CHECK_MSG(drift.lp_warm_starts > 0, "drift arm never warm-started");
  SDM_CHECK_MSG(drift.lp_pivots < every_epoch.lp_pivots,
                "drift arm did not save pivots over every-epoch re-solving");
  SDM_CHECK_MSG(drift.push_bytes < every_epoch.push_bytes,
                "drift arm did not save push bytes over every-epoch re-solving");
  SDM_CHECK_MSG(load_ratio <= 1.02, "drift arm load exceeds every-epoch load by more than 2%");
  return 0;
}
