// The exp subsystem's contracts: spec serialization round-trips exactly,
// replicate seeds are a pure function of (base seed, task index), the sweep
// runner returns results in task order whatever the thread count, replicate
// aggregation matches hand-computed statistics, and — the headline — the
// suite JSON is byte-identical for 1 worker and 8.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "exp/world.hpp"
#include "util/hash.hpp"

namespace sdmbox::exp {
namespace {

ScenarioSpec customized_spec() {
  ScenarioSpec s;
  s.topology = TopologyKind::kWaxman;
  s.off_path = true;
  s.seed = 123456789;
  s.campus_edge_count = 7;
  s.campus_core_count = 5;
  s.waxman_edge_count = 80;
  s.waxman_core_count = 9;
  s.packets = 4242;
  s.policies_per_class = 2;
  s.strategy = core::StrategyKind::kHotPotato;
  s.fail_one = "IDS";
  s.lp_warm_start = false;
  s.flow_cache = true;
  s.label_switching = false;
  s.wp_cache_hit_rate = 0.25;
  s.peer_health = false;
  s.faults = FaultScript::kNone;
  s.epoch = 0.125;
  s.trace_sample = 0.5;
  s.reopt.epoch_period = 0.75;
  s.reopt.drift_threshold = 0.0625;
  s.reopt.cooldown_epochs = 3;
  s.reopt.min_reports = 2;
  return s;
}

// ---------------------------------------------------------------------------
// ScenarioSpec serialization
// ---------------------------------------------------------------------------

TEST(ScenarioSpec, DefaultsAreValid) { EXPECT_EQ(ScenarioSpec{}.validate(), ""); }

TEST(ScenarioSpec, RoundTripsDefaults) {
  const ScenarioSpec original;
  const auto parsed = parse_text(original.to_text());
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  EXPECT_EQ(parsed.spec, original);
}

TEST(ScenarioSpec, RoundTripsEveryFieldExactly) {
  const ScenarioSpec original = customized_spec();
  ASSERT_EQ(original.validate(), "");
  const auto parsed = parse_text(original.to_text());
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  EXPECT_EQ(parsed.spec, original);
  // Non-representable-in-decimal doubles must survive too (%.17g contract).
  ScenarioSpec awkward;
  awkward.epoch = 0.1 + 0.2;  // 0.30000000000000004
  awkward.trace_sample = 1.0 / 3.0;
  const auto reparsed = parse_text(awkward.to_text());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.spec, awkward);
}

TEST(ScenarioSpec, ParseAppliesOverridesOnTopOfDefaults) {
  const std::string text =
      "# a comment line\n"
      "\n"
      "packets = 777\n"
      "strategy = hp\n"
      "faults = none\n";
  const auto parsed = parse_text(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.spec.packets, 777u);
  EXPECT_EQ(parsed.spec.strategy, core::StrategyKind::kHotPotato);
  EXPECT_EQ(parsed.spec.faults, FaultScript::kNone);
  EXPECT_EQ(parsed.spec.seed, ScenarioSpec{}.seed);  // untouched fields keep defaults

  ScenarioSpec base;
  base.seed = 99;
  const auto over = parse_text("packets = 5\n", base);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(over.spec.seed, 99u);
  EXPECT_EQ(over.spec.packets, 5u);
}

TEST(ScenarioSpec, ParseReportsLineErrors) {
  const auto parsed = parse_text("bogus = 1\npackets = notanumber\nno_equals_sign\n");
  EXPECT_FALSE(parsed.ok());
  ASSERT_EQ(parsed.errors.size(), 3u);
  EXPECT_NE(parsed.errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(parsed.errors[1].find("line 2"), std::string::npos);
  EXPECT_NE(parsed.errors[2].find("line 3"), std::string::npos);
}

TEST(ScenarioSpec, ParseRejectsOutOfDomainValues) {
  EXPECT_FALSE(parse_text("epoch = 0\n").ok());
  EXPECT_FALSE(parse_text("trace_sample = 1.5\n").ok());
  EXPECT_FALSE(parse_text("packets = 0\n").ok());
  // Label switching piggybacks on flow-cache entries.
  EXPECT_FALSE(parse_text("flow_cache = false\n").ok());
  EXPECT_TRUE(parse_text("flow_cache = false\nlabel_switching = false\n").ok());
  // Integers must be unsigned decimal that fits the field: no sign wrapping
  // modulo 2^64, no saturation, no narrowing into int.
  EXPECT_FALSE(parse_text("seed = -1\n").ok());
  EXPECT_FALSE(parse_text("packets = -1\n").ok());
  EXPECT_FALSE(parse_text("policies_per_class = -3\n").ok());
  EXPECT_FALSE(parse_text("seed = +7\n").ok());
  EXPECT_FALSE(parse_text("seed = 18446744073709551616\n").ok());  // 2^64
  EXPECT_FALSE(parse_text("reopt_cooldown = 4294967297\n").ok());  // 2^32 + 1
  EXPECT_FALSE(parse_text("reopt_cooldown = +3\n").ok());
  EXPECT_TRUE(parse_text("seed = 18446744073709551615\n").ok());   // 2^64 - 1
  // Sizes the selected topology's generators cannot build are rejected up
  // front; the boundary sizes they can build parse.
  EXPECT_FALSE(parse_text("campus_core_count = 1\n").ok());  // 2 uplinks per edge router
  EXPECT_TRUE(parse_text("campus_core_count = 2\n").ok());
  EXPECT_FALSE(parse_text("campus_edge_count = 1\npolicies_per_class = 1\n").ok());
  EXPECT_TRUE(parse_text("campus_edge_count = 2\npolicies_per_class = 2\n").ok());
  EXPECT_FALSE(parse_text("policies_per_class = 11\n").ok());  // the campus has 10 subnets
  EXPECT_TRUE(parse_text("policies_per_class = 10\n").ok());
  EXPECT_FALSE(parse_text("campus_edge_count = 4096\n").ok());  // /20 slices run out
  EXPECT_TRUE(parse_text("campus_edge_count = 4095\n").ok());
  const std::string waxman = "topology = waxman\n";
  for (const char* cores : {"2", "3", "4"}) {  // core_degree 4 must stay below it
    EXPECT_FALSE(parse_text(waxman + "waxman_core_count = " + cores + "\n").ok()) << cores;
  }
  EXPECT_TRUE(parse_text(waxman + "waxman_core_count = 5\n").ok());
  EXPECT_FALSE(parse_text(waxman + "waxman_edge_count = 1\npolicies_per_class = 1\n").ok());
  EXPECT_TRUE(parse_text(waxman + "waxman_edge_count = 2\npolicies_per_class = 2\n").ok());
  EXPECT_FALSE(parse_text(waxman + "waxman_edge_count = 4095\n").ok());
  EXPECT_TRUE(parse_text(waxman + "waxman_edge_count = 4094\n").ok());
  // Deleted settings fail loudly as unknown keys instead of being ignored.
  for (const char* key : {"reopt_adaptive", "reopt_noise_mult", "reopt_predictive",
                          "reopt_request_reports", "lp_engine"}) {
    const auto removed = parse_text(std::string(key) + " = 1\n");
    ASSERT_FALSE(removed.ok()) << key;
    EXPECT_NE(removed.errors.front().find("unknown key"), std::string::npos) << key;
  }
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(DeriveSeed, MatchesSplitmixStream) {
  // Position i of the splitmix64 stream: finalizer over base + gamma * i.
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(derive_seed(2019, i), util::mix64(2019 + 0x9e3779b97f4a7c15ULL * i));
  }
}

TEST(DeriveSeed, DeterministicAndDistinct) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) seeds.push_back(derive_seed(42, i));
  // Re-derivation is bit-identical (pure function of base + index)...
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_EQ(seeds[i], derive_seed(42, i));
  // ...and the first thousand replicate seeds never collide.
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  // Different bases give different streams.
  EXPECT_NE(derive_seed(42, 0), derive_seed(43, 0));
}

// ---------------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------------

TEST(SweepRunner, ReturnsResultsInTaskOrder) {
  const SweepRunner pool(8);
  const auto results = pool.run<std::size_t>(64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i * i);
}

TEST(SweepRunner, RunsEveryTaskExactlyOnce) {
  std::atomic<int> calls{0};
  SweepRunner(4).run(100, std::function<void(std::size_t)>([&](std::size_t) { ++calls; }));
  EXPECT_EQ(calls.load(), 100);
}

TEST(SweepRunner, RethrowsLowestIndexFailureAfterFinishingTheBatch) {
  std::atomic<int> calls{0};
  const SweepRunner pool(4);
  try {
    pool.run(8, std::function<void(std::size_t)>([&](std::size_t i) {
               ++calls;
               if (i == 5) throw std::runtime_error("task 5 failed");
               if (i == 2) throw std::runtime_error("task 2 failed");
             }));
    FAIL() << "expected the batch to rethrow";
  } catch (const std::runtime_error& e) {
    // First failure by INDEX, not by completion time.
    EXPECT_STREQ(e.what(), "task 2 failed");
  }
  // A failing task never cancels its siblings.
  EXPECT_EQ(calls.load(), 8);
}

TEST(SweepRunner, ZeroSelectsHardwareConcurrency) {
  EXPECT_EQ(SweepRunner(0).jobs(), SweepRunner::hardware_jobs());
  EXPECT_GE(SweepRunner::hardware_jobs(), 1u);
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

TEST(Aggregate, MatchesHandComputedStatistics) {
  const Aggregate a = aggregate_values({2.0, 4.0, 6.0});
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.mean, 4.0);
  EXPECT_DOUBLE_EQ(a.stddev, 2.0);  // sample stddev: sqrt((4+0+4)/2)
  EXPECT_DOUBLE_EQ(a.min, 2.0);
  EXPECT_DOUBLE_EQ(a.max, 6.0);
  EXPECT_DOUBLE_EQ(a.ci95, 1.96 * 2.0 / std::sqrt(3.0));
}

TEST(Aggregate, SingleValueHasNoSpread) {
  const Aggregate a = aggregate_values({7.5});
  EXPECT_EQ(a.count, 1u);
  EXPECT_DOUBLE_EQ(a.mean, 7.5);
  EXPECT_DOUBLE_EQ(a.stddev, 0.0);
  EXPECT_DOUBLE_EQ(a.ci95, 0.0);
  EXPECT_DOUBLE_EQ(a.min, 7.5);
  EXPECT_DOUBLE_EQ(a.max, 7.5);
}

TEST(Aggregate, EmptyInputIsAllZero) {
  const Aggregate a = aggregate_values({});
  EXPECT_EQ(a.count, 0u);
  EXPECT_DOUBLE_EQ(a.mean, 0.0);
}

TEST(Aggregate, SnapshotsAggregatePerKeySorted) {
  const MetricsSnapshot r1 = {{"b", 1.0}, {"a", 10.0}};
  const MetricsSnapshot r2 = {{"b", 3.0}, {"c", 5.0}};
  const auto metrics = aggregate_snapshots({r1, r2});
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].name, "a");
  EXPECT_EQ(metrics[0].agg.count, 1u);  // only replicate 1 reported it
  EXPECT_EQ(metrics[1].name, "b");
  EXPECT_EQ(metrics[1].agg.count, 2u);
  EXPECT_DOUBLE_EQ(metrics[1].agg.mean, 2.0);
  EXPECT_EQ(metrics[2].name, "c");
}

// ---------------------------------------------------------------------------
// build_world
// ---------------------------------------------------------------------------

TEST(BuildWorld, RejectsInvalidSpecs) {
  ScenarioSpec bad;
  bad.epoch = 0;
  EXPECT_THROW(build_world(bad), BuildError);
}

TEST(BuildWorld, RejectsUnknownFailOneFunction) {
  ScenarioSpec spec;
  spec.packets = 500;
  spec.fail_one = "NOPE";
  try {
    build_world(spec);
    FAIL() << "expected BuildError";
  } catch (const BuildError& e) {
    EXPECT_NE(std::string(e.what()).find("NOPE"), std::string::npos);
  }
}

TEST(BuildWorld, AppliesFailOneBeforeCompiling) {
  ScenarioSpec spec;
  spec.packets = 500;
  spec.fail_one = "IDS";
  const auto world = build_world(spec);
  ASSERT_TRUE(world->prefailed.valid());
  EXPECT_TRUE(world->deployment.find(world->prefailed)->failed);
}

TEST(BuildWorld, PrepareSimAndRunAreOneShot) {
  ScenarioSpec spec;
  spec.packets = 200;
  const auto world = build_world(spec);
  EXPECT_THROW(world->run(), ContractViolation);  // requires prepare_sim()
  world->prepare_sim();
  EXPECT_THROW(world->prepare_sim(), ContractViolation);
  world->run();
  EXPECT_THROW(world->run(), ContractViolation);
  EXPECT_GT(world->simnet->counters().delivered, 0u);
}

// ---------------------------------------------------------------------------
// Suite determinism: the acceptance criterion
// ---------------------------------------------------------------------------

std::string render_suite(unsigned jobs) {
  std::vector<ScenarioSpec> arm_specs(2);
  arm_specs[0].packets = 400;
  arm_specs[1].packets = 400;
  arm_specs[1].peer_health = false;
  constexpr std::size_t kSeeds = 2;

  const SweepRunner pool(jobs);
  const auto snaps = pool.run<MetricsSnapshot>(
      arm_specs.size() * kSeeds, [&](std::size_t i) {
        ScenarioSpec spec = arm_specs[i / kSeeds];
        spec.seed = derive_seed(7, i);
        return run_scenario(spec);
      });

  std::vector<ArmResult> arms;
  for (std::size_t a = 0; a < arm_specs.size(); ++a) {
    ArmResult r;
    r.name = "arm" + std::to_string(a);
    r.spec = arm_specs[a];
    for (std::size_t j = 0; j < kSeeds; ++j) r.seeds.push_back(derive_seed(7, a * kSeeds + j));
    r.metrics = aggregate_snapshots(
        {snaps[a * kSeeds], snaps[a * kSeeds + 1]});
    arms.push_back(std::move(r));
  }
  return suite_to_json("exp_test_suite", 7, kSeeds, arms);
}

TEST(SuiteDeterminism, JobsOneAndJobsEightAreByteIdentical) {
  const std::string serial = render_suite(1);
  const std::string parallel = render_suite(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // The contract's teeth: nothing scheduling-dependent may appear in the
  // document. (Wall time and jobs are banned from the schema by design.)
  EXPECT_EQ(serial.find("jobs"), std::string::npos);
  EXPECT_EQ(serial.find("wall"), std::string::npos);
}

}  // namespace
}  // namespace sdmbox::exp
