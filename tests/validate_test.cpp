// Enforcement-plan audit (core/validate) and the stats::Histogram helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/validate.hpp"
#include "scenario.hpp"
#include "stats/histogram.hpp"

namespace sdmbox {
namespace {

using core::StrategyKind;
using sdmbox::testing::Scenario;
using sdmbox::testing::make_scenario;

// ---------------------------------------------------------------------------
// validate_plan
// ---------------------------------------------------------------------------

TEST(ValidatePlan, CompiledPlansAreSound) {
  Scenario s = make_scenario();
  for (const auto strategy :
       {StrategyKind::kHotPotato, StrategyKind::kRandom, StrategyKind::kLoadBalanced}) {
    const auto plan = s.controller->compile(
        strategy, strategy == StrategyKind::kLoadBalanced ? &s.traffic : nullptr);
    const auto violations =
        core::validate_plan(plan, s.network, s.deployment, s.gen.policies);
    EXPECT_TRUE(violations.empty())
        << to_string(strategy) << ": " << (violations.empty() ? "" : violations.front());
  }
}

TEST(ValidatePlan, RecomputedPlanAfterFailureIsSound) {
  Scenario s = make_scenario();
  s.deployment.set_failed(s.deployment.implementers(policy::kFirewall)[0], true);
  s.controller->recompute();
  const auto plan = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  EXPECT_TRUE(core::validate_plan(plan, s.network, s.deployment, s.gen.policies).empty());
}

TEST(ValidatePlan, DetectsMissingConfig) {
  Scenario s = make_scenario();
  auto plan = s.controller->compile(StrategyKind::kHotPotato);
  plan.configs.erase(s.network.proxies[0].v);
  const auto violations = core::validate_plan(plan, s.network, s.deployment, s.gen.policies);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("no config"), std::string::npos);
}

TEST(ValidatePlan, DetectsStrandedObligation) {
  Scenario s = make_scenario();
  auto plan = s.controller->compile(StrategyKind::kHotPotato);
  // Strip proxy 0's FW candidates: its relevant policies need FW first.
  plan.configs.at(s.network.proxies[0].v).candidates[policy::kFirewall.v].clear();
  const auto violations = core::validate_plan(plan, s.network, s.deployment, s.gen.policies);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("no candidates"), std::string::npos);
}

TEST(ValidatePlan, DetectsWrongFunctionCandidate) {
  Scenario s = make_scenario();
  auto plan = s.controller->compile(StrategyKind::kHotPotato);
  // Replace a FW candidate with a TM box.
  const net::NodeId tm = s.deployment.implementers(policy::kTrafficMeasure)[0];
  plan.configs.at(s.network.proxies[0].v).candidates[policy::kFirewall.v][0] = tm;
  const auto violations = core::validate_plan(plan, s.network, s.deployment, s.gen.policies);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("does not implement"), std::string::npos);
}

TEST(ValidatePlan, DetectsFailedCandidate) {
  Scenario s = make_scenario();
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);  // pre-failure plan
  s.deployment.set_failed(s.deployment.implementers(policy::kFirewall)[0], true);
  // Without recompute, the stale plan still points at the failed box.
  const auto violations = core::validate_plan(plan, s.network, s.deployment, s.gen.policies);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("failed"), std::string::npos);
}

TEST(ValidatePlan, DetectsForeignLbShare) {
  Scenario s = make_scenario();
  auto plan = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  // Graft a share pointing at a non-candidate middlebox.
  const net::NodeId proxy = s.network.proxies[0];
  const auto& cfg = plan.configs.at(proxy.v);
  const policy::PolicyId pid = cfg.relevant_policies.front();
  const policy::Policy& p = s.gen.policies.at(pid);
  ASSERT_FALSE(p.actions.empty());
  const policy::FunctionId e = p.actions.front();
  const auto& cands = cfg.candidates_for(e);
  net::NodeId outsider;
  for (const auto& m : s.deployment.middleboxes()) {
    if (m.functions.contains(e) &&
        std::find(cands.begin(), cands.end(), m.node) == cands.end()) {
      outsider = m.node;
      break;
    }
  }
  ASSERT_TRUE(outsider.valid());
  plan.configs.at(proxy.v).ratios.set(e, pid, {{outsider, 1.0}});
  const auto violations = core::validate_plan(plan, s.network, s.deployment, s.gen.policies);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("non-candidate"), std::string::npos);
}

TEST(ValidatePlan, ChecksEveryEq1Share) {
  // Selection reads a flow's (s, d) entry before the aggregate one, so the
  // audit must cover the Eq. (1) entries too.
  Scenario s = make_scenario();
  auto plan = sdmbox::testing::compile_eq1(s);
  EXPECT_EQ(core::validate_plan(plan, s.network, s.deployment, s.gen.policies),
            std::vector<std::string>{});

  // Redirect one (s, d) entry to a middlebox outside the sender's candidates.
  struct Target {
    policy::FunctionId e;
    policy::PolicyId p;
    int src;
    int dst;
    net::NodeId outsider;
  };
  std::optional<Target> target;
  for (auto& [node_v, cfg] : plan.configs) {
    cfg.ratios.for_each([&](policy::FunctionId e, policy::PolicyId p, int src, int dst,
                            const auto&) {
      if (target.has_value() || src < 0) return;
      const auto& cands = cfg.candidates_for(e);
      for (const auto& m : s.deployment.middleboxes()) {
        if (m.functions.contains(e) &&
            std::find(cands.begin(), cands.end(), m.node) == cands.end()) {
          target = Target{e, p, src, dst, m.node};
          return;
        }
      }
    });
    if (target.has_value()) {
      cfg.ratios.set(target->e, target->p, {{target->outsider, 1.0}}, target->src, target->dst);
      break;
    }
  }
  ASSERT_TRUE(target.has_value());
  const auto violations = core::validate_plan(plan, s.network, s.deployment, s.gen.policies);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations.front().find("non-candidate node " + std::to_string(target->outsider.v)),
            std::string::npos)
      << violations.front();
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BasicStatistics) {
  stats::Histogram h;
  for (const double v : {5.0, 1.0, 3.0, 2.0, 4.0}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);
}

TEST(Histogram, NearestRankQuantiles) {
  stats::Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.01), 1.0);
}

TEST(Histogram, InterleavedAddAndQuery) {
  stats::Histogram h;
  h.add(10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  h.add(5.0);  // out of order: forces a re-sort
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  h.add(20.0);
  EXPECT_DOUBLE_EQ(h.max(), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
}

TEST(Histogram, RejectsNonFiniteAndEmptyQueries) {
  stats::Histogram h;
  EXPECT_THROW(h.add(std::numeric_limits<double>::infinity()), ContractViolation);
  EXPECT_THROW(h.mean(), ContractViolation);
  EXPECT_THROW(h.quantile(0.5), ContractViolation);
}

}  // namespace
}  // namespace sdmbox
