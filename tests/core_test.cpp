#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "analytic/load_evaluator.hpp"
#include "core/strategy.hpp"
#include "net/shortest_path.hpp"
#include "scenario.hpp"

namespace sdmbox::core {
namespace {

using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::lp_inputs;
using sdmbox::testing::make_scenario;

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

TEST(Deployment, PaperCountsDeployed) {
  util::Rng rng(1);
  auto network = net::make_campus_topology();
  const auto catalog = policy::FunctionCatalog::standard();
  const auto dep = deploy_middleboxes(network, catalog, DeploymentParams{}, rng);
  EXPECT_EQ(dep.size(), 22u);  // 7 + 7 + 4 + 4
  EXPECT_EQ(dep.implementers(policy::kFirewall).size(), 7u);
  EXPECT_EQ(dep.implementers(policy::kIntrusionDetection).size(), 7u);
  EXPECT_EQ(dep.implementers(policy::kWebProxy).size(), 4u);
  EXPECT_EQ(dep.implementers(policy::kTrafficMeasure).size(), 4u);
}

TEST(Deployment, MiddleboxesAttachToCoreRouters) {
  util::Rng rng(2);
  auto network = net::make_campus_topology();
  const auto catalog = policy::FunctionCatalog::standard();
  const auto dep = deploy_middleboxes(network, catalog, DeploymentParams{}, rng);
  const std::set<std::uint32_t> cores(
      [&] {
        std::set<std::uint32_t> s;
        for (const auto c : network.core_routers) s.insert(c.v);
        return s;
      }());
  for (const MiddleboxInfo& m : dep.middleboxes()) {
    const auto neighbors = network.topo.neighbors(m.node);
    ASSERT_EQ(neighbors.size(), 1u);  // leaf
    EXPECT_TRUE(cores.contains(neighbors[0].neighbor.v));
    EXPECT_EQ(network.topo.node(m.node).kind, net::NodeKind::kMiddlebox);
  }
}

TEST(Deployment, FindAndFunctions) {
  util::Rng rng(3);
  auto network = net::make_campus_topology();
  const auto catalog = policy::FunctionCatalog::standard();
  const auto dep = deploy_middleboxes(network, catalog, DeploymentParams{}, rng);
  const MiddleboxInfo& first = dep.middleboxes().front();
  EXPECT_EQ(dep.find(first.node), &first);
  EXPECT_EQ(dep.find(network.gateways[0]), nullptr);
  EXPECT_EQ(dep.all_functions().size(), 4u);
}

TEST(Deployment, DuplicateNodeRejected) {
  Deployment dep;
  MiddleboxInfo info;
  info.node = net::NodeId{1};
  info.functions = policy::FunctionSet::of({policy::kFirewall});
  dep.add(info);
  EXPECT_THROW(dep.add(info), ContractViolation);
}

TEST(Deployment, InvalidInfoRejected) {
  Deployment dep;
  MiddleboxInfo no_fn;
  no_fn.node = net::NodeId{1};
  EXPECT_THROW(dep.add(no_fn), ContractViolation);
  MiddleboxInfo bad_cap;
  bad_cap.node = net::NodeId{2};
  bad_cap.functions = policy::FunctionSet::of({policy::kFirewall});
  bad_cap.capacity = 0;
  EXPECT_THROW(dep.add(bad_cap), ContractViolation);
}

// ---------------------------------------------------------------------------
// Controller assignments
// ---------------------------------------------------------------------------

class ControllerTest : public ::testing::Test {
protected:
  ControllerTest() : s(make_scenario()) {}
  Scenario s;
};

TEST_F(ControllerTest, EveryProxyAndMiddleboxHasAConfig) {
  for (const auto proxy : s.network.proxies) EXPECT_TRUE(s.controller->configs().contains(proxy.v));
  for (const auto& m : s.deployment.middleboxes()) {
    EXPECT_TRUE(s.controller->configs().contains(m.node.v));
  }
  EXPECT_EQ(s.controller->configs().size(),
            s.network.proxies.size() + s.deployment.size());
}

TEST_F(ControllerTest, CandidateSetSizesFollowK) {
  for (const auto proxy : s.network.proxies) {
    const NodeConfig& cfg = s.controller->configs().at(proxy.v);
    EXPECT_EQ(cfg.candidates_for(policy::kFirewall).size(), 4u);
    EXPECT_EQ(cfg.candidates_for(policy::kIntrusionDetection).size(), 4u);
    EXPECT_EQ(cfg.candidates_for(policy::kWebProxy).size(), 2u);
    EXPECT_EQ(cfg.candidates_for(policy::kTrafficMeasure).size(), 2u);
  }
}

TEST_F(ControllerTest, MiddleboxHasNoCandidatesForOwnFunction) {
  for (const auto& m : s.deployment.middleboxes()) {
    const NodeConfig& cfg = s.controller->configs().at(m.node.v);
    for (const auto e : m.functions.to_vector()) {
      EXPECT_TRUE(cfg.candidates_for(e).empty());
    }
  }
}

TEST_F(ControllerTest, CandidatesAreSortedByDistance) {
  const auto rt = net::RoutingTables::compute(s.network.topo);
  for (const auto proxy : s.network.proxies) {
    const NodeConfig& cfg = s.controller->configs().at(proxy.v);
    for (const auto e : {policy::kFirewall, policy::kIntrusionDetection}) {
      const auto& cands = cfg.candidates_for(e);
      for (std::size_t i = 1; i < cands.size(); ++i) {
        EXPECT_LE(rt.distance(proxy, cands[i - 1]), rt.distance(proxy, cands[i]));
      }
      // m_x^e (the closest) is candidates.front().
      for (const auto m : s.deployment.implementers(e)) {
        EXPECT_LE(rt.distance(proxy, cfg.closest(e)), rt.distance(proxy, m));
      }
    }
  }
}

TEST_F(ControllerTest, CandidatesImplementTheFunction) {
  for (const auto& [node, cfg] : s.controller->configs()) {
    for (std::uint8_t e = 0; e < 4; ++e) {
      for (const auto cand : cfg.candidates_for(policy::FunctionId{e})) {
        const MiddleboxInfo* info = s.deployment.find(cand);
        ASSERT_NE(info, nullptr);
        EXPECT_TRUE(info->functions.contains(policy::FunctionId{e}));
      }
    }
  }
}

TEST_F(ControllerTest, ProxyPolicySliceCoversItsSubnetSources) {
  // Every policy whose source field overlaps the proxy's subnet must be in
  // P_x; wildcard-source policies are relevant to every proxy.
  for (std::size_t i = 0; i < s.network.proxies.size(); ++i) {
    const NodeConfig& cfg = s.controller->configs().at(s.network.proxies[i].v);
    const std::set<std::uint32_t> relevant(
        [&] {
          std::set<std::uint32_t> r;
          for (const auto id : cfg.relevant_policies) r.insert(id.v);
          return r;
        }());
    for (const auto& p : s.gen.policies.all()) {
      EXPECT_EQ(relevant.contains(p.id.v), p.descriptor.src.overlaps(s.network.subnets[i]));
    }
  }
}

TEST_F(ControllerTest, MiddleboxPolicySliceMatchesFunctions) {
  for (const auto& m : s.deployment.middleboxes()) {
    const NodeConfig& cfg = s.controller->configs().at(m.node.v);
    const std::set<std::uint32_t> relevant(
        [&] {
          std::set<std::uint32_t> r;
          for (const auto id : cfg.relevant_policies) r.insert(id.v);
          return r;
        }());
    for (const auto& p : s.gen.policies.all()) {
      const bool expect = std::any_of(p.actions.begin(), p.actions.end(), [&](auto e) {
        return m.functions.contains(e);
      });
      EXPECT_EQ(relevant.contains(p.id.v), expect);
    }
  }
}

TEST_F(ControllerTest, MissingFunctionRejected) {
  // A policy demanding NAT with no NAT middlebox deployed must be rejected.
  auto catalog = policy::FunctionCatalog::standard();
  const auto nat = catalog.register_function("NAT");
  policy::PolicyList bad;
  policy::TrafficDescriptor td;
  bad.add(td, {nat}, "needs-nat");
  EXPECT_THROW(Controller(s.network, s.deployment, bad), ContractViolation);
}

TEST_F(ControllerTest, DuplicateFunctionInChainRejected) {
  policy::PolicyList bad;
  policy::TrafficDescriptor td;
  bad.add(td, {policy::kFirewall, policy::kIntrusionDetection, policy::kFirewall}, "dup");
  EXPECT_THROW(Controller(s.network, s.deployment, bad), ContractViolation);
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

class StrategyTest : public ::testing::Test {
protected:
  StrategyTest() : s(make_scenario()) {}

  packet::FlowId flow_from_subnet(std::size_t subnet, std::uint32_t n) const {
    packet::FlowId f;
    f.src = net::IpAddress(s.network.subnets[subnet].base().value() + 2 + n);
    f.dst = net::IpAddress(s.network.subnets[(subnet + 1) % s.network.subnets.size()]
                               .base()
                               .value() +
                           2);
    f.src_port = static_cast<std::uint16_t>(40000 + n);
    f.dst_port = 80;
    return f;
  }

  Scenario s;
};

TEST_F(StrategyTest, HotPotatoAlwaysPicksClosest) {
  const auto plan = s.controller->compile(StrategyKind::kHotPotato);
  const auto& pol = s.gen.policies.all().front();
  const auto proxy = s.network.proxies[0];
  const NodeConfig& cfg = plan.config(proxy);
  for (std::uint32_t n = 0; n < 50; ++n) {
    const auto pick =
        select_next_hop(plan, proxy, pol, pol.actions.front(), flow_from_subnet(0, n));
    EXPECT_EQ(pick, cfg.closest(pol.actions.front()));
  }
}

TEST_F(StrategyTest, RandomSpreadsAcrossCandidates) {
  const auto plan = s.controller->compile(StrategyKind::kRandom);
  const auto& pol = s.gen.policies.all().front();
  const auto proxy = s.network.proxies[0];
  const auto& cands = plan.config(proxy).candidates_for(pol.actions.front());
  std::map<std::uint32_t, int> histogram;
  for (std::uint32_t n = 0; n < 400; ++n) {
    const auto pick =
        select_next_hop(plan, proxy, pol, pol.actions.front(), flow_from_subnet(0, n));
    ASSERT_TRUE(std::find(cands.begin(), cands.end(), pick) != cands.end());
    ++histogram[pick.v];
  }
  EXPECT_EQ(histogram.size(), cands.size());  // every candidate used
  for (const auto& [node, count] : histogram) {
    EXPECT_NEAR(static_cast<double>(count), 400.0 / cands.size(), 60.0);
  }
}

TEST_F(StrategyTest, SelectionIsPerFlowStable) {
  const auto plan = s.controller->compile(StrategyKind::kRandom);
  const auto& pol = s.gen.policies.all().front();
  const auto proxy = s.network.proxies[0];
  const auto f = flow_from_subnet(0, 7);
  const auto first = select_next_hop(plan, proxy, pol, pol.actions.front(), f);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(select_next_hop(plan, proxy, pol, pol.actions.front(), f), first);
  }
}

TEST_F(StrategyTest, LoadBalancedFollowsRatiosProportionally) {
  EnforcementPlan plan = s.controller->compile(StrategyKind::kHotPotato);
  plan.strategy = StrategyKind::kLoadBalanced;
  const auto& pol = s.gen.policies.all().front();
  const auto proxy = s.network.proxies[0];
  const auto& cands = plan.config(proxy).candidates_for(pol.actions.front());
  ASSERT_GE(cands.size(), 2u);
  // Hand-crafted 3:1 split between the two nearest candidates.
  plan.configs.at(proxy.v).ratios.set(pol.actions.front(), pol.id,
                                      {{cands[0], 3.0}, {cands[1], 1.0}});
  int first = 0, second = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto pick = select_next_hop(plan, proxy, pol, pol.actions.front(),
                                      flow_from_subnet(0, static_cast<std::uint32_t>(i)));
    first += pick == cands[0];
    second += pick == cands[1];
  }
  EXPECT_EQ(first + second, n);
  EXPECT_NEAR(static_cast<double>(first) / n, 0.75, 0.04);
}

TEST_F(StrategyTest, LoadBalancedFallsBackToHotPotatoWithoutRatios) {
  EnforcementPlan plan = s.controller->compile(StrategyKind::kHotPotato);
  plan.strategy = StrategyKind::kLoadBalanced;  // no ratios set at all
  const auto& pol = s.gen.policies.all().front();
  const auto proxy = s.network.proxies[0];
  const auto pick = select_next_hop(plan, proxy, pol, pol.actions.front(), flow_from_subnet(0, 1));
  EXPECT_EQ(pick, plan.config(proxy).closest(pol.actions.front()));
}

TEST(SplitRatioTable, IgnoresAllZeroShares) {
  SplitRatioTable t;
  t.set(policy::kFirewall, policy::PolicyId{0}, {{net::NodeId{2}, 0.0}});
  EXPECT_EQ(t.find(policy::kFirewall, policy::PolicyId{0}), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(SplitRatioTable, NegativeWeightRejected) {
  SplitRatioTable t;
  EXPECT_THROW(t.set(policy::kFirewall, policy::PolicyId{0}, {{net::NodeId{2}, -1.0}}),
               ContractViolation);
}

TEST(SplitRatioTable, SubnetPairIsAggregateOrTwoIndices) {
  // (-1, -1) keys the aggregate entry; half a pair would alias it.
  SplitRatioTable t;
  const std::vector<SplitRatioTable::Share> shares = {{net::NodeId{2}, 1.0}};
  EXPECT_THROW(t.set(policy::kFirewall, policy::PolicyId{0}, shares, -1, 5), ContractViolation);
  EXPECT_THROW(t.set(policy::kFirewall, policy::PolicyId{0}, shares, 3, -1), ContractViolation);
  EXPECT_THROW(t.set(policy::kFirewall, policy::PolicyId{0}, shares, -2, -2), ContractViolation);
  t.set(policy::kFirewall, policy::PolicyId{0}, shares, 0, 0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.detailed_size(), 1u);
  EXPECT_EQ(t.find(policy::kFirewall, policy::PolicyId{0}), nullptr);  // no aggregate entry
}

// ---------------------------------------------------------------------------
// Load-balancing LP (Eq. 2 / Eq. 1)
// ---------------------------------------------------------------------------

class LpFormulationTest : public ::testing::Test {
protected:
  LpFormulationTest() : s(make_scenario()) {}
  Scenario s;
};

TEST_F(LpFormulationTest, Eq2SolvesToOptimal) {
  const RatioResult r = s.controller->solve_load_balancing(s.traffic);
  EXPECT_EQ(r.status, lp::SolveStatus::kOptimal);
  EXPECT_GT(r.lambda, 0.0);
  EXPECT_LE(r.lambda, 1.0);
  EXPECT_GT(r.ratios.size(), 0u);
  EXPECT_GT(r.pivots, 0u);
}

TEST_F(LpFormulationTest, LambdaIsAtLeastThePerTypeLowerBound) {
  // λ · C >= (total traffic needing e) / |M^e| for every function e.
  const RatioResult r = s.controller->solve_load_balancing(s.traffic);
  const double cap = s.deployment.middleboxes().front().capacity;
  for (const auto e : s.catalog.all()) {
    double demand = 0;
    for (const auto& p : s.gen.policies.all()) {
      if (p.action_index(e) >= 0) demand += s.traffic.total(p.id);
    }
    const double bound = demand / (cap * static_cast<double>(s.deployment.implementers(e).size()));
    EXPECT_GE(r.lambda + 1e-7, bound);
  }
}

TEST_F(LpFormulationTest, SourceAggregationIsExact) {
  ControllerParams with, without;
  without.lp.aggregate_sources = false;
  const Controller agg(s.network, s.deployment, s.gen.policies, with);
  const Controller raw(s.network, s.deployment, s.gen.policies, without);
  const RatioResult ra = agg.solve_load_balancing(s.traffic);
  const RatioResult rr = raw.solve_load_balancing(s.traffic);
  ASSERT_EQ(ra.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(rr.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(ra.lambda, rr.lambda, 1e-6);
  EXPECT_LE(ra.stats.variables, rr.stats.variables);
}

TEST_F(LpFormulationTest, RedundantConstraintsDoNotChangeOptimum) {
  ControllerParams lean, full;
  full.lp.include_redundant_constraints = true;
  const Controller a(s.network, s.deployment, s.gen.policies, lean);
  const Controller b(s.network, s.deployment, s.gen.policies, full);
  const RatioResult ra = a.solve_load_balancing(s.traffic);
  const RatioResult rb = b.solve_load_balancing(s.traffic);
  ASSERT_EQ(ra.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(rb.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(ra.lambda, rb.lambda, 1e-6);
  EXPECT_GT(rb.stats.constraints, ra.stats.constraints);
}

TEST_F(LpFormulationTest, Eq1AgreesWithEq2OnLambda) {
  // Eq. (1) has strictly more degrees of freedom, so its optimum can only be
  // <= Eq. (2)'s; on these instances the per-(s,d) granularity buys nothing
  // (same candidate structure), so they should coincide.
  const RatioResult r1 = solve_eq1(lp_inputs(s));
  const RatioResult r2 = s.controller->solve_load_balancing(s.traffic);
  ASSERT_EQ(r1.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(r2.status, lp::SolveStatus::kOptimal);
  EXPECT_LE(r1.lambda, r2.lambda + 1e-6);
  EXPECT_NEAR(r1.lambda, r2.lambda, 1e-4);
}

TEST_F(LpFormulationTest, Eq1IsMuchBiggerThanEq2) {
  const FormulationInputs in = lp_inputs(s);
  const LpBuildStats e1 = measure_eq1(in);
  const LpBuildStats e2 = measure_eq2(in);
  EXPECT_GT(e1.variables, 2 * e2.variables);  // the paper's motivation for Eq. (2)
}

TEST_F(LpFormulationTest, ModelShapesArePinned) {
  // Exact (variables, constraints, nonzeros) of both formulations on this
  // fixture: a change to the chain builder that adds, drops or merges a
  // variable or row shows here.
  const FormulationInputs in = lp_inputs(s);
  FormulationOptions per_source;
  per_source.aggregate_sources = false;
  using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;
  const auto shape = [](const LpBuildStats& st) {
    return Shape{st.variables, st.constraints, st.nonzeros};
  };
  EXPECT_EQ(shape(measure_eq2(in)), (Shape{598, 236, 1769}));
  EXPECT_EQ(shape(measure_eq2(in, per_source)), (Shape{658, 251, 1949}));
  EXPECT_EQ(shape(measure_eq1(in)), (Shape{1775, 839, 5055}));
}

TEST_F(LpFormulationTest, RatiosOnlyPointAtValidCandidates) {
  const RatioResult r = s.controller->solve_load_balancing(s.traffic);
  ASSERT_FALSE(r.ratios.empty());
  for (const auto& [node, ratios] : r.ratios) {
    const NodeConfig& cfg = s.controller->configs().at(node);
    ratios.for_each([&](policy::FunctionId e, policy::PolicyId, int, int,
                        const std::vector<SplitRatioTable::Share>& shares) {
      const auto& cands = cfg.candidates_for(e);
      for (const auto& share : shares) {
        EXPECT_TRUE(std::find(cands.begin(), cands.end(), share.to) != cands.end());
      }
    });
  }
}

TEST_F(LpFormulationTest, CompileLoadBalancedPlanCarriesRatios) {
  const auto plan = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  EXPECT_EQ(plan.strategy, StrategyKind::kLoadBalanced);
  EXPECT_GT(measure_distribution(plan).ratio_entries, 0u);
  EXPECT_GT(plan.lambda, 0.0);
}

TEST_F(LpFormulationTest, CompileLoadBalancedWithoutTrafficRejected) {
  EXPECT_THROW(s.controller->compile(StrategyKind::kLoadBalanced), ContractViolation);
}

// ---------------------------------------------------------------------------
// The headline property: LB <= Rand <= HP on max load (paper Fig. 4/5)
// ---------------------------------------------------------------------------

class StrategyOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrategyOrdering, LoadBalancedBeatsBaselinesOnMaxLoad) {
  ScenarioParams sp;
  sp.seed = GetParam();
  sp.target_packets = 400000;
  Scenario s = make_scenario(sp);

  const auto hp = s.controller->compile(StrategyKind::kHotPotato);
  const auto rand = s.controller->compile(StrategyKind::kRandom);
  const auto lb = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);

  const auto max_load = [&](const EnforcementPlan& plan) {
    const auto report =
        analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan, s.flows.flows);
    std::uint64_t max = 0;
    for (const auto& m : s.deployment.middleboxes()) max = std::max(max, report.load_of(m.node));
    return max;
  };

  const std::uint64_t hp_max = max_load(hp);
  const std::uint64_t rand_max = max_load(rand);
  const std::uint64_t lb_max = max_load(lb);
  // LB must beat hot-potato decisively and random at least marginally
  // (hash-based splitting adds sampling noise, hence the 5% slack).
  EXPECT_LT(lb_max, hp_max);
  EXPECT_LT(static_cast<double>(lb_max), static_cast<double>(rand_max) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyOrdering, ::testing::Values(1, 2, 3, 7, 11));

}  // namespace
}  // namespace sdmbox::core
