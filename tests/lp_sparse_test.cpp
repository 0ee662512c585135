// The sparse revised simplex against the dense tableau oracle, plus the
// sparse-only surface the dense engine cannot reach: general bounds, free
// variables, warm starts, and basis export. The cross-check contract is the
// one CI enforces end to end: same model => same status, objectives within
// 1e-6, and a feasible witness from both engines.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "scenario.hpp"
#include "util/rng.hpp"

namespace sdmbox::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Solution solve_with(const LpModel& m, SimplexEngine engine) {
  SimplexOptions opt;
  opt.engine = engine;
  return solve(m, opt);
}

/// The cross-check contract: equal status; on optimal, objectives within
/// 1e-6 and both value vectors feasible.
void expect_engines_agree(const LpModel& m) {
  const Solution dense = solve_with(m, SimplexEngine::kDense);
  const Solution sparse = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(dense.status, sparse.status);
  if (dense.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(dense.objective, sparse.objective, 1e-6);
  EXPECT_EQ(check_feasible(m, dense.values), "");
  EXPECT_EQ(check_feasible(m, sparse.values), "");
}

// Synthetic Eq.(2)-shaped instance: sources -> middlebox layer 1 -> middlebox
// layer 2, with capacity rows and min λ.
LpModel make_chain_lp(std::size_t sources, std::size_t layer1, std::size_t layer2,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  LpModel m;
  const VarId lambda = m.add_variable("lambda", 1.0);
  std::vector<std::vector<Term>> inflow1(layer1), inflow2(layer2), outflow1(layer1);
  double total = 0;
  for (std::size_t s = 0; s < sources; ++s) {
    const double supply = 1.0 + static_cast<double>(rng.next_below(100));
    total += supply;
    std::vector<Term> row;
    for (std::size_t a = 0; a < layer1; ++a) {
      if (layer1 > 4 && rng.next_bool(0.5)) continue;
      const VarId v = m.add_variable({});
      row.push_back({v, 1.0});
      inflow1[a].push_back({v, 1.0});
    }
    if (row.empty()) {
      const VarId v = m.add_variable({});
      row.push_back({v, 1.0});
      inflow1[0].push_back({v, 1.0});
    }
    m.add_constraint(std::move(row), Relation::kEqual, supply);
  }
  for (std::size_t a = 0; a < layer1; ++a) {
    for (std::size_t b = 0; b < layer2; ++b) {
      const VarId v = m.add_variable({});
      outflow1[a].push_back({v, 1.0});
      inflow2[b].push_back({v, 1.0});
    }
    std::vector<Term> cons = inflow1[a];
    for (const auto& t : outflow1[a]) cons.push_back({t.var, -1.0});
    m.add_constraint(std::move(cons), Relation::kEqual, 0.0);
  }
  for (std::size_t a = 0; a < layer1; ++a) {
    std::vector<Term> row = inflow1[a];
    row.push_back({lambda, -total});
    m.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
  }
  for (std::size_t b = 0; b < layer2; ++b) {
    std::vector<Term> row = inflow2[b];
    row.push_back({lambda, -total});
    m.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
  }
  m.add_constraint({{lambda, 1.0}}, Relation::kLessEqual, 1.0);
  return m;
}

LpModel make_transport_lp(std::size_t supplies, std::size_t demands, std::uint64_t seed) {
  util::Rng rng(seed);
  LpModel m;
  std::vector<std::vector<Term>> by_demand(demands);
  std::vector<double> demand(demands, 0.0);
  double total = 0;
  for (std::size_t s = 0; s < supplies; ++s) {
    const double supply = 1.0 + static_cast<double>(rng.next_below(50));
    total += supply;
    std::vector<Term> row;
    for (std::size_t d = 0; d < demands; ++d) {
      const VarId v = m.add_variable({}, 1.0 + rng.next_double() * 9.0);
      row.push_back({v, 1.0});
      by_demand[d].push_back({v, 1.0});
    }
    m.add_constraint(std::move(row), Relation::kEqual, supply);
  }
  for (std::size_t d = 0; d < demands; ++d) demand[d] = total / static_cast<double>(demands);
  for (std::size_t d = 0; d < demands; ++d) {
    m.add_constraint(std::move(by_demand[d]), Relation::kGreaterEqual, demand[d] * 0.9);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Dense-vs-sparse cross-checks
// ---------------------------------------------------------------------------

TEST(SparseCrossCheck, TextbookMaximization) {
  // max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 (minimize the negation; opt -36).
  LpModel m;
  const VarId x = m.add_variable("x", -3.0);
  const VarId y = m.add_variable("y", -5.0);
  m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 4.0);
  m.add_constraint({{y, 2.0}}, Relation::kLessEqual, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLessEqual, 18.0);
  expect_engines_agree(m);
  const Solution s = solve_with(m, SimplexEngine::kSparse);
  EXPECT_NEAR(s.objective, -36.0, 1e-9);
  EXPECT_NEAR(s.value(x), 2.0, 1e-9);
  EXPECT_NEAR(s.value(y), 6.0, 1e-9);
}

TEST(SparseCrossCheck, TextbookDiet) {
  // min 0.6a+0.35b s.t. 5a+7b>=8, 4a+2b>=15, a,b>=0.
  LpModel m;
  const VarId a = m.add_variable("a", 0.6);
  const VarId b = m.add_variable("b", 0.35);
  m.add_constraint({{a, 5.0}, {b, 7.0}}, Relation::kGreaterEqual, 8.0);
  m.add_constraint({{a, 4.0}, {b, 2.0}}, Relation::kGreaterEqual, 15.0);
  expect_engines_agree(m);
}

TEST(SparseCrossCheck, EqualityMix) {
  LpModel m;
  const VarId x = m.add_variable("x", 1.0);
  const VarId y = m.add_variable("y", 2.0);
  const VarId z = m.add_variable("z", -1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}, {z, 1.0}}, Relation::kEqual, 10.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kGreaterEqual, 2.0);
  m.add_constraint({{z, 1.0}}, Relation::kLessEqual, 7.0);
  expect_engines_agree(m);
}

TEST(SparseCrossCheck, RandomTransports) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    expect_engines_agree(make_transport_lp(4 + seed % 5, 3 + seed % 4, seed));
  }
}

TEST(SparseCrossCheck, ChainLpsAcrossSizes) {
  for (const std::size_t sources : {2u, 5u, 10u, 25u}) {
    SCOPED_TRACE(sources);
    expect_engines_agree(make_chain_lp(sources, 5, 5, sources));
  }
}

TEST(SparseCrossCheck, InfeasibleAgrees) {
  LpModel m;
  const VarId x = m.add_variable("x", 1.0);
  m.add_constraint({{x, 1.0}}, Relation::kLessEqual, 2.0);
  m.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 3.0);
  expect_engines_agree(m);
  EXPECT_EQ(solve_with(m, SimplexEngine::kSparse).status, SolveStatus::kInfeasible);
}

TEST(SparseCrossCheck, UnboundedAgrees) {
  LpModel m;
  const VarId x = m.add_variable("x", -1.0);
  const VarId y = m.add_variable("y", 0.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 1.0);
  expect_engines_agree(m);
  EXPECT_EQ(solve_with(m, SimplexEngine::kSparse).status, SolveStatus::kUnbounded);
}

/// The LB formulations the controller actually emits: Eq.(1)/Eq.(2) with
/// and without source aggregation, solved by both engines on a real campus
/// world — λ must match to 1e-6.
TEST(SparseCrossCheck, ControllerFormulations) {
  for (const bool use_eq1 : {false, true}) {
    for (const bool aggregate : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "eq1=" << use_eq1 << " agg=" << aggregate);
      sdmbox::testing::ScenarioParams sp;
      sp.seed = 7;
      sp.target_packets = 50000;
      sp.controller.use_eq1 = use_eq1;
      sp.controller.lp.aggregate_sources = aggregate;
      sp.controller.lp.simplex.engine = SimplexEngine::kDense;
      auto dense_s = sdmbox::testing::make_scenario(sp);
      const auto dense = dense_s.controller->solve_load_balancing(dense_s.traffic);

      sp.controller.lp.simplex.engine = SimplexEngine::kSparse;
      auto sparse_s = sdmbox::testing::make_scenario(sp);
      const auto sparse = sparse_s.controller->solve_load_balancing(sparse_s.traffic);

      ASSERT_EQ(dense.status, SolveStatus::kOptimal);
      ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
      EXPECT_NEAR(dense.lambda, sparse.lambda, 1e-6);
    }
  }
}

// ---------------------------------------------------------------------------
// Sparse-only surface: bounds, free variables, degenerate models
// ---------------------------------------------------------------------------

TEST(SparseBounds, VariableBoundsAreHonored) {
  LpModel m;
  const VarId x = m.add_variable("x", 1.0);
  const VarId y = m.add_variable("y", -1.0);
  m.set_bounds(x, 2.0, 5.0);
  m.set_bounds(y, 0.0, 3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 100.0);
  const Solution s = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), 2.0, 1e-9);  // min x sits on its lower bound
  EXPECT_NEAR(s.value(y), 3.0, 1e-9);  // max y flips to its upper bound
  EXPECT_NEAR(s.objective, -1.0, 1e-9);
  EXPECT_EQ(check_feasible(m, s.values), "");
}

TEST(SparseBounds, FixedVariable) {
  LpModel m;
  const VarId x = m.add_variable("x", -2.0);
  const VarId y = m.add_variable("y", 1.0);
  m.set_bounds(x, 4.0, 4.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 6.0);
  const Solution s = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), 4.0, 1e-9);
  EXPECT_NEAR(s.value(y), 2.0, 1e-9);
}

TEST(SparseBounds, FreeVariableGoesNegative) {
  // x free; the optimum needs x = -5, unreachable with default bounds.
  LpModel m;
  const VarId x = m.add_variable("x", 1.0);
  m.set_bounds(x, -kInf, kInf);
  m.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, -5.0);
  const Solution s = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(x), -5.0, 1e-9);
  EXPECT_NEAR(s.objective, -5.0, 1e-9);
}

TEST(SparseBounds, FreeVariableUnbounded) {
  LpModel m;
  const VarId x = m.add_variable("x", 1.0);
  const VarId y = m.add_variable("y", 0.0);
  m.set_bounds(x, -kInf, kInf);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 10.0);
  EXPECT_EQ(solve_with(m, SimplexEngine::kSparse).status, SolveStatus::kUnbounded);
}

TEST(SparseBounds, EmptyColumnRestsOnBound) {
  // z appears in no constraint: it must land on whichever bound minimizes
  // the objective, and an empty column with a favorable direction and no
  // finite bound is unbounded.
  LpModel m;
  const VarId x = m.add_variable("x", 1.0);
  const VarId z = m.add_variable("z", -1.0);
  m.set_bounds(z, 0.0, 3.0);
  m.add_constraint({{x, 1.0}}, Relation::kGreaterEqual, 1.0);
  const Solution s = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.value(z), 3.0, 1e-9);
  EXPECT_NEAR(s.objective, 1.0 - 3.0, 1e-9);

  LpModel u;
  const VarId a = u.add_variable("a", 1.0);
  u.add_variable("b", -1.0);  // empty column, c < 0, upper bound +inf
  u.add_constraint({{a, 1.0}}, Relation::kLessEqual, 1.0);
  EXPECT_EQ(solve_with(u, SimplexEngine::kSparse).status, SolveStatus::kUnbounded);
}

TEST(SparseDegenerate, BealeCyclingTerminates) {
  // Beale's classic cycling example; Dantzig pricing cycles without an
  // anti-cycling rule. Force Bland's rule on the very first degenerate
  // pivot and require the true optimum (-0.05).
  LpModel m;
  const VarId x1 = m.add_variable("x1", -0.75);
  const VarId x2 = m.add_variable("x2", 150.0);
  const VarId x3 = m.add_variable("x3", -0.02);
  const VarId x4 = m.add_variable("x4", 6.0);
  m.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -1.0 / 25.0}, {x4, 9.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -1.0 / 50.0}, {x4, 3.0}},
                   Relation::kLessEqual, 0.0);
  m.add_constraint({{x3, 1.0}}, Relation::kLessEqual, 1.0);
  for (const std::size_t degenerate_switch : {std::size_t{1}, std::size_t{64}}) {
    SimplexOptions opt;
    opt.engine = SimplexEngine::kSparse;
    opt.degenerate_switch = degenerate_switch;
    const Solution s = solve(m, opt);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, -0.05, 1e-9);
    EXPECT_EQ(check_feasible(m, s.values), "");
  }
}

TEST(SparseDegenerate, TinyRefactorIntervalStillSolves) {
  // refactor_interval=1 forces an LU refactorization after every pivot —
  // the eta-file fast path and the refactorized path must agree.
  const LpModel m = make_chain_lp(10, 5, 5, 42);
  SimplexOptions opt;
  opt.engine = SimplexEngine::kSparse;
  opt.refactor_interval = 1;
  const Solution tight = solve(m, opt);
  const Solution loose = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(tight.status, SolveStatus::kOptimal);
  EXPECT_NEAR(tight.objective, loose.objective, 1e-9);
}

// ---------------------------------------------------------------------------
// Basis export and warm starts
// ---------------------------------------------------------------------------

TEST(SparseWarmStart, BasisRoundTripSkipsPivots) {
  const LpModel m = make_chain_lp(20, 6, 6, 9);
  const Solution cold = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());
  EXPECT_FALSE(cold.warm_started);
  EXPECT_EQ(cold.basis.structural.size(), m.variable_count());
  EXPECT_EQ(cold.basis.logical.size(), m.constraint_count());

  SimplexOptions opt;
  opt.engine = SimplexEngine::kSparse;
  opt.warm_start = &cold.basis;
  const Solution warm = solve(m, opt);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_EQ(warm.pivots, 0u);  // restarting at the optimum re-solves for free
  EXPECT_EQ(check_feasible(m, warm.values), "");
}

TEST(SparseWarmStart, ShapeMismatchFallsBackToCold) {
  const Solution donor = solve_with(make_chain_lp(5, 4, 4, 3), SimplexEngine::kSparse);
  ASSERT_EQ(donor.status, SolveStatus::kOptimal);
  const LpModel other = make_chain_lp(12, 4, 4, 3);
  SimplexOptions opt;
  opt.engine = SimplexEngine::kSparse;
  opt.warm_start = &donor.basis;
  const Solution s = solve(other, opt);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(s.warm_started);
  EXPECT_NEAR(s.objective, solve_with(other, SimplexEngine::kSparse).objective, 1e-9);
}

TEST(SparseWarmStart, PerturbedRhsReusesBasis) {
  // Re-solving after a small demand drift is the reoptimization scenario:
  // the old optimal basis stays primal-feasible or nearly so, and the warm
  // solve must not do more work than the cold one.
  LpModel m;
  const VarId x = m.add_variable("x", 1.0);
  const VarId y = m.add_variable("y", 2.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kGreaterEqual, 10.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Relation::kLessEqual, 4.0);
  const Solution cold = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  LpModel m2;
  const VarId x2 = m2.add_variable("x", 1.0);
  const VarId y2 = m2.add_variable("y", 2.0);
  m2.add_constraint({{x2, 1.0}, {y2, 1.0}}, Relation::kGreaterEqual, 11.0);
  m2.add_constraint({{x2, 1.0}, {y2, -1.0}}, Relation::kLessEqual, 4.0);
  SimplexOptions opt;
  opt.engine = SimplexEngine::kSparse;
  opt.warm_start = &cold.basis;
  const Solution warm = solve(m2, opt);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  const Solution cold2 = solve_with(m2, SimplexEngine::kSparse);
  EXPECT_NEAR(warm.objective, cold2.objective, 1e-9);
  EXPECT_LE(warm.pivots, cold2.pivots);
}

TEST(SparseWarmStart, ControllerReusesLastBasis) {
  sdmbox::testing::ScenarioParams sp;
  sp.seed = 11;
  sp.target_packets = 50000;
  sp.controller.warm_start_lb = true;
  auto s = sdmbox::testing::make_scenario(sp);
  const auto first = s.controller->solve_load_balancing(s.traffic);
  ASSERT_EQ(first.status, SolveStatus::kOptimal);
  EXPECT_FALSE(first.warm_started);  // nothing cached yet
  const auto second = s.controller->solve_load_balancing(s.traffic);
  ASSERT_EQ(second.status, SolveStatus::kOptimal);
  EXPECT_TRUE(second.warm_started);
  EXPECT_NEAR(first.lambda, second.lambda, 1e-9);
  EXPECT_LE(second.pivots, first.pivots);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(SparseDeterminism, SameModelSamePivotSequence) {
  const LpModel m = make_chain_lp(15, 6, 6, 4);
  const Solution a = solve_with(m, SimplexEngine::kSparse);
  const Solution b = solve_with(m, SimplexEngine::kSparse);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.pivots, b.pivots);
  EXPECT_EQ(a.values, b.values);  // byte-identical, not just within tolerance
  EXPECT_EQ(a.objective, b.objective);
}

}  // namespace
}  // namespace sdmbox::lp
