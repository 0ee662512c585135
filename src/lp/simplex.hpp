// Simplex solvers for the controller's load-balancing LPs.
//
// Two engines, selected by SimplexOptions::engine:
//  * kSparse (default) — revised simplex on a CSC-stored constraint matrix.
//    The basis is held as an LU factorization plus a product-form eta file,
//    refactorized periodically; FTRAN/BTRAN are sparse triangular solves.
//    Simple bounds are handled implicitly (bounded-variable ratio test with
//    bound flips), so Eq. (2)'s capacity rows need no explicit slack
//    columns. Scales to the ISP-sized worlds built by examples/waxman_scale.
//  * kDense — the original two-phase tableau, kept as a cross-check oracle
//    for small models (O(rows x cols) per pivot; default bounds only).
// Both engines use Dantzig pricing with an automatic switch to Bland's rule
// after a run of degenerate pivots, which guarantees termination, and both
// are deterministic: the same model and options always produce the same
// pivot sequence, so downstream exports are byte-identical across reruns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace sdmbox::lp {

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* to_string(SolveStatus s) noexcept;

enum class SimplexEngine : std::uint8_t {
  kSparse,  // revised simplex, LU + eta file (default)
  kDense,   // dense tableau oracle
};

const char* to_string(SimplexEngine e) noexcept;

/// Where a variable sits in an optimal basis. Nonbasic variables rest on a
/// bound (or at zero for free variables); basic variables carry the solve.
enum class VarStatus : std::uint8_t { kAtLower, kAtUpper, kNonbasicFree, kBasic };

/// Optimal basis exported by the sparse engine: one status per structural
/// variable and one per constraint row's implicit logical variable. Feed it
/// back through SimplexOptions::warm_start to re-solve a same-shaped model
/// from the previous optimum (the incremental-reoptimization hook).
struct Basis {
  std::vector<VarStatus> structural;
  std::vector<VarStatus> logical;
  bool empty() const noexcept { return structural.empty() && logical.empty(); }
};

/// Reduced-cost tolerance of both engines (the dense tableau also uses it
/// for its pivot and degeneracy tests).
inline constexpr double kTolerance = 1e-9;

/// Max pivots per phase for a model of `rows` rows and `cols` columns
/// (structural, slack or logical, and artificial).
constexpr std::size_t pivot_limit(std::size_t rows, std::size_t cols) noexcept {
  return 50 * (rows + cols) + 10000;
}

struct SimplexOptions {
  /// Consecutive degenerate pivots before switching to Bland's rule.
  std::size_t degenerate_switch = 64;
  SimplexEngine engine = SimplexEngine::kSparse;
  /// Sparse engine: basis updates between LU refactorizations (eta-file
  /// length). Smaller = more stable, larger = faster per pivot.
  std::size_t refactor_interval = 64;
  /// Sparse engine: start from this basis instead of the all-logical one.
  /// Ignored (cold start) when the shape mismatches, the basis is singular,
  /// or its vertex is primal-infeasible for the new model. Not owned; must
  /// outlive the solve() call.
  const Basis* warm_start = nullptr;
};

struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0;
  std::vector<double> values;  // indexed by VarId.v
  std::size_t pivots = 0;
  /// Optimal basis (sparse engine only; empty from the dense oracle).
  Basis basis;
  /// True when the sparse engine accepted options.warm_start.
  bool warm_started = false;

  double value(VarId v) const {
    SDM_CHECK(v.v < values.size());
    return values[v.v];
  }
  bool optimal() const noexcept { return status == SolveStatus::kOptimal; }
};

/// Minimize the model's objective subject to its constraints and bounds.
Solution solve(const LpModel& model, const SimplexOptions& options = {});

/// Sparse revised simplex entry point (called through solve()).
Solution solve_sparse(const LpModel& model, const SimplexOptions& options);

/// Verify a candidate solution against the model within `tolerance`
/// (bounds + every constraint). Used by tests and as a postcondition
/// in the controller. Returns a human-readable violation, or empty if valid.
std::string check_feasible(const LpModel& model, const std::vector<double>& values,
                           double tolerance = 1e-6);

}  // namespace sdmbox::lp
