#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sdmbox::lp {

const char* to_string(SolveStatus s) noexcept {
  switch (s) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "?";
}

namespace {

/// Dense tableau with an explicit basis. Column layout:
///   [0, n)            structural variables
///   [n, n + s)        slack / surplus variables
///   [n + s, n + s + a) artificial variables
/// plus the rhs held separately. The objective row holds reduced costs.
class Tableau {
public:
  explicit Tableau(const LpModel& model) : n_(model.variable_count()) {
    const auto& constraints = model.constraints();
    m_ = constraints.size();

    // Count slack and artificial columns.
    std::size_t slacks = 0, artificials = 0;
    for (const Constraint& c : constraints) {
      const bool flip = c.rhs < 0;  // normalize to rhs >= 0
      Relation rel = c.relation;
      if (flip && rel != Relation::kEqual) {
        rel = rel == Relation::kLessEqual ? Relation::kGreaterEqual : Relation::kLessEqual;
      }
      if (rel != Relation::kEqual) ++slacks;
      if (rel != Relation::kLessEqual) ++artificials;
    }
    s_ = slacks;
    a_ = artificials;
    cols_ = n_ + s_ + a_;
    rows_.assign(m_, std::vector<double>(cols_, 0.0));
    rhs_.assign(m_, 0.0);
    basis_.assign(m_, 0);
    art_start_ = n_ + s_;

    std::size_t slack_at = n_, art_at = n_ + s_;
    for (std::size_t r = 0; r < m_; ++r) {
      const Constraint& c = constraints[r];
      const double sign = c.rhs < 0 ? -1.0 : 1.0;
      Relation rel = c.relation;
      if (sign < 0 && rel != Relation::kEqual) {
        rel = rel == Relation::kLessEqual ? Relation::kGreaterEqual : Relation::kLessEqual;
      }
      for (const Term& t : c.terms) rows_[r][t.var.v] = sign * t.coeff;
      rhs_[r] = sign * c.rhs;
      if (rel == Relation::kLessEqual) {
        rows_[r][slack_at] = 1.0;
        basis_[r] = slack_at++;
      } else if (rel == Relation::kGreaterEqual) {
        rows_[r][slack_at] = -1.0;
        ++slack_at;
        rows_[r][art_at] = 1.0;
        basis_[r] = art_at++;
      } else {
        rows_[r][art_at] = 1.0;
        basis_[r] = art_at++;
      }
    }
  }

  /// Phase 1: minimize the sum of artificial variables.
  SolveStatus phase1(const SimplexOptions& opt, std::size_t& pivots) {
    if (a_ == 0) return SolveStatus::kOptimal;
    obj_.assign(cols_, 0.0);
    obj_value_ = 0.0;
    for (std::size_t j = art_start_; j < cols_; ++j) obj_[j] = 1.0;
    // Make reduced costs of the basic artificials zero.
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] >= art_start_) {
        for (std::size_t j = 0; j < cols_; ++j) obj_[j] -= rows_[r][j];
        obj_value_ -= rhs_[r];
      }
    }
    const SolveStatus st = iterate(opt, pivots, /*forbid_artificials=*/false);
    if (st != SolveStatus::kOptimal) return st;
    if (-obj_value_ > 1e-7) return SolveStatus::kInfeasible;  // residual artificial mass

    // Drive any remaining basic artificials out (degenerate rows).
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < art_start_) continue;
      std::size_t enter = cols_;
      for (std::size_t j = 0; j < art_start_; ++j) {
        if (std::abs(rows_[r][j]) > kTolerance) {
          enter = j;
          break;
        }
      }
      if (enter < cols_) {
        pivot(r, enter);
        ++pivots;
      }
      // else: the row is all-zero over structural+slack columns — redundant
      // constraint; the artificial stays basic at value 0, which is harmless
      // as long as phase 2 never lets it re-enter (we forbid those columns).
    }
    return SolveStatus::kOptimal;
  }

  /// Phase 2: minimize the real objective.
  SolveStatus phase2(const LpModel& model, const SimplexOptions& opt, std::size_t& pivots) {
    obj_.assign(cols_, 0.0);
    obj_value_ = 0.0;
    for (std::size_t j = 0; j < n_; ++j) obj_[j] = model.objective()[j];
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t b = basis_[r];
      const double cb = b < n_ ? model.objective()[b] : 0.0;
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j < cols_; ++j) obj_[j] -= cb * rows_[r][j];
      obj_value_ -= cb * rhs_[r];
    }
    return iterate(opt, pivots, /*forbid_artificials=*/true);
  }

  double objective_value() const noexcept { return -obj_value_; }

  std::vector<double> extract(std::size_t var_count) const {
    std::vector<double> x(var_count, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < var_count) x[basis_[r]] = rhs_[r];
    }
    return x;
  }

private:
  SolveStatus iterate(const SimplexOptions& opt, std::size_t& pivots, bool forbid_artificials) {
    const std::size_t limit = pivot_limit(m_, cols_);
    const std::size_t scan_end = forbid_artificials ? art_start_ : cols_;
    std::size_t degenerate_run = 0;
    for (std::size_t iter = 0; iter < limit; ++iter) {
      const bool bland = degenerate_run >= opt.degenerate_switch;
      // Pricing: entering column with negative reduced cost.
      std::size_t enter = cols_;
      double best = -kTolerance;
      for (std::size_t j = 0; j < scan_end; ++j) {
        const double rc = obj_[j];
        if (bland) {
          if (rc < -kTolerance) {
            enter = j;
            break;
          }
        } else if (rc < best) {
          best = rc;
          enter = j;
        }
      }
      if (enter == cols_) return SolveStatus::kOptimal;

      // Ratio test: leaving row minimizing rhs/col over positive entries;
      // ties broken by smallest basis index (lexicographic-ish, helps
      // degeneracy and determinism).
      std::size_t leave = m_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m_; ++r) {
        const double a = rows_[r][enter];
        if (a > kTolerance) {
          const double ratio = rhs_[r] / a;
          if (ratio < best_ratio - kTolerance ||
              (ratio < best_ratio + kTolerance && leave < m_ && basis_[r] < basis_[leave])) {
            best_ratio = ratio;
            leave = r;
          }
        }
      }
      if (leave == m_) return SolveStatus::kUnbounded;
      degenerate_run = best_ratio <= kTolerance ? degenerate_run + 1 : 0;
      pivot(leave, enter);
      ++pivots;
    }
    return SolveStatus::kIterationLimit;
  }

  void pivot(std::size_t prow, std::size_t pcol) {
    std::vector<double>& pr = rows_[prow];
    const double pv = pr[pcol];
    SDM_CHECK_MSG(std::abs(pv) > 1e-12, "pivot on (near-)zero element");
    const double inv = 1.0 / pv;
    for (double& v : pr) v *= inv;
    rhs_[prow] *= inv;
    pr[pcol] = 1.0;  // kill roundoff on the pivot element itself
    for (std::size_t r = 0; r < m_; ++r) {
      if (r == prow) continue;
      const double f = rows_[r][pcol];
      if (f == 0.0) continue;
      std::vector<double>& row = rows_[r];
      for (std::size_t j = 0; j < cols_; ++j) row[j] -= f * pr[j];
      row[pcol] = 0.0;
      rhs_[r] -= f * rhs_[prow];
      if (rhs_[r] < 0 && rhs_[r] > -1e-11) rhs_[r] = 0.0;  // clamp roundoff
    }
    const double fo = obj_[pcol];
    if (fo != 0.0) {
      for (std::size_t j = 0; j < cols_; ++j) obj_[j] -= fo * pr[j];
      obj_[pcol] = 0.0;
      obj_value_ -= fo * rhs_[prow];
    }
    basis_[prow] = pcol;
  }

  std::size_t n_ = 0, m_ = 0, s_ = 0, a_ = 0, cols_ = 0, art_start_ = 0;
  std::vector<std::vector<double>> rows_;
  std::vector<double> rhs_;
  std::vector<double> obj_;
  double obj_value_ = 0.0;  // negative of current objective
  std::vector<std::size_t> basis_;
};

}  // namespace

Solution solve(const LpModel& model, const SimplexOptions& options) {
  Solution sol;
  if (model.variable_count() == 0) {
    // Vacuous model: feasible iff every constraint holds with x = {}.
    sol.status = SolveStatus::kOptimal;
    for (const Constraint& c : model.constraints()) {
      const bool ok = c.relation == Relation::kLessEqual  ? 0.0 <= c.rhs + kTolerance
                      : c.relation == Relation::kEqual    ? std::abs(c.rhs) <= kTolerance
                                                          : 0.0 >= c.rhs - kTolerance;
      if (!ok) sol.status = SolveStatus::kInfeasible;
    }
    return sol;
  }
  if (options.engine == SimplexEngine::kSparse) return solve_sparse(model, options);

  SDM_CHECK_MSG(model.has_default_bounds(),
                "dense oracle engine only supports default [0, +inf) bounds");
  Tableau tableau(model);
  SolveStatus st = tableau.phase1(options, sol.pivots);
  if (st != SolveStatus::kOptimal) {
    sol.status = st;
    return sol;
  }
  st = tableau.phase2(model, options, sol.pivots);
  sol.status = st;
  if (st == SolveStatus::kOptimal) {
    sol.values = tableau.extract(model.variable_count());
    sol.objective = tableau.objective_value();
  }
  return sol;
}

std::string check_feasible(const LpModel& model, const std::vector<double>& values,
                           double tolerance) {
  if (values.size() != model.variable_count()) return "value vector size mismatch";
  for (std::size_t j = 0; j < values.size(); ++j) {
    const VarId v{static_cast<std::uint32_t>(j)};
    if (values[j] < model.lower_bound(v) - tolerance) {
      return "variable " + model.variable_name(v) +
             " below lower bound: " + std::to_string(values[j]);
    }
    if (values[j] > model.upper_bound(v) + tolerance) {
      return "variable " + model.variable_name(v) +
             " above upper bound: " + std::to_string(values[j]);
    }
  }
  for (const Constraint& c : model.constraints()) {
    double lhs = 0;
    for (const Term& t : c.terms) lhs += t.coeff * values[t.var.v];
    const double slack = lhs - c.rhs;
    const bool ok = c.relation == Relation::kLessEqual  ? slack <= tolerance
                    : c.relation == Relation::kEqual    ? std::abs(slack) <= tolerance
                                                        : slack >= -tolerance;
    if (!ok) {
      return "constraint " + (c.name.empty() ? std::string("<unnamed>") : c.name) + " violated: " +
             std::to_string(lhs) + " " + to_string(c.relation) + " " + std::to_string(c.rhs);
    }
  }
  return {};
}

}  // namespace sdmbox::lp
