// Sparse revised simplex with bounded variables.
//
// The constraint matrix is stored once in CSC form; every row is treated as
// an equality by giving it an implicit unit logical column whose bounds
// encode the relation (<=: [0,inf), >=: (-inf,0], =: [0,0]), so capacity
// rows need no explicit slack columns. Rows whose logical start value
// violates those bounds get an implicit signed artificial column; phase 1
// minimizes the artificial sum, after which artificials are fixed to [0,0]
// and the bounded ratio test keeps them out. The basis inverse is an LU
// factorization (GPLU-style left-looking with partial pivoting, columns
// eliminated in fill-reducing nnz order) composed with a product-form eta
// file; the file is folded back into a fresh LU every refactor_interval
// updates or when a pivot element looks unstable. Everything — pricing
// sections, tie-breaks, pivot order — is index-deterministic: the same
// model and options give the same pivot sequence, bit for bit.
//
// Warm starts (SimplexOptions::warm_start) reuse a previous optimal basis
// of a same-shaped model. A changed RHS usually leaves a few basics outside
// their bounds; a dedicated repair phase (bound-shifted phase 1, see
// repair_warm_basis) drives them back before the regular phase 2 runs, and
// falls back to a cold start when the basis is genuinely unusable.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "lp/simplex.hpp"

namespace sdmbox::lp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPivotTol = 1e-9;      // ratio-test pivot threshold
constexpr double kEtaPivotTol = 1e-7;   // eta pivot below this forces a refactor
constexpr double kSingularTol = 1e-11;  // LU pivot below this means singular
constexpr double kFeasTol = 1e-7;       // primal feasibility slack (phase 1, warm start)

/// One product-form update: B_new = B_old * E where column `pivot` of E is
/// the FTRAN'd entering column (pivot element stored separately).
struct Eta {
  std::int32_t pivot = 0;
  double pivot_val = 1.0;
  std::vector<std::pair<std::int32_t, double>> off;  // (basis position, value), pivot excluded
};

/// LU factors of the basis. L is unit lower triangular in elimination
/// order, stored as per-step columns of row-space entries; U is stored as
/// per-step columns of step-space entries plus the diagonal. prow maps
/// elimination step -> pivot row, cq maps step -> basis position.
class LuFactors {
public:
  /// Factor the m columns produced by get_col(position, out). `order` is
  /// the elimination order over basis positions. Returns false if singular.
  template <typename GetCol>
  bool factorize(std::size_t m, GetCol&& get_col,
                 const std::vector<std::int32_t>& order) {
    m_ = m;
    prow_.assign(m, -1);
    cq_.assign(m, -1);
    step_of_row_.assign(m, -1);
    lcols_.assign(m, {});
    ucols_.assign(m, {});
    udiag_.assign(m, 0.0);
    work_.assign(m, 0.0);
    mark_.assign(m, 0);
    stamp_ = 0;

    std::vector<std::pair<std::int32_t, double>> col;
    std::vector<std::int32_t> touched;
    // Min-heap of elimination steps still to apply to the current column.
    // Updates from step s only ever touch rows pivoted after s, so a plain
    // ordered drain is a correct (and simple) sparse triangular solve.
    std::priority_queue<std::int32_t, std::vector<std::int32_t>, std::greater<>> heap;

    for (std::size_t t = 0; t < m; ++t) {
      ++stamp_;
      touched.clear();
      col.clear();
      get_col(order[t], col);
      for (const auto& [r, v] : col) {
        work_[r] = v;
        mark_[r] = stamp_;
        touched.push_back(r);
        if (step_of_row_[r] >= 0) heap.push(step_of_row_[r]);
      }
      while (!heap.empty()) {
        const std::int32_t s = heap.top();
        heap.pop();
        const double val = work_[prow_[s]];
        if (val == 0.0) continue;
        for (const auto& [i, l] : lcols_[s]) {
          if (mark_[i] != stamp_) {
            mark_[i] = stamp_;
            work_[i] = 0.0;
            touched.push_back(i);
            if (step_of_row_[i] >= 0) heap.push(step_of_row_[i]);
          }
          work_[i] -= l * val;
        }
      }
      // Pivot: largest magnitude among not-yet-pivoted rows, smallest row
      // index on ties (determinism).
      std::int32_t rpiv = -1;
      double best = kSingularTol;
      std::sort(touched.begin(), touched.end());
      for (const std::int32_t r : touched) {
        if (step_of_row_[r] >= 0) continue;
        const double a = std::abs(work_[r]);
        if (a > best) {
          best = a;
          rpiv = r;
        }
      }
      if (rpiv < 0) {
        for (const std::int32_t r : touched) work_[r] = 0.0;
        return false;
      }
      const double pv = work_[rpiv];
      auto& ucol = ucols_[t];
      auto& lcol = lcols_[t];
      for (const std::int32_t r : touched) {
        const double v = work_[r];
        work_[r] = 0.0;
        if (v == 0.0 || r == rpiv) continue;
        if (step_of_row_[r] >= 0) {
          ucol.emplace_back(step_of_row_[r], v);
        } else {
          lcol.emplace_back(r, v / pv);
        }
      }
      udiag_[t] = pv;
      prow_[t] = rpiv;
      step_of_row_[rpiv] = static_cast<std::int32_t>(t);
      cq_[t] = order[t];
    }
    return true;
  }

  /// w = B^-1 a. `a` is a sparse row-space column; `w` comes back dense in
  /// basis-position space.
  void ftran(const std::vector<std::pair<std::int32_t, double>>& a,
             std::vector<double>& w) const {
    work_.assign(m_, 0.0);
    for (const auto& [r, v] : a) work_[r] += v;
    for (std::size_t t = 0; t < m_; ++t) {
      const double val = work_[prow_[t]];
      if (val == 0.0) continue;
      for (const auto& [i, l] : lcols_[t]) work_[i] -= l * val;
    }
    w.assign(m_, 0.0);
    for (std::size_t tt = m_; tt-- > 0;) {
      const double z = work_[prow_[tt]] / udiag_[tt];
      if (z != 0.0) {
        for (const auto& [s, u] : ucols_[tt]) work_[prow_[s]] -= u * z;
      }
      w[cq_[tt]] = z;
    }
  }

  /// y = B^-T c. `c` is dense in basis-position space; `y` comes back dense
  /// in row space.
  void btran(const std::vector<double>& c, std::vector<double>& y) const {
    g_.assign(m_, 0.0);
    for (std::size_t t = 0; t < m_; ++t) {
      double acc = c[cq_[t]];
      for (const auto& [s, u] : ucols_[t]) acc -= u * g_[s];
      g_[t] = acc / udiag_[t];
    }
    y.assign(m_, 0.0);
    for (std::size_t tt = m_; tt-- > 0;) {
      double acc = g_[tt];
      for (const auto& [i, l] : lcols_[tt]) acc -= l * y[i];
      y[prow_[tt]] = acc;
    }
  }

private:
  std::size_t m_ = 0;
  std::vector<std::int32_t> prow_;         // step -> pivot row
  std::vector<std::int32_t> cq_;           // step -> basis position
  std::vector<std::int32_t> step_of_row_;  // row -> step (-1 during factorization)
  std::vector<std::vector<std::pair<std::int32_t, double>>> lcols_;
  std::vector<std::vector<std::pair<std::int32_t, double>>> ucols_;
  std::vector<double> udiag_;
  mutable std::vector<double> work_;
  mutable std::vector<double> g_;
  std::vector<std::int32_t> mark_;
  std::int32_t stamp_ = 0;
};

class SparseSimplex {
public:
  SparseSimplex(const LpModel& model, const SimplexOptions& opt) : model_(model), opt_(opt) {
    n_ = model.variable_count();
    m_ = model.constraint_count();
    build_matrix();
  }

  Solution run() {
    Solution sol;
    bool warm = try_warm_start();
    if (warm && !repair_.empty() && !repair_warm_basis(sol.pivots)) {
      warm = false;  // repair stalled: rebuild from scratch, honestly cold
    }
    sol.warm_started = warm;
    if (!warm) init_cold();

    const std::size_t limit = pivot_limit(m_, ntot_);

    if (!warm && art_count_ > 0) {
      // Phase 1: minimize the artificial sum.
      cost_.assign(ntot_, 0.0);
      for (std::size_t j = n_ + m_; j < ntot_; ++j) cost_[j] = 1.0;
      const SolveStatus st = iterate(limit, sol.pivots, /*phase1=*/true);
      if (st != SolveStatus::kOptimal) {
        sol.status = st == SolveStatus::kUnbounded ? SolveStatus::kInfeasible : st;
        return sol;
      }
      double art_mass = 0.0;
      for (std::size_t pos = 0; pos < m_; ++pos) {
        if (static_cast<std::size_t>(basis_[pos]) >= n_ + m_) art_mass += std::abs(xb_[pos]);
      }
      if (art_mass > kFeasTol) {
        sol.status = SolveStatus::kInfeasible;
        sol.pivots = total_pivots_;
        return sol;
      }
      // Fix artificials at zero; any still basic sit at value 0 and the
      // bounded ratio test expels them on first contact — no drive-out pass.
      for (std::size_t j = n_ + m_; j < ntot_; ++j) lo_[j] = hi_[j] = 0.0;
      for (std::size_t pos = 0; pos < m_; ++pos) {
        if (static_cast<std::size_t>(basis_[pos]) >= n_ + m_) xb_[pos] = 0.0;
      }
    }

    // Phase 2: the real objective (artificials cost 0 and are fixed).
    cost_.assign(ntot_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) cost_[j] = model_.objective()[j];
    sol.status = iterate(limit, sol.pivots, /*phase1=*/false);
    if (sol.status != SolveStatus::kOptimal) return sol;

    // One last refactorization tightens xB before extraction: the eta file
    // accumulates roundoff that a fresh LU solve removes.
    if (!etas_.empty()) {
      if (!refactorize()) {
        sol.status = SolveStatus::kIterationLimit;
        return sol;
      }
      compute_xb();
    }
    extract(sol);
    return sol;
  }

private:
  void build_matrix() {
    const auto& constraints = model_.constraints();
    col_start_.assign(n_ + 1, 0);
    for (const Constraint& c : constraints) {
      for (const Term& t : c.terms) ++col_start_[t.var.v + 1];
    }
    for (std::size_t j = 0; j < n_; ++j) col_start_[j + 1] += col_start_[j];
    row_idx_.resize(col_start_[n_]);
    a_val_.resize(col_start_[n_]);
    std::vector<std::int32_t> fill(col_start_.begin(), col_start_.end() - 1);
    b_.assign(m_, 0.0);
    log_lo_.assign(m_, 0.0);
    log_hi_.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const Constraint& c = constraints[i];
      for (const Term& t : c.terms) {
        const std::int32_t at = fill[t.var.v]++;
        row_idx_[at] = static_cast<std::int32_t>(i);
        a_val_[at] = t.coeff;
      }
      b_[i] = c.rhs;
      switch (c.relation) {
        case Relation::kLessEqual: log_lo_[i] = 0.0, log_hi_[i] = kInf; break;
        case Relation::kGreaterEqual: log_lo_[i] = -kInf, log_hi_[i] = 0.0; break;
        case Relation::kEqual: log_lo_[i] = 0.0, log_hi_[i] = 0.0; break;
      }
    }
  }

  /// Bounds/columns are addressed over one variable index space:
  /// [0, n) structural, [n, n+m) logical, [n+m, ntot) artificial.
  void gather_col(std::int32_t pos, std::vector<std::pair<std::int32_t, double>>& out) const {
    const std::size_t j = static_cast<std::size_t>(basis_[pos]);
    append_col(j, out);
  }

  void append_col(std::size_t j, std::vector<std::pair<std::int32_t, double>>& out) const {
    if (j < n_) {
      for (std::int32_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        out.emplace_back(row_idx_[k], a_val_[k]);
      }
    } else if (j < n_ + m_) {
      out.emplace_back(static_cast<std::int32_t>(j - n_), 1.0);
    } else {
      out.emplace_back(art_row_[j - n_ - m_], art_sign_[j - n_ - m_]);
    }
  }

  std::size_t col_nnz(std::size_t j) const {
    return j < n_ ? static_cast<std::size_t>(col_start_[j + 1] - col_start_[j]) : 1;
  }

  double nonbasic_value(std::size_t j) const {
    switch (vstat_[j]) {
      case VarStatus::kAtLower: return lo_[j];
      case VarStatus::kAtUpper: return hi_[j];
      case VarStatus::kNonbasicFree: return 0.0;
      case VarStatus::kBasic: break;
    }
    SDM_CHECK_MSG(false, "nonbasic_value on a basic variable");
    return 0.0;
  }

  void setup_bounds(std::size_t total) {
    lo_.assign(total, 0.0);
    hi_.assign(total, kInf);
    for (std::size_t j = 0; j < n_; ++j) {
      lo_[j] = model_.lower_bound(VarId{static_cast<std::uint32_t>(j)});
      hi_[j] = model_.upper_bound(VarId{static_cast<std::uint32_t>(j)});
    }
    for (std::size_t i = 0; i < m_; ++i) {
      lo_[n_ + i] = log_lo_[i];
      hi_[n_ + i] = log_hi_[i];
    }
  }

  VarStatus initial_status(std::size_t j) const {
    if (lo_[j] > -kInf) return VarStatus::kAtLower;
    if (hi_[j] < kInf) return VarStatus::kAtUpper;
    return VarStatus::kNonbasicFree;
  }

  void init_cold() {
    art_row_.clear();
    art_sign_.clear();
    setup_bounds(n_ + m_);
    vstat_.assign(n_ + m_, VarStatus::kAtLower);
    for (std::size_t j = 0; j < n_; ++j) vstat_[j] = initial_status(j);

    // Row residuals with every structural resting on its start bound decide
    // which rows need an artificial.
    std::vector<double> resid = b_;
    for (std::size_t j = 0; j < n_; ++j) {
      const double x = nonbasic_value(j);
      if (x == 0.0) continue;
      for (std::int32_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        resid[row_idx_[k]] -= a_val_[k] * x;
      }
    }
    basis_.assign(m_, 0);
    xb_.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double r = resid[i];
      if (r >= log_lo_[i] && r <= log_hi_[i]) {
        basis_[i] = static_cast<std::int32_t>(n_ + i);
        xb_[i] = r;
      } else {
        // Logical rests on its nearest bound; a signed artificial absorbs
        // the remaining (positive) residual.
        const double clamped = std::clamp(r, log_lo_[i], log_hi_[i]);
        vstat_[n_ + i] = clamped == log_lo_[i] ? VarStatus::kAtLower : VarStatus::kAtUpper;
        art_row_.push_back(static_cast<std::int32_t>(i));
        art_sign_.push_back(r - clamped > 0 ? 1.0 : -1.0);
        basis_[i] = static_cast<std::int32_t>(n_ + m_ + art_row_.size() - 1);
        xb_[i] = std::abs(r - clamped);
      }
    }
    art_count_ = art_row_.size();
    ntot_ = n_ + m_ + art_count_;
    setup_bounds(ntot_);
    vstat_.resize(ntot_, VarStatus::kAtLower);
    basic_pos_.assign(ntot_, -1);
    for (std::size_t pos = 0; pos < m_; ++pos) {
      basic_pos_[basis_[pos]] = static_cast<std::int32_t>(pos);
      vstat_[basis_[pos]] = VarStatus::kBasic;
    }
    etas_.clear();
    const bool ok = refactorize();
    SDM_CHECK_MSG(ok, "cold-start basis must factorize (it is diagonal)");
  }

  bool try_warm_start() {
    const Basis* ws = opt_.warm_start;
    if (ws == nullptr) return false;
    if (ws->structural.size() != n_ || ws->logical.size() != m_) return false;
    art_row_.clear();
    art_sign_.clear();
    art_count_ = 0;
    ntot_ = n_ + m_;
    setup_bounds(ntot_);
    vstat_.assign(ntot_, VarStatus::kAtLower);
    std::vector<std::int32_t> basics;
    for (std::size_t j = 0; j < ntot_; ++j) {
      const VarStatus st = j < n_ ? ws->structural[j] : ws->logical[j - n_];
      vstat_[j] = st;
      if (st == VarStatus::kBasic) {
        basics.push_back(static_cast<std::int32_t>(j));
      } else if (st == VarStatus::kAtLower && lo_[j] <= -kInf) {
        return false;  // shape drifted: a free variable pinned to -inf
      } else if (st == VarStatus::kAtUpper && hi_[j] >= kInf) {
        return false;
      }
    }
    if (basics.size() != m_) return false;
    basis_ = basics;  // ascending variable order = deterministic positions
    basic_pos_.assign(ntot_, -1);
    for (std::size_t pos = 0; pos < m_; ++pos) {
      basic_pos_[basis_[pos]] = static_cast<std::int32_t>(pos);
    }
    etas_.clear();
    if (!refactorize()) return false;
    compute_xb();
    // A changed RHS moves xB = B^-1(b - N x_N): some basics land outside
    // their bounds. That is the normal warm-start condition, not a reason
    // to reject — collect the violators for the repair phase.
    repair_.clear();
    for (std::size_t pos = 0; pos < m_; ++pos) {
      const std::size_t j = static_cast<std::size_t>(basis_[pos]);
      if (xb_[pos] < lo_[j] - kFeasTol || xb_[pos] > hi_[j] + kFeasTol) {
        repair_.push_back(j);
      } else {
        xb_[pos] = std::clamp(xb_[pos], lo_[j], hi_[j]);
      }
    }
    return true;
  }

  /// Feasibility repair for a warm basis whose xB drifted out of bounds.
  ///
  /// Each below-lower violator temporarily gets bounds (-inf, lo] and cost
  /// -1; each above-upper violator gets [hi, +inf) and cost +1 (everything
  /// else costs 0). The basis is feasible for these working bounds, so the
  /// ordinary bounded primal simplex applies; minimizing drives every
  /// violator toward its true bound and the ratio test parks it there. The
  /// objective is bounded below by -(sum of violated bounds), attained
  /// exactly when every violator reaches its bound, so at optimality either
  /// the repair succeeded or the basis is genuinely unusable and we return
  /// false to fall back to a cold start. Restoring bounds afterwards keeps
  /// every value identical (a violator parked nonbasic at a working bound
  /// sits on the matching true bound; only its status label flips).
  bool repair_warm_basis(std::size_t& pivots) {
    cost_.assign(ntot_, 0.0);
    std::vector<std::pair<double, double>> saved(repair_.size());
    std::vector<bool> below(repair_.size());
    for (std::size_t k = 0; k < repair_.size(); ++k) {
      const std::size_t j = repair_[k];
      saved[k] = {lo_[j], hi_[j]};
      below[k] = xb_[basic_pos_[j]] < lo_[j];
      if (below[k]) {
        hi_[j] = lo_[j];
        lo_[j] = -kInf;
        cost_[j] = -1.0;
      } else {
        lo_[j] = hi_[j];
        hi_[j] = kInf;
        cost_[j] = 1.0;
      }
    }
    const SolveStatus st = iterate(pivot_limit(m_, ntot_), pivots, /*phase1=*/true);

    bool ok = st == SolveStatus::kOptimal;
    for (std::size_t k = 0; k < repair_.size(); ++k) {
      const std::size_t j = repair_[k];
      lo_[j] = saved[k].first;
      hi_[j] = saved[k].second;
      if (vstat_[j] == VarStatus::kBasic) {
        const std::int32_t pos = basic_pos_[j];
        if (xb_[pos] < lo_[j] - kFeasTol || xb_[pos] > hi_[j] + kFeasTol) {
          ok = false;
        } else {
          xb_[pos] = std::clamp(xb_[pos], lo_[j], hi_[j]);
        }
      } else if (below[k]) {
        // Left the basis parked at the working upper bound == true lower.
        vstat_[j] = VarStatus::kAtLower;
      } else {
        vstat_[j] = VarStatus::kAtUpper;
      }
    }
    return ok;
  }

  bool refactorize() {
    std::vector<std::int32_t> order(m_);
    for (std::size_t pos = 0; pos < m_; ++pos) order[pos] = static_cast<std::int32_t>(pos);
    // Fill reduction: eliminate sparse columns first (simplex bases are
    // near-triangular; unit logical columns cost nothing).
    std::stable_sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
      return col_nnz(static_cast<std::size_t>(basis_[a])) <
             col_nnz(static_cast<std::size_t>(basis_[b]));
    });
    const bool ok = lu_.factorize(
        m_, [&](std::int32_t pos, auto& out) { gather_col(pos, out); }, order);
    if (ok) etas_.clear();
    return ok;
  }

  /// xB = B^-1 (b - N x_N): exact recomputation after each refactorization.
  void compute_xb() {
    std::vector<std::pair<std::int32_t, double>> rhs;
    std::vector<double> dense(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) dense[i] = b_[i];
    for (std::size_t j = 0; j < ntot_; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;
      const double x = nonbasic_value(j);
      if (x == 0.0) continue;
      scratch_col_.clear();
      append_col(j, scratch_col_);
      for (const auto& [r, v] : scratch_col_) dense[r] -= v * x;
    }
    rhs.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      if (dense[i] != 0.0) rhs.emplace_back(static_cast<std::int32_t>(i), dense[i]);
    }
    lu_.ftran(rhs, xb_);
  }

  void ftran_col(std::size_t j, std::vector<double>& w) {
    scratch_col_.clear();
    append_col(j, scratch_col_);
    lu_.ftran(scratch_col_, w);
    for (const Eta& e : etas_) {
      const double xp = w[e.pivot] / e.pivot_val;
      if (xp != 0.0) {
        for (const auto& [i, v] : e.off) w[i] -= v * xp;
      }
      w[e.pivot] = xp;
    }
  }

  void btran_costs(std::vector<double>& y) {
    cb_.assign(m_, 0.0);
    for (std::size_t pos = 0; pos < m_; ++pos) cb_[pos] = cost_[basis_[pos]];
    for (std::size_t e = etas_.size(); e-- > 0;) {
      const Eta& eta = etas_[e];
      double acc = cb_[eta.pivot];
      for (const auto& [i, v] : eta.off) acc -= v * cb_[i];
      cb_[eta.pivot] = acc / eta.pivot_val;
    }
    lu_.btran(cb_, y);
  }

  double reduced_cost(std::size_t j, const std::vector<double>& y) const {
    double d = cost_[j];
    if (j < n_) {
      for (std::int32_t k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        d -= a_val_[k] * y[row_idx_[k]];
      }
    } else if (j < n_ + m_) {
      d -= y[j - n_];
    } else {
      d -= art_sign_[j - n_ - m_] * y[art_row_[j - n_ - m_]];
    }
    return d;
  }

  /// +1: increase from lower / free descent; -1: decrease from upper.
  bool eligible(std::size_t j, double d, int& dir) const {
    if (vstat_[j] == VarStatus::kBasic) return false;
    if (lo_[j] == hi_[j]) return false;  // fixed: never price
    constexpr double tol = kTolerance;
    switch (vstat_[j]) {
      case VarStatus::kAtLower:
        if (d < -tol) return dir = 1, true;
        return false;
      case VarStatus::kAtUpper:
        if (d > tol) return dir = -1, true;
        return false;
      case VarStatus::kNonbasicFree:
        if (d < -tol) return dir = 1, true;
        if (d > tol) return dir = -1, true;
        return false;
      case VarStatus::kBasic: break;
    }
    return false;
  }

  /// Dantzig pricing over fixed sections of the variable index space. The
  /// cursor sticks to the section that last produced a pivot, so wide
  /// models only scan ~1/16 of the columns per iteration; Bland mode scans
  /// everything for the smallest eligible index.
  bool price(const std::vector<double>& y, bool bland, std::size_t& enter, int& dir) {
    if (bland) {
      for (std::size_t j = 0; j < ntot_; ++j) {
        int dj_dir = 0;
        const double d = vstat_[j] == VarStatus::kBasic ? 0.0 : reduced_cost(j, y);
        if (eligible(j, d, dj_dir)) {
          enter = j;
          dir = dj_dir;
          return true;
        }
      }
      return false;
    }
    const std::size_t nsec = ntot_ > 4096 ? 16 : 1;
    const std::size_t sec_size = (ntot_ + nsec - 1) / nsec;
    for (std::size_t scan = 0; scan < nsec; ++scan) {
      const std::size_t sec = (price_cursor_ + scan) % nsec;
      const std::size_t begin = sec * sec_size;
      const std::size_t end = std::min(ntot_, begin + sec_size);
      double best = 0.0;
      std::size_t best_j = ntot_;
      int best_dir = 0;
      for (std::size_t j = begin; j < end; ++j) {
        if (vstat_[j] == VarStatus::kBasic) continue;
        int dj_dir = 0;
        const double d = reduced_cost(j, y);
        if (!eligible(j, d, dj_dir)) continue;
        const double score = std::abs(d);
        if (score > best) {
          best = score;
          best_j = j;
          best_dir = dj_dir;
        }
      }
      if (best_j < ntot_) {
        price_cursor_ = sec;
        enter = best_j;
        dir = best_dir;
        return true;
      }
    }
    return false;
  }

  SolveStatus iterate(std::size_t limit, std::size_t& pivots, bool phase1) {
    std::size_t degenerate_run = 0;
    for (std::size_t iter = 0; iter < limit; ++iter) {
      const bool bland = degenerate_run >= opt_.degenerate_switch;
      btran_costs(y_);
      std::size_t enter = 0;
      int dir = 0;
      if (!price(y_, bland, enter, dir)) return SolveStatus::kOptimal;
      ftran_col(enter, w_);

      // Bounded ratio test: entering moves by t >= 0 in `dir`; each basic
      // position pos shifts by -dir*w[pos]*t until it hits a bound; the
      // entering variable itself may flip to its opposite bound first.
      double best_t = hi_[enter] - lo_[enter];  // inf for free/one-sided vars
      std::int32_t leave = -1;
      bool leave_to_upper = false;
      for (std::size_t pos = 0; pos < m_; ++pos) {
        const double alpha = dir * w_[pos];
        if (std::abs(alpha) <= kPivotTol) continue;
        const std::size_t bj = static_cast<std::size_t>(basis_[pos]);
        double t;
        bool to_upper;
        if (alpha > 0) {
          if (lo_[bj] <= -kInf) continue;
          t = (xb_[pos] - lo_[bj]) / alpha;
          to_upper = false;
        } else {
          if (hi_[bj] >= kInf) continue;
          t = (hi_[bj] - xb_[pos]) / -alpha;
          to_upper = true;
        }
        if (t < 0.0) t = 0.0;  // roundoff: basic slightly beyond its bound
        if (t < best_t - kPivotTol ||
            (t < best_t + kPivotTol && leave >= 0 && basis_[pos] < basis_[leave])) {
          best_t = t;
          leave = static_cast<std::int32_t>(pos);
          leave_to_upper = to_upper;
        }
      }
      if (leave < 0 && best_t >= kInf) {
        return phase1 ? SolveStatus::kInfeasible : SolveStatus::kUnbounded;
      }

      const double t = best_t;
      if (leave < 0) {
        // Bound flip: no basis change, no eta.
        for (std::size_t pos = 0; pos < m_; ++pos) {
          if (w_[pos] != 0.0) xb_[pos] -= dir * w_[pos] * t;
        }
        vstat_[enter] =
            vstat_[enter] == VarStatus::kAtLower ? VarStatus::kAtUpper : VarStatus::kAtLower;
        ++pivots;
        ++total_pivots_;
        degenerate_run = 0;  // flips always traverse the full bound range
        continue;
      }

      // Unstable eta pivot: fold the eta file into a fresh LU and redo the
      // iteration from exact data.
      if (std::abs(w_[leave]) < kEtaPivotTol && !etas_.empty()) {
        if (!refactorize()) return SolveStatus::kIterationLimit;
        compute_xb();
        continue;
      }

      for (std::size_t pos = 0; pos < m_; ++pos) {
        if (w_[pos] != 0.0) xb_[pos] -= dir * w_[pos] * t;
      }
      const std::size_t lv = static_cast<std::size_t>(basis_[leave]);
      vstat_[lv] = leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      if (lo_[lv] == hi_[lv]) vstat_[lv] = VarStatus::kAtLower;
      basic_pos_[lv] = -1;

      double x_enter = 0.0;
      switch (vstat_[enter]) {
        case VarStatus::kAtLower: x_enter = lo_[enter] + t; break;
        case VarStatus::kAtUpper: x_enter = hi_[enter] - t; break;
        case VarStatus::kNonbasicFree: x_enter = dir * t; break;
        case VarStatus::kBasic: break;
      }
      vstat_[enter] = VarStatus::kBasic;
      basis_[leave] = static_cast<std::int32_t>(enter);
      basic_pos_[enter] = leave;
      xb_[leave] = x_enter;

      Eta eta;
      eta.pivot = leave;
      eta.pivot_val = w_[leave];
      for (std::size_t pos = 0; pos < m_; ++pos) {
        // Drop eta noise below 1e-13: it cannot move a pivot decision, and
        // the periodic refactorization erases its tiny residual anyway.
        if (static_cast<std::int32_t>(pos) != leave && std::abs(w_[pos]) > 1e-13) {
          eta.off.emplace_back(static_cast<std::int32_t>(pos), w_[pos]);
        }
      }
      etas_.push_back(std::move(eta));
      ++pivots;
      ++total_pivots_;
      degenerate_run = t <= kPivotTol ? degenerate_run + 1 : 0;

      if (etas_.size() >= std::max<std::size_t>(1, opt_.refactor_interval)) {
        if (!refactorize()) return SolveStatus::kIterationLimit;
        compute_xb();
      }
    }
    return SolveStatus::kIterationLimit;
  }

  void extract(Solution& sol) {
    sol.values.assign(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      double x = vstat_[j] == VarStatus::kBasic
                     ? xb_[basic_pos_[j]]
                     : nonbasic_value(j);
      // Clamp eta-file roundoff back onto the box; anything larger is a
      // genuine violation check_feasible should see.
      if (x < lo_[j] && x > lo_[j] - kFeasTol) x = lo_[j];
      if (x > hi_[j] && x < hi_[j] + kFeasTol) x = hi_[j];
      sol.values[j] = x;
    }
    double obj = 0.0;
    for (std::size_t j = 0; j < n_; ++j) obj += model_.objective()[j] * sol.values[j];
    sol.objective = obj;
    sol.pivots = total_pivots_;
    sol.basis.structural.assign(n_, VarStatus::kAtLower);
    sol.basis.logical.assign(m_, VarStatus::kAtLower);
    for (std::size_t j = 0; j < n_; ++j) sol.basis.structural[j] = vstat_[j];
    for (std::size_t i = 0; i < m_; ++i) sol.basis.logical[i] = vstat_[n_ + i];
    // A redundant row can leave its artificial basic at zero through the
    // optimum. The artificial's column is ±e_r — exactly the row's logical
    // column up to sign — so exporting the logical as basic instead yields
    // an equivalent, nonsingular, full-rank basis (the logical takes the
    // artificial's value, 0, which every logical's bounds admit). Without
    // this the exported basis has < m basics and every warm start of a
    // same-shaped model would silently fall back to cold.
    for (std::size_t pos = 0; pos < m_; ++pos) {
      const std::size_t j = static_cast<std::size_t>(basis_[pos]);
      if (j >= n_ + m_) {
        sol.basis.logical[static_cast<std::size_t>(art_row_[j - n_ - m_])] = VarStatus::kBasic;
      }
    }
  }

  const LpModel& model_;
  const SimplexOptions& opt_;
  std::size_t n_ = 0, m_ = 0, ntot_ = 0, art_count_ = 0;

  // CSC structural matrix + row metadata.
  std::vector<std::int32_t> col_start_;
  std::vector<std::int32_t> row_idx_;
  std::vector<double> a_val_;
  std::vector<double> b_;
  std::vector<double> log_lo_, log_hi_;
  std::vector<std::int32_t> art_row_;
  std::vector<double> art_sign_;

  // Bounds/costs over the unified index space.
  std::vector<double> lo_, hi_, cost_;
  std::vector<VarStatus> vstat_;

  // Basis state.
  std::vector<std::int32_t> basis_;      // position -> variable
  std::vector<std::int32_t> basic_pos_;  // variable -> position (-1 nonbasic)
  std::vector<double> xb_;
  std::vector<std::size_t> repair_;  // warm-start basics outside their bounds
  LuFactors lu_;
  std::vector<Eta> etas_;
  std::size_t price_cursor_ = 0;
  std::size_t total_pivots_ = 0;

  // Scratch.
  std::vector<double> y_, w_, cb_;
  std::vector<std::pair<std::int32_t, double>> scratch_col_;
};

}  // namespace

Solution solve_sparse(const LpModel& model, const SimplexOptions& options) {
  SparseSimplex solver(model, options);
  return solver.run();
}

}  // namespace sdmbox::lp
