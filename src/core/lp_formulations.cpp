#include "core/lp_formulations.hpp"

#include <algorithm>
#include <map>
#include <ranges>
#include <span>
#include <string>

namespace sdmbox::core {

namespace {

using policy::FunctionId;
using policy::PolicyId;

/// Where x's traffic needing `e` next can go: x itself when x implements e
/// (local continuation — Π_x excludes own functions, §III.B), else M_x^e.
/// A proxy implements nothing, so for it this is the first-hop set M_s^e.
/// The view points at `node` or into x's config; both must outlive it.
std::span<const net::NodeId> next_candidates(
    const std::unordered_map<std::uint32_t, NodeConfig>& configs, const net::NodeId& node,
    FunctionId e) {
  const auto it = configs.find(node.v);
  SDM_CHECK_MSG(it != configs.end(), "node without enforcement config in LP build");
  if (it->second.own_functions.contains(e)) return {&node, 1};
  return it->second.candidates_for(e);
}

/// One source of a commodity: proxies with a common first-hop candidate set
/// and the volume they send together.
struct Source {
  std::vector<net::NodeId> proxies;
  std::span<const net::NodeId> cands;
  double volume = 0;
};

enum class Formulation { kEq1, kEq2 };

/// Both formulations as one chain flow network. A commodity is a policy's
/// traffic from its sources through its chain to its destinations. Eq. (1)
/// has one commodity per active (s, d, p), fed by one proxy; Eq. (2) sums
/// them over (s, d), one commodity per policy fed by every proxy. Only
/// Eq. (2)'s chain variables and rows get names; Eq. (1)'s chains (101,202
/// variables on Waxman-400) build no name strings.
class ChainLp {
public:
  ChainLp(const FormulationInputs& in, const FormulationOptions& opt, Formulation f)
      // All traffic volumes are normalized to fractions of the grand total:
      // split ratios and λ are scale-invariant, and keeping the tableau at
      // O(1) magnitudes keeps the simplex tolerances meaningful (raw packet
      // counts of 1e6-1e7 would swamp a 1e-9 pivot tolerance).
      : in_(in), opt_(opt), named_(f == Formulation::kEq2),
        scale_(1.0 / std::max(1.0, in.traffic.grand_total())) {
    lambda_ = model_.add_variable("lambda", 1.0);  // objective: min λ
    for (const policy::Policy& p : in.policies.all()) {
      if (p.actions.empty()) continue;
      if (f == Formulation::kEq2) {
        add_policy(p);
      } else {
        add_pairs(p);
      }
    }
    for (const MiddleboxInfo& m : in_.deployment.middleboxes()) {
      auto it = capacity_terms_.find(m.node.v);
      if (it == capacity_terms_.end()) continue;  // no traffic can reach m
      std::vector<lp::Term> terms = it->second;   // keep a copy for pass 2
      terms.push_back(lp::Term{lambda_, -m.capacity * scale_});
      model_.add_constraint(std::move(terms), lp::Relation::kLessEqual, 0.0,
                            "cap(" + m.name + ")");
    }
    model_.add_constraint({lp::Term{lambda_, 1.0}}, lp::Relation::kLessEqual, 1.0, "lambda<=1");
  }

  LpBuildStats stats() const {
    return LpBuildStats{model_.variable_count(), model_.constraint_count(),
                        model_.nonzero_count()};
  }

  RatioResult solve() {
    RatioResult out;
    out.stats = stats();
    lp::Solution sol = lp::solve(model_, opt_.simplex);
    out.status = sol.status;
    out.pivots = sol.pivots;
    if (!sol.optimal()) return out;
    std::string violation = lp::check_feasible(model_, sol.values, 1e-5);
    SDM_CHECK_MSG(violation.empty(), "LP solution failed feasibility audit: " + violation);
    out.lambda = sol.value(lambda_);
    out.basis = sol.basis;
    out.warm_started = sol.warm_started;

    // Lexicographic pass 2: the min-max objective pins only the most
    // loaded middlebox; any λ-optimal vertex qualifies, so non-binding
    // types can come out arbitrarily skewed. Fix λ at its optimum and
    // minimize the total overload above each middlebox's fair share
    // (per-function demand / |M^e|), which is what "load-balanced
    // enforcement" means in the paper's Table III (max ≈ min per type).
    std::unordered_map<std::uint8_t, double> demand;  // per function, normalized
    for (const policy::Policy& p : in_.policies.all()) {
      const double tp = in_.traffic.total(p.id) * scale_;
      for (const policy::FunctionId e : p.actions) demand[e.v] += tp;
    }
    model_.set_objective_coeff(lambda_, 0.0);
    model_.add_constraint({lp::Term{lambda_, 1.0}}, lp::Relation::kLessEqual,
                          out.lambda + 1e-7 * (1.0 + out.lambda), "lambda-fix");
    for (const MiddleboxInfo& m : in_.deployment.middleboxes()) {
      const auto it = capacity_terms_.find(m.node.v);
      if (it == capacity_terms_.end()) continue;
      double fair = 0;
      for (const policy::FunctionId e : m.functions.to_vector()) {
        const auto d = demand.find(e.v);
        const auto live = in_.deployment.active_implementers(e);
        if (d != demand.end() && !live.empty()) {
          fair += d->second / static_cast<double>(live.size());
        }
      }
      // dev >= (load - fair) / C  <=>  load - C*dev <= fair
      const lp::VarId dev = model_.add_variable("dev(" + m.name + ")", 1.0);
      std::vector<lp::Term> terms = it->second;
      terms.push_back(lp::Term{dev, -m.capacity * scale_});
      model_.add_constraint(std::move(terms), lp::Relation::kLessEqual, fair,
                            "fair(" + m.name + ")");
    }
    lp::Solution second = lp::solve(model_, opt_.simplex);
    out.pivots += second.pivots;
    if (second.optimal()) {
      violation = lp::check_feasible(model_, second.values, 1e-5);
      SDM_CHECK_MSG(violation.empty(),
                    "secondary LP solution failed feasibility audit: " + violation);
      second.values.resize(sol.values.size());  // dev variables are internal
      sol = std::move(second);
    }
    // On any non-optimal secondary outcome we keep the primary solution.

    // Sum records into shares keyed ((sender, e, p, s, d), to). Every
    // Eq. (1) share also folds into its aggregate entry, (s, d) = (-1, -1),
    // which selection falls back to.
    using Entry = std::tuple<std::uint32_t, std::uint8_t, std::uint32_t, int, int>;
    std::map<std::pair<Entry, std::uint32_t>, double> volume;
    for (const Record& r : records_) {
      const double v = sol.value(r.var);
      if (v <= 1e-9) continue;
      volume[{{r.sender.v, r.e.v, r.p.v, -1, -1}, r.to.v}] += v;
      if (r.s >= 0) volume[{{r.sender.v, r.e.v, r.p.v, r.s, r.d}, r.to.v}] += v;
    }
    // Group consecutive keys sharing an entry.
    std::vector<SplitRatioTable::Share> shares;
    for (auto it = volume.begin(); it != volume.end();) {
      const Entry entry = it->first.first;
      shares.clear();
      for (; it != volume.end() && it->first.first == entry; ++it) {
        shares.push_back(SplitRatioTable::Share{net::NodeId{it->first.second}, it->second});
      }
      const auto [sender, e, p, s, d] = entry;
      out.ratios[sender].set(FunctionId{e}, PolicyId{p}, shares, s, d);
    }
    return out;
  }

private:
  /// A variable whose value is the share `sender` sends to `to` for policy
  /// p's next function e; (s, d) = (-1, -1) unless it is an Eq. (1) share.
  struct Record {
    lp::VarId var;
    PolicyId p;
    FunctionId e;
    net::NodeId to;
    net::NodeId sender;
    int s;
    int d;
  };

  /// Eq. (2): one commodity per policy. Proxies with identical first-hop
  /// candidate sets are interchangeable and form one source (exact; see
  /// DESIGN.md §6). Every proxy is enumerated (zero-volume groups carry a
  /// zero RHS) so the model's shape is independent of the matrix's sparsity.
  void add_policy(const policy::Policy& p) {
    std::map<std::vector<std::uint32_t>, Source> groups;
    for (std::size_t s = 0; s < in_.network.proxies.size(); ++s) {
      const net::NodeId& proxy = in_.network.proxies[s];
      const auto cands = next_candidates(in_.configs, proxy, p.actions[0]);
      std::vector<std::uint32_t> sig;
      sig.reserve(cands.size() + 1);
      for (net::NodeId c : cands) sig.push_back(c.v);
      std::sort(sig.begin(), sig.end());
      if (!opt_.aggregate_sources) sig.push_back(proxy.v);  // unique per proxy
      Source& g = groups[sig];
      if (g.cands.empty()) g.cands = cands;
      g.proxies.push_back(proxy);
      g.volume += in_.traffic.from(p.id, static_cast<int>(s)) * scale_;
    }
    add_chain(p, groups | std::views::values, in_.traffic.total(p.id) * scale_, -1, -1);
  }

  /// Eq. (1): one commodity per (s, d) pair that carries policy-p traffic.
  void add_pairs(const policy::Policy& p) {
    for (const auto& [s, d] : in_.traffic.active_pairs(p.id)) {
      const net::NodeId& proxy = in_.network.proxies[static_cast<std::size_t>(s)];
      const Source src{{proxy},
                       next_candidates(in_.configs, proxy, p.actions[0]),
                       in_.traffic.between(p.id, s, d) * scale_};
      add_chain(p, std::span(&src, 1), src.volume, s, d);
    }
  }

  /// Adds one commodity of policy p: its sources send their volumes into the
  /// first function's candidates, and `total` leaves the chain's last
  /// middleboxes toward the destinations. A middlebox that no upstream
  /// candidate set can deliver the commodity to gets no variables.
  template <typename Sources>
  void add_chain(const policy::Policy& p, const Sources& sources, double total, int s, int d) {
    const auto& chain = p.actions;
    const std::size_t L = chain.size();
    const auto name = [&](const auto& make) { return named_ ? make() : std::string(); };
    const std::string pn = name([&] { return "p" + std::to_string(p.id.v); });

    // Reachable middleboxes per chain position.
    std::vector<std::vector<net::NodeId>> reach(L);
    std::vector<std::uint32_t> cur;
    for (const Source& src : sources) {
      SDM_CHECK_MSG(!src.cands.empty(), "no candidate middlebox for a policy's first function");
      for (net::NodeId c : src.cands) cur.push_back(c.v);
    }
    for (std::size_t i = 0; i < L; ++i) {
      std::sort(cur.begin(), cur.end());
      cur.erase(std::unique(cur.begin(), cur.end()), cur.end());
      reach[i].reserve(cur.size());
      for (std::uint32_t v : cur) reach[i].push_back(net::NodeId{v});
      if (i + 1 < L) {
        cur.clear();
        for (const net::NodeId& x : reach[i]) {
          for (net::NodeId y : next_candidates(in_.configs, x, chain[i + 1])) cur.push_back(y.v);
        }
        SDM_CHECK_MSG(!cur.empty(), "no candidate middlebox for a mid-chain function");
      }
    }

    // inflow[i][x] / outflow[i][x]: terms for position-i conservation at x.
    std::vector<std::unordered_map<std::uint32_t, std::vector<lp::Term>>> inflow(L), outflow(L);

    // First-hop variables (per source).
    std::size_t gi = 0;
    for (const Source& src : sources) {
      std::vector<lp::Term> row;
      for (net::NodeId x : src.cands) {
        const lp::VarId v = model_.add_variable(name([&] {
          return "t[" + pn + ",src" + std::to_string(gi) + "->" + std::to_string(x.v) + "]";
        }));
        row.push_back(lp::Term{v, 1.0});
        inflow[0][x.v].push_back(lp::Term{v, 1.0});
        charge_capacity(x, v);
        for (net::NodeId proxy : src.proxies) {
          records_.push_back(Record{v, p.id, chain[0], x, proxy, s, d});
        }
      }
      // Constraint (4): the source sends exactly its measured volume.
      model_.add_constraint(std::move(row), lp::Relation::kEqual, src.volume,
                            name([&] { return "src(" + pn + ",g" + std::to_string(gi) + ")"; }));
      ++gi;
    }

    // Middle-hop variables.
    for (std::size_t i = 0; i + 1 < L; ++i) {
      std::vector<lp::Term> level_total;
      for (const net::NodeId& x : reach[i]) {
        for (const net::NodeId& y : next_candidates(in_.configs, x, chain[i + 1])) {
          const lp::VarId v = model_.add_variable(name([&] {
            return "t[" + pn + "," + std::to_string(x.v) + "->" + std::to_string(y.v) + "]";
          }));
          outflow[i][x.v].push_back(lp::Term{v, 1.0});
          inflow[i + 1][y.v].push_back(lp::Term{v, 1.0});
          charge_capacity(y, v);
          // A forced local continuation is no share: x applies its own
          // function without reading a ratio (select_next_hop).
          if (y != x) records_.push_back(Record{v, p.id, chain[i + 1], y, x, s, d});
          level_total.push_back(lp::Term{v, 1.0});
        }
      }
      if (opt_.include_redundant_constraints) {
        // Paper's constraint (2): total volume crossing each chain edge is T_p.
        model_.add_constraint(std::move(level_total), lp::Relation::kEqual, total,
                              name([&] { return "edge(" + pn + "," + std::to_string(i) + ")"; }));
      }
    }

    // Final-hop variables toward the (aggregated) destination. Final-hop
    // traffic is plain routing: no middlebox load and no data-plane ratio.
    std::vector<lp::Term> final_total;
    for (net::NodeId x : reach[L - 1]) {
      const lp::VarId v = model_.add_variable(
          name([&] { return "t[" + pn + "," + std::to_string(x.v) + "->dst]"; }));
      outflow[L - 1][x.v].push_back(lp::Term{v, 1.0});
      final_total.push_back(lp::Term{v, 1.0});
    }
    // Constraints (3)+(5) aggregated over destinations: everything leaves.
    model_.add_constraint(std::move(final_total), lp::Relation::kEqual, total,
                          name([&] { return "dst(" + pn + ")"; }));

    // Constraint (1): flow conservation per middlebox per chain position.
    for (std::size_t i = 0; i < L; ++i) {
      for (net::NodeId x : reach[i]) {
        std::vector<lp::Term> terms = inflow[i][x.v];
        for (lp::Term t : outflow[i][x.v]) terms.push_back(lp::Term{t.var, -1.0});
        model_.add_constraint(std::move(terms), lp::Relation::kEqual, 0.0, name([&] {
          return "cons(" + pn + "," + std::to_string(i) + "," + std::to_string(x.v) + ")";
        }));
      }
    }
  }

  /// A variable whose traffic lands on middlebox `to` adds to `to`'s load.
  void charge_capacity(net::NodeId to, lp::VarId var) {
    capacity_terms_[to.v].push_back(lp::Term{var, 1.0});
  }

  const FormulationInputs& in_;
  const FormulationOptions& opt_;
  const bool named_;
  const double scale_;  // volumes are multiplied by this (1 / grand total)
  lp::LpModel model_;
  lp::VarId lambda_;
  std::unordered_map<std::uint32_t, std::vector<lp::Term>> capacity_terms_;
  std::vector<Record> records_;
};

}  // namespace

RatioResult solve_eq2(const FormulationInputs& in, const FormulationOptions& opt) {
  return ChainLp(in, opt, Formulation::kEq2).solve();
}

RatioResult solve_eq1(const FormulationInputs& in, const FormulationOptions& opt) {
  return ChainLp(in, opt, Formulation::kEq1).solve();
}

EnforcementPlan load_balanced_plan(const std::unordered_map<std::uint32_t, NodeConfig>& configs,
                                   const RatioResult& lp) {
  EnforcementPlan plan;
  plan.strategy = StrategyKind::kLoadBalanced;
  plan.configs = configs;
  for (const auto& [sender, ratios] : lp.ratios) plan.configs.at(sender).ratios = ratios;
  plan.lambda = lp.lambda;
  return plan;
}

LpBuildStats measure_eq2(const FormulationInputs& in, const FormulationOptions& opt) {
  return ChainLp(in, opt, Formulation::kEq2).stats();
}

LpBuildStats measure_eq1(const FormulationInputs& in, const FormulationOptions& opt) {
  return ChainLp(in, opt, Formulation::kEq1).stats();
}

}  // namespace sdmbox::core
