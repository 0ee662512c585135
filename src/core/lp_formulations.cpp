#include "core/lp_formulations.hpp"

#include <algorithm>
#include <map>
#include <string>

namespace sdmbox::core {

namespace {

using policy::FunctionId;
using policy::PolicyId;

const std::vector<net::NodeId>& candidates_of(
    const std::unordered_map<std::uint32_t, NodeConfig>& configs, net::NodeId node,
    FunctionId e) {
  const auto it = configs.find(node.v);
  SDM_CHECK_MSG(it != configs.end(), "node without enforcement config in LP build");
  return it->second.candidates_for(e);
}

/// Where x's traffic needing `e` next can go: x itself when x implements e
/// (local continuation — Π_x excludes own functions, §III.B), else M_x^e.
std::vector<net::NodeId> next_candidates(
    const std::unordered_map<std::uint32_t, NodeConfig>& configs, net::NodeId node,
    FunctionId e) {
  const auto it = configs.find(node.v);
  SDM_CHECK_MSG(it != configs.end(), "node without enforcement config in LP build");
  if (it->second.own_functions.contains(e)) return {node};
  return it->second.candidates_for(e);
}

/// Shared scaffolding: the model, the λ variable, per-middlebox capacity
/// accumulation and ratio extraction records.
class BuilderBase {
public:
  explicit BuilderBase(const FormulationInputs& in)
      // All traffic volumes are normalized to fractions of the grand total:
      // split ratios and λ are scale-invariant, and keeping the tableau at
      // O(1) magnitudes keeps the simplex tolerances meaningful (raw packet
      // counts of 1e6-1e7 would swamp a 1e-9 pivot tolerance).
      : in_(in), scale_(1.0 / std::max(1.0, in.traffic.grand_total())) {
    lambda_ = model_.add_variable("lambda", 1.0);  // objective: min λ
  }

  /// A variable whose traffic lands on middlebox `to` adds to `to`'s load.
  void charge_capacity(net::NodeId to, lp::VarId var) {
    capacity_terms_[to.v].push_back(lp::Term{var, 1.0});
  }

  /// Record a variable for ratio extraction. `senders` lists the data-plane
  /// nodes that will apply this share (one node normally; a whole
  /// aggregation group for first-hop group variables).
  void record(lp::VarId var, PolicyId p, FunctionId e, net::NodeId to,
              std::vector<net::NodeId> senders) {
    records_.push_back(Record{var, p, e, to, std::move(senders), -1, -1, false});
  }

  /// Eq. (1) variant: the share applies only to flows from subnet `s` to
  /// subnet `d` (also folded into the aggregate table as the fallback).
  void record_detailed(lp::VarId var, PolicyId p, FunctionId e, net::NodeId to,
                       net::NodeId sender, int s, int d) {
    records_.push_back(Record{var, p, e, to, {sender}, s, d, true});
  }

  void finish() {
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

  RatioResult solve(const FormulationOptions& opt) {
    RatioResult out;
    out.stats = stats();
    lp::Solution sol = lp::solve(model_, opt.simplex);
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
    lp::Solution second = lp::solve(model_, opt.simplex);
    out.pivots += second.pivots;
    if (second.optimal()) {
      violation = lp::check_feasible(model_, second.values, 1e-5);
      SDM_CHECK_MSG(violation.empty(),
                    "secondary LP solution failed feasibility audit: " + violation);
      second.values.resize(sol.values.size());  // dev variables are internal
      sol = std::move(second);
    }
    // On any non-optimal secondary outcome we keep the primary solution.

    // Marginalize records into per-(sender, e, p) share vectors.
    // Keyed by (sender, e, p, to) to merge duplicates (Eq. (1) pairs).
    std::map<std::tuple<std::uint32_t, std::uint8_t, std::uint32_t, std::uint32_t>, double> agg;
    // Eq. (1) detailed shares keyed by (sender, e, p, s, d, to).
    std::map<std::tuple<std::uint32_t, std::uint8_t, std::uint32_t, int, int, std::uint32_t>,
             double>
        detailed;
    for (const Record& r : records_) {
      const double v = sol.value(r.var);
      if (v <= 1e-9) continue;
      for (net::NodeId sender : r.senders) {
        agg[{sender.v, r.e.v, r.p.v, r.to.v}] += v;
        if (r.detailed) detailed[{sender.v, r.e.v, r.p.v, r.s, r.d, r.to.v}] += v;
      }
    }
    {
      // Group consecutive detailed keys sharing (sender, e, p, s, d).
      std::vector<SplitRatioTable::Share> shares;
      auto it = detailed.begin();
      while (it != detailed.end()) {
        const auto head = it->first;
        shares.clear();
        while (it != detailed.end() && std::get<0>(it->first) == std::get<0>(head) &&
               std::get<1>(it->first) == std::get<1>(head) &&
               std::get<2>(it->first) == std::get<2>(head) &&
               std::get<3>(it->first) == std::get<3>(head) &&
               std::get<4>(it->first) == std::get<4>(head)) {
          shares.push_back(
              SplitRatioTable::Share{net::NodeId{std::get<5>(it->first)}, it->second});
          ++it;
        }
        out.ratios.set_detailed(net::NodeId{std::get<0>(head)}, FunctionId{std::get<1>(head)},
                                PolicyId{std::get<2>(head)}, std::get<3>(head),
                                std::get<4>(head), shares);
      }
    }
    // Group consecutive keys sharing (sender, e, p).
    std::vector<SplitRatioTable::Share> shares;
    auto it = agg.begin();
    while (it != agg.end()) {
      const auto [sender, e, p, to0] = it->first;
      shares.clear();
      while (it != agg.end() && std::get<0>(it->first) == sender &&
             std::get<1>(it->first) == e && std::get<2>(it->first) == p) {
        shares.push_back(SplitRatioTable::Share{net::NodeId{std::get<3>(it->first)}, it->second});
        ++it;
      }
      out.ratios.set(net::NodeId{sender}, FunctionId{e}, PolicyId{p}, shares);
    }
    return out;
  }

protected:
  struct Record {
    lp::VarId var;
    PolicyId p;
    FunctionId e;
    net::NodeId to;
    std::vector<net::NodeId> senders;
    int s;           // source subnet (detailed records only)
    int d;           // destination subnet (detailed records only)
    bool detailed;   // Eq. (1) per-(s,d) share
  };

  const FormulationInputs& in_;
  const double scale_;  // volumes are multiplied by this (1 / grand total)
  lp::LpModel model_;
  lp::VarId lambda_;
  std::unordered_map<std::uint32_t, std::vector<lp::Term>> capacity_terms_;
  std::vector<Record> records_;
};

/// Eq. (2) with optional exact source aggregation.
class Eq2Builder : public BuilderBase {
public:
  Eq2Builder(const FormulationInputs& in, const FormulationOptions& opt) : BuilderBase(in) {
    for (const policy::Policy& p : in.policies.all()) build_policy(p, opt);
    finish();
  }

private:
  void build_policy(const policy::Policy& p, const FormulationOptions& opt) {
    if (p.actions.empty()) return;
    const double total = in_.traffic.total(p.id) * scale_;
    const auto& chain = p.actions;
    const std::size_t L = chain.size();

    // Source groups: proxies with identical first-hop candidate sets are
    // interchangeable (exact; see DESIGN.md §6). Every source is enumerated
    // (zero-volume groups carry a zero RHS) so the model's shape is
    // independent of the matrix's sparsity.
    struct Group {
      std::vector<net::NodeId> proxies;
      std::vector<net::NodeId> cands;
      double volume = 0;
    };
    std::map<std::vector<std::uint32_t>, Group> groups;
    for (int s = 0; s < static_cast<int>(in_.network.proxies.size()); ++s) {
      const net::NodeId proxy = in_.network.proxies[static_cast<std::size_t>(s)];
      const auto& cands = candidates_of(in_.configs, proxy, chain[0]);
      SDM_CHECK_MSG(!cands.empty(), "no candidate middlebox for a policy's first function");
      std::vector<std::uint32_t> sig;
      sig.reserve(cands.size() + 1);
      for (net::NodeId c : cands) sig.push_back(c.v);
      std::sort(sig.begin(), sig.end());
      if (!opt.aggregate_sources) sig.push_back(proxy.v);  // unique per proxy
      Group& g = groups[sig];
      if (g.cands.empty()) g.cands = cands;
      g.proxies.push_back(proxy);
      g.volume += in_.traffic.from(p.id, s) * scale_;
    }

    // Reachable middleboxes per chain position.
    std::vector<std::vector<net::NodeId>> reach(L);
    {
      std::vector<std::uint32_t> cur;
      for (const auto& [sig, g] : groups) {
        for (net::NodeId c : g.cands) cur.push_back(c.v);
      }
      for (std::size_t i = 0; i < L; ++i) {
        std::sort(cur.begin(), cur.end());
        cur.erase(std::unique(cur.begin(), cur.end()), cur.end());
        reach[i].reserve(cur.size());
        for (std::uint32_t v : cur) reach[i].push_back(net::NodeId{v});
        if (i + 1 < L) {
          std::vector<std::uint32_t> next;
          for (net::NodeId x : reach[i]) {
            for (net::NodeId y : next_candidates(in_.configs, x, chain[i + 1])) next.push_back(y.v);
          }
          SDM_CHECK_MSG(!next.empty(), "no candidate middlebox for a mid-chain function");
          cur = std::move(next);
        }
      }
    }

    // inflow[i][x] / outflow[i][x]: terms for position-i conservation at x.
    std::vector<std::unordered_map<std::uint32_t, std::vector<lp::Term>>> inflow(L), outflow(L);
    const std::string pn = "p" + std::to_string(p.id.v);

    // First-hop variables (per group).
    std::size_t gi = 0;
    for (const auto& [sig, g] : groups) {
      std::vector<lp::Term> row;
      for (net::NodeId x : g.cands) {
        const lp::VarId v =
            model_.add_variable("t[" + pn + ",src" + std::to_string(gi) + "->" +
                                    std::to_string(x.v) + "]");
        row.push_back(lp::Term{v, 1.0});
        inflow[0][x.v].push_back(lp::Term{v, 1.0});
        charge_capacity(x, v);
        record(v, p.id, chain[0], x, g.proxies);
      }
      // Constraint (4): the proxy group sends exactly its measured volume.
      model_.add_constraint(std::move(row), lp::Relation::kEqual, g.volume,
                            "src(" + pn + ",g" + std::to_string(gi) + ")");
      ++gi;
    }

    // Middle-hop variables.
    for (std::size_t i = 0; i + 1 < L; ++i) {
      std::vector<lp::Term> level_total;
      for (net::NodeId x : reach[i]) {
        for (net::NodeId y : next_candidates(in_.configs, x, chain[i + 1])) {
          const lp::VarId v = model_.add_variable("t[" + pn + "," + std::to_string(x.v) + "->" +
                                                  std::to_string(y.v) + "]");
          outflow[i][x.v].push_back(lp::Term{v, 1.0});
          inflow[i + 1][y.v].push_back(lp::Term{v, 1.0});
          charge_capacity(y, v);
          record(v, p.id, chain[i + 1], y, {x});
          level_total.push_back(lp::Term{v, 1.0});
        }
      }
      if (opt.include_redundant_constraints) {
        // Paper's constraint (2): total volume crossing each chain edge is T_p.
        model_.add_constraint(std::move(level_total), lp::Relation::kEqual, total,
                              "edge(" + pn + "," + std::to_string(i) + ")");
      }
    }

    // Final-hop variables toward the (aggregated) destination.
    std::vector<lp::Term> final_total;
    for (net::NodeId x : reach[L - 1]) {
      const lp::VarId v =
          model_.add_variable("t[" + pn + "," + std::to_string(x.v) + "->dst]");
      outflow[L - 1][x.v].push_back(lp::Term{v, 1.0});
      final_total.push_back(lp::Term{v, 1.0});
      // Final-hop traffic is plain routing to the destination; no middlebox
      // load and no data-plane ratio needed.
    }
    // Constraints (3)+(5) aggregated over destinations: everything leaves.
    model_.add_constraint(std::move(final_total), lp::Relation::kEqual, total, "dst(" + pn + ")");

    // Constraint (1): flow conservation per middlebox per chain position.
    for (std::size_t i = 0; i < L; ++i) {
      for (net::NodeId x : reach[i]) {
        std::vector<lp::Term> terms = inflow[i][x.v];
        for (lp::Term t : outflow[i][x.v]) terms.push_back(lp::Term{t.var, -1.0});
        model_.add_constraint(std::move(terms), lp::Relation::kEqual, 0.0,
                              "cons(" + pn + "," + std::to_string(i) + "," +
                                  std::to_string(x.v) + ")");
      }
    }
  }
};

/// Eq. (1): per-(source, destination, policy) variables, no aggregation.
class Eq1Builder : public BuilderBase {
public:
  Eq1Builder(const FormulationInputs& in, const FormulationOptions& opt) : BuilderBase(in) {
    for (const policy::Policy& p : in.policies.all()) build_policy(p, opt);
    finish();
  }

private:
  void build_policy(const policy::Policy& p, const FormulationOptions& opt) {
    if (p.actions.empty() || in_.traffic.total(p.id) <= 0) return;
    const auto& chain = p.actions;
    const std::size_t L = chain.size();

    for (const auto& [s, d] : in_.traffic.active_pairs(p.id)) {
      const double volume = in_.traffic.between(p.id, s, d) * scale_;
      const net::NodeId proxy = in_.network.proxies[static_cast<std::size_t>(s)];
      const auto& first_cands = candidates_of(in_.configs, proxy, chain[0]);
      SDM_CHECK_MSG(!first_cands.empty(), "no candidate middlebox for a policy's first function");

      // Reachability for this (s, d, p).
      std::vector<std::vector<net::NodeId>> reach(L);
      reach[0] = first_cands;
      for (std::size_t i = 0; i + 1 < L; ++i) {
        std::vector<std::uint32_t> next;
        for (net::NodeId x : reach[i]) {
          for (net::NodeId y : next_candidates(in_.configs, x, chain[i + 1])) next.push_back(y.v);
        }
        std::sort(next.begin(), next.end());
        next.erase(std::unique(next.begin(), next.end()), next.end());
        SDM_CHECK_MSG(!next.empty(), "no candidate middlebox for a mid-chain function");
        for (std::uint32_t v : next) reach[i + 1].push_back(net::NodeId{v});
      }

      std::vector<std::unordered_map<std::uint32_t, std::vector<lp::Term>>> inflow(L), outflow(L);

      // Source row (paper's 3rd constraint of Eq. (1)).
      std::vector<lp::Term> src_row;
      for (net::NodeId x : first_cands) {
        const lp::VarId v = model_.add_variable({});
        src_row.push_back(lp::Term{v, 1.0});
        inflow[0][x.v].push_back(lp::Term{v, 1.0});
        charge_capacity(x, v);
        record_detailed(v, p.id, chain[0], x, proxy, s, d);
      }
      model_.add_constraint(std::move(src_row), lp::Relation::kEqual, volume, {});

      // Middle hops.
      for (std::size_t i = 0; i + 1 < L; ++i) {
        std::vector<lp::Term> level_total;
        for (net::NodeId x : reach[i]) {
          for (net::NodeId y : next_candidates(in_.configs, x, chain[i + 1])) {
            const lp::VarId v = model_.add_variable({});
            outflow[i][x.v].push_back(lp::Term{v, 1.0});
            inflow[i + 1][y.v].push_back(lp::Term{v, 1.0});
            charge_capacity(y, v);
            record_detailed(v, p.id, chain[i + 1], y, x, s, d);
            level_total.push_back(lp::Term{v, 1.0});
          }
        }
        if (opt.include_redundant_constraints) {
          model_.add_constraint(std::move(level_total), lp::Relation::kEqual, volume, {});
        }
      }

      // Destination row (paper's 4th constraint of Eq. (1)).
      std::vector<lp::Term> dst_row;
      for (net::NodeId x : reach[L - 1]) {
        const lp::VarId v = model_.add_variable({});
        outflow[L - 1][x.v].push_back(lp::Term{v, 1.0});
        dst_row.push_back(lp::Term{v, 1.0});
      }
      model_.add_constraint(std::move(dst_row), lp::Relation::kEqual, volume, {});

      // Conservation (paper's 1st constraint of Eq. (1)).
      for (std::size_t i = 0; i < L; ++i) {
        for (net::NodeId x : reach[i]) {
          std::vector<lp::Term> terms = inflow[i][x.v];
          for (lp::Term t : outflow[i][x.v]) terms.push_back(lp::Term{t.var, -1.0});
          model_.add_constraint(std::move(terms), lp::Relation::kEqual, 0.0, {});
        }
      }
    }
  }
};

}  // namespace

RatioResult solve_eq2(const FormulationInputs& in, const FormulationOptions& opt) {
  Eq2Builder b(in, opt);
  return b.solve(opt);
}

RatioResult solve_eq1(const FormulationInputs& in, const FormulationOptions& opt) {
  Eq1Builder b(in, opt);
  return b.solve(opt);
}

LpBuildStats measure_eq2(const FormulationInputs& in, const FormulationOptions& opt) {
  Eq2Builder b(in, opt);
  return b.stats();
}

LpBuildStats measure_eq1(const FormulationInputs& in, const FormulationOptions& opt) {
  Eq1Builder b(in, opt);
  return b.stats();
}

}  // namespace sdmbox::core
