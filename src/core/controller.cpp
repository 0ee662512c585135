#include "core/controller.hpp"

#include <algorithm>

#include "net/shortest_path.hpp"
#include "util/hash.hpp"

namespace sdmbox::core {

namespace {

using TreesFromMbox = std::unordered_map<std::uint32_t, net::ShortestPathTree>;

/// The min(k, |pool|) implementers in `pool` closest to device x, nearest
/// first; `from_mbox` holds a shortest-path tree from every pool member.
std::vector<net::NodeId> rank_candidates(net::NodeId x, std::vector<net::NodeId> pool,
                                         std::size_t k, const TreesFromMbox& from_mbox) {
  std::sort(pool.begin(), pool.end(), [&](net::NodeId a, net::NodeId b) {
    const double da = from_mbox.at(a.v).distance[x.v];
    const double db = from_mbox.at(b.v).distance[x.v];
    if (da != db) return da < db;
    // Equal-cost tie-break: deterministic but *per-device*. Flat
    // topologies (e.g. the campus core, where every non-local middlebox
    // is equidistant) would otherwise herd every device onto the same
    // lowest-id candidates, starving the rest — candidate sets must
    // cover the deployment for the LP to balance (§III.C).
    return util::hash_combine(util::mix64(x.v), a.v) <
           util::hash_combine(util::mix64(x.v), b.v);
  });
  pool.resize(std::min(k, pool.size()));
  return pool;
}

}  // namespace

Controller::Controller(const net::GeneratedNetwork& network, const Deployment& deployment,
                       const policy::PolicyList& policies, ControllerParams params)
    : network_(network), deployment_(deployment), policies_(policies),
      params_(std::move(params)) {
  // Validate policies against the deployment once, up front.
  for (const policy::Policy& p : policies_.all()) {
    policy::FunctionSet seen;
    for (policy::FunctionId e : p.actions) {
      SDM_CHECK_MSG(!seen.contains(e),
                    "action list repeats a function (policy " + p.name + ")");
      seen.insert(e);
      SDM_CHECK_MSG(!deployment_.implementers(e).empty(),
                    "no middlebox implements a function required by policy " + p.name);
    }
  }
  compute_assignments();
}

std::size_t Controller::k_for(policy::FunctionId e) const noexcept {
  for (const auto& [f, k] : params_.k) {
    if (f == e) return k;
  }
  return 1;
}

void Controller::recompute() { compute_assignments(); }

std::vector<net::NodeId> Controller::patch_failed_node(net::NodeId failed) {
  const MiddleboxInfo* info = deployment_.find(failed);
  SDM_CHECK_MSG(info != nullptr, "patch target is not a deployed middlebox");
  SDM_CHECK_MSG(deployment_.is_failed(failed), "patch target is not marked failed");
  // Same liveness contract as recompute(), restricted to the functions the
  // failed box served (no other function's implementer set changed).
  for (const policy::Policy& p : policies_.all()) {
    for (policy::FunctionId e : p.actions) {
      if (info->functions.contains(e)) {
        SDM_CHECK_MSG(!deployment_.active_implementers(e).empty(),
                      "all middleboxes for a function required by policy " + p.name +
                          " are failed");
      }
    }
  }

  // Distances are needed only from the surviving implementers of the failed
  // box's functions — those are the only candidate lists that can change,
  // and every node that can enter one implements one of those functions.
  TreesFromMbox from_mbox;
  for (const MiddleboxInfo& m : deployment_.middleboxes()) {
    if (m.node.v == failed.v) continue;
    if (m.functions.minus(info->functions) == m.functions) continue;  // disjoint
    from_mbox.emplace(m.node.v, net::dijkstra(network_.topo, m.node));
  }

  std::vector<net::NodeId> affected;
  for (auto& [node_v, cfg] : configs_) {
    const net::NodeId x{node_v};
    bool touched = false;
    for (policy::FunctionId e : info->functions.to_vector()) {
      auto& cands = cfg.candidates[e.v];
      const bool uses_failed = std::any_of(cands.begin(), cands.end(), [&](net::NodeId c) {
        return c.v == failed.v;
      });
      // Distances are static, so dropping a node that was never in this
      // top-k cannot reorder it: only lists containing the failed box move.
      if (!uses_failed) continue;
      cands = rank_candidates(x, deployment_.active_implementers(e), k_for(e), from_mbox);
      touched = true;
    }
    if (touched) affected.push_back(x);
  }
  std::sort(affected.begin(), affected.end(),
            [](net::NodeId a, net::NodeId b) { return a.v < b.v; });
  return affected;
}

void Controller::compute_assignments() {
  // Every function referenced by a policy must still have a live
  // implementer; without one, enforcement of that policy is impossible and
  // silently skipping it would be the opposite of dependable.
  for (const policy::Policy& p : policies_.all()) {
    for (policy::FunctionId e : p.actions) {
      SDM_CHECK_MSG(!deployment_.active_implementers(e).empty(),
                    "all middleboxes for a function required by policy " + p.name +
                        " are failed");
    }
  }

  // Distances from every middlebox to every node via one Dijkstra per
  // middlebox (|M| is small; links are symmetric, so dist(m, x) = dist(x, m)).
  TreesFromMbox from_mbox;
  for (const MiddleboxInfo& m : deployment_.middleboxes()) {
    from_mbox.emplace(m.node.v, net::dijkstra(network_.topo, m.node));
  }

  const policy::FunctionSet all = deployment_.all_functions();

  // Candidate sets for one device x over the functions it does not implement.
  const auto make_config = [&](net::NodeId x, bool is_proxy,
                               policy::FunctionSet own_functions) {
    NodeConfig cfg;
    cfg.node = x;
    cfg.is_proxy = is_proxy;
    cfg.own_functions = own_functions;
    for (policy::FunctionId e : all.minus(own_functions).to_vector()) {
      cfg.candidates[e.v] =
          rank_candidates(x, deployment_.active_implementers(e), k_for(e), from_mbox);
    }
    return cfg;
  };

  configs_.clear();
  // Proxies: P_x = policies whose source field can contain an address of the
  // subnet behind x (§III.B).
  for (std::size_t s = 0; s < network_.proxies.size(); ++s) {
    const net::NodeId proxy = network_.proxies[s];
    NodeConfig cfg = make_config(proxy, /*is_proxy=*/true, policy::FunctionSet{});
    for (const policy::Policy& p : policies_.all()) {
      if (p.descriptor.src.overlaps(network_.subnets[s])) cfg.relevant_policies.push_back(p.id);
    }
    configs_.emplace(proxy.v, std::move(cfg));
  }
  // Middleboxes: P_x = policies whose action list contains a function x
  // performs (§III.B).
  for (const MiddleboxInfo& m : deployment_.middleboxes()) {
    NodeConfig cfg = make_config(m.node, /*is_proxy=*/false, m.functions);
    for (const policy::Policy& p : policies_.all()) {
      const bool relevant = std::any_of(p.actions.begin(), p.actions.end(),
                                        [&](policy::FunctionId e) { return m.functions.contains(e); });
      if (relevant) cfg.relevant_policies.push_back(p.id);
    }
    configs_.emplace(m.node.v, std::move(cfg));
  }
}

EnforcementPlan Controller::compile(StrategyKind strategy,
                                    const workload::TrafficMatrix* traffic,
                                    SolveInfo* solve_out) const {
  EnforcementPlan plan;
  plan.strategy = strategy;
  plan.configs = configs_;
  if (solve_out != nullptr) *solve_out = SolveInfo{};
  if (strategy == StrategyKind::kLoadBalanced) {
    SDM_CHECK_MSG(traffic != nullptr, "load-balanced compilation needs traffic measurements");
    RatioResult lp = solve_load_balancing(*traffic);
    SDM_CHECK_MSG(lp.status == lp::SolveStatus::kOptimal,
                  std::string("load-balancing LP not optimal: ") + lp::to_string(lp.status));
    plan.ratios = std::move(lp.ratios);
    plan.lambda = lp.lambda;
    if (solve_out != nullptr) {
      solve_out->lambda = lp.lambda;
      solve_out->stats = lp.stats;
      solve_out->pivots = lp.pivots;
      solve_out->warm_started = lp.warm_started;
    }
  }
  return plan;
}

RatioResult Controller::solve_load_balancing(const workload::TrafficMatrix& traffic) const {
  const FormulationInputs inputs{network_, deployment_, policies_, configs_, traffic};
  FormulationOptions opt = params_.lp;
  if (params_.warm_start_lb && !last_lb_basis_.empty()) {
    opt.simplex.warm_start = &last_lb_basis_;
  }
  RatioResult out = params_.use_eq1 ? solve_eq1(inputs, opt) : solve_eq2(inputs, opt);
  if (params_.warm_start_lb && out.status == lp::SolveStatus::kOptimal) {
    last_lb_basis_ = out.basis;
  }
  return out;
}

}  // namespace sdmbox::core
