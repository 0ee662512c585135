#include "core/controller.hpp"

#include <algorithm>
#include <utility>

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
  recompute();
}

std::size_t Controller::k_for(policy::FunctionId e) const noexcept {
  for (const auto& [f, k] : params_.k) {
    if (f == e) return k;
  }
  return 1;
}

template <typename Fn>
void Controller::for_each_assignment(Fn&& fn) const {
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

  // Proxies: P_x = policies whose source field can contain an address of the
  // subnet behind x (§III.B).
  for (std::size_t s = 0; s < network_.proxies.size(); ++s) {
    const net::NodeId proxy = network_.proxies[s];
    NodeConfig cfg = make_config(proxy, /*is_proxy=*/true, policy::FunctionSet{});
    for (const policy::Policy& p : policies_.all()) {
      if (p.descriptor.src.overlaps(network_.subnets[s])) cfg.relevant_policies.push_back(p.id);
    }
    fn(std::move(cfg));
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
    fn(std::move(cfg));
  }
}

void Controller::recompute() {
  // Clear and re-emplace, never edit in place: distribute() pushes in the
  // iteration order of the plan's config map, which is copied from this
  // unordered_map, so the order re-emplacing leaves is part of every export.
  // The clear waits for the first device, so a pass refused for a dead
  // function keeps the last assignments.
  bool cleared = false;
  for_each_assignment([&](NodeConfig&& cfg) {
    if (!std::exchange(cleared, true)) configs_.clear();
    configs_.emplace(cfg.node.v, std::move(cfg));
  });
}

std::vector<net::NodeId> Controller::patch_failed_node(net::NodeId failed) {
  SDM_CHECK_MSG(deployment_.find(failed) != nullptr, "patch target is not a deployed middlebox");
  SDM_CHECK_MSG(deployment_.is_failed(failed), "patch target is not marked failed");
  std::vector<net::NodeId> affected;
  for_each_assignment([&](NodeConfig&& fresh) {
    NodeConfig& cfg = configs_.at(fresh.node.v);
    if (cfg.candidates == fresh.candidates) return;
    cfg.candidates = std::move(fresh.candidates);
    affected.push_back(fresh.node);
  });
  std::sort(affected.begin(), affected.end(),
            [](net::NodeId a, net::NodeId b) { return a.v < b.v; });
  return affected;
}

EnforcementPlan Controller::compile(StrategyKind strategy,
                                    const workload::TrafficMatrix* traffic,
                                    SolveInfo* solve_out) const {
  if (solve_out != nullptr) *solve_out = SolveInfo{};
  if (strategy != StrategyKind::kLoadBalanced) return EnforcementPlan{strategy, configs_};
  SDM_CHECK_MSG(traffic != nullptr, "load-balanced compilation needs traffic measurements");
  const RatioResult lp = solve_load_balancing(*traffic);
  SDM_CHECK_MSG(lp.status == lp::SolveStatus::kOptimal,
                std::string("load-balancing LP not optimal: ") + lp::to_string(lp.status));
  if (solve_out != nullptr) {
    solve_out->lambda = lp.lambda;
    solve_out->stats = lp.stats;
    solve_out->pivots = lp.pivots;
    solve_out->warm_started = lp.warm_started;
  }
  return load_balanced_plan(configs_, lp);
}

RatioResult Controller::solve_load_balancing(const workload::TrafficMatrix& traffic) const {
  const FormulationInputs inputs{network_, deployment_, policies_, configs_, traffic};
  FormulationOptions opt = params_.lp;
  if (params_.warm_start_lb && !last_lb_basis_.empty()) {
    opt.simplex.warm_start = &last_lb_basis_;
  }
  RatioResult out = solve_eq2(inputs, opt);
  if (params_.warm_start_lb && out.status == lp::SolveStatus::kOptimal) {
    last_lb_basis_ = out.basis;
  }
  return out;
}

}  // namespace sdmbox::core
