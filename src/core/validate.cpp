#include "core/validate.hpp"

#include <algorithm>

namespace sdmbox::core {

namespace {

/// Functions device x may have to forward toward under its relevant
/// policies: for proxies the first function of each relevant chain; for
/// middleboxes every function following a chain segment the box serves.
policy::FunctionSet forwarding_obligations(const NodeConfig& cfg,
                                           const policy::PolicyList& policies) {
  policy::FunctionSet needed;
  for (const policy::PolicyId id : cfg.relevant_policies) {
    const policy::Policy& p = policies.at(id);
    if (p.actions.empty()) continue;
    if (cfg.is_proxy) {
      needed.insert(p.actions.front());
      continue;
    }
    for (std::size_t i = 0; i < p.actions.size(); ++i) {
      if (!cfg.own_functions.contains(p.actions[i])) continue;
      // The box may serve position i; it then needs the next function that
      // it does not itself implement (local continuation covers the rest).
      std::size_t j = i;
      while (j + 1 < p.actions.size() && cfg.own_functions.contains(p.actions[j + 1])) ++j;
      if (j + 1 < p.actions.size()) needed.insert(p.actions[j + 1]);
    }
  }
  return needed;
}

}  // namespace

std::vector<std::string> validate_plan(const EnforcementPlan& plan,
                                       const net::GeneratedNetwork& network,
                                       const Deployment& deployment,
                                       const policy::PolicyList& policies) {
  std::vector<std::string> violations;
  const auto complain = [&](std::string text) { violations.push_back(std::move(text)); };

  // 1. Coverage: every proxy and middlebox must be configured.
  for (const net::NodeId proxy : network.proxies) {
    if (!plan.has_config(proxy)) {
      complain("proxy node " + std::to_string(proxy.v) + " has no config");
    }
  }
  for (const MiddleboxInfo& m : deployment.middleboxes()) {
    if (!plan.has_config(m.node)) complain("middlebox " + m.name + " has no config");
  }

  for (const auto& [node_v, cfg] : plan.configs) {
    const std::string who = "node " + std::to_string(node_v);

    // 2. Per-function candidate sets must be well-formed.
    for (std::uint8_t ev = 0; ev < policy::kMaxFunctions; ++ev) {
      const policy::FunctionId e{ev};
      for (const net::NodeId cand : cfg.candidates[ev]) {
        const MiddleboxInfo* info = deployment.find(cand);
        if (info == nullptr) {
          complain(who + ": candidate " + std::to_string(cand.v) + " is not a middlebox");
        } else {
          if (!info->functions.contains(e)) {
            complain(who + ": candidate " + info->name + " does not implement function " +
                     std::to_string(ev));
          }
          if (info->failed) {
            complain(who + ": candidate " + info->name + " is marked failed");
          }
        }
      }
      if (cfg.own_functions.contains(e) && !cfg.candidates[ev].empty()) {
        complain(who + ": has candidates for its own function " + std::to_string(ev) +
                 " (Π_x excludes own functions)");
      }
    }

    // 3. Every forwarding obligation must be satisfiable.
    for (const policy::FunctionId e : forwarding_obligations(cfg, policies).to_vector()) {
      if (cfg.candidates_for(e).empty()) {
        complain(who + ": needs function " + std::to_string(e.v) +
                 " for a relevant policy but has no candidates");
      }
    }

    // 4. Every split share the device holds, Eq. (1) and Eq. (2) alike,
    // must target one of its candidates for that function.
    cfg.ratios.for_each([&](policy::FunctionId e, policy::PolicyId p, int, int,
                            const std::vector<SplitRatioTable::Share>& shares) {
      const auto& cands = cfg.candidates_for(e);
      for (const auto& share : shares) {
        if (std::find(cands.begin(), cands.end(), share.to) == cands.end()) {
          complain(who + ": LB share for policy " + std::to_string(p.v) +
                   " targets non-candidate node " + std::to_string(share.to.v));
        }
      }
    });
  }
  return violations;
}

}  // namespace sdmbox::core
