#include "core/strategy.hpp"

namespace sdmbox::core {

namespace {

/// The paper's probabilistic selection: r = hash(flow) in [0, N);
/// y_i is chosen when cum_{i-1}/W <= r/N < cum_i/W. A stored entry's total
/// weight W is positive (SplitRatioTable::set).
net::NodeId pick_by_weights(const std::vector<SplitRatioTable::Share>& shares,
                            const packet::FlowId& flow) {
  const double r = static_cast<double>(flow.hash(kLbStrategySeed) >> 11) * 0x1.0p-53;  // [0,1)
  double total = 0;
  for (const auto& s : shares) total += s.weight;
  double cum = 0;
  for (const auto& s : shares) {
    cum += s.weight / total;
    if (r < cum) return s.to;
  }
  return shares.back().to;  // guard against rounding at r ≈ 1
}

}  // namespace

net::NodeId select_next_hop(StrategyKind strategy, const NodeConfig& cfg, const policy::Policy& p,
                            policy::FunctionId e, const packet::FlowId& flow, int src_subnet,
                            int dst_subnet) {
  // A device implementing e itself performs it locally — Π_x excludes own
  // functions, so there is no candidate set and no forwarding (§III.B).
  if (cfg.own_functions.contains(e)) return cfg.node;
  const std::vector<net::NodeId>& candidates = cfg.candidates_for(e);
  if (candidates.empty()) return net::NodeId{};

  switch (strategy) {
    case StrategyKind::kHotPotato:
      return candidates.front();

    case StrategyKind::kRandom:
      return candidates[flow.hash(kRandStrategySeed) % candidates.size()];

    case StrategyKind::kLoadBalanced:
      // The flow's Eq. (1) per-(s,d,p) entry, else the aggregate one.
      if (const auto* shares = cfg.ratios.find(e, p.id, src_subnet, dst_subnet)) {
        return pick_by_weights(*shares, flow);
      }
      // No ratios for this (x, e, p): the measurement period saw no such
      // traffic, so the LP had nothing to balance. Fall back to hot-potato.
      return candidates.front();
  }
  return net::NodeId{};
}

net::NodeId select_next_hop(const EnforcementPlan& plan, net::NodeId at, const policy::Policy& p,
                            policy::FunctionId e, const packet::FlowId& flow, int src_subnet,
                            int dst_subnet) {
  return select_next_hop(plan.strategy, plan.config(at), p, e, flow, src_subnet, dst_subnet);
}

}  // namespace sdmbox::core
