// Next-middlebox selection — the data-plane half of each enforcement strategy.
//
// All three strategies are pure functions of (the device's NodeConfig,
// policy, next function, flow 5-tuple and its subnet pair): hot-potato picks
// the closest candidate; random picks uniformly by flow hash; load-balanced
// picks with probability proportional to the split ratios the device holds,
// one table lookup for Eq. (1) and Eq. (2) alike, using the paper's
// cumulative-hash scheme (§III.C): hash the flow id to r ∈ [0, N) and select
// the candidate whose cumulative weight bracket contains r/N.
//
// Determinism matters twice over: packets of one flow must all take the same
// chain (so per-flow state like labels works), and the analytic evaluator
// must reproduce the simulator's choices exactly.
#pragma once

#include "core/plan.hpp"
#include "packet/packet.hpp"

namespace sdmbox::core {

/// Hash seeds decorrelate the random strategy's choice from the
/// load-balanced bracket position for the same flow.
inline constexpr std::uint64_t kRandStrategySeed = 0x52414e44;  // "RAND"
inline constexpr std::uint64_t kLbStrategySeed = 0x4c42;        // "LB"
inline constexpr std::uint64_t kWpCacheSeed = 0x575043;         // "WPC"

/// Deterministic per-flow web-proxy cache outcome (§III.F: a cached page is
/// served by the WP and the request does not continue down the chain). All
/// packets of a flow share the outcome, so the analytic evaluator and the
/// packet simulator agree on which chains truncate.
inline bool wp_cache_hit(const packet::FlowId& flow, double hit_rate) noexcept {
  if (hit_rate <= 0) return false;
  const double r = static_cast<double>(flow.hash(kWpCacheSeed) >> 11) * 0x1.0p-53;
  return r < hit_rate;
}

/// Device-local selection: what a proxy/middlebox computes from ITS OWN
/// pushed configuration (candidate sets + split ratios). Returns an invalid
/// NodeId iff the device has no candidate for `e` (a deployment hole the
/// controller's plan audit would have flagged).
///
/// `src_subnet` / `dst_subnet` (the flow's subnet indices, -1 if unknown)
/// select an Eq. (1) per-(s,d,p) entry where the device holds one; the
/// aggregate Eq. (2) entry is the fallback, then hot-potato.
net::NodeId select_next_hop(StrategyKind strategy, const NodeConfig& cfg, const policy::Policy& p,
                            policy::FunctionId e, const packet::FlowId& flow,
                            int src_subnet = -1, int dst_subnet = -1);

inline net::NodeId select_next_hop(const DeviceConfig& device, const policy::Policy& p,
                                   policy::FunctionId e, const packet::FlowId& flow,
                                   int src_subnet = -1, int dst_subnet = -1) {
  return select_next_hop(device.strategy, device.node, p, e, flow, src_subnet, dst_subnet);
}

/// Global-plan convenience used by the controller-side evaluators.
net::NodeId select_next_hop(const EnforcementPlan& plan, net::NodeId at, const policy::Policy& p,
                            policy::FunctionId e, const packet::FlowId& flow,
                            int src_subnet = -1, int dst_subnet = -1);

}  // namespace sdmbox::core
