// Traffic measurements reported by the policy proxies (§III.C).
//
// The controller's LPs consume per-policy volumes at three granularities:
//   T_p       — total volume matching policy p,
//   T_{s,p}   — volume from source subnet s matching p,
//   T_{s,d,p} — volume from s to d matching p (Eq. (1) only).
// Eq. (2) aggregates destinations away, so no per-destination total is kept.
// Volumes are in packets, matching the paper's load metric.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "policy/policy.hpp"
#include "workload/flow_gen.hpp"

namespace sdmbox::workload {

/// How measure() samples a flow set. Defaults count every flow; a
/// sample_rate below 1 turns on the classic NetFlow-style estimator: keep
/// each flow with probability sample_rate (deterministic per 5-tuple hash
/// and seed) and scale kept volumes by 1/sample_rate — what a proxy does
/// when it cannot afford to count every flow.
struct MeasureOptions {
  double sample_rate = 1.0;  // in (0, 1]
  std::uint64_t seed = 0;    // sampler hash seed
};

class TrafficMatrix {
public:
  /// Measure a flow set against a policy list (first-match). Flows matching
  /// no policy contribute nothing. This is what the proxies would report in
  /// aggregate over a measurement period.
  static TrafficMatrix measure(const policy::PolicyList& policies,
                               std::span<const FlowRecord> flows,
                               const MeasureOptions& options = {});

  /// Accumulate one measured sample — the control plane assembles the
  /// matrix from proxy reports via this (each report line is "policy p,
  /// from my subnet s, toward subnet d, v packets").
  void add_sample(policy::PolicyId p, int src_subnet, int dst_subnet, double volume);

  double total(policy::PolicyId p) const { return get(total_, key1(p)); }
  double from(policy::PolicyId p, int src_subnet) const { return get(from_, key2(p, src_subnet)); }
  double between(policy::PolicyId p, int src_subnet, int dst_subnet) const {
    return get(pair_, key3(p, src_subnet, dst_subnet));
  }

  /// (s, d) pairs with nonzero T_{s,d,p}, lexicographic.
  std::vector<std::pair<int, int>> active_pairs(policy::PolicyId p) const;

  /// Sum of T_p over all policies.
  double grand_total() const noexcept { return grand_total_; }

private:
  static std::uint64_t key1(policy::PolicyId p) noexcept { return p.v; }
  static std::uint64_t key2(policy::PolicyId p, int subnet) noexcept {
    return (std::uint64_t{p.v} << 24) | static_cast<std::uint32_t>(subnet);
  }
  static std::uint64_t key3(policy::PolicyId p, int s, int d) noexcept {
    return (std::uint64_t{p.v} << 48) | (static_cast<std::uint64_t>(s) << 24) |
           static_cast<std::uint32_t>(d);
  }
  static double get(const std::unordered_map<std::uint64_t, double>& m, std::uint64_t k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  }

  std::unordered_map<std::uint64_t, double> total_;
  std::unordered_map<std::uint64_t, double> from_;
  std::unordered_map<std::uint64_t, double> pair_;
  double grand_total_ = 0;
};

/// Measure a whole stream exactly as TrafficMatrix::measure measures a flow
/// list, without ever materializing the list.
TrafficMatrix measure_stream(const policy::PolicyList& policies, FlowStream& stream,
                             const MeasureOptions& options = {});

}  // namespace sdmbox::workload
