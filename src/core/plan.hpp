// The enforcement plan: everything the controller pushes to the SDM devices.
//
// Per proxy/middlebox x the controller distributes (§III.B/C):
//  * P_x — the relevant slice of the networkwide policy list, in list order;
//  * for every function e in Π_x, the candidate set M_x^e (k closest
//    middleboxes implementing e, closest first — so candidates.front() is
//    the hot-potato target m_x^e);
//  * under load balancing, the split ratios t_{e,p}(x, y) (and, for the
//    Eq. (1) ablation, t_{s,d,p}(x, y)).
// All three live in x's NodeConfig, so one device's slice of the plan is a
// copy of its config.
// The same plan drives both the packet-level agents (core/agents) and the
// flow-level analytic evaluator (analytic/), which is what makes their load
// accounting provably identical.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/deployment.hpp"
#include "net/topology.hpp"
#include "policy/policy.hpp"

namespace sdmbox::core {

enum class StrategyKind : std::uint8_t {
  kHotPotato,     // HP: always the closest middlebox m_x^e (§III.B)
  kRandom,        // Rand: per-flow uniform choice over M_x^e (§IV baseline)
  kLoadBalanced,  // LB: per-flow choice with probability ∝ t_{e,p}(x,y) (§III.C)
};

const char* to_string(StrategyKind s) noexcept;

/// One device's split ratios under LB, kept sorted by (function e, policy
/// p, source subnet s, destination subnet d). Two granularities, mirroring
/// the paper's two formulations:
///  * (s, d) = (-1, -1) — the aggregate t_{e,p}(x, y) of Eq. (2);
///  * s, d >= 0 — the detailed t_{s,d,p}(x, y) of Eq. (1), for flows from
///    subnet s to subnet d.
/// Every stored entry has a positive total weight. Iteration order, and so
/// the wire order, depends only on the contents.
class SplitRatioTable {
public:
  struct Share {
    net::NodeId to;
    double weight = 0;  // traffic volume assigned to this next hop
  };

  /// Store the shares for (e, p, s, d), replacing any earlier entry. Shares
  /// whose weights sum to zero are not stored (selection falls back to
  /// hot-potato). Throws on a negative weight, or on an (s, d) that is
  /// neither (-1, -1) nor two subnet indices.
  void set(policy::FunctionId e, policy::PolicyId p, std::vector<Share> shares, int s = -1,
           int d = -1);

  /// The (s, d) entry for (e, p) if there is one, else the aggregate entry,
  /// else nullptr (callers fall back to hot-potato).
  const std::vector<Share>* find(policy::FunctionId e, policy::PolicyId p, int s = -1,
                                 int d = -1) const noexcept;

  /// Entries, aggregate and detailed.
  std::size_t size() const noexcept { return entries_.size(); }
  /// Detailed (Eq. (1)) entries.
  std::size_t detailed_size() const noexcept;
  /// Individual (next hop, weight) shares across all entries.
  std::size_t total_shares() const noexcept;

  /// Visit every entry in key order as (e, p, s, d, shares).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : entries_) {
      const Key& k = entry.key;
      fn(policy::FunctionId{k.e}, policy::PolicyId{k.p}, k.s, k.d, entry.shares);
    }
  }

  /// Remove every share for which keep(e, to) is false, aggregate and
  /// detailed alike; entries left with no positive weight are erased so
  /// selection falls back there. Used by failure patching to drop shares
  /// that point at a dead or evicted candidate without re-solving the LP.
  template <typename Keep>
  void filter_shares(Keep&& keep) {
    std::erase_if(entries_, [&](Entry& entry) {
      const policy::FunctionId e{entry.key.e};
      std::erase_if(entry.shares, [&](const Share& s) { return !keep(e, s.to); });
      return std::none_of(entry.shares.begin(), entry.shares.end(),
                          [](const Share& s) { return s.weight > 0; });
    });
  }

private:
  struct Key {
    std::uint8_t e;
    std::uint32_t p;
    int s;
    int d;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Entry {
    Key key;
    std::vector<Share> shares;
  };
  const std::vector<Share>* lookup(const Key& key) const noexcept;

  std::vector<Entry> entries_;  // sorted by key
};

/// Configuration installed at one proxy or middlebox.
struct NodeConfig {
  net::NodeId node;
  bool is_proxy = false;
  /// Functions this device implements itself (empty for proxies). A device
  /// never needs candidates for its own functions — it processes them
  /// locally (Π_x excludes them, §III.B).
  policy::FunctionSet own_functions;
  /// P_x: relevant policies, ascending id (list order preserved).
  std::vector<policy::PolicyId> relevant_policies;
  /// M_x^e per function e in Π_x, ordered closest-first.
  std::vector<std::vector<net::NodeId>> candidates =
      std::vector<std::vector<net::NodeId>>(policy::kMaxFunctions);
  /// t(x, y) under LB: this device's split ratios; empty otherwise.
  SplitRatioTable ratios;

  const std::vector<net::NodeId>& candidates_for(policy::FunctionId e) const {
    SDM_CHECK(e.valid() && e.v < candidates.size());
    return candidates[e.v];
  }
  /// m_x^e — the hot-potato target.
  net::NodeId closest(policy::FunctionId e) const {
    const auto& c = candidates_for(e);
    return c.empty() ? net::NodeId{} : c.front();
  }
};

/// The full compiled plan for one strategy.
struct EnforcementPlan {
  StrategyKind strategy = StrategyKind::kHotPotato;
  /// Configs keyed by NodeId.v, for every proxy and middlebox.
  std::unordered_map<std::uint32_t, NodeConfig> configs;
  /// λ reported by the LP (kLoadBalanced only); 0 otherwise.
  double lambda = 0;

  const NodeConfig& config(net::NodeId node) const {
    const auto it = configs.find(node.v);
    SDM_CHECK_MSG(it != configs.end(), "node has no enforcement config");
    return it->second;
  }
  bool has_config(net::NodeId node) const noexcept { return configs.contains(node.v); }
};

/// Everything one device needs from the controller: its config (assignment
/// slice, policy slice, split ratios) and the strategy to apply — the unit
/// of configuration the control plane serializes and pushes (§III.A: the
/// controller "pre-configures the middleboxes"). `version` lets a device
/// discard stale or replayed pushes.
struct DeviceConfig {
  StrategyKind strategy = StrategyKind::kHotPotato;
  std::uint64_t version = 0;
  NodeConfig node;
};

/// The slice of a compiled plan destined for one device: a copy of its
/// config under the plan's strategy.
DeviceConfig slice_for_device(const EnforcementPlan& plan, net::NodeId device,
                              std::uint64_t version = 0);

/// Modeled size of the controller -> device configuration push — the
/// "communication overhead" the paper reduces by moving from Eq. (1) to
/// Eq. (2). Entry sizes model a compact wire encoding: a candidate is a
/// (function id, middlebox address) pair, a policy slice entry a compressed
/// descriptor + action list, a split share a (function, policy, address,
/// weight) tuple.
struct DistributionFootprint {
  std::uint64_t devices = 0;
  std::uint64_t candidate_entries = 0;  // Σ_x Σ_e |M_x^e|
  std::uint64_t policy_entries = 0;     // Σ_x |P_x|
  std::uint64_t ratio_entries = 0;      // Σ split shares
  std::uint64_t total_bytes = 0;

  static constexpr std::uint64_t kCandidateBytes = 5;   // function + IPv4 address
  static constexpr std::uint64_t kPolicyBytes = 16;     // descriptor + action list
  static constexpr std::uint64_t kRatioBytes = 14;      // e, p, address, weight
};

DistributionFootprint measure_distribution(const EnforcementPlan& plan);

}  // namespace sdmbox::core
