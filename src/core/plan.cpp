#include "core/plan.hpp"

namespace sdmbox::core {

const char* to_string(StrategyKind s) noexcept {
  switch (s) {
    case StrategyKind::kHotPotato: return "hot-potato";
    case StrategyKind::kRandom: return "random";
    case StrategyKind::kLoadBalanced: return "load-balanced";
  }
  return "?";
}

void SplitRatioTable::set(policy::FunctionId e, policy::PolicyId p, std::vector<Share> shares,
                          int s, int d) {
  SDM_CHECK(e.valid() && e.v < policy::kMaxFunctions && p.valid());
  SDM_CHECK_MSG((s == -1 && d == -1) || (s >= 0 && d >= 0),
                "split ratio subnet pair must be (-1, -1) or two subnet indices");
  double total = 0;
  for (const Share& share : shares) {
    SDM_CHECK_MSG(share.weight >= 0, "negative split weight");
    total += share.weight;
  }
  if (total <= 0) return;  // nothing to record; selection falls back to hot-potato
  const Key key{e.v, p.v, s, d};
  const auto it = std::ranges::lower_bound(entries_, key, {}, &Entry::key);
  if (it != entries_.end() && it->key == key) {
    it->shares = std::move(shares);
  } else {
    entries_.insert(it, Entry{key, std::move(shares)});
  }
}

const std::vector<SplitRatioTable::Share>* SplitRatioTable::lookup(
    const Key& key) const noexcept {
  const auto it = std::ranges::lower_bound(entries_, key, {}, &Entry::key);
  return it != entries_.end() && it->key == key ? &it->shares : nullptr;
}

const std::vector<SplitRatioTable::Share>* SplitRatioTable::find(policy::FunctionId e,
                                                                  policy::PolicyId p, int s,
                                                                  int d) const noexcept {
  const std::vector<Share>* exact = lookup(Key{e.v, p.v, s, d});
  return exact != nullptr ? exact : lookup(Key{e.v, p.v, -1, -1});
}

std::size_t SplitRatioTable::detailed_size() const noexcept {
  return static_cast<std::size_t>(
      std::ranges::count_if(entries_, [](const Entry& entry) { return entry.key.s >= 0; }));
}

std::size_t SplitRatioTable::total_shares() const noexcept {
  std::size_t n = 0;
  for (const Entry& entry : entries_) n += entry.shares.size();
  return n;
}

DeviceConfig slice_for_device(const EnforcementPlan& plan, net::NodeId device,
                              std::uint64_t version) {
  return DeviceConfig{plan.strategy, version, plan.config(device)};
}

DistributionFootprint measure_distribution(const EnforcementPlan& plan) {
  DistributionFootprint fp;
  fp.devices = plan.configs.size();
  for (const auto& [node, cfg] : plan.configs) {
    fp.policy_entries += cfg.relevant_policies.size();
    for (const auto& cands : cfg.candidates) fp.candidate_entries += cands.size();
    fp.ratio_entries += cfg.ratios.total_shares();
  }
  fp.total_bytes = fp.candidate_entries * DistributionFootprint::kCandidateBytes +
                   fp.policy_entries * DistributionFootprint::kPolicyBytes +
                   fp.ratio_entries * DistributionFootprint::kRatioBytes;
  return fp;
}

}  // namespace sdmbox::core
