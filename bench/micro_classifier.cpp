// Micro-benchmark: multi-field classification — linear first-match scan vs
// the hierarchical-trie classifier (§III.D's software lookup), across rule
// set sizes, plus the flow-cache fast path that §III.D puts in front of both.
#include <benchmark/benchmark.h>

#include "policy/classifier.hpp"
#include "tables/flow_table.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdmbox;

struct RuleSet {
  policy::PolicyList list;
  std::vector<packet::FlowId> probes;
};

RuleSet make_rule_set(std::size_t n_rules, std::uint64_t seed) {
  RuleSet rs;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n_rules; ++i) {
    policy::TrafficDescriptor td;
    // Realistic-ish mix: subnet sources, subnet or wildcard destinations,
    // mostly exact service ports.
    td.src = net::Prefix(net::IpAddress(static_cast<std::uint32_t>(rng.next_u64())),
                         static_cast<std::uint8_t>(12 + rng.next_below(13)));
    if (rng.next_bool(0.5)) {
      td.dst = net::Prefix(net::IpAddress(static_cast<std::uint32_t>(rng.next_u64())),
                           static_cast<std::uint8_t>(12 + rng.next_below(13)));
    }
    if (rng.next_bool(0.8)) {
      td.dst_port = policy::PortRange::exactly(static_cast<std::uint16_t>(rng.next_below(10000)));
    }
    rs.list.add(td, {policy::kFirewall, policy::kIntrusionDetection});
  }
  // Probe mix: half biased into rule space (hits), half uniform (misses).
  for (std::size_t i = 0; i < 4096; ++i) {
    packet::FlowId f;
    if (i % 2 == 0 && n_rules > 0) {
      const auto& rule = rs.list.all()[rng.pick_index(n_rules)].descriptor;
      f.src = net::IpAddress(rule.src.base().value() + static_cast<std::uint32_t>(rng.next_below(64)));
      f.dst = net::IpAddress(rule.dst.base().value() + static_cast<std::uint32_t>(rng.next_below(64)));
      f.dst_port = rule.dst_port.lo;
    } else {
      f.src = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
      f.dst = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
      f.dst_port = static_cast<std::uint16_t>(rng.next_below(65536));
    }
    f.src_port = static_cast<std::uint16_t>(49152 + rng.next_below(16384));
    rs.probes.push_back(f);
  }
  return rs;
}

void BM_LinearClassifier(benchmark::State& state) {
  const RuleSet rs = make_rule_set(static_cast<std::size_t>(state.range(0)), 1);
  const auto classifier = policy::make_linear_classifier(rs.list);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier->first_match(rs.probes[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LinearClassifier)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_TrieClassifier(benchmark::State& state) {
  const RuleSet rs = make_rule_set(static_cast<std::size_t>(state.range(0)), 1);
  const auto classifier = policy::make_trie_classifier(rs.list);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier->first_match(rs.probes[i++ & 4095]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["bytes"] = static_cast<double>(classifier->memory_bytes());
}
BENCHMARK(BM_TrieClassifier)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FlowCacheHit(benchmark::State& state) {
  // §III.D fast path: the per-packet cost once a flow's first packet paid
  // for classification.
  const RuleSet rs = make_rule_set(1024, 1);
  tables::FlowTable table(1e9, 1 << 20);
  for (const auto& f : rs.probes) table.insert(f, policy::PolicyId{1}, {policy::kFirewall}, 0.0);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(rs.probes[i++ & 4095], 1.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowCacheHit);

}  // namespace
