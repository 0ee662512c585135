// Ablation A2 (§III.D): per-packet handling cost with and without the flow
// cache, and with/without negative caching, under a realistic flow-churn
// mix.
#include <benchmark/benchmark.h>

#include "policy/classifier.hpp"
#include "tables/flow_table.hpp"
#include "util/rng.hpp"

namespace {

using namespace sdmbox;

struct Workbench {
  policy::PolicyList list;
  std::unique_ptr<policy::Classifier> classifier;
  std::vector<packet::FlowId> packets;  // packet arrival sequence (flows repeat)
};

/// `hit_fraction` of packets belong to flows seen before (temporal locality);
/// `match_fraction` of flows match some policy.
Workbench make_workbench(double match_fraction, std::uint64_t seed) {
  Workbench wb;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < 512; ++i) {
    policy::TrafficDescriptor td;
    td.src = net::Prefix(net::IpAddress(10, static_cast<std::uint8_t>(i / 2), 0, 0), 17);
    td.dst_port = policy::PortRange::exactly(static_cast<std::uint16_t>(1000 + i));
    wb.list.add(td, {policy::kFirewall, policy::kIntrusionDetection});
  }
  wb.classifier = policy::make_trie_classifier(wb.list);

  // 2k flows, ~16 packets each, interleaved.
  std::vector<packet::FlowId> flows;
  for (std::size_t i = 0; i < 2048; ++i) {
    packet::FlowId f;
    const bool match = rng.next_bool(match_fraction);
    f.src = net::IpAddress((10u << 24) | (static_cast<std::uint32_t>(rng.next_below(256)) << 16) |
                           static_cast<std::uint32_t>(rng.next_below(65536)));
    f.dst = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
    f.dst_port = match ? static_cast<std::uint16_t>(1000 + rng.next_below(512))
                       : static_cast<std::uint16_t>(40000 + rng.next_below(9000));
    f.src_port = static_cast<std::uint16_t>(49152 + rng.next_below(16384));
    flows.push_back(f);
  }
  for (std::size_t round = 0; round < 16; ++round) {
    for (const auto& f : flows) wb.packets.push_back(f);
  }
  return wb;
}

void BM_PerPacket_NoCache(benchmark::State& state) {
  const Workbench wb = make_workbench(0.5, 1);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wb.classifier->first_match(wb.packets[i]));
    i = (i + 1) % wb.packets.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PerPacket_NoCache);

void BM_PerPacket_FlowCache(benchmark::State& state) {
  const Workbench wb = make_workbench(0.5, 1);
  tables::FlowTable table(1e9, 1 << 16);
  std::size_t i = 0;
  double now = 0;
  for (auto _ : state) {
    now += 1e-6;
    const packet::FlowId& f = wb.packets[i];
    i = (i + 1) % wb.packets.size();
    tables::FlowEntry* entry = table.lookup(f, now);
    if (entry == nullptr) {
      const policy::Policy* p = wb.classifier->first_match(f);
      // Negative caching included: misses insert a null entry (§III.D).
      entry = &table.insert(f, p ? p->id : policy::PolicyId{}, now);
    }
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["hit_rate"] = table.stats().hit_rate();
}
BENCHMARK(BM_PerPacket_FlowCache);

void BM_PerPacket_CacheWithoutNegativeEntries(benchmark::State& state) {
  // The §III.D refinement removed: non-matching flows are NOT cached, so
  // every packet of a non-matching flow pays the classifier again.
  const Workbench wb = make_workbench(0.5, 1);
  tables::FlowTable table(1e9, 1 << 16);
  std::size_t i = 0;
  double now = 0;
  for (auto _ : state) {
    now += 1e-6;
    const packet::FlowId& f = wb.packets[i];
    i = (i + 1) % wb.packets.size();
    tables::FlowEntry* entry = table.lookup(f, now);
    if (entry == nullptr) {
      const policy::Policy* p = wb.classifier->first_match(f);
      if (p != nullptr) table.insert(f, p->id, now);
      benchmark::DoNotOptimize(p);
    }
    benchmark::DoNotOptimize(entry);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PerPacket_CacheWithoutNegativeEntries);

}  // namespace
