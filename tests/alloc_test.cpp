// The datapath's zero-allocation contract (DESIGN.md §8): once a wave of
// traffic has grown the event pools, calendar lanes, flow/label tables and
// per-link state to their high-water marks, an identical second wave
// performs no heap allocation at all — with bare forwarding, with agents
// behind the §III.D flow cache, and with §III.E label switching on top.
// Flow-table hits, misses and evictions at capacity, and label-table hits,
// allocate nothing either.
//
// This binary replaces the global allocation functions with counting
// wrappers around malloc/free, so it must stay its own test executable.
// Every form of operator new is replaced together with its matching
// deletes: leaving one form to the runtime (or to ASan's interceptors)
// would pair an allocation with the wrong deallocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "core/agents.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"
#include "tables/flow_table.hpp"
#include "tables/label_table.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace sdmbox {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

enum class Datapath { kBare, kFlowCache, kLabelSwitching };

struct WaveResult {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t label_switched = 0;
  std::size_t packets = 0;
};

/// Sends every packet of the campus workload from its proxy twice, in two
/// identical waves over an LB plan, and reports what the second wave cost.
WaveResult second_wave(Datapath datapath) {
  testing::ScenarioParams sp;
  sp.seed = 2019;
  sp.target_packets = 5000;
  testing::Scenario s = testing::make_scenario(sp);
  const core::EnforcementPlan plan =
      s.controller->compile(core::StrategyKind::kLoadBalanced, &s.traffic);
  const auto routing = net::RoutingTables::compute(s.network.topo);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);
  core::InstalledAgents agents;
  if (datapath != Datapath::kBare) {
    core::AgentOptions options;
    options.enable_label_switching = datapath == Datapath::kLabelSwitching;
    agents = core::install_agents(simnet, s.network, s.deployment, s.gen.policies, plan, options);
  }
  const auto label_switched = [&] {
    std::uint64_t n = 0;
    for (const core::ProxyAgent* p : agents.proxies) n += p->counters().label_switched_packets;
    return n;
  };

  // Packets are built once, outside the counted window.
  std::vector<std::pair<net::NodeId, packet::Packet>> wave;
  for (const auto& f : s.flows.flows) {
    const net::NodeId proxy = s.network.proxies[static_cast<std::size_t>(f.src_subnet)];
    for (std::uint64_t j = 0; j < f.packets; ++j) {
      packet::Packet p;
      p.inner.src = f.id.src;
      p.inner.dst = f.id.dst;
      p.inner.protocol = f.id.protocol;
      p.src_port = f.id.src_port;
      p.dst_port = f.id.dst_port;
      p.payload_bytes = 500;
      p.flow_seq = j;
      wave.emplace_back(proxy, p);
    }
  }
  const auto send = [&] {
    const double base = simnet.simulator().now();
    for (std::size_t i = 0; i < wave.size(); ++i) {
      simnet.inject(wave[i].first, wave[i].second, base + 1e-7 * static_cast<double>(i));
    }
    simnet.run();
  };

  send();  // warm-up: grows every pool and table to its high-water mark
  const std::uint64_t events_before = simnet.simulator().events_processed();
  const std::uint64_t delivered_before = simnet.counters().delivered;
  const std::uint64_t label_switched_before = label_switched();
  const std::uint64_t allocations_before = allocations();
  send();
  WaveResult r;
  r.allocations = allocations() - allocations_before;
  r.events = simnet.simulator().events_processed() - events_before;
  r.delivered = simnet.counters().delivered - delivered_before;
  r.label_switched = label_switched() - label_switched_before;
  r.packets = wave.size();
  return r;
}

void expect_allocation_free(const WaveResult& r) {
  EXPECT_EQ(r.allocations, 0u) << "over " << r.events << " events";
  // The wave did real work: every packet delivered, several hops each.
  EXPECT_EQ(r.delivered, r.packets);
  EXPECT_GT(r.events, 2 * r.packets);
}

TEST(AllocationFree, BareForwardingWave) { expect_allocation_free(second_wave(Datapath::kBare)); }

TEST(AllocationFree, FlowCacheAgentsWave) {
  expect_allocation_free(second_wave(Datapath::kFlowCache));
}

TEST(AllocationFree, LabelSwitchingAgentsWave) {
  const WaveResult r = second_wave(Datapath::kLabelSwitching);
  expect_allocation_free(r);
  EXPECT_EQ(r.label_switched, r.packets);  // every flow's label was set up in the warm-up
}

constexpr std::size_t kLive = 1 << 12;

std::vector<packet::FlowId> make_flows(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<packet::FlowId> flows(kLive);
  for (packet::FlowId& f : flows) {
    f.src = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
    f.dst = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
    f.src_port = static_cast<std::uint16_t>(49152 + rng.next_below(16384));
    f.dst_port = static_cast<std::uint16_t>(rng.next_below(10000));
  }
  return flows;
}

TEST(AllocationFree, FlowTableHitsMissesAndEvictionsAtCapacity) {
  const std::vector<packet::FlowId> flows = make_flows(1);
  const std::vector<packet::FlowId> strangers = make_flows(2);
  tables::FlowTable table(1e18, kLive);
  for (const auto& f : flows) table.insert(f, policy::PolicyId{1}, {}, 0.0);

  const std::uint64_t before = allocations();
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const auto& f : flows) hits += table.lookup(f, 1.0) != nullptr;
  for (const auto& f : strangers) misses += table.lookup(f, 1.0) == nullptr;
  // The table is full, so every stranger evicts the least recently used entry.
  for (const auto& f : strangers) table.insert(f, policy::PolicyId{1}, {}, 2.0);
  EXPECT_EQ(allocations() - before, 0u);

  EXPECT_EQ(hits, kLive);
  EXPECT_EQ(misses, kLive);
  EXPECT_EQ(table.stats().evictions, kLive);
  EXPECT_EQ(table.size(), kLive);
}

TEST(AllocationFree, LabelTableHits) {
  const std::vector<packet::FlowId> flows = make_flows(1);
  tables::LabelTable table(1e18);
  std::vector<tables::LabelKey> keys;
  for (std::size_t i = 0; i < kLive; ++i) {
    keys.push_back(tables::LabelKey{flows[i].src, static_cast<std::uint16_t>(i)});
    tables::LabelEntry e;
    e.final_dst = flows[i].dst;
    table.insert(keys.back(), std::move(e), 0.0);
  }

  const std::uint64_t before = allocations();
  std::size_t hits = 0;
  for (const auto& k : keys) hits += table.lookup(k, 1.0) != nullptr;
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(hits, kLive);
}

}  // namespace
}  // namespace sdmbox
