// The datapath's zero-allocation contract (DESIGN.md §8): once a wave of
// traffic has grown the event pools, calendar lanes, flow/label tables and
// per-link state to their high-water marks, an identical second wave
// performs no heap allocation at all — with bare forwarding, with agents
// behind the §III.D flow cache, and with §III.E label switching on top.
// So does a label-switched wave traced in full into the live enforcement
// oracle, once a tunneled and a label-switched wave have grown the oracle's
// packet slab, index and history pool. So does a wave of fresh flows that
// misses every full flow cache on its path, where each miss classifies,
// evicts and inserts. Flow-table hits, misses and evictions at capacity,
// and label-table hits, allocate nothing either.
// And a control message that claims more elements than its bytes can hold
// is rejected before its decoder reserves room for them. Footprint cases
// bound what a small flow table, its label bitmap under flow turnover,
// epoch-series binding and the JSON export allocate at all.
//
// This binary replaces the global allocation functions with wrappers
// around malloc/free that count calls and bytes, so it must stay its own
// test executable.
// Every form of operator new is replaced together with its matching
// deletes: leaving one form to the runtime (or to ASan's interceptors)
// would pair an allocation with the wrong deallocator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "control/codec.hpp"
#include "core/agents.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"
#include "tables/flow_table.hpp"
#include "tables/label_table.hpp"
#include "util/rng.hpp"
#include "verify/oracle.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void count(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_malloc(std::size_t size) noexcept {
  count(size);
  return std::malloc(size != 0 ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  count(size);
  // aligned_alloc wants a size that is a nonzero multiple of the alignment.
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, size == 0 ? a : (size + a - 1) / a * a);
}

// Out of line: once a delete inlines into a new-expression's cleanup path,
// GCC's -Wmismatched-new-delete pairs the free() it sees with the replaced
// operator new and reports a mismatch that is not there.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

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
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
// Over-aligned types (the calendar's cache-line packet slots) allocate
// through these.
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) { return operator new(size, align); }
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { release(p); }

namespace sdmbox {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
std::uint64_t allocated_bytes() { return g_allocated_bytes.load(std::memory_order_relaxed); }

enum class Datapath {
  kBare,
  kFlowCache,
  kFlowCacheMisses,  // a fresh 5-tuple per flow in the measured wave
  kLabelSwitching,
  kVerifiedLabelSwitching,
};

/// Per-agent flow-table capacity of the miss wave: every table that holds a
/// flow after the warm-up is full, so each miss evicts.
constexpr std::size_t kMissWaveTableCapacity = 3;

/// The oracle's verdict over every wave of a verified run.
struct Verdict {
  bool ok = false;
  std::uint64_t tracked = 0;
  std::uint64_t delivered_ok = 0;
  std::string summary;
};

struct WaveResult {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t label_switched = 0;
  std::uint64_t proxy_misses = 0;  // flow-cache misses at the proxies
  std::size_t packets = 0;
  std::size_t flows = 0;
  std::size_t tables_not_full = 0;  // miss wave: non-empty flow tables not full after the warm-up
  std::optional<Verdict> verify;  // verified datapath only
};

/// Sends every packet of the campus workload from its proxy in identical
/// waves over an LB plan, and reports what the last wave cost. One warm-up
/// wave precedes it; the verified datapath gets a second, label-switched one.
/// The miss wave runs a hot-potato plan, whose picks ignore the flow hash,
/// so its fresh 5-tuples take the warm-up's paths at the warm-up's times.
WaveResult measured_wave(Datapath datapath) {
  testing::ScenarioParams sp;
  sp.seed = 2019;
  sp.target_packets = 5000;
  testing::Scenario s = testing::make_scenario(sp);
  const bool misses = datapath == Datapath::kFlowCacheMisses;
  const core::EnforcementPlan plan = s.controller->compile(
      misses ? core::StrategyKind::kHotPotato : core::StrategyKind::kLoadBalanced, &s.traffic);
  const auto routing = net::RoutingTables::compute(s.network.topo);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);
  core::InstalledAgents agents;
  if (datapath != Datapath::kBare) {
    core::AgentOptions options;
    options.enable_label_switching = datapath == Datapath::kLabelSwitching ||
                                     datapath == Datapath::kVerifiedLabelSwitching;
    if (misses) options.flow_table_capacity = kMissWaveTableCapacity;
    agents = core::install_agents(simnet, s.network, s.deployment, s.gen.policies, plan, options);
  }
  // Every packet traced, into a ring small enough to fill during the
  // warm-up, so the measured wave only overwrites it.
  obs::PathTracer tracer(1.0, 4096);
  std::optional<verify::InvariantOracle> oracle;
  if (datapath == Datapath::kVerifiedLabelSwitching) {
    oracle.emplace(s.network, s.deployment, s.gen.policies, plan, &s.catalog);
    tracer.set_observer(&*oracle);
    simnet.set_tracer(&tracer);
  }
  const auto label_switched = [&] {
    std::uint64_t n = 0;
    for (const core::ProxyAgent* p : agents.proxies) n += p->counters().label_switched_packets;
    return n;
  };
  const auto proxy_misses = [&] {
    std::uint64_t n = 0;
    for (const core::ProxyAgent* p : agents.proxies) n += p->flow_table().stats().misses;
    return n;
  };

  // Packets are built once, outside the counted window. A fresh flow moves
  // its ephemeral port out of the range [49152, 65536) that generated flows
  // draw from: it keeps the original's policy and subnet pair, and no
  // generated flow shares its 5-tuple.
  std::vector<std::pair<net::NodeId, packet::Packet>> wave;
  std::vector<std::pair<net::NodeId, packet::Packet>> fresh_wave;
  for (const auto& f : s.flows.flows) {
    const net::NodeId proxy = s.network.proxies[static_cast<std::size_t>(f.src_subnet)];
    packet::FlowId fresh = f.id;
    std::uint16_t& port = fresh.src_port >= 49152 ? fresh.src_port : fresh.dst_port;
    port ^= 0x8000;
    EXPECT_EQ(s.gen.policies.first_match(fresh), s.gen.policies.first_match(f.id))
        << f.id.to_string();
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
      p.src_port = fresh.src_port;
      p.dst_port = fresh.dst_port;
      fresh_wave.emplace_back(proxy, p);
    }
  }
  const auto send = [&](const std::vector<std::pair<net::NodeId, packet::Packet>>& packets) {
    const double base = simnet.simulator().now();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      simnet.inject(packets[i].first, packets[i].second, base + 1e-7 * static_cast<double>(i));
    }
    simnet.run();
  };

  send(wave);  // warm-up: grows every pool and table to its high-water mark
  // The first wave is almost all tunneled; a label-switched one grows the
  // oracle's state for switched packets.
  if (oracle.has_value()) send(wave);
  WaveResult r;
  const auto count_tables_not_full = [&](const auto& devices) {
    for (const core::DeviceAgent* d : devices) {
      const std::size_t size = d->flow_table().size();
      r.tables_not_full += size != 0 && size != kMissWaveTableCapacity;
    }
  };
  if (misses) {
    count_tables_not_full(agents.proxies);
    count_tables_not_full(agents.middleboxes);
  }
  const std::uint64_t events_before = simnet.simulator().events_processed();
  const std::uint64_t delivered_before = simnet.counters().delivered;
  const std::uint64_t label_switched_before = label_switched();
  const std::uint64_t proxy_misses_before = proxy_misses();
  const std::uint64_t allocations_before = allocations();
  send(misses ? fresh_wave : wave);
  r.allocations = allocations() - allocations_before;
  r.events = simnet.simulator().events_processed() - events_before;
  r.delivered = simnet.counters().delivered - delivered_before;
  r.label_switched = label_switched() - label_switched_before;
  r.proxy_misses = proxy_misses() - proxy_misses_before;
  r.packets = wave.size();
  r.flows = s.flows.flows.size();
  if (oracle.has_value()) {
    const verify::VerifyReport& report = oracle->finish();
    r.verify = Verdict{report.ok(), report.packets_tracked, report.packets_delivered_ok,
                       report.summary()};
  }
  return r;
}

void expect_allocation_free(const WaveResult& r) {
  EXPECT_EQ(r.allocations, 0u) << "over " << r.events << " events";
  // The wave did real work: every packet delivered, several hops each.
  EXPECT_EQ(r.delivered, r.packets);
  EXPECT_GT(r.events, 2 * r.packets);
}

TEST(AllocationFree, BareForwardingWave) { expect_allocation_free(measured_wave(Datapath::kBare)); }

TEST(AllocationFree, FlowCacheAgentsWave) {
  expect_allocation_free(measured_wave(Datapath::kFlowCache));
}

TEST(AllocationFree, FlowCacheMissWaveAtCapacity) {
  // Every flow of the measured wave is new to every table on its path, so
  // each agent classifies its first packet and evicts to insert it.
  const WaveResult r = measured_wave(Datapath::kFlowCacheMisses);
  expect_allocation_free(r);
  EXPECT_EQ(r.tables_not_full, 0u);
  EXPECT_EQ(r.proxy_misses, r.flows);
}

TEST(AllocationFree, LabelSwitchingAgentsWave) {
  const WaveResult r = measured_wave(Datapath::kLabelSwitching);
  expect_allocation_free(r);
  EXPECT_EQ(r.label_switched, r.packets);  // every flow's label was set up in the warm-up
}

TEST(AllocationFree, VerifiedLabelSwitchingWave) {
  const WaveResult r = measured_wave(Datapath::kVerifiedLabelSwitching);
  expect_allocation_free(r);
  EXPECT_EQ(r.label_switched, r.packets);
  ASSERT_TRUE(r.verify.has_value());
  EXPECT_TRUE(r.verify->ok) << r.verify->summary;
  EXPECT_EQ(r.verify->tracked, 3 * r.packets);
  EXPECT_EQ(r.verify->delivered_ok, r.verify->tracked);
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
  for (const auto& f : flows) table.insert(f, policy::PolicyId{1}, 0.0);

  const std::uint64_t before = allocations();
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const auto& f : flows) hits += table.lookup(f, 1.0) != nullptr;
  for (const auto& f : strangers) misses += table.lookup(f, 1.0) == nullptr;
  // The table is full, so every stranger evicts the least recently used entry.
  for (const auto& f : strangers) table.insert(f, policy::PolicyId{1}, 2.0);
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
    table.insert(keys.back(), tables::LabelTable::hash_of(keys.back()), e, 0.0);
  }

  const std::uint64_t before = allocations();
  std::size_t hits = 0;
  for (const auto& k : keys) hits += table.lookup(k, 1.0) != nullptr;
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(hits, kLive);
}

// Footprints: what a small table and the epoch series allocate at all.

TEST(Footprint, SmallUnlabeledFlowTableStaysUnderFourKilobytes) {
  // A small flow table that hands out no label (a middlebox's, or a proxy's
  // without label switching) holds one slab chunk and the smallest index:
  // no chunk sized for hundreds of flows, and no label bitmap.
  const std::vector<packet::FlowId> flows = make_flows(3);
  const std::uint64_t before = allocated_bytes();
  {
    tables::FlowTable table;
    for (std::size_t i = 0; i < 10; ++i) table.insert(flows[i], policy::PolicyId{1}, 0.0);
    ASSERT_EQ(table.size(), 10u);
    EXPECT_LE(allocated_bytes() - before, 4096u);
  }
}

TEST(Footprint, LabelBitmapFollowsTheHighestLabelHandedOut) {
  // Labels come from a rolling counter, so the bitmap covers the highest
  // label ever handed out, not the live ones: a table whose labeled flows
  // keep turning over doubles it each time the counter passes a power of
  // two, up to 2^16 bits (8 KB). Once the counter has wrapped, fresh
  // labeled flows allocate nothing.
  constexpr std::size_t kCapacity = 64;
  tables::FlowTable table(1e18, kCapacity);
  std::uint32_t next = 0;
  const auto label_fresh_flows = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i, ++next) {
      packet::FlowId f;
      f.src = net::IpAddress(next);
      f.dst = net::IpAddress(~next);
      table.allocate_label(table.insert(f, policy::PolicyId{1}, 0.0));
    }
  };
  label_fresh_flows(kCapacity);  // labels 1..64: a 128-bit bitmap

  const std::uint64_t before = allocations();
  const std::uint64_t before_bytes = allocated_bytes();
  label_fresh_flows(0x10000);  // each evicts; the counter passes 0xffff and wraps
  EXPECT_LE(allocations() - before, 9u);  // 256, 512, ..., 65,536 bits
  EXPECT_LE(allocated_bytes() - before_bytes, 16384u);

  const std::uint64_t wrapped = allocations();
  label_fresh_flows(0x10000);
  EXPECT_EQ(allocations() - wrapped, 0u);
  EXPECT_EQ(table.size(), kCapacity);
  EXPECT_EQ(table.stats().evictions, 2u * 0x10000);
}

/// A registry of `n` counters, each with a long name and two labels whose
/// values outgrow any short-string buffer.
struct LongNamedMetrics {
  explicit LongNamedMetrics(std::size_t n) : values(n) {
    for (std::size_t i = 0; i < n; ++i) {
      registry.expose_counter("flow_cache_negative_hits_of_metric_" + std::to_string(i),
                              obs::Labels{{"device", "middlebox_device_" + std::to_string(i)},
                                          {"subsystem", "flow_table_subsystem"}},
                              &values[i]);
    }
  }

  std::vector<std::uint64_t> values;
  obs::MetricsRegistry registry;
};

TEST(Footprint, EpochSeriesShareTheRegistrysKeys) {
  // Binding copies no key, name or label: each series allocates its map
  // node and its values, and the recorder one index of bound series.
  constexpr std::size_t kMetrics = 256;
  LongNamedMetrics m(kMetrics);
  obs::EpochRecorder recorder(m.registry, 1.0);
  const std::uint64_t before = allocations();
  recorder.sample(0.0);  // binds every metric, then records one epoch
  const std::uint64_t bind = allocations() - before;
  EXPECT_LE(bind, 2 * kMetrics + 2);
  ASSERT_EQ(recorder.series_count(), kMetrics);
}

TEST(Footprint, JsonExportAllocationsDoNotGrowWithTheRegistry) {
  // to_json renders the registry and the series where they live, into one
  // string reserved up front: no per-metric copy and no regrowth.
  const auto export_allocations = [](std::size_t n) {
    LongNamedMetrics m(n);
    obs::EpochRecorder recorder(m.registry, 1.0);
    for (int epoch = 0; epoch < 4; ++epoch) {
      for (std::size_t i = 0; i < n; ++i) m.values[i] += i * static_cast<std::size_t>(epoch);
      recorder.sample(epoch);
    }
    const std::uint64_t before = allocations();
    const std::string json = obs::to_json(m.registry, &recorder);
    const std::uint64_t made = allocations() - before;
    EXPECT_NE(json.find("flow_cache_negative_hits_of_metric_" + std::to_string(n - 1)),
              std::string::npos);
    return made;
  };
  const std::uint64_t small = export_allocations(16);
  const std::uint64_t large = export_allocations(1024);
  EXPECT_EQ(large, small);
  EXPECT_LE(small, 1u);
}

/// `bytes` with the little-endian `width`-byte field that ends
/// `from_end` bytes before the end of the message set to `value`.
std::vector<std::uint8_t> with_count(std::vector<std::uint8_t> bytes, std::size_t from_end,
                                     std::size_t width, std::uint32_t value) {
  const std::size_t at = bytes.size() - from_end - width;
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  return bytes;
}

TEST(DecodeAllocations, OversizedCountClaimsRejectedBeforeReserve) {
  // Each message is well formed except for one element count, raised past
  // what the bytes after it can hold. Decoding it must fail without
  // allocating more than decoding the empty message of its type does.
  core::DeviceConfig empty_config;
  empty_config.node.node = net::NodeId{17};
  const std::vector<std::uint8_t> config = control::encode_device_config(empty_config);
  const std::vector<std::uint8_t> report = control::encode_measurement_report({});

  core::DeviceConfig with_candidate = empty_config;
  with_candidate.node.candidates[policy::kFirewall.v] = {net::NodeId{60}};
  core::DeviceConfig with_share = empty_config;
  with_share.node.ratios.set(policy::kFirewall, policy::PolicyId{3}, {{net::NodeId{60}, 1.0}});
  core::DeviceConfig with_detailed_share = empty_config;
  with_detailed_share.node.ratios.set(policy::kFirewall, policy::PolicyId{3},
                                      {{net::NodeId{60}, 1.0}}, 0, 1);
  struct Claim {
    const char* what;
    std::vector<std::uint8_t> bytes;
  };
  // What follows each count: the empty config's policy count is followed
  // by non_empty (1 byte) and the two ratio counts (4 + 4); a candidate
  // count by its one id and the ratio counts; a share count by its one
  // share (12) and, in an aggregate entry, the detailed count.
  const Claim config_claims[] = {
      {"relevant policies", with_count(config, 9, 4, 1'000'000)},
      {"candidates", with_count(control::encode_device_config(with_candidate), 12, 2, 65'535)},
      {"shares", with_count(control::encode_device_config(with_share), 16, 2, 65'535)},
      {"detailed shares",
       with_count(control::encode_device_config(with_detailed_share), 12, 2, 65'535)},
  };

  std::uint64_t before = allocations();
  ASSERT_TRUE(control::decode_device_config(config).has_value());
  const std::uint64_t empty_config_cost = allocations() - before;
  for (const Claim& c : config_claims) {
    before = allocations();
    const bool decoded = control::decode_device_config(c.bytes).has_value();
    const std::uint64_t cost = allocations() - before;
    EXPECT_FALSE(decoded) << c.what;
    EXPECT_LE(cost, empty_config_cost) << c.what;
  }

  before = allocations();
  ASSERT_TRUE(control::decode_measurement_report(report).has_value());
  const std::uint64_t empty_report_cost = allocations() - before;
  const std::vector<std::uint8_t> lines = with_count(report, 0, 4, 10'000'000);
  ASSERT_EQ(lines.size(), 10u);
  before = allocations();
  const bool decoded = control::decode_measurement_report(lines).has_value();
  const std::uint64_t cost = allocations() - before;
  EXPECT_FALSE(decoded);
  EXPECT_LE(cost, empty_report_cost);
}

}  // namespace
}  // namespace sdmbox
