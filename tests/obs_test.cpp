// Telemetry layer: registry semantics (views over component-owned values,
// label lookup, duplicate and kind checking), the deterministic
// collect()/export ordering every dump depends on, the flow sampler's
// seed-stability (same seed => byte-identical trace JSON), and epoch
// alignment between the recorder and the simulator clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "util/check.hpp"

namespace sdmbox {
namespace {

using obs::EpochRecorder;
using obs::Labels;
using obs::MetricKind;
using obs::MetricsRegistry;
using obs::PathTracer;
using obs::Span;
using obs::SpanId;
using obs::SpanTracer;
using obs::TraceSampler;

packet::FlowId make_flow(std::uint32_t i) {
  packet::FlowId f;
  f.src = net::IpAddress(10, 0, 0, static_cast<std::uint8_t>(i));
  f.dst = net::IpAddress(10, 1, static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i));
  f.src_port = static_cast<std::uint16_t>(1024 + i);
  f.dst_port = 80;
  return f;
}

TEST(Labels, SortedRenderAndLookup) {
  Labels l{{"subsystem", "proxy"}, {"device", "proxy3"}};
  EXPECT_EQ(l.render(), "{device=\"proxy3\",subsystem=\"proxy\"}");  // sorted by key
  ASSERT_NE(l.get("device"), nullptr);
  EXPECT_EQ(*l.get("device"), "proxy3");
  EXPECT_EQ(l.get("missing"), nullptr);
  l.set("device", "proxy4");  // overwrite, not duplicate
  EXPECT_EQ(*l.get("device"), "proxy4");
  EXPECT_EQ(l.items().size(), 2u);
  EXPECT_EQ(Labels{}.render(), "");
}

TEST(Registry, OwnedInstrumentsAndLabelLookup) {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  MetricsRegistry reg;
  reg.expose_counter("packets", Labels{{"device", "p0"}}, &a);
  reg.expose_counter("packets", Labels{{"device", "p1"}}, &b);
  a = 4;
  b = 4;
  EXPECT_EQ(reg.value("packets", Labels{{"device", "p0"}}), 4.0);
  EXPECT_EQ(reg.value("packets", Labels{{"device", "p1"}}), 4.0);
  EXPECT_EQ(reg.value("packets", Labels{{"device", "p9"}}), std::nullopt);
  EXPECT_EQ(reg.total("packets"), 8.0);
  EXPECT_EQ(reg.total("absent"), 0.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, ExposedViewsReadLiveValues) {
  MetricsRegistry reg;
  std::uint64_t hits = 0;
  double level = 1.5;
  reg.expose_counter("hits", {}, &hits);
  reg.expose_gauge("level", {}, [&] { return level; });
  hits = 7;
  level = 2.5;
  EXPECT_EQ(reg.value("hits"), 7.0);
  EXPECT_EQ(reg.value("level"), 2.5);
}

TEST(Registry, KindMismatchAndDuplicateViewsAreContractViolations) {
  std::uint64_t v = 0;
  MetricsRegistry reg;
  reg.expose_counter("x", {}, &v);
  EXPECT_THROW(reg.expose_gauge("x", {}, [] { return 0.0; }), ContractViolation);
  reg.expose_counter("y", {}, &v);
  EXPECT_THROW(reg.expose_counter("y", {}, &v), ContractViolation);
}

TEST(Registry, CollectIsSortedByNameThenLabels) {
  std::uint64_t v = 0;
  MetricsRegistry reg;
  // Registered in scrambled order on purpose.
  reg.expose_counter("zeta", Labels{{"device", "b"}}, &v);
  reg.expose_gauge("alpha", {}, [] { return 0.0; });
  reg.expose_counter("zeta", Labels{{"device", "a"}}, &v);
  reg.expose_counter("mid", Labels{{"subsystem", "net"}}, &v);
  const auto samples = reg.collect();
  std::vector<std::string> keys;
  for (const auto& s : samples) keys.push_back(s.name + s.labels.render());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), "alpha");
  EXPECT_EQ(keys.back(), "zeta{device=\"b\"}");
}

TEST(Sampler, DeterministicPerSeedAndMonotoneInRate) {
  const TraceSampler s1(0.25), s2(0.25), other(0.25, /*seed=*/99);
  const TraceSampler none(0.0), all(1.0);
  int picked = 0, differs = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const packet::FlowId f = make_flow(i);
    EXPECT_EQ(s1.sampled(f), s2.sampled(f));  // same seed, same verdict, always
    if (s1.sampled(f)) ++picked;
    if (s1.sampled(f) != other.sampled(f)) ++differs;
    EXPECT_FALSE(none.sampled(f));
    EXPECT_TRUE(all.sampled(f));
  }
  // ~25% of flows sampled, and a different seed picks a different set.
  EXPECT_GT(picked, 2000 / 8);
  EXPECT_LT(picked, 2000 / 2);
  EXPECT_GT(differs, 0);
}

// The acceptance property for dumps: identical runs serialize to identical
// bytes. Exercised here at the unit level by performing the same operations
// twice against fresh objects.
TEST(Export, SameOperationsYieldByteIdenticalJson) {
  const auto run = [] {
    const std::uint64_t p1 = 11;
    const std::uint64_t p0 = 5;
    stats::Histogram lat;
    MetricsRegistry reg;
    reg.expose_counter("pkts", Labels{{"device", "p1"}}, &p1);
    reg.expose_counter("pkts", Labels{{"device", "p0"}}, &p0);
    reg.expose_gauge("load", Labels{{"subsystem", "net"}}, [] { return 0.375; });
    reg.expose_histogram("lat", {}, &lat);
    lat.add(1.0);
    lat.add(3.0);
    PathTracer tracer(0.5);
    for (std::uint32_t i = 0; i < 64; ++i) {
      tracer.record(obs::Hop::kInjected, make_flow(i), 0.1 * i, net::NodeId{i});
      tracer.record(obs::Hop::kDelivered, make_flow(i), 0.1 * i + 0.05, net::NodeId{i + 1});
    }
    return obs::to_json(reg) + "\n---\n" + obs::trace_to_json(tracer);
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"pkts\""), std::string::npos);
  EXPECT_NE(a.find("failover_reroute"), a.find("injected"));  // hops serialized by name
}

TEST(Export, PrometheusAndCsvShapes) {
  const std::uint64_t pkts = 2;
  stats::Histogram lat;
  lat.add(4.0);
  MetricsRegistry reg;
  reg.expose_counter("pkts", Labels{{"device", "p0"}}, &pkts);
  reg.expose_histogram("lat", {}, &lat);
  const std::string prom = obs::to_prometheus(reg);
  EXPECT_NE(prom.find("# TYPE pkts counter"), std::string::npos);
  EXPECT_NE(prom.find("pkts{device=\"p0\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("lat_count"), std::string::npos);
  // render_for_path picks the format from the extension.
  EXPECT_EQ(obs::render_for_path(reg, nullptr, "out.prom"), prom);
  const std::string csv = obs::render_for_path(reg, nullptr, "out.csv");
  EXPECT_EQ(csv.compare(0, 6, "epoch,"), 0);
  const std::string json = obs::render_for_path(reg, nullptr, "out.json");
  EXPECT_EQ(json.front(), '{');
}

// The copying renderers the in-place exporters replaced, kept as
// references: they render collect(), series() and records() copies, and
// every exporter must match them byte for byte.
void copying_labels_json(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.items()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += obs::json_escape(k);
    out += "\":\"";
    out += obs::json_escape(v);
    out += '"';
  }
  out += '}';
}

void copying_histogram_json(std::string& out, const stats::HistogramSnapshot& h) {
  out += "{\"count\":";
  out += obs::json_number(static_cast<double>(h.count));
  out += ",\"sum\":";
  out += obs::json_number(h.sum);
  out += ",\"min\":";
  out += obs::json_number(h.min);
  out += ",\"max\":";
  out += obs::json_number(h.max);
  out += ",\"mean\":";
  out += obs::json_number(h.mean);
  out += ",\"quantiles\":{";
  for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += obs::json_number(h.quantiles[i]);
    out += "\":";
    out += obs::json_number(h.values[i]);
  }
  out += "}}";
}

std::string copying_to_json(const MetricsRegistry& registry, const EpochRecorder* series) {
  std::string out = "{\n  \"metrics\": [\n";
  const auto samples = registry.collect();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const obs::MetricSample& s = samples[i];
    out += "    {\"name\":\"";
    out += obs::json_escape(s.name);
    out += "\",\"labels\":";
    copying_labels_json(out, s.labels);
    out += ",\"kind\":\"";
    out += obs::to_string(s.kind);
    out += "\",\"value\":";
    out += obs::json_number(s.value);
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"histogram\":";
      copying_histogram_json(out, s.histogram);
    }
    out += '}';
    if (i + 1 < samples.size()) out += ',';
    out += '\n';
  }
  out += "  ]";
  if (series != nullptr) {
    out += ",\n  \"series\": {\n    \"period\": ";
    out += obs::json_number(series->period());
    out += ",\n    \"epochs\": [";
    const auto& epochs = series->epochs();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      if (i) out += ',';
      out += obs::json_number(epochs[i]);
    }
    out += "],\n    \"metrics\": [\n";
    const auto all = series->series();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      out += "      {\"name\":\"";
      out += obs::json_escape(s.name);
      out += "\",\"labels\":";
      copying_labels_json(out, s.labels);
      out += ",\"values\":[";
      for (std::size_t j = 0; j < s.values.size(); ++j) {
        if (j) out += ',';
        out += obs::json_number(s.values[j]);
      }
      out += "]}";
      if (i + 1 < all.size()) out += ',';
      out += '\n';
    }
    out += "    ]\n  }";
  }
  out += "\n}\n";
  return out;
}

std::string copying_to_prometheus(const MetricsRegistry& registry) {
  std::string out;
  std::string last_name;
  for (const obs::MetricSample& s : registry.collect()) {
    if (s.name != last_name) {
      out += "# TYPE ";
      out += s.name;
      out += ' ';
      out += s.kind == MetricKind::kHistogram ? "summary" : obs::to_string(s.kind);
      out += '\n';
      last_name = s.name;
    }
    if (s.kind == MetricKind::kHistogram) {
      const auto& h = s.histogram;
      out += s.name + "_count" + s.labels.render() + ' ' +
             obs::json_number(static_cast<double>(h.count)) + '\n';
      out += s.name + "_sum" + s.labels.render() + ' ' + obs::json_number(h.sum) + '\n';
      for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
        Labels with_q = s.labels;
        with_q.set("quantile", obs::json_number(h.quantiles[i]));
        out += s.name + with_q.render() + ' ' + obs::json_number(h.values[i]) + '\n';
      }
    } else {
      out += s.name + s.labels.render() + ' ' + obs::json_number(s.value) + '\n';
    }
  }
  return out;
}

std::string copying_to_csv(const EpochRecorder& recorder) {
  const auto all = recorder.series();
  std::string out = "epoch";
  for (const auto& s : all) {
    out += ',';
    out += '"';
    for (char c : s.name + s.labels.render()) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  }
  out += '\n';
  const auto& epochs = recorder.epochs();
  for (std::size_t row = 0; row < epochs.size(); ++row) {
    out += obs::json_number(epochs[row]);
    for (const auto& s : all) {
      out += ',';
      out += obs::json_number(s.values[row]);
    }
    out += '\n';
  }
  return out;
}

std::string copying_trace_to_json(const PathTracer& tracer, const net::Topology* topo) {
  const std::vector<obs::TraceRecord> records = tracer.sink().records();
  std::map<packet::FlowId, std::size_t> order;
  std::vector<std::pair<packet::FlowId, std::vector<const obs::TraceRecord*>>> flows;
  for (const obs::TraceRecord& r : records) {
    auto [it, inserted] = order.try_emplace(r.flow, flows.size());
    if (inserted) flows.emplace_back(r.flow, std::vector<const obs::TraceRecord*>{});
    flows[it->second].second.push_back(&r);
  }

  std::string out = "{\n  \"sample_rate\": ";
  out += obs::json_number(tracer.sampler().rate());
  out += ",\n  \"seed\": ";
  out += obs::json_number(static_cast<double>(tracer.sampler().seed()));
  out += ",\n  \"recorded\": ";
  out += obs::json_number(static_cast<double>(tracer.sink().recorded()));
  out += ",\n  \"overwritten\": ";
  out += obs::json_number(static_cast<double>(tracer.sink().dropped()));
  out += ",\n  \"flows\": [\n";
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& [flow, hops] = flows[i];
    out += "    {\"flow\":\"";
    out += obs::json_escape(flow.to_string());
    out += "\",\"hops\":[\n";
    for (std::size_t j = 0; j < hops.size(); ++j) {
      const obs::TraceRecord& r = *hops[j];
      out += "      {\"at\":";
      out += obs::json_number(r.at);
      out += ",\"node\":";
      out += obs::json_number(static_cast<double>(r.node.v));
      if (topo != nullptr && r.node.v < topo->node_count()) {
        out += ",\"device\":\"";
        out += obs::json_escape(topo->node(r.node).name);
        out += '"';
      }
      out += ",\"hop\":\"";
      out += obs::to_string(r.hop);
      out += '"';
      if (r.detail != 0) {
        out += ",\"detail\":";
        out += obs::json_number(static_cast<double>(r.detail));
      }
      if (r.seq != 0) {
        out += ",\"seq\":";
        out += obs::json_number(static_cast<double>(r.seq));
      }
      out += '}';
      if (j + 1 < hops.size()) out += ',';
      out += '\n';
    }
    out += "    ]}";
    if (i + 1 < flows.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

TEST(Export, MetricsRenderingsMatchCopyingReference) {
  std::uint64_t p0 = 3;
  const std::uint64_t p1 = 17;
  double load = 0.375;
  stats::Histogram lat;
  stats::Histogram own_quantile;
  MetricsRegistry reg;
  // Labels that need JSON escaping and CSV quote doubling; a histogram
  // whose labels sort on both sides of `quantile`, and one whose own
  // `quantile` label the Prometheus summary replaces.
  reg.expose_counter("pkts", Labels{{"device", "p\"0\\"}}, &p0);
  reg.expose_counter("pkts", Labels{{"device", "p1"}, {"subsystem", "net\n\t"}}, &p1);
  reg.expose_gauge("load", {}, [&] { return load; });
  reg.expose_histogram("lat", Labels{{"device", "p0"}, {"subsystem", "health"}}, &lat);
  reg.expose_histogram("lat", Labels{{"quantile", "own"}, {"z", "1"}}, &own_quantile);
  EpochRecorder rec(reg, 0.5);
  rec.sample(0.0);
  p0 += 2;
  load = 1.0 / 3;
  lat.add(1.0);
  rec.sample(0.5);
  // Registered after two epochs: its series is left-padded.
  const std::uint64_t late = 9;
  reg.expose_counter("late", Labels{{"device", "p2"}}, &late);
  lat.add(2.5);
  own_quantile.add(-4.25);
  load = 1e300;
  rec.sample(1.25);
  // Registered after the last epoch: in the metrics, in no series yet.
  reg.expose_gauge("after_last", {}, [] { return std::numeric_limits<double>::quiet_NaN(); });
  reg.expose_gauge("inf", Labels{{"device", "p3"}},
                   [] { return -std::numeric_limits<double>::infinity(); });

  const std::string json = obs::to_json(reg, &rec);
  EXPECT_EQ(json, copying_to_json(reg, &rec));
  EXPECT_EQ(obs::to_json(reg), copying_to_json(reg, nullptr));
  EXPECT_EQ(obs::to_csv(rec), copying_to_csv(rec));
  EXPECT_EQ(obs::to_prometheus(reg), copying_to_prometheus(reg));
  EXPECT_NE(json.find("{\"name\":\"late\",\"labels\":{\"device\":\"p2\"},\"values\":[0,0,9]}"),
            std::string::npos);
  EXPECT_EQ(rec.find("after_last", {}), nullptr);

  // A recorder that has not sampled yet, and an empty registry.
  const EpochRecorder idle(reg, 1.0);
  EXPECT_EQ(obs::to_json(reg, &idle), copying_to_json(reg, &idle));
  EXPECT_EQ(obs::to_csv(idle), copying_to_csv(idle));
  const MetricsRegistry empty;
  EXPECT_EQ(obs::to_json(empty), copying_to_json(empty, nullptr));
  EXPECT_EQ(obs::to_prometheus(empty), copying_to_prometheus(empty));
}

TEST(Export, TraceJsonMatchesCopyingReference) {
  net::Topology topo;
  topo.add_node(net::NodeKind::kPolicyProxy, "proxy\"0", net::IpAddress(10, 0, 0, 1));
  topo.add_node(net::NodeKind::kMiddlebox, "fw\\1", net::IpAddress(10, 0, 0, 2));
  topo.add_node(net::NodeKind::kMiddlebox, "ids2", net::IpAddress(10, 0, 0, 3));
  // Five flows, interleaved. The ring keeps the last 8 of 30 records, whose
  // flows first appear in the order 3, 2, 4, 1, 0, and every flow loses its
  // oldest records.
  constexpr std::uint32_t kFlowOf[30] = {0, 1, 2, 3, 4, 0, 2, 4, 1, 3, 4, 4, 0, 1, 2,
                                         3, 0, 1, 2, 4, 1, 0, 3, 3, 2, 4, 1, 0, 2, 3};
  const auto fill = [&](PathTracer& tracer) {
    for (std::uint32_t i = 0; i < 30; ++i) {
      // Node 3 is outside the topology, so its records carry no device.
      tracer.record(static_cast<obs::Hop>(i % 23), make_flow(kFlowOf[i]), 0.1 * i,
                    net::NodeId{i % 4}, /*detail=*/i % 3 == 0 ? 0 : 100 + i,
                    /*seq=*/i % 4 == 0 ? 0 : i);
    }
  };
  PathTracer wrapped(1.0, /*capacity=*/8);
  fill(wrapped);
  ASSERT_EQ(wrapped.sink().dropped(), 22u);
  const std::string json = obs::trace_to_json(wrapped, &topo);
  EXPECT_EQ(json, copying_trace_to_json(wrapped, &topo));
  EXPECT_EQ(obs::trace_to_json(wrapped), copying_trace_to_json(wrapped, nullptr));
  // Flows appear in the order of their first surviving record.
  std::vector<std::size_t> at;
  for (const std::uint32_t f : {3, 2, 4, 1, 0}) {
    at.push_back(json.find("\"flow\":\"" + make_flow(f).to_string() + "\""));
    ASSERT_NE(at.back(), std::string::npos) << f;
  }
  EXPECT_TRUE(std::is_sorted(at.begin(), at.end()));

  PathTracer whole(1.0, /*capacity=*/64);
  fill(whole);
  ASSERT_EQ(whole.sink().dropped(), 0u);
  EXPECT_EQ(obs::trace_to_json(whole, &topo), copying_trace_to_json(whole, &topo));
  const PathTracer untraced(0.0);
  EXPECT_EQ(obs::trace_to_json(untraced, &topo), copying_trace_to_json(untraced, &topo));
}

TEST(Epochs, RecorderAlignsWithSimulatorClock) {
  sim::Simulator sim;
  std::uint64_t pkts = 0;
  MetricsRegistry reg;
  reg.expose_counter("pkts", {}, &pkts);
  EpochRecorder rec(reg, 0.5);
  std::vector<double> sampled_at;
  rec.start(
      [&](double d, std::function<void()> fn) {
        sim.schedule_in(d, [&, fn = std::move(fn)] {
          sampled_at.push_back(sim.now());
          fn();
        });
      },
      [&] { return sim.now(); });
  sim.schedule_at(0.7, [&] { pkts += 10; });
  sim.schedule_at(1.2, [&] { pkts += 5; });
  sim.schedule_at(2.2, [&] { rec.stop(); });
  sim.run();

  // First snapshot at t=0 (start), then every 0.5 s on the simulator's own
  // calendar until stop(): epochs are exactly the simulated sample times.
  const std::vector<double> expect = {0.0, 0.5, 1.0, 1.5, 2.0};
  ASSERT_EQ(rec.epochs(), expect);
  const auto series = rec.series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].values, (std::vector<double>{0, 0, 10, 15, 15}));
}

TEST(Epochs, LateRegisteredSeriesAreLeftPadded) {
  const std::uint64_t early = 1;
  const std::uint64_t late = 9;
  MetricsRegistry reg;
  reg.expose_counter("early", {}, &early);
  EpochRecorder rec(reg, 1.0);
  rec.sample(0.0);
  rec.sample(1.0);
  reg.expose_counter("late", {}, &late);
  rec.sample(2.0);
  const auto series = rec.series();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "early");
  EXPECT_EQ(series[1].name, "late");
  EXPECT_EQ(series[1].values, (std::vector<double>{0, 0, 9}));
}

TEST(Epochs, RestartAfterStopKeepsOneChain) {
  sim::Simulator sim;
  const std::uint64_t pkts = 0;
  MetricsRegistry reg;
  reg.expose_counter("pkts", {}, &pkts);
  EpochRecorder rec(reg, 0.5);
  const EpochRecorder::ScheduleIn schedule = [&](double d, std::function<void()> fn) {
    sim.schedule_in(d, std::move(fn));
  };
  const EpochRecorder::Clock clock = [&] { return sim.now(); };
  rec.start(schedule, clock);
  // A restart within one period: the stopped chain's tick, still pending
  // for t = 1.0, must not sample or reschedule — only the new chain does.
  sim.schedule_at(0.7, [&] {
    rec.stop();
    rec.start(schedule, clock);
  });
  sim.schedule_at(2.05, [&] { rec.stop(); });
  sim.run();

  const std::vector<double> expect = {0.0, 0.5, 0.7, 1.2, 1.7};
  ASSERT_EQ(rec.epochs().size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_DOUBLE_EQ(rec.epochs()[i], expect[i]) << "epoch " << i;
  }
  EXPECT_EQ(sim.pending(), 0u);
}

/// The recorder's reference algorithm: collect every sample, render its
/// labels, and look its series up by that key, left-padding new series.
/// Each series owns a copy of its name and labels.
struct ReferenceRecorder {
  struct Series {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> values;
  };

  explicit ReferenceRecorder(const MetricsRegistry& r) : registry(r) {}

  void sample(double now) {
    epochs.push_back(now);
    for (obs::MetricSample& s : registry.collect()) {
      std::string key = s.name;
      key += '\0';
      key += s.labels.render();
      auto [it, inserted] = series.try_emplace(std::move(key));
      Series& out = it->second;
      if (inserted) {
        out.name = std::move(s.name);
        out.labels = std::move(s.labels);
        out.kind = s.kind;
      }
      out.values.resize(epochs.size() - 1, 0.0);
      out.values.push_back(s.value);
    }
  }

  const MetricsRegistry& registry;
  std::vector<double> epochs;
  std::map<std::string, Series> series;
};

void expect_matches_reference(const EpochRecorder& rec, const ReferenceRecorder& ref) {
  ASSERT_EQ(rec.epochs(), ref.epochs);
  const auto all = rec.series();
  ASSERT_EQ(all.size(), ref.series.size());
  std::size_t i = 0;
  for (const auto& [key, want] : ref.series) {
    const EpochRecorder::Series& got = all[i++];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.kind, want.kind);
    std::vector<double> padded = want.values;
    padded.resize(ref.epochs.size(), 0.0);
    EXPECT_EQ(got.values, padded) << want.name << want.labels.render();

    const EpochRecorder::Series* found = rec.find(want.name, want.labels);
    ASSERT_NE(found, nullptr) << want.name << want.labels.render();
    EXPECT_EQ(found->values, want.values);
    EXPECT_EQ(rec.latest(want.name, want.labels),
              want.values.empty() ? std::nullopt : std::optional<double>(want.values.back()));
    const auto named = rec.find_all(want.name);
    EXPECT_NE(std::find(named.begin(), named.end(), found), named.end());
  }
  EXPECT_EQ(rec.find("absent", {}), nullptr);
}

TEST(Epochs, InPlaceSamplingMatchesCollectRenderLookup) {
  // Counters, closure gauges and histograms. The registry grows before the
  // first sample and between later ones, with metrics that sort before,
  // among and after the ones already bound.
  std::uint64_t p1 = 0;
  std::uint64_t p0 = 0;
  double load = 0.25;
  stats::Histogram lat;
  const std::uint64_t a_first = 3;
  std::uint64_t viewed = 4;
  stats::Histogram health;
  const std::uint64_t zero = 1;
  const std::uint64_t last = 2;
  MetricsRegistry reg;
  reg.expose_counter("m_pkts", Labels{{"device", "p1"}}, &p1);
  reg.expose_gauge("m_load", Labels{{"subsystem", "net"}}, [&] { return load; });
  reg.expose_histogram("lat", {}, &lat);
  EpochRecorder rec(reg, 1.0);
  ReferenceRecorder ref(reg);

  reg.expose_counter("a_first", {}, &a_first);
  reg.expose_counter("z_view", Labels{{"device", "p9"}}, &viewed);
  rec.sample(0.0);
  ref.sample(0.0);
  expect_matches_reference(rec, ref);

  p1 += 5;
  load = 0.75;
  lat.add(2.0);
  viewed = 11;
  rec.sample(1.0);
  ref.sample(1.0);
  expect_matches_reference(rec, ref);

  reg.expose_counter("m_pkts", Labels{{"device", "p0"}}, &p0);
  p0 = 7;
  reg.expose_gauge("b_gauge", {}, [&] { return 2.0 * load; });
  health.add(1.0);
  health.add(3.0);
  reg.expose_histogram("lat", Labels{{"subsystem", "health"}}, &health);
  lat.add(4.0);
  rec.sample(2.0);
  ref.sample(2.0);
  expect_matches_reference(rec, ref);

  // An equal-time sample, then growth at both ends.
  ++p1;
  rec.sample(2.0);
  ref.sample(2.0);
  expect_matches_reference(rec, ref);

  reg.expose_counter("0_zero", {}, &zero);
  reg.expose_counter("zz_last", Labels{{"device", "p0"}}, &last);
  load = 0.5;
  health.add(5.0);
  rec.sample(3.5);
  ref.sample(3.5);
  expect_matches_reference(rec, ref);
  EXPECT_EQ(rec.series().size(), reg.size());
}

TEST(Trace, RingSinkShedsOldestAndCountsOverwrites) {
  PathTracer tracer(1.0, /*capacity=*/4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.record(obs::Hop::kInjected, make_flow(1), static_cast<double>(i), net::NodeId{1});
  }
  EXPECT_EQ(tracer.sink().recorded(), 10u);
  EXPECT_EQ(tracer.sink().dropped(), 6u);  // > 0 = wrapped
  const auto records = tracer.sink().records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().at, 6.0);  // oldest survivor first
  EXPECT_EQ(records.back().at, 9.0);
}

TEST(Sampler, OutOfRangeRatesAreClamped) {
  // Rate 1.0 exactly traces everything; rate 0.0 exactly traces nothing.
  const TraceSampler all(1.0), none(0.0);
  // Above 1 clamps to 1 (unclamped it would overflow the 2^32 threshold and
  // trace NOTHING); below 0 and NaN clamp to 0.
  const TraceSampler over(1.5), under(-0.25);
  const TraceSampler nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(all.rate(), 1.0);
  EXPECT_EQ(none.rate(), 0.0);
  EXPECT_EQ(over.rate(), 1.0);
  EXPECT_EQ(under.rate(), 0.0);
  EXPECT_EQ(nan.rate(), 0.0);
  for (std::uint32_t i = 0; i < 500; ++i) {
    const packet::FlowId f = make_flow(i);
    EXPECT_TRUE(all.sampled(f));
    EXPECT_TRUE(over.sampled(f));
    EXPECT_FALSE(none.sampled(f));
    EXPECT_FALSE(under.sampled(f));
    EXPECT_FALSE(nan.sampled(f));
  }
}

TEST(Trace, ObserverSeesEverySampledRecordBeforeEviction) {
  struct Collector : obs::TraceObserver {
    std::vector<obs::TraceRecord> seen;
    void on_record(const obs::TraceRecord& r) override { seen.push_back(r); }
  };
  Collector live;
  PathTracer tracer(1.0, /*capacity=*/4);  // ring far smaller than the stream
  tracer.set_observer(&live);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tracer.record(obs::Hop::kInjected, make_flow(i), static_cast<double>(i), net::NodeId{1},
                  /*detail=*/i, /*seq=*/i);
  }
  // The observer got the FULL stream, in emission order, even though the
  // ring kept only the newest 4 — the property the live oracle depends on.
  ASSERT_EQ(live.seen.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(live.seen[i].at, static_cast<double>(i));
    EXPECT_EQ(live.seen[i].seq, i);
  }
  EXPECT_EQ(tracer.sink().records().size(), 4u);

  // Detaching stops delivery; unsampled flows never reach the observer.
  tracer.set_observer(nullptr);
  tracer.record(obs::Hop::kInjected, make_flow(0), 99.0, net::NodeId{1});
  EXPECT_EQ(live.seen.size(), 10u);
  Collector gated;
  PathTracer off(0.0);
  off.set_observer(&gated);
  off.record(obs::Hop::kInjected, make_flow(0), 1.0, net::NodeId{1});
  EXPECT_TRUE(gated.seen.empty());
}

TEST(Trace, CollectorKeepsEveryRecordInOrderWhileRingWraps) {
  obs::TraceCollector collector;
  PathTracer tracer(1.0, /*capacity=*/3);
  tracer.set_observer(&collector);
  constexpr std::uint32_t kRecords = 11;
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    const obs::Hop hop = i % 2 == 0 ? obs::Hop::kInjected : obs::Hop::kDelivered;
    tracer.record(hop, make_flow(i % 4), 0.5 * i, net::NodeId{i}, /*detail=*/100 + i,
                  /*seq=*/i + 1);
  }
  EXPECT_EQ(tracer.sink().dropped(), kRecords - 3);

  // Every record survives in the collector, in emission order, field for
  // field — while the ring kept only the newest three.
  const auto& all = collector.records();
  ASSERT_EQ(all.size(), kRecords);
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(all[i].at, 0.5 * i);
    EXPECT_EQ(all[i].flow, make_flow(i % 4));
    EXPECT_EQ(all[i].node, net::NodeId{i});
    EXPECT_EQ(all[i].hop, i % 2 == 0 ? obs::Hop::kInjected : obs::Hop::kDelivered);
    EXPECT_EQ(all[i].detail, 100u + i);
    EXPECT_EQ(all[i].seq, i + 1u);
  }
  const auto ring = tracer.sink().records();
  ASSERT_EQ(ring.size(), 3u);
  for (std::size_t k = 0; k < ring.size(); ++k) {
    EXPECT_EQ(ring[k].seq, all[kRecords - 3 + k].seq);
  }
}

TEST(Spans, LifecycleParentingAndAttrs) {
  SpanTracer t;
  const SpanId root = t.begin("episode:crash", 2.05, 0, "FW3", "fault");
  const SpanId child = t.begin("detect", 2.1, root, "FW3", "health");
  const SpanId grand = t.instant("ack", 2.2, child, "P0", "controller");

  const Span* r = t.find(root);
  const Span* c = t.find(child);
  const Span* g = t.find(grand);
  ASSERT_NE(r, nullptr);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(g, nullptr);
  // Roots start their own trace; children inherit it all the way down.
  EXPECT_EQ(r->parent, 0u);
  EXPECT_EQ(r->trace, root);
  EXPECT_EQ(c->parent, root);
  EXPECT_EQ(c->trace, root);
  EXPECT_EQ(g->parent, child);
  EXPECT_EQ(g->trace, root);

  // Open vs ended: duration is 0 while open, instants close immediately.
  EXPECT_TRUE(r->open());
  EXPECT_EQ(r->duration(), 0.0);
  EXPECT_FALSE(g->open());
  EXPECT_EQ(g->duration(), 0.0);  // zero-width by construction
  t.end(child, 2.9);
  EXPECT_FALSE(t.find(child)->open());
  EXPECT_DOUBLE_EQ(t.find(child)->duration(), 0.8);
  t.end(child, 5.0);  // double-end is a no-op
  EXPECT_DOUBLE_EQ(t.find(child)->end, 2.9);

  // Attrs stay sorted by key; set overwrites, add accumulates.
  t.set_attr(root, "node", 61);
  t.set_attr(root, "unenforced", 1);
  t.add_attr(root, "packets_in_window", 2);
  t.add_attr(root, "packets_in_window", 3);
  t.set_attr(root, "node", 62);
  ASSERT_EQ(r->attrs.size(), 3u);
  EXPECT_EQ(r->attrs[0].first, "node");
  EXPECT_EQ(r->attrs[1].first, "packets_in_window");
  EXPECT_EQ(r->attrs[2].first, "unenforced");
  EXPECT_EQ(r->attr_or("node"), 62.0);
  EXPECT_EQ(r->attr_or("packets_in_window"), 5.0);
  EXPECT_EQ(r->attr_or("missing", -1), -1.0);

  EXPECT_EQ(t.started(), 3u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Spans, ContextStackCorrelationAndLatestOpen) {
  SpanTracer t;
  EXPECT_EQ(t.context(), 0u);
  const SpanId a = t.begin("episode:crash", 1.0);
  const SpanId b = t.begin("episode:drift", 2.0);
  t.push_context(a);
  t.push_context(b);
  EXPECT_EQ(t.context(), b);
  ASSERT_EQ(t.context_stack().size(), 2u);
  EXPECT_EQ(t.context_stack()[0], a);
  t.pop_context();
  EXPECT_EQ(t.context(), a);
  t.pop_context();
  EXPECT_EQ(t.context(), 0u);
  t.pop_context();  // underflow is a no-op
  EXPECT_EQ(t.context(), 0u);

  // latest_open: newest open span whose name starts with the prefix.
  EXPECT_EQ(t.latest_open("episode"), b);
  EXPECT_EQ(t.latest_open("episode:crash"), a);
  t.end(b, 3.0);
  EXPECT_EQ(t.latest_open("episode"), a);
  EXPECT_EQ(t.latest_open("replan"), 0u);

  // Correlation keys resolve only while the span is alive AND open.
  t.correlate(61, a);
  EXPECT_EQ(t.correlated_open(61), a);
  EXPECT_EQ(t.correlated_open(99), 0u);
  t.end(a, 4.0);
  EXPECT_EQ(t.correlated_open(61), 0u);
}

TEST(Spans, RingEvictionIsGracefulEverywhere) {
  SpanTracer t(/*capacity=*/4);
  EXPECT_EQ(t.capacity(), 4u);
  std::vector<SpanId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(t.begin("s", static_cast<double>(i)));
  }
  EXPECT_EQ(t.started(), 10u);
  EXPECT_EQ(t.dropped(), 6u);
  // Only the newest `capacity` spans survive, in id order.
  const auto survivors = t.spans();
  ASSERT_EQ(survivors.size(), 4u);
  EXPECT_EQ(survivors.front().id, ids[6]);
  EXPECT_EQ(survivors.back().id, ids[9]);
  // Every operation on an evicted (or unknown) id is a safe no-op.
  EXPECT_EQ(t.find(ids[0]), nullptr);
  EXPECT_EQ(t.find(SpanId{9999}), nullptr);
  t.end(ids[0], 99.0);
  t.set_attr(ids[0], "k", 1);
  t.add_attr(ids[0], "k", 1);
  // A child of an evicted parent degrades to a root rather than dangling.
  const SpanId orphan = t.begin("child", 11.0, ids[0]);
  EXPECT_EQ(t.find(orphan)->parent, 0u);
  EXPECT_EQ(t.find(orphan)->trace, orphan);
  // Evicted open spans leave the open list, so latest_open never returns
  // an id that find() would reject.
  EXPECT_EQ(t.latest_open("s"), ids[9]);
}

// Golden span exports: the exact bytes are the contract (CI diffs span dumps
// across sanitizer arms and same-seed reruns).
TEST(Spans, JsonAndCsvExportGolden) {
  SpanTracer t;
  const SpanId ep = t.begin("episode:crash", 2.05, 0, "FW3", "fault");
  t.set_attr(ep, "unenforced", 1);
  const SpanId push = t.begin("push", 2.5, ep, "P0", "controller");
  t.set_attr(push, "bytes", 128);
  t.end(push, 2.75);
  t.begin("replan:failure", 3.0, ep, "", "controller");  // left open
  t.end(ep, 8.0);

  const std::string json = obs::spans_to_json(t);
  EXPECT_EQ(json,
            "{\n"
            "  \"started\": 3,\n"
            "  \"dropped\": 0,\n"
            "  \"spans\": [\n"
            "    {\"id\":1,\"parent\":0,\"trace\":1,\"name\":\"episode:crash\","
            "\"device\":\"FW3\",\"subsystem\":\"fault\",\"start\":2.0499999999999998,"
            "\"end\":8,\"duration\":5.9500000000000002,\"attrs\":{\"unenforced\":1}},\n"
            "    {\"id\":2,\"parent\":1,\"trace\":1,\"name\":\"push\","
            "\"device\":\"P0\",\"subsystem\":\"controller\",\"start\":2.5,"
            "\"end\":2.75,\"duration\":0.25,\"attrs\":{\"bytes\":128}},\n"
            "    {\"id\":3,\"parent\":1,\"trace\":1,\"name\":\"replan:failure\","
            "\"device\":\"\",\"subsystem\":\"controller\",\"start\":3,"
            "\"end\":null,\"duration\":null,\"attrs\":{}}\n"
            "  ]\n"
            "}\n");

  const std::string csv = obs::spans_to_csv(t);
  EXPECT_EQ(csv,
            "id,parent,trace,name,device,subsystem,start,end,duration,attrs\n"
            "1,0,1,episode:crash,FW3,fault,2.0499999999999998,8,5.9500000000000002,"
            "\"unenforced=1\"\n"
            "2,1,1,push,P0,controller,2.5,2.75,0.25,\"bytes=128\"\n"
            "3,1,1,replan:failure,,controller,3,,,\"\"\n");

  // render_spans_for_path picks the format from the extension.
  EXPECT_EQ(obs::render_spans_for_path(t, "out.csv"), csv);
  EXPECT_EQ(obs::render_spans_for_path(t, "out.json"), json);
  EXPECT_EQ(obs::render_spans_for_path(t, "out"), json);
}

// Prometheus histogram export golden: _count, _sum and quantile summary
// lines, deterministically ordered — byte-exact.
TEST(Export, PrometheusHistogramSummaryGolden) {
  stats::Histogram lat;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) lat.add(v);
  const std::uint64_t pkts = 2;
  MetricsRegistry reg;
  reg.expose_histogram("lat", Labels{{"subsystem", "health"}}, &lat);
  reg.expose_counter("pkts", Labels{{"device", "p0"}}, &pkts);
  EXPECT_EQ(obs::to_prometheus(reg),
            "# TYPE lat summary\n"
            "lat_count{subsystem=\"health\"} 4\n"
            "lat_sum{subsystem=\"health\"} 10\n"
            "lat{quantile=\"0.5\",subsystem=\"health\"} 2\n"
            "lat{quantile=\"0.90000000000000002\",subsystem=\"health\"} 4\n"
            "lat{quantile=\"0.98999999999999999\",subsystem=\"health\"} 4\n"
            "# TYPE pkts counter\n"
            "pkts{device=\"p0\"} 2\n");
}

TEST(Epochs, AccessorsOnEmptyRecorder) {
  const std::uint64_t pkts = 0;
  MetricsRegistry reg;
  reg.expose_counter("pkts", {}, &pkts);
  EpochRecorder rec(reg, 0.5);
  // Nothing sampled yet: every accessor answers "unknown", never throws.
  EXPECT_EQ(rec.epoch_count(), 0u);
  EXPECT_EQ(rec.find("pkts", {}), nullptr);
  EXPECT_TRUE(rec.find_all("pkts").empty());
  EXPECT_EQ(rec.latest("pkts", {}), std::nullopt);
  EXPECT_EQ(rec.latest("absent", {}), std::nullopt);
}

TEST(Epochs, AccessorsForSeriesCreatedMidRun) {
  std::uint64_t early = 0;
  const std::uint64_t nine = 9;
  MetricsRegistry reg;
  reg.expose_counter("early", {}, &early);
  EpochRecorder rec(reg, 1.0);
  early = 2;
  rec.sample(0.0);
  // A series registered between samples is visible to find()/latest() as
  // soon as the next sample records it — left-padded to stay aligned.
  reg.expose_counter("late", Labels{{"device", "p0"}}, &nine);
  EXPECT_EQ(rec.find("late", Labels{{"device", "p0"}}), nullptr);
  rec.sample(1.0);
  const auto* late = rec.find("late", Labels{{"device", "p0"}});
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->values, (std::vector<double>{0, 9}));
  EXPECT_EQ(rec.latest("late", Labels{{"device", "p0"}}), 9.0);
  EXPECT_EQ(rec.latest("early", {}), 2.0);
  ASSERT_EQ(rec.find_all("late").size(), 1u);
  EXPECT_EQ(rec.find_all("late")[0]->labels.render(), "{device=\"p0\"}");
}

TEST(Epochs, RecorderUseAcrossSimulatorReset) {
  sim::Simulator sim;
  std::uint64_t pkts = 0;
  MetricsRegistry reg;
  reg.expose_counter("pkts", {}, &pkts);
  EpochRecorder rec(reg, 0.5);
  rec.start(
      [&](double d, std::function<void()> fn) { sim.schedule_in(d, std::move(fn)); },
      [&] { return sim.now(); });
  sim.schedule_at(0.6, [&] { pkts += 3; });
  sim.schedule_at(1.1, [&] { rec.stop(); });
  sim.run();
  EXPECT_GE(rec.epoch_count(), 2u);
  EXPECT_EQ(rec.latest("pkts", {}), 3.0);

  // Simulator::reset() rewinds simulated time to 0 — reusing the SAME
  // recorder would record time moving backwards, which sample() rejects
  // loudly instead of silently corrupting the epoch axis.
  sim.reset();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_THROW(rec.sample(sim.now()), ContractViolation);
  // The rejected sample left the recorder's prior data intact...
  EXPECT_EQ(rec.latest("pkts", {}), 3.0);
  // ...and the post-reset pattern is a FRESH recorder over the same
  // registry, which sees the counters carry their accumulated values.
  EpochRecorder rec2(reg, 0.5);
  rec2.start(
      [&](double d, std::function<void()> fn) { sim.schedule_in(d, std::move(fn)); },
      [&] { return sim.now(); });
  sim.schedule_at(0.2, [&] { pkts += 4; });
  sim.schedule_at(0.6, [&] { rec2.stop(); });
  sim.run();
  EXPECT_GE(rec2.epoch_count(), 2u);
  EXPECT_EQ(rec2.latest("pkts", {}), 7.0);
  ASSERT_NE(rec2.find("pkts", {}), nullptr);
  EXPECT_EQ(rec2.find("pkts", {})->values.size(), rec2.epoch_count());
}

}  // namespace
}  // namespace sdmbox
