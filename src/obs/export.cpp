#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "net/topology.hpp"
#include "util/log.hpp"

namespace sdmbox::obs {

// Deterministic number rendering: integral values print as integers (the
// common case for counters), everything else via %.17g, which round-trips
// doubles exactly and never depends on locale.
std::string json_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  if (std::isnan(v)) return "null";  // JSON has no NaN; exporters agree on null
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void append_labels_json(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.items()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(k);
    out += "\":\"";
    out += json_escape(v);
    out += '"';
  }
  out += '}';
}

void append_histogram_json(std::string& out, const stats::HistogramSnapshot& h) {
  out += "{\"count\":";
  out += json_number(static_cast<double>(h.count));
  out += ",\"sum\":";
  out += json_number(h.sum);
  out += ",\"min\":";
  out += json_number(h.min);
  out += ",\"max\":";
  out += json_number(h.max);
  out += ",\"mean\":";
  out += json_number(h.mean);
  out += ",\"quantiles\":{";
  for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_number(h.quantiles[i]);
    out += "\":";
    out += json_number(h.values[i]);
  }
  out += "}}";
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string to_json(const MetricsRegistry& registry, const EpochRecorder* series) {
  std::string out = "{\n  \"metrics\": [\n";
  const auto samples = registry.collect();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    out += "    {\"name\":\"";
    out += json_escape(s.name);
    out += "\",\"labels\":";
    append_labels_json(out, s.labels);
    out += ",\"kind\":\"";
    out += to_string(s.kind);
    out += "\",\"value\":";
    out += json_number(s.value);
    if (s.kind == MetricKind::kHistogram) {
      out += ",\"histogram\":";
      append_histogram_json(out, s.histogram);
    }
    out += '}';
    if (i + 1 < samples.size()) out += ',';
    out += '\n';
  }
  out += "  ]";
  if (series != nullptr) {
    out += ",\n  \"series\": {\n    \"period\": ";
    out += json_number(series->period());
    out += ",\n    \"epochs\": [";
    const auto& epochs = series->epochs();
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      if (i) out += ',';
      out += json_number(epochs[i]);
    }
    out += "],\n    \"metrics\": [\n";
    const auto all = series->series();
    for (std::size_t i = 0; i < all.size(); ++i) {
      const auto& s = all[i];
      out += "      {\"name\":\"";
      out += json_escape(s.name);
      out += "\",\"labels\":";
      append_labels_json(out, s.labels);
      out += ",\"values\":[";
      for (std::size_t j = 0; j < s.values.size(); ++j) {
        if (j) out += ',';
        out += json_number(s.values[j]);
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

std::string to_prometheus(const MetricsRegistry& registry) {
  std::string out;
  std::string last_name;
  for (const MetricSample& s : registry.collect()) {
    if (s.name != last_name) {
      out += "# TYPE ";
      out += s.name;
      out += ' ';
      // Histograms export as Prometheus summaries (count/sum/quantile).
      out += s.kind == MetricKind::kHistogram ? "summary" : to_string(s.kind);
      out += '\n';
      last_name = s.name;
    }
    if (s.kind == MetricKind::kHistogram) {
      const auto& h = s.histogram;
      out += s.name + "_count" + s.labels.render() + ' ' +
             json_number(static_cast<double>(h.count)) + '\n';
      out += s.name + "_sum" + s.labels.render() + ' ' + json_number(h.sum) + '\n';
      for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
        Labels with_q = s.labels;
        with_q.set("quantile", json_number(h.quantiles[i]));
        out += s.name + with_q.render() + ' ' + json_number(h.values[i]) + '\n';
      }
    } else {
      out += s.name + s.labels.render() + ' ' + json_number(s.value) + '\n';
    }
  }
  return out;
}

std::string to_csv(const EpochRecorder& recorder) {
  const auto all = recorder.series();
  std::string out = "epoch";
  for (const auto& s : all) {
    out += ',';
    // Quote the column name: label renderings contain commas.
    out += '"';
    for (char c : s.name + s.labels.render()) {
      if (c == '"') out += '"';  // CSV-style doubled quote
      out += c;
    }
    out += '"';
  }
  out += '\n';
  const auto& epochs = recorder.epochs();
  for (std::size_t row = 0; row < epochs.size(); ++row) {
    out += json_number(epochs[row]);
    for (const auto& s : all) {
      out += ',';
      out += json_number(s.values[row]);
    }
    out += '\n';
  }
  return out;
}

std::string trace_to_json(const PathTracer& tracer, const net::Topology* topo) {
  const std::vector<TraceRecord> records = tracer.sink().records();
  // Group by flow in first-traced order so the dump reads as per-flow paths.
  std::map<packet::FlowId, std::size_t> order;
  std::vector<std::pair<packet::FlowId, std::vector<const TraceRecord*>>> flows;
  for (const TraceRecord& r : records) {
    auto [it, inserted] = order.try_emplace(r.flow, flows.size());
    if (inserted) flows.emplace_back(r.flow, std::vector<const TraceRecord*>{});
    flows[it->second].second.push_back(&r);
  }

  std::string out = "{\n  \"sample_rate\": ";
  out += json_number(tracer.sampler().rate());
  out += ",\n  \"seed\": ";
  out += json_number(static_cast<double>(tracer.sampler().seed()));
  out += ",\n  \"recorded\": ";
  out += json_number(static_cast<double>(tracer.sink().recorded()));
  out += ",\n  \"overwritten\": ";
  out += json_number(static_cast<double>(tracer.sink().dropped()));
  out += ",\n  \"flows\": [\n";
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& [flow, hops] = flows[i];
    out += "    {\"flow\":\"";
    out += json_escape(flow.to_string());
    out += "\",\"hops\":[\n";
    for (std::size_t j = 0; j < hops.size(); ++j) {
      const TraceRecord& r = *hops[j];
      out += "      {\"at\":";
      out += json_number(r.at);
      out += ",\"node\":";
      out += json_number(static_cast<double>(r.node.v));
      if (topo != nullptr && r.node.v < topo->node_count()) {
        out += ",\"device\":\"";
        out += json_escape(topo->node(r.node).name);
        out += '"';
      }
      out += ",\"hop\":\"";
      out += to_string(r.hop);
      out += '"';
      if (r.detail != 0) {
        out += ",\"detail\":";
        out += json_number(static_cast<double>(r.detail));
      }
      if (r.seq != 0) {
        out += ",\"seq\":";
        out += json_number(static_cast<double>(r.seq));
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

std::string spans_to_json(const SpanTracer& tracer) {
  const auto spans = tracer.spans();
  std::string out = "{\n  \"started\": ";
  out += json_number(static_cast<double>(tracer.started()));
  out += ",\n  \"dropped\": ";
  out += json_number(static_cast<double>(tracer.dropped()));
  out += ",\n  \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "    {\"id\":";
    out += json_number(static_cast<double>(s.id));
    out += ",\"parent\":";
    out += json_number(static_cast<double>(s.parent));
    out += ",\"trace\":";
    out += json_number(static_cast<double>(s.trace));
    out += ",\"name\":\"";
    out += json_escape(s.name);
    out += "\",\"device\":\"";
    out += json_escape(s.device);
    out += "\",\"subsystem\":\"";
    out += json_escape(s.subsystem);
    out += "\",\"start\":";
    out += json_number(s.start);
    out += ",\"end\":";
    // An un-ended span exports end:null, never a sentinel value.
    out += s.open() ? "null" : json_number(s.end);
    out += ",\"duration\":";
    out += s.open() ? "null" : json_number(s.duration());
    out += ",\"attrs\":{";
    for (std::size_t j = 0; j < s.attrs.size(); ++j) {
      if (j) out += ',';
      out += '"';
      out += json_escape(s.attrs[j].first);
      out += "\":";
      out += json_number(s.attrs[j].second);
    }
    out += "}}";
    if (i + 1 < spans.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

std::string spans_to_csv(const SpanTracer& tracer) {
  std::string out = "id,parent,trace,name,device,subsystem,start,end,duration,attrs\n";
  for (const Span& s : tracer.spans()) {
    out += json_number(static_cast<double>(s.id));
    out += ',';
    out += json_number(static_cast<double>(s.parent));
    out += ',';
    out += json_number(static_cast<double>(s.trace));
    out += ',';
    out += s.name;  // span names are fixed identifiers, never need quoting
    out += ',';
    out += s.device;
    out += ',';
    out += s.subsystem;
    out += ',';
    out += json_number(s.start);
    out += ',';
    if (!s.open()) out += json_number(s.end);
    out += ',';
    if (!s.open()) out += json_number(s.duration());
    out += ",\"";
    for (std::size_t j = 0; j < s.attrs.size(); ++j) {
      if (j) out += ';';
      out += s.attrs[j].first;
      out += '=';
      out += json_number(s.attrs[j].second);
    }
    out += "\"\n";
  }
  return out;
}

std::string render_spans_for_path(const SpanTracer& tracer, const std::string& path) {
  if (ends_with(path, ".csv")) return spans_to_csv(tracer);
  return spans_to_json(tracer);
}

std::string render_for_path(const MetricsRegistry& registry, const EpochRecorder* series,
                            const std::string& path) {
  if (ends_with(path, ".csv")) {
    if (series != nullptr) return to_csv(*series);
    // No series recorded: fall through to a one-row CSV of current values.
    EpochRecorder once(registry, 1.0);
    once.sample(0.0);
    return to_csv(once);
  }
  if (ends_with(path, ".prom") || ends_with(path, ".txt")) return to_prometheus(registry);
  return to_json(registry, series);
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    SDM_LOG_WARN("obs", "cannot open " << path << " for writing");
    return false;
  }
  out << content;
  return static_cast<bool>(out);
}

}  // namespace sdmbox::obs
