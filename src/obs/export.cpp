#include "obs/export.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <tuple>
#include <vector>

#include "net/topology.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace sdmbox::obs {

// Deterministic number rendering: integral values print as integers (the
// common case for counters), everything else via %.17g, which round-trips
// doubles exactly and never depends on locale.
void json_number(std::string& out, double v) {
  char buf[32];
  int n = 0;
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    n = std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isnan(v)) {
    out += "null";  // JSON has no NaN; exporters agree on null
    return;
  } else if (std::isinf(v)) {
    out += v > 0 ? "1e999" : "-1e999";
    return;
  } else {
    n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out.append(buf, static_cast<std::size_t>(n));
}

void json_escape(std::string& out, std::string_view s) {
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
}

std::string json_number(double v) {
  std::string out;
  json_number(out, v);
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_escape(out, s);
  return out;
}

namespace {

// Output bounds. A json_number() rendering is at most 24 characters: a
// sign, 17 significant digits, the point and an exponent such as "e-308".
constexpr std::size_t kNumberChars = 24;

/// Length of a fixed piece of output text.
constexpr std::size_t chars(std::string_view fixed) { return fixed.size(); }

/// Exact length of json_escape(s).
std::size_t escaped_size(std::string_view s) {
  std::size_t n = 0;
  for (char c : s) {
    switch (c) {
      case '"':
      case '\\':
      case '\n':
      case '\t':
      case '\r': n += 2; break;
      default: n += static_cast<unsigned char>(c) < 0x20 ? 6 : 1;
    }
  }
  return n;
}

/// Length of append_labels_json(labels), counting a comma for every label
/// (one more than it writes).
std::size_t labels_json_size(const Labels& labels) {
  std::size_t n = chars("{}");
  for (const auto& [k, v] : labels.items()) {
    n += chars(",\"\":\"\"") + escaped_size(k) + escaped_size(v);
  }
  return n;
}

/// Length of labels.render(), counting a comma for every label (one more
/// than it writes).
std::size_t labels_text_size(const Labels& labels) {
  if (labels.empty()) return 0;
  std::size_t n = chars("{}");
  for (const auto& [k, v] : labels.items()) n += chars(",=\"\"") + k.size() + v.size();
  return n;
}

void append_labels_json(std::string& out, const Labels& labels) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels.items()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    json_escape(out, k);
    out += "\":\"";
    json_escape(out, v);
    out += '"';
  }
  out += '}';
}

/// labels.render(), appended to `out`. With `quantile`, the rendering of
/// `labels` after set("quantile", json_number(*quantile)): the label in key
/// order, replacing a `quantile` label of its own.
void append_labels_text(std::string& out, const Labels& labels,
                        const double* quantile = nullptr) {
  if (labels.empty() && quantile == nullptr) return;
  constexpr std::string_view kQuantile = "quantile";
  out += '{';
  bool first = true;
  const auto open_label = [&](std::string_view key) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
  };
  const auto put_quantile = [&] {
    open_label(kQuantile);
    json_number(out, *quantile);
    out += '"';
    quantile = nullptr;
  };
  for (const auto& [k, v] : labels.items()) {
    if (quantile != nullptr && k >= kQuantile) {
      put_quantile();
      if (k == kQuantile) continue;  // set() replaced it
    }
    open_label(k);
    out += v;
    out += '"';
  }
  if (quantile != nullptr) put_quantile();
  out += '}';
}

void append_histogram_json(std::string& out, const stats::HistogramSnapshot& h) {
  out += "{\"count\":";
  json_number(out, static_cast<double>(h.count));
  out += ",\"sum\":";
  json_number(out, h.sum);
  out += ",\"min\":";
  json_number(out, h.min);
  out += ",\"max\":";
  json_number(out, h.max);
  out += ",\"mean\":";
  json_number(out, h.mean);
  out += ",\"quantiles\":{";
  for (std::size_t i = 0; i < h.quantiles.size(); ++i) {
    if (i) out += ',';
    out += '"';
    json_number(out, h.quantiles[i]);
    out += "\":";
    json_number(out, h.values[i]);
  }
  out += "}}";
}

constexpr std::size_t kQuantiles = std::tuple_size_v<decltype(stats::HistogramSnapshot::quantiles)>;

/// Bound of one to_json() metric line, without its name and labels.
constexpr std::size_t kMetricChars =
    chars("    {\"name\":\"\",\"labels\":,\"kind\":\"histogram\",\"value\":},\n") +
    kNumberChars;
/// Bound of append_histogram_json().
constexpr std::size_t kHistogramChars =
    chars(",\"histogram\":{\"count\":,\"sum\":,\"min\":,\"max\":,\"mean\":,\"quantiles\":{}}") +
    5 * kNumberChars + kQuantiles * (chars(",\"\":") + 2 * kNumberChars);

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string to_json(const MetricsRegistry& registry, const EpochRecorder* series) {
  std::size_t bound = chars("{\n  \"metrics\": [\n  ]\n}\n");
  registry.for_each_metric([&](const std::string&, const std::string& name, const Labels& labels,
                               MetricKind kind) {
    bound += kMetricChars + escaped_size(name) + labels_json_size(labels) +
             (kind == MetricKind::kHistogram ? kHistogramChars : 0);
  });
  const std::size_t epochs = series != nullptr ? series->epoch_count() : 0;
  if (series != nullptr) {
    bound += chars(",\n  \"series\": {\n    \"period\": ,\n    \"epochs\": [],\n    "
                  "\"metrics\": [\n    ]\n  }") +
             (epochs + 1) * (kNumberChars + 1);
    series->for_each_series([&](const EpochRecorder::Series& s) {
      bound += chars("      {\"name\":\"\",\"labels\":,\"values\":[]},\n") +
               escaped_size(s.name) + labels_json_size(s.labels) + epochs * (kNumberChars + 1);
    });
  }
  std::string out;
  out.reserve(bound);

  out += "{\n  \"metrics\": [\n";
  std::size_t left = registry.size();
  registry.for_each_sample([&](const std::string& name, const Labels& labels, MetricKind kind,
                               double value, const stats::Histogram* histogram) {
    out += "    {\"name\":\"";
    json_escape(out, name);
    out += "\",\"labels\":";
    append_labels_json(out, labels);
    out += ",\"kind\":\"";
    out += to_string(kind);
    out += "\",\"value\":";
    json_number(out, value);
    if (histogram != nullptr) {
      out += ",\"histogram\":";
      append_histogram_json(out, histogram->snapshot());
    }
    out += '}';
    if (--left > 0) out += ',';
    out += '\n';
  });
  out += "  ]";
  if (series != nullptr) {
    out += ",\n  \"series\": {\n    \"period\": ";
    json_number(out, series->period());
    out += ",\n    \"epochs\": [";
    for (std::size_t i = 0; i < epochs; ++i) {
      if (i) out += ',';
      json_number(out, series->epochs()[i]);
    }
    out += "],\n    \"metrics\": [\n";
    left = series->series_count();
    series->for_each_series([&](const EpochRecorder::Series& s) {
      out += "      {\"name\":\"";
      json_escape(out, s.name);
      out += "\",\"labels\":";
      append_labels_json(out, s.labels);
      out += ",\"values\":[";
      for (std::size_t j = 0; j < s.values.size(); ++j) {
        if (j) out += ',';
        json_number(out, s.values[j]);
      }
      out += "]}";
      if (--left > 0) out += ',';
      out += '\n';
    });
    out += "    ]\n  }";
  }
  out += "\n}\n";
  return out;
}

std::string to_prometheus(const MetricsRegistry& registry) {
  std::size_t bound = 0;
  registry.for_each_metric([&](const std::string&, const std::string& name, const Labels& labels,
                               MetricKind kind) {
    const std::size_t line = name.size() + labels_text_size(labels) + 2 + kNumberChars;
    bound += chars("# TYPE  summary\n") + name.size();
    bound += kind != MetricKind::kHistogram
                 ? line
                 : 2 * line + chars("_count_sum") +
                       kQuantiles * (line + chars("{,quantile=\"\"}") + kNumberChars);
  });
  std::string out;
  out.reserve(bound);

  const std::string* last_name = nullptr;
  registry.for_each_sample([&](const std::string& name, const Labels& labels, MetricKind kind,
                               double value, const stats::Histogram* histogram) {
    if (last_name == nullptr || name != *last_name) {
      out += "# TYPE ";
      out += name;
      out += ' ';
      // Histograms export as Prometheus summaries (count/sum/quantile).
      out += kind == MetricKind::kHistogram ? "summary" : to_string(kind);
      out += '\n';
      last_name = &name;
    }
    const auto line = [&](std::string_view suffix, double v, const double* quantile = nullptr) {
      out += name;
      out += suffix;
      append_labels_text(out, labels, quantile);
      out += ' ';
      json_number(out, v);
      out += '\n';
    };
    if (histogram == nullptr) {
      line("", value);
      return;
    }
    const stats::HistogramSnapshot h = histogram->snapshot();
    line("_count", static_cast<double>(h.count));
    line("_sum", h.sum);
    for (std::size_t i = 0; i < h.quantiles.size(); ++i) line("", h.values[i], &h.quantiles[i]);
  });
  return out;
}

std::string to_csv(const EpochRecorder& recorder) {
  const std::size_t epochs = recorder.epoch_count();
  // Each column name may double every character as a quote.
  std::size_t bound = chars("epoch\n") + epochs * (kNumberChars + 1);
  recorder.for_each_series([&](const EpochRecorder::Series& s) {
    SDM_DCHECK(s.values.size() == epochs);  // the rows below read s.values[row]
    bound += chars(",\"\"") + 2 * (s.name.size() + labels_text_size(s.labels)) +
             epochs * (kNumberChars + 1);
  });
  std::string out;
  out.reserve(bound);

  out += "epoch";
  std::string column;
  recorder.for_each_series([&](const EpochRecorder::Series& s) {
    column.assign(s.name);
    append_labels_text(column, s.labels);
    out += ',';
    // Quote the column name: label renderings contain commas.
    out += '"';
    for (char c : column) {
      if (c == '"') out += '"';  // CSV-style doubled quote
      out += c;
    }
    out += '"';
  });
  out += '\n';
  for (std::size_t row = 0; row < epochs; ++row) {
    json_number(out, recorder.epochs()[row]);
    recorder.for_each_series([&](const EpochRecorder::Series& s) {
      out += ',';
      json_number(out, s.values[row]);
    });
    out += '\n';
  }
  return out;
}

std::string trace_to_json(const PathTracer& tracer, const net::Topology* topo) {
  const TraceSink& sink = tracer.sink();
  const std::size_t n = sink.size();
  const auto device_of = [&](const TraceRecord& r) -> const std::string* {
    return topo != nullptr && r.node.v < topo->node_count() ? &topo->node(r.node).name : nullptr;
  };

  // Group by flow in first-traced order so the dump reads as per-flow paths:
  // a counting sort of the ring's records on their flow's first-seen
  // ordinal, stable, so each flow keeps its records oldest first. Flow f's
  // records are order[f == 0 ? 0 : end[f - 1], end[f]).
  std::vector<std::uint32_t> end;    // per flow: its record count, then its run's end
  std::vector<std::uint32_t> order;  // ring positions (for nth()), grouped by flow
  std::size_t bound = chars("{\n  \"sample_rate\": ,\n  \"seed\": ,\n  \"recorded\": ,\n  "
                           "\"overwritten\": ,\n  \"flows\": [\n  ]\n}\n") +
                      4 * kNumberChars;
  {
    std::map<packet::FlowId, std::uint32_t> ordinal_of;
    std::vector<std::uint32_t> flow_of(n);
    for (std::size_t i = 0; i < n; ++i) {
      const TraceRecord& r = sink.nth(i);
      const auto [it, inserted] =
          ordinal_of.try_emplace(r.flow, static_cast<std::uint32_t>(end.size()));
      if (inserted) end.push_back(0);
      flow_of[i] = it->second;
      ++end[it->second];
      bound += chars("      {\"at\":,\"node\":,\"hop\":\"\",\"detail\":,\"seq\":},\n") +
               4 * kNumberChars + std::string_view(to_string(r.hop)).size();
      if (const std::string* device = device_of(r)) {
        bound += chars(",\"device\":\"\"") + escaped_size(*device);
      }
    }
    // The longest FlowId::to_string(), which needs no escaping:
    // "255.255.255.255:65535->255.255.255.255:65535/255".
    constexpr std::size_t kFlowIdChars = 48;
    bound += end.size() * (chars("    {\"flow\":\"\",\"hops\":[\n    ]},\n") + kFlowIdChars);
    std::uint32_t at = 0;
    for (std::uint32_t& e : end) {
      const std::uint32_t count = e;
      e = at;  // the run's start while it fills
      at += count;
    }
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[end[flow_of[i]]++] = static_cast<std::uint32_t>(i);
  }
  std::string out;
  out.reserve(bound);

  out += "{\n  \"sample_rate\": ";
  json_number(out, tracer.sampler().rate());
  out += ",\n  \"seed\": ";
  json_number(out, static_cast<double>(tracer.sampler().seed()));
  out += ",\n  \"recorded\": ";
  json_number(out, static_cast<double>(sink.recorded()));
  out += ",\n  \"overwritten\": ";
  json_number(out, static_cast<double>(sink.dropped()));
  out += ",\n  \"flows\": [\n";
  std::size_t first = 0;
  for (std::size_t f = 0; f < end.size(); ++f) {
    out += "    {\"flow\":\"";
    json_escape(out, sink.nth(order[first]).flow.to_string());
    out += "\",\"hops\":[\n";
    for (std::size_t j = first; j < end[f]; ++j) {
      const TraceRecord& r = sink.nth(order[j]);
      out += "      {\"at\":";
      json_number(out, r.at);
      out += ",\"node\":";
      json_number(out, static_cast<double>(r.node.v));
      if (const std::string* device = device_of(r)) {
        out += ",\"device\":\"";
        json_escape(out, *device);
        out += '"';
      }
      out += ",\"hop\":\"";
      out += to_string(r.hop);
      out += '"';
      if (r.detail != 0) {
        out += ",\"detail\":";
        json_number(out, static_cast<double>(r.detail));
      }
      if (r.seq != 0) {
        out += ",\"seq\":";
        json_number(out, static_cast<double>(r.seq));
      }
      out += '}';
      if (j + 1 < end[f]) out += ',';
      out += '\n';
    }
    out += "    ]}";
    if (f + 1 < end.size()) out += ',';
    out += '\n';
    first = end[f];
  }
  out += "  ]\n}\n";
  return out;
}

std::string spans_to_json(const SpanTracer& tracer) {
  const auto spans = tracer.spans();
  std::string out = "{\n  \"started\": ";
  json_number(out, static_cast<double>(tracer.started()));
  out += ",\n  \"dropped\": ";
  json_number(out, static_cast<double>(tracer.dropped()));
  out += ",\n  \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "    {\"id\":";
    json_number(out, static_cast<double>(s.id));
    out += ",\"parent\":";
    json_number(out, static_cast<double>(s.parent));
    out += ",\"trace\":";
    json_number(out, static_cast<double>(s.trace));
    out += ",\"name\":\"";
    json_escape(out, s.name);
    out += "\",\"device\":\"";
    json_escape(out, s.device);
    out += "\",\"subsystem\":\"";
    json_escape(out, s.subsystem);
    out += "\",\"start\":";
    json_number(out, s.start);
    // An un-ended span exports end:null, never a sentinel value.
    out += ",\"end\":";
    if (s.open()) {
      out += "null";
    } else {
      json_number(out, s.end);
    }
    out += ",\"duration\":";
    if (s.open()) {
      out += "null";
    } else {
      json_number(out, s.duration());
    }
    out += ",\"attrs\":{";
    for (std::size_t j = 0; j < s.attrs.size(); ++j) {
      if (j) out += ',';
      out += '"';
      json_escape(out, s.attrs[j].first);
      out += "\":";
      json_number(out, s.attrs[j].second);
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
    json_number(out, static_cast<double>(s.id));
    out += ',';
    json_number(out, static_cast<double>(s.parent));
    out += ',';
    json_number(out, static_cast<double>(s.trace));
    out += ',';
    out += s.name;  // span names are fixed identifiers, never need quoting
    out += ',';
    out += s.device;
    out += ',';
    out += s.subsystem;
    out += ',';
    json_number(out, s.start);
    out += ',';
    if (!s.open()) json_number(out, s.end);
    out += ',';
    if (!s.open()) json_number(out, s.duration());
    out += ",\"";
    for (std::size_t j = 0; j < s.attrs.size(); ++j) {
      if (j) out += ';';
      out += s.attrs[j].first;
      out += '=';
      json_number(out, s.attrs[j].second);
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
