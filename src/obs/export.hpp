// Exporters: the registry / recorder / tracer rendered as JSON, CSV, or
// Prometheus-style text. All outputs iterate the deterministic collection
// order and format numbers with a fixed printf recipe, so two runs with the
// same seed produce byte-identical dumps — the property the reproducibility
// tests pin.
//
// The metrics, series and trace renderers read the registry's entries, the
// recorder's series and the trace ring where they live, copying no sample,
// series or record. Each first reserves an upper bound of its output, from
// the counts, the exact escaped string lengths and 24 characters per
// number, so the string is allocated once and never copied as it grows; the
// pages past the written end are never touched, so the slack costs no
// resident memory.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace sdmbox::net {
class Topology;
}

namespace sdmbox::obs {

/// Full JSON document: {"metrics": [...]} plus, when `series` is given,
/// {"series": {"period", "epochs", "metrics"}}.
std::string to_json(const MetricsRegistry& registry, const EpochRecorder* series = nullptr);

/// Prometheus text exposition: `# TYPE` headers plus one sample line per
/// (name, labels); histograms render as summaries (count / sum / quantiles).
std::string to_prometheus(const MetricsRegistry& registry);

/// Wide CSV of the epoch series: header `epoch,<name{labels}>...`, one row
/// per recorded epoch.
std::string to_csv(const EpochRecorder& recorder);

/// Trace dump: records grouped per flow in first-traced order, each hop with
/// simulated time, node id, node name (when `topo` is given) and hop kind.
std::string trace_to_json(const PathTracer& tracer, const net::Topology* topo = nullptr);

/// Span dump: {"started", "dropped", "spans": [...]} with spans in id
/// (creation) order; each span carries ids, name, device/subsystem, trace
/// tree links, sim-time start/end/duration, and sorted numeric attrs.
std::string spans_to_json(const SpanTracer& tracer);

/// Flat CSV of the span table, one row per surviving span in id order:
/// id,parent,trace,name,device,subsystem,start,end,duration,attrs
/// (attrs as `k=v` pairs joined by `;` inside one quoted cell).
std::string spans_to_csv(const SpanTracer& tracer);

/// Render `tracer` in the format implied by `path`'s extension:
/// .csv -> CSV, anything else -> JSON.
std::string render_spans_for_path(const SpanTracer& tracer, const std::string& path);

/// Render `registry` (+ optional series) in the format implied by `path`'s
/// extension: .csv -> CSV, .prom/.txt -> Prometheus, anything else -> JSON.
std::string render_for_path(const MetricsRegistry& registry, const EpochRecorder* series,
                            const std::string& path);

/// The exporters' deterministic number recipe, appended to `out`, for other
/// modules emitting JSON that must stay byte-identical across same-seed
/// runs: integral values print as integers, everything else via %.17g
/// (exact double round-trip); NaN renders as `null`, infinities as ±1e999.
/// At most 24 characters.
void json_number(std::string& out, double v);

/// JSON string-body escaping matching the exporters (quotes, backslash,
/// control characters), appended to `out`.
void json_escape(std::string& out, std::string_view s);

/// The same renderings returned as a new string, for callers outside the
/// exporters that build one small field at a time.
std::string json_number(double v);
std::string json_escape(std::string_view s);

/// Write `content` to `path`; false (with a warning log) on I/O failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace sdmbox::obs
