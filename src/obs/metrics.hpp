// Unified metrics registry — the one tree every component reports into.
//
// Three instrument kinds (counter / gauge / histogram), each carrying a
// metric name plus a small label set (`device`, `subsystem`, `function` by
// convention). The registry owns no storage: expose_counter()/
// expose_gauge()/expose_histogram() register views over values that live
// INSIDE the components' own counter structs (FlowTableStats,
// ProxyCounters, HealthCounters, ...). The structs stay the hot-path storage
// and keep their typed accessors; the registry reads through the
// pointer/closure only at collection time. Components must outlive every
// collect() call (registries are scoped to a run).
//
// Iteration order is deterministic: collect() returns samples sorted by
// (name, labels), so dumps from identical runs are byte-identical — the
// property every exporter and the epoch recorder inherit for free. The
// for_each_* hooks walk the same order in place, copying nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/histogram.hpp"

namespace sdmbox::obs {

/// An ordered label set (sorted by key, duplicate keys rejected).
class Labels {
public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv);

  /// Insert or overwrite one label; returns *this for chaining.
  Labels& set(std::string key, std::string value);

  const std::string* get(std::string_view key) const noexcept;
  const std::vector<std::pair<std::string, std::string>>& items() const noexcept {
    return items_;
  }
  bool empty() const noexcept { return items_.empty(); }

  /// Prometheus-style rendering: `{a="x",b="y"}`, empty string when empty.
  std::string render() const;

  friend bool operator==(const Labels&, const Labels&) noexcept = default;

private:
  std::vector<std::pair<std::string, std::string>> items_;  // sorted by key
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
const char* to_string(MetricKind kind) noexcept;

/// One metric's value at collection time.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0;                     // counter / gauge (histogram: count)
  stats::HistogramSnapshot histogram;   // kHistogram only
};

class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Views over externally-owned values. The pointee / closure must stay
  /// valid for every subsequent collect(). Duplicate (name, labels)
  /// registration is a contract violation — it would hide one source.
  void expose_counter(std::string name, Labels labels, const std::uint64_t* value);
  void expose_gauge(std::string name, Labels labels, std::function<double()> fn);
  void expose_histogram(std::string name, Labels labels, const stats::Histogram* hist);

  /// Every metric's current value, sorted by (name, labels) — the stable
  /// order all exporters and the epoch recorder rely on. A copy, for
  /// callers that keep the samples; the exporters read for_each_sample().
  std::vector<MetricSample> collect() const;

  /// Calls fn(name, labels, kind, value, histogram) for every metric in
  /// collect() order: collect()'s samples read in place. `histogram` is the
  /// metric's histogram for kHistogram and null otherwise.
  template <class Fn>
  void for_each_sample(Fn&& fn) const {
    for (const auto& [key, e] : entries_) fn(e.name, e.labels, e.kind, e.scalar(), e.hist_view);
  }

  /// Calls fn(key, name, labels, kind) for every metric in collect() order;
  /// `key` is the registry's sort key (name, '\0', rendered labels). This is
  /// how a consumer that keeps per-metric state binds to the registry once.
  /// Metrics are never removed and entries never move, so the references
  /// stay valid for the registry's lifetime, and a consumer need rebind
  /// only when size() grew.
  template <class Fn>
  void for_each_metric(Fn&& fn) const {
    for (const auto& [key, e] : entries_) fn(key, e.name, e.labels, e.kind);
  }

  /// Calls fn(value) with every metric's collect() value (a histogram's
  /// count) in collect() order, copying no sample.
  template <class Fn>
  void for_each_value(Fn&& fn) const {
    for (const auto& [key, e] : entries_) fn(e.scalar());
  }

  /// Scalar value of one metric (histograms report their count); nullopt
  /// when no such (name, labels) is registered.
  std::optional<double> value(std::string_view name, const Labels& labels = {}) const;

  /// Sum over every instrument named `name`, across all label sets (0 when
  /// none exist). The registry-level analogue of "total over devices".
  double total(std::string_view name) const;

  std::size_t size() const noexcept { return entries_.size(); }

private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    const std::uint64_t* counter_view = nullptr;
    std::function<double()> gauge_view;
    const stats::Histogram* hist_view = nullptr;

    double scalar() const;
  };

  static std::string key_of(std::string_view name, const Labels& labels);
  Entry& emplace(std::string name, Labels labels, MetricKind kind);

  // Key = name + '\0' + rendered labels: lexicographic map order == sort by
  // (name, labels), and all label sets of one name stay contiguous.
  std::map<std::string, Entry> entries_;
};

}  // namespace sdmbox::obs
