#include "obs/metrics.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sdmbox::obs {

Labels::Labels(std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [k, v] : kv) set(k, v);
}

Labels& Labels::set(std::string key, std::string value) {
  SDM_CHECK_MSG(!key.empty(), "label keys must be non-empty");
  const auto at = std::lower_bound(
      items_.begin(), items_.end(), key,
      [](const auto& item, const std::string& k) { return item.first < k; });
  if (at != items_.end() && at->first == key) {
    at->second = std::move(value);
  } else {
    items_.insert(at, {std::move(key), std::move(value)});
  }
  return *this;
}

const std::string* Labels::get(std::string_view key) const noexcept {
  for (const auto& [k, v] : items_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Labels::render() const {
  if (items_.empty()) return {};
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ',';
    out += items_[i].first;
    out += "=\"";
    out += items_[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

double MetricsRegistry::Entry::scalar() const {
  switch (kind) {
    case MetricKind::kCounter: return static_cast<double>(*counter_view);
    case MetricKind::kGauge: return gauge_view();
    case MetricKind::kHistogram: return static_cast<double>(hist_view->count());
  }
  return 0;
}

std::string MetricsRegistry::key_of(std::string_view name, const Labels& labels) {
  std::string key(name);
  key += '\0';
  key += labels.render();
  return key;
}

MetricsRegistry::Entry& MetricsRegistry::emplace(std::string name, Labels labels,
                                                 MetricKind kind) {
  SDM_CHECK_MSG(!name.empty(), "metric names must be non-empty");
  auto [it, inserted] = entries_.try_emplace(key_of(name, labels));
  Entry& e = it->second;
  SDM_CHECK_MSG(inserted, "duplicate metric registration: " + name + labels.render());
  e.name = std::move(name);
  e.labels = std::move(labels);
  e.kind = kind;
  return e;
}

void MetricsRegistry::expose_counter(std::string name, Labels labels,
                                     const std::uint64_t* value) {
  SDM_CHECK(value != nullptr);
  Entry& e = emplace(std::move(name), std::move(labels), MetricKind::kCounter);
  e.counter_view = value;
}

void MetricsRegistry::expose_gauge(std::string name, Labels labels,
                                   std::function<double()> fn) {
  SDM_CHECK(fn != nullptr);
  Entry& e = emplace(std::move(name), std::move(labels), MetricKind::kGauge);
  e.gauge_view = std::move(fn);
}

void MetricsRegistry::expose_histogram(std::string name, Labels labels,
                                       const stats::Histogram* hist) {
  SDM_CHECK(hist != nullptr);
  Entry& e = emplace(std::move(name), std::move(labels), MetricKind::kHistogram);
  e.hist_view = hist;
}

std::vector<MetricSample> MetricsRegistry::collect() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    MetricSample s;
    s.name = e.name;
    s.labels = e.labels;
    s.kind = e.kind;
    s.value = e.scalar();
    if (e.kind == MetricKind::kHistogram) {
      s.histogram = e.hist_view->snapshot();
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::optional<double> MetricsRegistry::value(std::string_view name, const Labels& labels) const {
  const auto it = entries_.find(key_of(name, labels));
  if (it == entries_.end()) return std::nullopt;
  return it->second.scalar();
}

double MetricsRegistry::total(std::string_view name) const {
  double sum = 0;
  std::string prefix(name);
  prefix += '\0';
  for (auto it = entries_.lower_bound(prefix);
       it != entries_.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    sum += it->second.scalar();
  }
  return sum;
}

}  // namespace sdmbox::obs
