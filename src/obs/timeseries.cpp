#include "obs/timeseries.hpp"

#include "util/check.hpp"

namespace sdmbox::obs {

EpochRecorder::EpochRecorder(const MetricsRegistry& registry, double period)
    : registry_(registry), period_(period) {
  SDM_CHECK_MSG(period > 0, "epoch period must be positive");
}

void EpochRecorder::sample(double now) {
  SDM_CHECK_MSG(epochs_.empty() || now >= epochs_.back(),
                "epoch snapshots must move forward in time");
  if (bound_.size() != registry_.size()) bind();
  epochs_.push_back(now);
  auto series = bound_.begin();
  registry_.for_each_value([&](double v) { (*series++)->values.push_back(v); });
}

void EpochRecorder::bind() {
  bound_.clear();
  bound_.reserve(registry_.size());
  registry_.for_each_metric([&](const std::string& key, const std::string& name,
                                const Labels& labels, MetricKind kind) {
    auto [it, inserted] = series_.try_emplace(key, name, labels, kind);
    Series& series = it->second;
    // Metrics registered after earlier epochs: left-pad with zeros so the
    // series stays aligned with epochs().
    if (inserted) series.values.assign(epochs_.size(), 0.0);
    bound_.push_back(&series);
  });
}

void EpochRecorder::start(ScheduleIn schedule, Clock clock) {
  if (running_) return;
  SDM_CHECK(schedule != nullptr && clock != nullptr);
  running_ = true;
  schedule_ = std::move(schedule);
  clock_ = std::move(clock);
  tick(++chain_);
}

void EpochRecorder::tick(std::uint64_t chain) {
  if (!running_ || chain != chain_) return;
  sample(clock_());
  schedule_(period_, [this, chain] { tick(chain); });
}

const EpochRecorder::Series* EpochRecorder::find(std::string_view name,
                                                 const Labels& labels) const {
  std::string key{name};
  key += '\0';
  key += labels.render();
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<const EpochRecorder::Series*> EpochRecorder::find_all(std::string_view name) const {
  std::vector<const Series*> out;
  std::string prefix{name};
  prefix += '\0';
  for (auto it = series_.lower_bound(prefix); it != series_.end() && it->first.starts_with(prefix);
       ++it) {
    out.push_back(&it->second);
  }
  return out;
}

std::optional<double> EpochRecorder::latest(std::string_view name, const Labels& labels) const {
  const Series* s = find(name, labels);
  if (s == nullptr || s->values.empty()) return std::nullopt;
  return s->values.back();
}

std::vector<EpochRecorder::Series> EpochRecorder::series() const {
  std::vector<Series> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) out.push_back(s);
  return out;
}

}  // namespace sdmbox::obs
