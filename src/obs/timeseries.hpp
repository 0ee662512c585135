// Epoch time-series recorder: periodic snapshots of every registry value in
// simulated time, so a run's evolution ("what did detection latency look
// like over the link flap?") is a first-class export, not a one-off printf.
//
// The recorder is deliberately decoupled from the event engine: sample(now)
// takes one snapshot, and start() self-schedules through caller-provided
// closures — with a sim::Simulator that is simply
//
//   recorder.start([&](double d, auto fn) { sim.schedule_in(d, std::move(fn)); },
//                  [&] { return sim.now(); });
//
// which drives one snapshot per epoch on the simulator's own calendar (the
// first at the current time). Metrics registered after the first epoch are
// zero-padded on the left so every series stays aligned with epochs().
//
// Each registry metric is bound to its series once, and rebound only when
// the registry has grown (metrics are never removed), so a snapshot copies
// the values in registry order straight into the bound series: no sample
// copies, label rendering or keyed lookups per epoch.
//
// A series owns only its values. Its name and labels are the registry
// entry's own, and the recorder's map keys on a view of the registry's key:
// registry entries never move and are never removed, and the registry
// outlives the recorder. The exporters walk the series in place through
// for_each_series(); series() copies them, for callers that keep them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace sdmbox::obs {

class EpochRecorder {
public:
  /// Snapshots `registry` every `period` (simulated seconds). The registry
  /// must outlive the recorder.
  EpochRecorder(const MetricsRegistry& registry, double period);

  /// Take one snapshot stamped `now`. Timestamps must be non-decreasing.
  void sample(double now);

  using ScheduleIn = std::function<void(double delay, std::function<void()> fn)>;
  using Clock = std::function<double()>;

  /// Sample immediately, then keep rescheduling every period() until stop().
  /// Idempotent while running. A restart begins a new chain of ticks; the
  /// stopped chain's pending tick does nothing.
  void start(ScheduleIn schedule, Clock clock);
  void stop() noexcept { running_ = false; }
  bool running() const noexcept { return running_; }

  double period() const noexcept { return period_; }
  const std::vector<double>& epochs() const noexcept { return epochs_; }
  std::size_t epoch_count() const noexcept { return epochs_.size(); }

  /// One metric's recorded values. `name` and `labels` refer to the
  /// registry entry's own.
  struct Series {
    const std::string& name;
    const Labels& labels;
    MetricKind kind;
    std::vector<double> values;  // parallel to epochs(), left-padded
  };

  /// Every recorded series, sorted by (name, labels), each with
  /// epochs().size() values. A copy of every value.
  std::vector<Series> series() const;

  /// Calls fn(series) for every recorded series in series() order, copying
  /// nothing. Each holds one value per epoch: sample() left-pads a series
  /// bound after earlier epochs, and a metric registered since the last
  /// sample has no series yet.
  template <class Fn>
  void for_each_series(Fn&& fn) const {
    for (const auto& [key, s] : series_) fn(s);
  }
  std::size_t series_count() const noexcept { return series_.size(); }

  /// Direct series lookup for consumers that subscribe to recorded samples
  /// (e.g. the drift-triggered re-optimisation loop). The pointer stays
  /// valid across sample() calls but its values vector grows with them; a
  /// metric registered since the last sample has no series until the next
  /// one (see the left-padding note above).
  const Series* find(std::string_view name, const Labels& labels) const;

  /// All recorded series named `name` (one per label set), in deterministic
  /// label order.
  std::vector<const Series*> find_all(std::string_view name) const;

  /// Most recently sampled value of (name, labels); nullopt when the series
  /// is unknown or has no samples yet.
  std::optional<double> latest(std::string_view name, const Labels& labels) const;

private:
  void bind();
  void tick(std::uint64_t chain);

  const MetricsRegistry& registry_;
  double period_;
  std::vector<double> epochs_;
  // Keyed by a view of the registry's key (name + '\0' + labels), so
  // iteration stays in the same deterministic order.
  std::map<std::string_view, Series> series_;
  std::vector<Series*> bound_;  // the series of each registry metric, in its order
  bool running_ = false;
  std::uint64_t chain_ = 0;  // generation of the live tick chain
  ScheduleIn schedule_;
  Clock clock_;
};

}  // namespace sdmbox::obs
