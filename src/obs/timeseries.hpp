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

  struct Series {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    std::vector<double> values;  // parallel to epochs()
  };

  /// Every recorded series, sorted by (name, labels), each padded to
  /// epochs().size() values.
  std::vector<Series> series() const;

  /// Direct series lookup for consumers that subscribe to recorded samples
  /// (e.g. the drift-triggered re-optimisation loop). The pointer stays
  /// valid across sample() calls but its values vector grows with them; a
  /// just-registered series may be shorter than epoch_count() until the
  /// next sample (see the left-padding note above).
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
  // Keyed like the registry (name + '\0' + labels) so iteration stays in the
  // same deterministic order.
  std::map<std::string, Series> series_;
  std::vector<Series*> bound_;  // the series of each registry metric, in its order
  bool running_ = false;
  std::uint64_t chain_ = 0;  // generation of the live tick chain
  ScheduleIn schedule_;
  Clock clock_;
};

}  // namespace sdmbox::obs
