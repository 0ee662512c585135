// Closed-loop drift-triggered re-optimisation (§III.C, online).
//
// The offline pieces have existed for a while: proxies report measured
// traffic (control/endpoints), the controller can re-solve Eq. (2) from the
// collected matrix (ControllerAgent::replan), and the telemetry layer
// records per-middlebox load series (obs::EpochRecorder). This header closes
// the loop ON the simulator calendar:
//
//   ReoptimizePolicy --every epoch--> read per-middlebox load window from
//   the EpochRecorder --> DriftDetector compares its share vector against
//   the one the current plan was solved for --> when total-variation drift
//   exceeds the threshold (and hysteresis/min-report gates pass) -->
//   ControllerAgent::replan({kDrift}) re-solves the LP and differentially
//   pushes the new split ratios --> proxies are asked for fresh reports.
//
// The drift metric is the total-variation distance between NORMALIZED load
// vectors (shares of the total), so uniform traffic growth never triggers a
// re-solve — only a shift in how load is distributed across middleboxes
// does, which is exactly what invalidates the last LP solution.
//
// DriftDetector is pure (no sim, no agent) so the analytic epoch study and
// the bench ablation share the exact trigger logic with the online loop.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/endpoints.hpp"
#include "control/reoptimize_options.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace sdmbox::control {

/// Loop bookkeeping, exposable as reopt_* registry series. All counts are
/// deterministic for a fixed seed (modeled solve cost included — see
/// solve_ms_modeled below).
struct ReoptimizeCounters {
  std::uint64_t epochs = 0;               // evaluations run
  std::uint64_t triggered = 0;            // drift triggers that led to a solve
  std::uint64_t suppressed = 0;           // evaluations that did NOT solve
  std::uint64_t suppressed_drift = 0;     //   ... drift below threshold
  std::uint64_t suppressed_cooldown = 0;  //   ... inside the cooldown window
  std::uint64_t suppressed_reports = 0;   //   ... too few pending reports
  std::uint64_t solves = 0;               // LP solves actually run
  std::uint64_t solve_pivots = 0;         // simplex pivots across those solves
  std::uint64_t solve_warm_starts = 0;    // solves that re-used the last basis
  std::uint64_t pushes = 0;               // config pushes sent by those solves
  std::uint64_t push_bytes = 0;           // plan churn: bytes actually pushed
};

/// The pure trigger core: given an observed per-middlebox load vector and
/// the number of pending reports, decide whether to re-solve. Stateful in
/// the reference share vector (what the current plan was solved for) and
/// the cooldown clock.
class DriftDetector {
public:
  enum class Decision : std::uint8_t {
    kSeeded,          // first usable window: reference established, no solve
    kTrigger,         // drift above threshold, gates passed — re-solve now
    kBelowThreshold,  // distribution close enough to the reference
    kCooldown,        // drift may be high, but the last solve is too recent
    kTooFewReports,   // not enough pending reports to trust a solve
  };

  DriftDetector(double threshold, int cooldown_epochs, std::uint64_t min_reports);
  /// All knobs from one ReoptimizeOptions (epoch_period is a loop concern
  /// and ignored here).
  explicit DriftDetector(const ReoptimizeOptions& options);

  /// Per-function index groups over the observed vector (the middleboxes
  /// implementing each deployed function). When set, drift becomes the max
  /// of the global total-variation distance and each group's own TV
  /// distance — a shift confined to one function's implementers triggers
  /// even when it washes out of the global share vector.
  void set_groups(std::vector<std::vector<std::size_t>> groups) {
    groups_ = std::move(groups);
  }

  /// Evaluate one epoch. `observed` is the raw (unnormalized) per-middlebox
  /// load window since the last solve; `pending_reports` gates the solve.
  /// Every call advances the cooldown clock.
  Decision evaluate(const std::vector<double>& observed, std::uint64_t pending_reports);

  /// Record that the caller re-solved on `observed`: it becomes the new
  /// reference distribution and the cooldown clock restarts.
  void mark_solved(const std::vector<double>& observed);

  /// Drift computed by the most recent evaluate() that got far enough to
  /// compare (0 before that).
  double last_drift() const noexcept { return last_drift_; }
  bool has_reference() const noexcept { return has_reference_; }
  double threshold() const noexcept { return opt_.drift_threshold; }

  /// Total-variation distance between the normalized forms of two raw load
  /// vectors: 0.5 * sum |a_i/sum(a) - b_i/sum(b)|, in [0, 1]. An empty
  /// (all-zero) vector against a non-empty one is maximal drift (1); two
  /// empty vectors agree (0).
  static double drift(const std::vector<double>& reference,
                      const std::vector<double>& observed);

private:
  /// Max of the global TV distance and every group's own TV distance.
  double drift_grouped(const std::vector<double>& reference,
                       const std::vector<double>& observed) const;

  ReoptimizeOptions opt_;
  std::vector<std::vector<std::size_t>> groups_;
  std::vector<double> reference_;  // normalized shares the last solve saw
  bool has_reference_ = false;
  int epochs_since_solve_ = 0;
  double last_drift_ = 0;
};

/// The online loop. Owns nothing but its counters: the agent, control plane
/// and recorder must outlive it.
class ReoptimizePolicy {
public:
  ReoptimizePolicy(ControllerAgent& agent, const ControlPlane& plane,
                   const obs::EpochRecorder& recorder, ReoptimizeOptions params = {});

  /// Start evaluating every params.epoch_period on the network's calendar
  /// (first evaluation one period from now). Idempotent while running.
  void start(sim::SimNetwork& net);
  void stop() noexcept;
  bool running() const noexcept { return periodic_ != nullptr && periodic_->active; }

  const ReoptimizeCounters& counters() const noexcept { return counters_; }
  const DriftDetector& detector() const noexcept { return detector_; }
  const ReoptimizeOptions& params() const noexcept { return params_; }
  /// Deterministic modeled solve cost in milliseconds (0.5 ms per solve +
  /// 0.02 ms per simplex pivot): the registry's reopt_solve_ms, chosen over
  /// wall time so same-seed runs export byte-identical evidence.
  double solve_ms_modeled() const noexcept { return solve_ms_modeled_; }

  /// One line per evaluation, for tests asserting trigger placement.
  struct Event {
    std::uint64_t epoch = 0;  // 1-based evaluation index
    double at = 0;            // simulated time
    DriftDetector::Decision decision{};
    double drift = 0;
  };
  const std::vector<Event>& log() const noexcept { return log_; }

  /// Expose the loop as reopt_* series ({subsystem: reoptimize} labels).
  void register_metrics(obs::MetricsRegistry& registry) const;

  /// Attach a span tracer: each drift trigger opens an `episode:drift` root
  /// span and parks it on the context stack so the replan's span tree roots
  /// under it (the controller closes the episode at plan-live time).
  void set_spans(obs::SpanTracer* spans) noexcept { spans_ = spans; }

private:
  void epoch(sim::SimNetwork& net);
  std::vector<double> cumulative_loads() const;

  ControllerAgent& agent_;
  obs::SpanTracer* spans_ = nullptr;
  const ControlPlane& plane_;
  const obs::EpochRecorder& recorder_;
  ReoptimizeOptions params_;
  DriftDetector detector_;
  ReoptimizeCounters counters_;
  std::vector<double> base_;  // cumulative loads at the last reference reset
  double solve_ms_modeled_ = 0;
  std::vector<Event> log_;
  std::shared_ptr<sim::Simulator::Periodic> periodic_;
};

const char* to_string(DriftDetector::Decision d) noexcept;

}  // namespace sdmbox::control
