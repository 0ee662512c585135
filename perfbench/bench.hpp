// Shared pieces of the repository benchmark: run options, the wall-clock
// span log the traced run records from the benchmark's own call sites, the
// result every workload returns, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "exp/world.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2019;
  double seconds = 10;
  bool trace = false;
};

/// One span: a named interval of wall time around one benchmark call into a
/// library layer. Spans stay in memory and are written out when the run ends.
struct Span {
  std::string name;
  double start_s = 0;  // since the log was created
  double end_s = 0;
  int parent = -1;  // index into the log, -1 for a root
  std::uint64_t run = 0;
};

/// Span log for the traced run. Disabled logs record nothing, so the
/// end-to-end runs carry no tracing cost at all.
class SpanLog {
public:
  SpanLog(bool enabled, std::uint64_t run_id) : enabled_(enabled), run_(run_id) {}

  /// Times one call: opened on construction, closed on destruction (or by
  /// stop(), which also returns the duration in seconds).
  class Scope {
  public:
    Scope(SpanLog& log, std::string name);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double stop();

  private:
    SpanLog& log_;
    int index_ = -1;
    Clock::time_point t0_;
    double elapsed_ = -1;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Durations (ms) of every closed span with this name, in order.
  std::vector<double> durations_ms(const std::string& name) const;
  std::string to_json() const;

private:
  bool enabled_;
  std::uint64_t run_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

/// One metric value with its unit, as the result line reports it.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `failed` counts operations that broke an
/// invariant (see README.md); `problems` says which, for the log.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;
  /// Human-readable lines printed before the result: figures cited by name
  /// that are not BENCHMARK.json metrics, counts, context.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void problem(std::string what) { problems.push_back(std::move(what)); }
  bool correct() const noexcept { return problems.empty() && failed == 0; }
};

double median(std::vector<double> v);
/// The highest percentile with at least ten samples above it (the p90 needs
/// 100 samples). Returns {percentile, value}; {50, median} when the sample
/// is too small for any percentile beyond the median.
std::pair<int, double> tail_percentile(std::vector<double> v);

/// VmHWM of this process, in MB (0 when /proc is unavailable).
double peak_rss_mb();

/// The §IV.A Waxman world every workload runs on, for `seed`: fault-free,
/// untraced, no spans, no oracle (the datapath_waxman spec).
sdmbox::exp::ScenarioSpec waxman_spec(std::uint64_t seed);
/// The same world with the scripted chaos timeline, tracing at rate 1.0,
/// spans and the live oracle (the chaos_verify_waxman spec).
sdmbox::exp::ScenarioSpec chaos_verify_spec(std::uint64_t seed);

/// Policy packets World::run injects for these flows (four waves).
std::uint64_t policy_packets(const sdmbox::workload::GeneratedFlows& flows);

/// Counts a run of one seed must repeat exactly.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t trace_records = 0;
  std::uint64_t classifier_lookups = 0;
  std::uint64_t pushes = 0;
  std::uint64_t delivered = 0;
  friend bool operator==(const SimCounts&, const SimCounts&) = default;
};
SimCounts sim_counts(const sdmbox::exp::World& w);

/// Failed packets of a finished run (oracle-violating packets, TTL /
/// no-route / queue drops, middlebox anomalies). Records a
/// problem when the oracle report is not clean or its buckets do not sum
/// to packets_tracked.
std::uint64_t check_sim_world(const sdmbox::exp::World& w, Result& r);

/// Render the metrics, trace and spans exports in memory; returns bytes.
std::size_t render_exports(const sdmbox::exp::World& w);

/// Seed-derived inputs of the replan loop, generated before timing.
struct ReplanInputs {
  std::vector<sdmbox::net::NodeId> failure_order;      // every middlebox once
  std::vector<sdmbox::workload::TrafficMatrix> drift;  // one per failure step
  std::vector<sdmbox::net::NodeId> devices;            // proxies + middleboxes
};
ReplanInputs make_replan_inputs(const sdmbox::exp::World& w, std::uint64_t seed);

struct ReplanSample {
  char kind = 'c';  // 'c' cold, 'w' warm drift re-solve, 'p' patched failure
  double ms = 0;
  std::size_t pivots = 0;
  bool warm_started = false;
  double lambda = 0;
};

/// One cycle of the closed replan loop: a cold compile from a fresh
/// Controller, then for each middlebox in failure order a drift re-solve and
/// a patched failure replan (restored with recompute() afterwards, untimed).
/// Every replan ends with every device slice encoded.
void replan_cycle(sdmbox::exp::World& w, const ReplanInputs& in, SpanLog& log,
                  std::vector<ReplanSample>& out, Result& r);

Result run_datapath(const Options& opt);
Result run_chaos_verify(const Options& opt);
Result run_replan(const Options& opt);
/// The traced run: per-layer metrics for `opt.workload`.
Result run_layers(const Options& opt, SpanLog& log);

}  // namespace perfbench
