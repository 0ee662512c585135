// The three end-to-end workloads, each timed with tracing off:
//   datapath_waxman      batch: build + run the fault-free Waxman world
//   chaos_verify_waxman  batch: the chaos timeline, traced, with the oracle
//   replan_waxman        closed loop: drift / failure / cold replans
// plus the pieces the traced run (ladder.cpp) reuses.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "control/codec.hpp"
#include "core/validate.hpp"
#include "exp/world.hpp"
#include "obs/export.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace sdmbox;

namespace {

/// Set-ups done before the first timed iteration of every workload: they
/// warm the allocator and give setup_s enough samples for a median.
constexpr int kWarmupSetups = 3;
/// Set-ups of the replan workload, whose loop never builds a world.
constexpr int kReplanSetups = 10;
/// Every workload repeats its unit of work at least this often after the
/// warm-up, so the exact-count check always compares repetitions of one seed.
constexpr int kMinIterations = 2;

/// Whether to start another unit of work: until the minimum count is done,
/// then only while the next one (as long as the last) ends within the run.
bool another(int done, double elapsed, double last, double seconds) {
  return done <= kMinIterations || elapsed + last <= seconds;
}

std::string fmt(const char* f, double a, double b = 0, double c = 0, double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d);
  return buf;
}

}  // namespace

exp::ScenarioSpec waxman_spec(std::uint64_t seed) {
  exp::ScenarioSpec s;
  s.topology = exp::TopologyKind::kWaxman;
  s.seed = seed;
  s.faults = exp::FaultScript::kNone;
  s.trace_sample = 0;
  s.spans = false;
  s.verify = false;
  return s;
}

exp::ScenarioSpec chaos_verify_spec(std::uint64_t seed) {
  exp::ScenarioSpec s = waxman_spec(seed);
  s.faults = exp::FaultScript::kChaos;
  s.trace_sample = 1.0;
  s.spans = true;
  s.verify = true;
  return s;
}

std::uint64_t policy_packets(const workload::GeneratedFlows& flows) {
  // World::run injects four waves of min(packets, 6) packets per flow.
  std::uint64_t per_wave = 0;
  for (const auto& f : flows.flows) per_wave += std::min<std::uint64_t>(f.packets, 6);
  return 4 * per_wave;
}

SimCounts sim_counts(const exp::World& w) {
  const obs::MetricsRegistry& reg = w.registry;
  SimCounts c;
  c.events = w.simnet->simulator().events_processed();
  c.trace_records = w.trace_recorded();
  c.classifier_lookups = static_cast<std::uint64_t>(reg.total("proxy_classifier_lookups") +
                                                    reg.total("mbx_classifier_lookups"));
  c.pushes = static_cast<std::uint64_t>(reg.total("ctrl_pushes_sent"));
  c.delivered = w.simnet->counters().delivered;
  return c;
}

std::uint64_t check_sim_world(const exp::World& w, Result& r) {
  const sim::NetworkCounters nc = w.simnet->counters();
  std::uint64_t failed = nc.dropped_ttl + nc.dropped_no_route + nc.dropped_queue +
                         static_cast<std::uint64_t>(w.registry.total("mbx_anomalies"));
  if (w.oracle) {
    const verify::VerifyReport& vr = w.oracle->report();
    // Unverified packets (alias collisions: the oracle cannot tell two
    // packets apart) are a coverage gap, not an enforcement failure; a few
    // seeds produce some on correct code, so they are reported, not failed.
    failed += vr.packets_violating;
    if (!vr.ok()) {
      r.problem("oracle report not ok: " + std::to_string(vr.violations.size()) +
                " violations, coverage " + (vr.coverage_complete ? "complete" : "incomplete"));
    }
    const std::uint64_t buckets = vr.packets_delivered_ok + vr.packets_denied +
                                  vr.packets_dropped + vr.packets_wp_served +
                                  vr.packets_anomaly_sunk + vr.packets_in_flight +
                                  vr.packets_violating + vr.packets_unverified;
    if (buckets != vr.packets_tracked) {
      r.problem("oracle buckets sum to " + std::to_string(buckets) + ", packets_tracked is " +
                std::to_string(vr.packets_tracked));
    }
  }
  return failed;
}

std::size_t render_exports(const exp::World& w) {
  std::size_t bytes = obs::to_json(w.registry, w.recorder.get()).size();
  bytes += w.trace_json().size();
  if (w.spans) bytes += obs::spans_to_json(*w.spans).size();
  return bytes;
}

namespace {

/// One batch workload: set up a fresh world, run its scripted timeline,
/// render its exports; repeat for the run's duration.
Result run_sim_workload(const Options& opt, const exp::ScenarioSpec& spec) {
  Result r;
  std::vector<double> setup_s;
  for (int i = 0; i < kWarmupSetups; ++i) {
    const auto t0 = Clock::now();
    auto w = exp::build_world(spec);
    w->prepare_sim();
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<double> run_s, wall_s;
  double cold_run_s = 0;
  SimCounts first{};
  std::uint64_t pkts = 0, unverified = 0;
  std::size_t export_bytes = 0;
  const auto start = Clock::now();
  // Iteration 0 is the warm-up: checked like the rest, but its times (the
  // process's first run pays for fresh heap pages) stay out of the medians.
  double last = 0;
  for (int i = 0; another(i, seconds_since(start), last, opt.seconds); ++i) {
    const auto t0 = Clock::now();
    auto w = exp::build_world(spec);
    w->prepare_sim();
    const double setup = seconds_since(t0);
    const auto t1 = Clock::now();
    w->run();
    const double run = seconds_since(t1);
    export_bytes = render_exports(*w);
    const double wall = seconds_since(t0);
    last = wall;
    if (i == 0) {
      cold_run_s = run;
    } else {
      setup_s.push_back(setup);
      run_s.push_back(run);
      wall_s.push_back(wall);
    }

    pkts = policy_packets(w->flows);
    if (w->oracle) unverified = w->oracle->report().packets_unverified;
    r.attempted += pkts;
    r.failed += check_sim_world(*w, r);
    const SimCounts c = sim_counts(*w);
    if (i == 0) {
      first = c;
    } else if (!(c == first)) {
      r.problem("exact counts drifted between repetitions of seed " + std::to_string(opt.seed));
    }
  }

  const double run_med = median(run_s);
  r.set("setup_s", median(setup_s), "s");
  r.set("wall_s", median(wall_s), "s");
  r.set("op_ms_p50", 1e3 * run_med, "ms");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.notes.push_back(fmt("sim_pkts_per_s = %.1f pkt/s (%.0f policy packets per run, median of "
                        "%.0f warm runs; cold first run %.4f s)",
                        static_cast<double>(pkts) / run_med, static_cast<double>(pkts),
                        static_cast<double>(run_s.size()), cold_run_s));
  r.notes.push_back(fmt("counts: %.0f events, %.0f trace records, %.0f classifier lookups, "
                        "%.0f pushes",
                        static_cast<double>(first.events), static_cast<double>(first.trace_records),
                        static_cast<double>(first.classifier_lookups),
                        static_cast<double>(first.pushes)));
  r.notes.push_back(fmt("exports rendered: %.0f bytes; oracle: %.0f packets unverified",
                        static_cast<double>(export_bytes), static_cast<double>(unverified)));
  return r;
}

}  // namespace

Result run_datapath(const Options& opt) { return run_sim_workload(opt, waxman_spec(opt.seed)); }

Result run_chaos_verify(const Options& opt) {
  return run_sim_workload(opt, chaos_verify_spec(opt.seed));
}

// ---- replan ---------------------------------------------------------------

ReplanInputs make_replan_inputs(const exp::World& w, std::uint64_t seed) {
  // Drift matrices and failure order come from the seed, before timing.
  util::Rng rng(exp::derive_seed(seed, 1));
  ReplanInputs in;
  in.failure_order.reserve(w.deployment.size());
  for (const auto& mb : w.deployment.middleboxes()) in.failure_order.push_back(mb.node);
  for (std::size_t i = in.failure_order.size(); i > 1; --i) {
    std::swap(in.failure_order[i - 1], in.failure_order[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < in.failure_order.size(); ++i) {
    workload::MeasureOptions mo;
    mo.sample_rate = 0.5 + 0.4 * rng.next_double();
    mo.seed = rng.next_u64();
    in.drift.push_back(workload::TrafficMatrix::measure(w.gen.policies, w.flows.flows, mo));
  }
  in.devices = w.network.proxies;
  for (const auto& mb : w.deployment.middleboxes()) in.devices.push_back(mb.node);
  return in;
}

namespace {

std::size_t encode_all(const core::EnforcementPlan& plan, const std::vector<net::NodeId>& devices,
                       std::uint64_t version) {
  std::size_t bytes = 0;
  for (const net::NodeId d : devices) {
    bytes += control::encode_device_config(core::slice_for_device(plan, d, version)).size();
  }
  return bytes;
}

}  // namespace

void replan_cycle(exp::World& w, const ReplanInputs& in, SpanLog& log,
                  std::vector<ReplanSample>& out, Result& r) {
  core::ControllerParams params;  // what build_world uses for the spec
  params.lp.simplex.engine = w.spec.lp_engine;
  params.warm_start_lb = w.spec.lp_warm_start;
  core::ControllerParams cold_params = params;
  cold_params.warm_start_lb = false;
  core::Controller cold_ref(w.network, w.deployment, w.gen.policies, cold_params);

  std::unique_ptr<core::Controller> ctrl;
  std::uint64_t version = 0;

  // Each replan: time the controller call and the encoding of every device
  // slice; then (untimed) check the plan and record the LP facts.
  const auto replan = [&](char kind, const auto& solve) {
    core::Controller::SolveInfo info;
    core::EnforcementPlan plan;
    bool ok = true;
    SpanLog::Scope total(log, std::string("replan.") + kind);
    try {
      SpanLog::Scope s(log, kind == 'c'   ? "core.compile_cold"
                            : kind == 'w' ? "core.compile_warm"
                                          : "core.patch");
      plan = solve(info);
    } catch (const ContractViolation& e) {
      ok = false;
      r.problem(std::string("replan threw: ") + e.what());
    }
    if (ok) {
      SpanLog::Scope s(log, "control.encode");
      encode_all(plan, in.devices, ++version);
    }
    const double ms = 1e3 * total.stop();
    if (ok) {
      const auto errors = core::validate_plan(plan, w.network, w.deployment, w.gen.policies);
      if (!errors.empty()) {
        ok = false;
        r.problem("validate_plan: " + errors.front());
      }
    }
    ++r.attempted;
    if (!ok) ++r.failed;
    out.push_back(ReplanSample{kind, ms, info.pivots, info.warm_started, info.lambda});
  };

  replan('c', [&](core::Controller::SolveInfo& info) {
    ctrl = std::make_unique<core::Controller>(w.network, w.deployment, w.gen.policies, params);
    return ctrl->compile(core::StrategyKind::kLoadBalanced, &w.traffic, &info);
  });
  for (std::size_t j = 0; j < in.failure_order.size(); ++j) {
    const workload::TrafficMatrix& m = in.drift[j];
    replan('w', [&](core::Controller::SolveInfo& info) {
      return ctrl->compile(core::StrategyKind::kLoadBalanced, &m, &info);
    });
    if (j % 7 == 0) {
      // A sample of warm optima against a cold solve of the same matrix.
      core::Controller::SolveInfo ref;
      cold_ref.compile(core::StrategyKind::kLoadBalanced, &m, &ref);
      const double lambda = out.back().lambda;
      if (std::abs(ref.lambda - lambda) > 1e-9 * std::max(1.0, std::abs(ref.lambda))) {
        ++r.failed;
        r.problem(fmt("warm lambda %.17g != cold lambda %.17g", lambda, ref.lambda));
      }
    }
    const net::NodeId victim = in.failure_order[j];
    w.deployment.set_failed(victim, true);
    replan('p', [&](core::Controller::SolveInfo& info) {
      ctrl->patch_failed_node(victim);
      return ctrl->compile(core::StrategyKind::kLoadBalanced, &m, &info);
    });
    w.deployment.set_failed(victim, false);
    ctrl->recompute();
  }
}

Result run_replan(const Options& opt) {
  Result r;
  const exp::ScenarioSpec spec = waxman_spec(opt.seed);
  std::vector<double> setup_s;
  std::unique_ptr<exp::World> w;
  for (int i = 0; i < kReplanSetups; ++i) {
    const auto t0 = Clock::now();
    w = exp::build_world(spec);
    setup_s.push_back(seconds_since(t0));
  }
  const ReplanInputs in = make_replan_inputs(*w, opt.seed);

  SpanLog off(false, 0);
  std::vector<ReplanSample> samples, cycle;
  std::vector<std::size_t> first_pivots;
  std::vector<double> cycle_s;
  const auto start = Clock::now();
  // Cycle 0 is the warm-up: checked, but kept out of the latency sample.
  double cycle_elapsed = 0;
  for (int i = 0; another(i, seconds_since(start), cycle_elapsed, opt.seconds); ++i) {
    cycle.clear();
    const auto t0 = Clock::now();
    replan_cycle(*w, in, off, cycle, r);
    cycle_elapsed = seconds_since(t0);
    std::vector<std::size_t> pivots;
    for (const auto& s : cycle) pivots.push_back(s.pivots);
    if (i == 0) {
      first_pivots = pivots;
      continue;
    }
    if (pivots != first_pivots) {
      r.problem("LP pivot counts drifted between repetitions of seed " +
                std::to_string(opt.seed));
    }
    cycle_s.push_back(cycle_elapsed);
    samples.insert(samples.end(), cycle.begin(), cycle.end());
  }

  std::vector<double> ms;
  for (const auto& s : samples) ms.push_back(s.ms);
  const auto [pct, tail] = tail_percentile(ms);
  const double p50 = median(ms);
  const double setup = median(setup_s);
  r.set("setup_s", setup, "s");
  // A user's wait from spec to a world replanned through the whole mix.
  r.set("wall_s", setup + median(cycle_s), "s");
  r.set("op_ms_p50", p50, "ms");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  const std::size_t total_pivots = std::accumulate(first_pivots.begin(), first_pivots.end(),
                                                   std::size_t{0});
  r.notes.push_back(fmt("replan_ms_p50 = %.4f ms, replan_ms_p%.0f = %.4f ms (%.0f replans)", p50,
                        pct, tail, static_cast<double>(ms.size())));
  r.notes.push_back(fmt("counts: %.0f replans per cycle, %.0f pivots per cycle",
                        static_cast<double>(first_pivots.size()),
                        static_cast<double>(total_pivots)));
  return r;
}

}  // namespace perfbench
