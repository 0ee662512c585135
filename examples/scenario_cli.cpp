// Command-line scenario runner: the library as a tool. A thin printf shell
// over exp::ScenarioSpec + exp::build_world — flags (and optionally a
// --spec file) assemble a spec, build_world wires the run, and this file
// only narrates: topology summary, policy audit, per-type loads, path
// stretch, distribution footprint, and the packet-level run's summary.
//
// Usage:
//   scenario_cli [--spec FILE]           # key=value ScenarioSpec file; flags
//                                        # given after it override its fields
//                [--topology campus|waxman] [--strategy hp|rand|lb]
//                [--packets N] [--policies-per-class N] [--seed N]
//                [--off-path] [--fail-one FW|IDS|WP|TM]
//                [--lp-engine sparse|dense]  # LB simplex engine
//                [--lp-warm-start]      # re-solve from the last basis (default)
//                [--lp-cold-start]      # force from-scratch re-solves
//                [--policy-file FILE]   # Table-I-style file; replaces the
//                                       # generated policy list for analysis
//                [--sim]                # packet-level run with a scripted
//                                       # crash + link flap (chaos timeline)
//                [--metrics-out FILE]   # telemetry dump (.json/.csv/.prom);
//                                       # implies --sim
//                [--trace-out FILE]     # per-flow path trace JSON; implies --sim
//                [--spans-out FILE]     # control-plane span export
//                                       # (.json/.csv); implies --sim
//                [--verify]             # attach the enforcement-invariant
//                                       # oracle live; non-zero exit on any
//                                       # violation; implies --sim
//                [--faults none|chaos|generated]  # fault timeline
//                [--chaos-seed N]       # seed for `generated` (0 = master seed)
//                [--epoch SECS]         # time-series sampling period (0.5)
//                [--trace-sample RATE]  # flow sampling rate in [0,1] (1.0)
//                [--reopt-period SECS]  # drift-triggered re-optimisation
//                                       # loop epoch (0 = off); implies --sim
//                [--reopt-threshold X]  # total-variation drift trigger (0.1)
//                [--reopt-cooldown N]   # epochs between solves (2)
//                [--reopt-min-reports N] # reports required per solve (1)
//                [--help]               # print usage to stdout, exit 0
//
// Exit codes (the contract cli_test drives): 0 = run completed (and, with
// --verify, the oracle passed); 2 = bad usage / unbuildable spec; 3 =
// --verify found violations or could not verify the run.
//
// Example:
//   ./build/examples/scenario_cli --topology waxman --strategy lb --packets 5000000
//   ./build/examples/scenario_cli --packets 4000 --metrics-out m.json --trace-out t.json
//   ./build/examples/scenario_cli --packets 4000 --reopt-period 0.5 --metrics-out m.json
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include <fstream>
#include <sstream>

#include "analytic/load_evaluator.hpp"
#include "core/validate.hpp"
#include "exp/spec.hpp"
#include "exp/world.hpp"
#include "obs/export.hpp"
#include "policy/analysis.hpp"
#include "policy/parser.hpp"
#include "sim/simulator.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"
#include "verify/oracle.hpp"

using namespace sdmbox;

namespace {

struct CliOptions {
  exp::ScenarioSpec spec;
  std::string policy_file;  // optional Table-I-style policy file to audit
  bool sim = false;         // packet-level run with the scripted fault timeline
  std::string metrics_out;  // telemetry dump path (.json / .csv / .prom); implies sim
  std::string trace_out;    // per-flow path trace JSON path; implies sim
  std::string spans_out;    // control-plane span export (.json / .csv); implies sim
  bool help = false;        // --help: print usage to stdout, exit 0

  bool wants_sim() const {
    return sim || !metrics_out.empty() || !trace_out.empty() || !spans_out.empty() ||
           spec.reopt.epoch_period > 0 || spec.verify;
  }
};

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(out,
               "usage: %s [--spec FILE]\n"
               "          [--topology campus|waxman] [--strategy hp|rand|lb]\n"
               "          [--packets N] [--policies-per-class N] [--seed N]\n"
               "          [--off-path] [--fail-one FW|IDS|WP|TM]\n"
               "          [--lp-engine sparse|dense] [--lp-warm-start] [--lp-cold-start]\n"
               "          [--sim] [--metrics-out FILE] [--trace-out FILE]\n"
               "          [--spans-out FILE]\n"
               "          [--verify] [--faults none|chaos|generated] [--chaos-seed N]\n"
               "          [--epoch SECS] [--trace-sample RATE]\n"
               "          [--reopt-period SECS] [--reopt-threshold X]\n"
               "          [--reopt-cooldown N] [--reopt-min-reports N]\n"
               "          [--help]\n"
               "exit codes: 0 = run completed (and --verify passed)\n"
               "            2 = bad usage or unbuildable spec\n"
               "            3 = --verify found violations or could not verify\n",
               argv0);
}

/// Valued flags that set one spec field: each is the spec key of the same
/// name with dashes for underscores, parsed by exp::set_field, so a flag
/// accepts exactly what a --spec file line accepts.
bool is_spec_flag(const std::string& arg) {
  static constexpr const char* kFlags[] = {
      "--topology",        "--strategy",       "--packets",           "--policies-per-class",
      "--seed",            "--fail-one",       "--lp-engine",         "--faults",
      "--chaos-seed",      "--epoch",          "--trace-sample",      "--reopt-period",
      "--reopt-threshold", "--reopt-cooldown", "--reopt-min-reports"};
  return std::find(std::begin(kFlags), std::end(kFlags), arg) != std::end(kFlags);
}

bool parse(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--spec") {
      const char* v = next();
      if (v == nullptr) return false;
      std::ifstream in(v);
      if (!in) {
        std::fprintf(stderr, "cannot open spec file %s\n", v);
        return false;
      }
      std::ostringstream text;
      text << in.rdbuf();
      // Parse over the spec assembled so far: flags BEFORE --spec act as
      // defaults, flags AFTER it override the file.
      const auto parsed = exp::parse_text(text.str(), opt.spec);
      for (const auto& err : parsed.errors) {
        std::fprintf(stderr, "%s: %s\n", v, err.c_str());
      }
      if (!parsed.ok()) return false;
      opt.spec = parsed.spec;
    } else if (is_spec_flag(arg)) {
      const char* v = next();
      if (v == nullptr) return false;
      std::string key = arg.substr(2);
      std::replace(key.begin(), key.end(), '-', '_');
      if (exp::set_field(opt.spec, key, v) != exp::FieldStatus::kOk) {
        std::fprintf(stderr, "bad value `%s` for %s\n", v, arg.c_str());
        return false;
      }
    } else if (arg == "--off-path") {
      opt.spec.off_path = true;
    } else if (arg == "--lp-warm-start") {
      opt.spec.lp_warm_start = true;
    } else if (arg == "--lp-cold-start") {
      opt.spec.lp_warm_start = false;
    } else if (arg == "--policy-file") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.policy_file = v;
    } else if (arg == "--sim") {
      opt.sim = true;
    } else if (arg == "--verify") {
      opt.spec.verify = true;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.trace_out = v;
    } else if (arg == "--spans-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.spans_out = v;
      opt.spec.spans = true;  // an export path always wins over `spans = false`
    } else if (arg == "--help" || arg == "-h") {
      opt.help = true;
      return true;
    } else {
      return false;
    }
  }
  const std::string invalid = opt.spec.validate();
  if (!invalid.empty()) {
    std::fprintf(stderr, "invalid options: %s\n", invalid.c_str());
    return false;
  }
  return true;
}

// Packet-level half: wire the sim onto the built world, narrate the fault
// script, run the chaos timeline, and print / export what the registry saw.
int run_sim(exp::World& world, const CliOptions& opt) {
  world.prepare_sim();
  world.simnet->simulator().attach_log_clock();  // SDMBOX_LOG lines carry sim time

  if (world.spec.faults == exp::FaultScript::kChaos) {
    if (world.victim.valid()) {
      std::printf("sim: victim middlebox %s (crash 2.05s, restart 8.0s)\n",
                  world.deployment.find(world.victim)->name.c_str());
    } else {
      std::printf("sim: no chained policy at proxy 0 — crash step skipped\n");
    }
  }

  world.run();
  sim::Simulator::detach_log_clock();

  const auto& nc = world.simnet->counters();
  const obs::MetricsRegistry& registry = world.registry;
  std::printf("\nsim run: %llu injected, %llu delivered, %llu node-down drops, %zu epochs\n",
              static_cast<unsigned long long>(nc.injected),
              static_cast<unsigned long long>(nc.delivered),
              static_cast<unsigned long long>(nc.dropped_node_down),
              world.recorder->epoch_count());
  std::printf("health: %.0f failures declared, %.0f revivals, mean detection latency %.3fs\n",
              registry.total("health_failures_declared"),
              registry.total("health_revivals_declared"),
              world.monitor->mean_detection_latency());
  std::printf("failover: %.0f peer blacklists, %.0f reroutes\n",
              registry.total("peer_blacklists"),
              registry.total("proxy_failover_reroutes") +
                  registry.total("mbx_failover_reroutes"));
  if (world.reopt) {
    const auto& rc = world.reopt->counters();
    std::printf("reopt: %llu epochs, %llu triggered / %llu suppressed "
                "(drift %llu, cooldown %llu, reports %llu), %llu solves "
                "(%llu pivots, %llu warm, %.2fms modeled), %llu pushes (%llu bytes), "
                "last drift %.4f\n",
                static_cast<unsigned long long>(rc.epochs),
                static_cast<unsigned long long>(rc.triggered),
                static_cast<unsigned long long>(rc.suppressed),
                static_cast<unsigned long long>(rc.suppressed_drift),
                static_cast<unsigned long long>(rc.suppressed_cooldown),
                static_cast<unsigned long long>(rc.suppressed_reports),
                static_cast<unsigned long long>(rc.solves),
                static_cast<unsigned long long>(rc.solve_pivots),
                static_cast<unsigned long long>(rc.solve_warm_starts),
                world.reopt->solve_ms_modeled(),
                static_cast<unsigned long long>(rc.pushes),
                static_cast<unsigned long long>(rc.push_bytes),
                world.reopt->detector().last_drift());
  }

  if (!opt.metrics_out.empty()) {
    obs::write_file(opt.metrics_out,
                    obs::render_for_path(registry, world.recorder.get(), opt.metrics_out));
    std::printf("metrics (%zu series) written to %s\n", registry.size(),
                opt.metrics_out.c_str());
  }
  if (!opt.trace_out.empty()) {
    obs::write_file(opt.trace_out, world.trace_json());
    std::printf("trace (%llu hop records, rate %.3f) written to %s\n",
                static_cast<unsigned long long>(world.trace_recorded()), world.spec.trace_sample,
                opt.trace_out.c_str());
  }
  if (!opt.spans_out.empty() && world.spans != nullptr) {
    obs::write_file(opt.spans_out, obs::render_spans_for_path(*world.spans, opt.spans_out));
    std::printf("spans (%llu started, %llu dropped) written to %s\n",
                static_cast<unsigned long long>(world.spans->started()),
                static_cast<unsigned long long>(world.spans->dropped()),
                opt.spans_out.c_str());
  }
  if (world.oracle) {
    const verify::VerifyReport& vr = world.oracle->report();
    std::printf("\n%s\n", vr.summary().c_str());
    if (!vr.ok()) {
      // Every violation in full, hop-by-hop: the narratives ARE the product.
      for (const auto& v : vr.violations) std::printf("%s\n", v.narrative.c_str());
      return 3;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse(argc, argv, opt)) {
    usage(argv[0], stderr);
    return 2;
  }
  if (opt.help) {
    usage(argv[0], stdout);
    return 0;
  }

  exp::ScenarioSpec spec = opt.spec;
  // Audit mode never touches the generated policies, so a bad --fail-one must
  // not abort it — the pre-refactor CLI returned before validating the flag.
  if (!opt.policy_file.empty()) spec.fail_one.clear();

  std::unique_ptr<exp::World> world;
  try {
    world = exp::build_world(spec);
  } catch (const exp::BuildError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  exp::World& w = *world;

  std::printf("topology: %s (%zu nodes, %zu links), proxies %s, %zu middleboxes\n",
              spec.topology == exp::TopologyKind::kWaxman ? "waxman" : "campus",
              w.network.topo.node_count(), w.network.topo.link_count(),
              spec.off_path ? "off-path" : "in-path", w.deployment.size());

  if (!opt.policy_file.empty()) {
    // Audit mode: parse and statically analyze the operator's policy file.
    std::ifstream in(opt.policy_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", opt.policy_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto parsed = policy::parse_policies(text.str(), w.catalog);
    for (const auto& err : parsed.errors) {
      std::printf("parse error line %zu: %s\n", err.line, err.message.c_str());
    }
    const auto audit = policy::analyze_policies(parsed.policies);
    std::printf("%zu policies parsed, %zu parse error(s), %zu analysis issue(s)\n",
                parsed.policies.size(), parsed.errors.size(), audit.issues.size());
    for (const auto& issue : audit.issues) {
      std::printf("  [%s] %s\n", to_string(issue.kind), issue.detail.c_str());
    }
    return parsed.ok() && audit.clean() ? 0 : 1;
  }

  const auto issues = policy::analyze_policies(w.gen.policies);
  std::printf("policies: %zu (analysis: %zu issue(s))\n", w.gen.policies.size(),
              issues.issues.size());
  for (const auto& issue : issues.issues) {
    std::printf("  [%s] %s\n", to_string(issue.kind), issue.detail.c_str());
  }

  std::printf("workload: %zu flows, %s packets\n", w.flows.flows.size(),
              util::with_thousands(w.flows.total_packets).c_str());

  if (w.prefailed.valid()) {
    std::printf("failed middlebox: %s (controller recomputed)\n",
                w.deployment.find(w.prefailed)->name.c_str());
  }

  const auto violations = core::validate_plan(w.plan, w.network, w.deployment, w.gen.policies);
  std::printf("plan: %s, audit %s", to_string(spec.strategy),
              violations.empty() ? "clean" : "VIOLATIONS:");
  if (w.plan.lambda > 0) std::printf(", lambda=%.4f", w.plan.lambda);
  std::printf("\n");
  for (const auto& v : violations) std::printf("  %s\n", v.c_str());

  const auto report =
      analytic::evaluate_loads(w.network, w.deployment, w.gen.policies, w.plan, w.flows.flows);
  const auto summaries = analytic::summarize_by_function(report, w.deployment, w.catalog);
  stats::TextTable table("per-type loads (packets)");
  table.set_header({"type", "boxes", "max", "min", "total"});
  for (const auto& su : summaries) {
    table.add_row({su.function_name,
                   std::to_string(w.deployment.implementers(su.function).size()),
                   util::with_thousands(su.max_load), util::with_thousands(su.min_load),
                   util::with_thousands(su.total_load)});
  }
  std::printf("\n%s\n", table.to_string().c_str());

  const auto rt = net::RoutingTables::compute(w.network.topo);
  const auto stretch =
      analytic::evaluate_path_stretch(w.network, w.gen.policies, w.plan, rt, w.flows.flows);
  const auto fp_dist = core::measure_distribution(w.plan);
  std::printf("path stretch: %.2f (direct %.2f hops -> enforced %.2f hops)\n",
              stretch.stretch(), stretch.direct_hops, stretch.enforced_hops);
  std::printf("controller distribution: %s bytes to %llu devices (%llu candidates, %llu policy "
              "entries, %llu ratio shares)\n",
              util::with_thousands(fp_dist.total_bytes).c_str(),
              static_cast<unsigned long long>(fp_dist.devices),
              static_cast<unsigned long long>(fp_dist.candidate_entries),
              static_cast<unsigned long long>(fp_dist.policy_entries),
              static_cast<unsigned long long>(fp_dist.ratio_entries));

  if (opt.wants_sim()) {
    std::printf("\n");
    return run_sim(w, opt);
  }
  return 0;
}
