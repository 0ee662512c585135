// Suite runner: a §V-style evaluation grid as one process. Each arm is an
// exp::ScenarioSpec; each arm runs under `--seeds` replicate seeds derived
// from (base seed, task index) via splitmix64; the sweep executes on an
// exp::SweepRunner thread pool and the aggregated result is written as one
// deterministic JSON document.
//
// The determinism contract (see src/exp/runner.hpp): the suite JSON is a
// pure function of the arms, the base seed and the replicate count — NOT of
// --jobs, thread scheduling, or wall-clock time. CI runs this binary twice
// with different --jobs values and diffs the outputs byte-for-byte.
//
// Usage:
//   suite_cli [--jobs N]    # worker threads (0 = hardware concurrency; 1)
//             [--seeds N]   # replicate seeds per arm (3)
//             [--seed N]    # base seed for replicate derivation (2019)
//             [--spec FILE] # run ONE arm from a key=value spec file instead
//                           # of the built-in ablation grid
//             [--out FILE]  # suite JSON path (suite.json)
//             [--verify]    # run the enforcement-invariant oracle inside
//                           # EVERY replicate of EVERY arm; exit 3 if any
//                           # replicate reports a violation or incomplete
//                           # trace coverage
// Bad usage (an unknown flag, a missing value, or a number that is not plain
// decimal digits) prints usage and exits 2. A --spec file that does not parse
// or cannot be built (e.g. an unknown fail_one function) also exits 2, after
// saying why. A suite JSON that cannot be written exits 1.
//
// Example:
//   ./build/examples/suite_cli --jobs 8 --seeds 5 --out suite.json
//   ./build/examples/suite_cli --spec myrun.spec --seeds 3
#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include <fstream>
#include <sstream>

#include "exp/aggregate.hpp"
#include "exp/runner.hpp"
#include "exp/spec.hpp"
#include "exp/world.hpp"
#include "obs/export.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"

using namespace sdmbox;

namespace {

struct Arm {
  std::string name;
  exp::ScenarioSpec spec;
};

/// The built-in grid: the chaos-timeline scenario with one dependability
/// mechanism toggled per arm, small enough to replicate quickly.
std::vector<Arm> default_arms() {
  exp::ScenarioSpec base;
  base.packets = 2000;

  std::vector<Arm> arms;
  arms.push_back({"baseline", base});

  exp::ScenarioSpec no_failover = base;
  no_failover.peer_health = false;
  arms.push_back({"no_local_failover", no_failover});

  exp::ScenarioSpec no_labels = base;
  no_labels.label_switching = false;
  arms.push_back({"no_label_switching", no_labels});

  exp::ScenarioSpec reopt = base;
  reopt.reopt.epoch_period = 0.5;
  reopt.reopt.drift_threshold = 0.05;
  arms.push_back({"drift_reopt", reopt});
  return arms;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs N] [--seeds N] [--seed N] [--spec FILE] [--out FILE]"
               " [--verify]\n",
               argv0);
  return 2;
}

struct CliOptions {
  unsigned jobs = 0;          // 0 = hardware concurrency
  std::size_t seeds = 3;      // replicates per arm
  std::uint64_t seed = 2019;  // base seed
  std::string spec_file;      // single-arm mode
  std::string out = "suite.json";
  bool verify = false;        // oracle inside every replicate
};

/// Sum of a snapshot's series whose flattened key starts with `prefix`
/// (covers labelled families like verify_violations{class=...}).
double snapshot_sum(const exp::MetricsSnapshot& snap, const std::string& prefix) {
  double sum = 0;
  for (const auto& [key, value] : snap) {
    if (key.compare(0, prefix.size(), prefix) == 0 &&
        (key.size() == prefix.size() || key[prefix.size()] == '{')) {
      sum += value;
    }
  }
  return sum;
}

bool parse(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--jobs") {
      const char* v = next();
      std::uint64_t jobs = 0;
      if (v == nullptr || !exp::parse_u64(v, jobs) || jobs > UINT_MAX) return false;
      opt.jobs = static_cast<unsigned>(jobs);
    } else if (arg == "--seeds") {
      const char* v = next();
      std::uint64_t seeds = 0;
      if (v == nullptr || !exp::parse_u64(v, seeds)) return false;
      opt.seeds = seeds;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !exp::parse_u64(v, opt.seed)) return false;
    } else if (arg == "--spec") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.spec_file = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.out = v;
    } else if (arg == "--verify") {
      opt.verify = true;
    } else {
      return false;
    }
  }
  return opt.seeds > 0;
}

/// Headline value for the summary table: the metric's mean summed over every
/// label set (the registry.total() analogue — per-device counters like
/// peer_blacklists{device=...} roll up), "-" when the arm never reported it.
std::string mean_of(const std::vector<exp::MetricAggregate>& metrics, const std::string& name,
                    int decimals = 1) {
  double sum = 0;
  bool found = false;
  for (const auto& m : metrics) {
    if (m.name == name || m.name.compare(0, name.size() + 1, name + "{") == 0) {
      sum += m.agg.mean;
      found = true;
    }
  }
  return found ? util::format_fixed(sum, decimals) : "-";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!parse(argc, argv, opt)) return usage(argv[0]);

  std::vector<Arm> arms;
  if (!opt.spec_file.empty()) {
    std::ifstream in(opt.spec_file);
    if (!in) {
      std::fprintf(stderr, "cannot open spec file %s\n", opt.spec_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto parsed = exp::parse_text(text.str());
    for (const auto& err : parsed.errors) {
      std::fprintf(stderr, "%s: %s\n", opt.spec_file.c_str(), err.c_str());
    }
    if (!parsed.ok()) return 2;
    arms.push_back({opt.spec_file, parsed.spec});
  } else {
    arms = default_arms();
  }
  if (opt.verify) {
    for (auto& arm : arms) arm.spec.verify = true;
  }

  const exp::SweepRunner runner(opt.jobs);
  const std::size_t tasks = arms.size() * opt.seeds;
  std::printf("suite: %zu arm(s) x %zu seed(s) = %zu runs on %u worker(s)\n", arms.size(),
              opt.seeds, tasks, runner.jobs());

  // Task i = replicate (i % seeds) of arm (i / seeds); its seed depends only
  // on (base seed, i), so the grid is reproducible run-to-run and identical
  // whatever --jobs is.
  std::vector<exp::MetricsSnapshot> snapshots;
  try {
    snapshots = runner.run<exp::MetricsSnapshot>(tasks, [&](std::size_t i) {
      exp::ScenarioSpec spec = arms[i / opt.seeds].spec;
      spec.seed = exp::derive_seed(opt.seed, i);
      return exp::run_scenario(spec);
    });
  } catch (const exp::BuildError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::vector<exp::ArmResult> results;
  results.reserve(arms.size());
  for (std::size_t a = 0; a < arms.size(); ++a) {
    exp::ArmResult r;
    r.name = arms[a].name;
    r.spec = arms[a].spec;
    std::vector<exp::MetricsSnapshot> replicates;
    for (std::size_t j = 0; j < opt.seeds; ++j) {
      const std::size_t i = a * opt.seeds + j;
      r.seeds.push_back(exp::derive_seed(opt.seed, i));
      replicates.push_back(snapshots[i]);
    }
    r.metrics = exp::aggregate_snapshots(replicates);
    results.push_back(std::move(r));
  }

  stats::TextTable table("suite summary (means over " + std::to_string(opt.seeds) + " seed(s))");
  table.set_header({"arm", "injected", "delivered", "node-down drops", "blacklists", "reroutes",
                    "unenforced (s)"});
  for (const auto& r : results) {
    // The last column is the span subsystem's convergence headline: mean
    // total unenforced-window seconds per run (fault onset -> plan live,
    // summed over episodes) — "-" when spans were off for the arm.
    table.add_row({r.name, mean_of(r.metrics, "net_injected"), mean_of(r.metrics, "net_delivered"),
                   mean_of(r.metrics, "net_dropped_node_down"),
                   mean_of(r.metrics, "peer_blacklists"),
                   mean_of(r.metrics, "proxy_failover_reroutes"),
                   mean_of(r.metrics, "conv_total_unenforced_window_sum", 3)});
  }
  std::printf("\n%s\n", table.to_string().c_str());

  const std::string name = opt.spec_file.empty() ? "dependability_ablations" : opt.spec_file;
  const std::string json = exp::suite_to_json(name, opt.seed, opt.seeds, results);
  if (!obs::write_file(opt.out, json)) return 1;
  std::printf("suite (%zu arms, %zu runs) written to %s\n", results.size(), tasks,
              opt.out.c_str());

  // Invariant gate: every replicate already ran its own oracle (verify_*
  // series in its snapshot); fail the whole suite if ANY replicate saw a
  // violation or lost trace coverage. Checked after the JSON export so the
  // offending run's numbers are on disk for the postmortem.
  if (opt.verify) {
    std::size_t bad = 0;
    for (std::size_t a = 0; a < arms.size(); ++a) {
      for (std::size_t j = 0; j < opt.seeds; ++j) {
        const std::size_t i = a * opt.seeds + j;
        const double violations = snapshot_sum(snapshots[i], "verify_violations");
        const double uncovered = snapshot_sum(snapshots[i], "verify_coverage_incomplete");
        if (violations > 0 || uncovered > 0) {
          ++bad;
          std::fprintf(stderr,
                       "VERIFY FAIL: arm %s seed %llu: %.0f violation(s), coverage %s\n",
                       arms[a].name.c_str(),
                       static_cast<unsigned long long>(exp::derive_seed(opt.seed, i)),
                       violations, uncovered > 0 ? "INCOMPLETE" : "complete");
        }
      }
    }
    if (bad > 0) {
      std::fprintf(stderr, "verify: %zu of %zu replicate(s) violated enforcement invariants\n",
                   bad, tasks);
      return 3;
    }
    std::printf("verify: all %zu replicate(s) clean — no enforcement-invariant violations\n",
                tasks);
  }
  return 0;
}
