// Scale demo: ISP-scale Waxman worlds, from the paper's 400-edge §IV.A
// network up to 10k routers. Flows come from the streaming generator
// (workload::FlowStream) so the flow list is never resident, the LB plan is
// solved by the sparse revised simplex, and — at sizes where the dense
// tableau still finishes — both engines are run and cross-checked to 1e-6.
//
// Run: ./build/examples/waxman_scale                # sweep 400..5000 edges
//      ./build/examples/waxman_scale --edges 1000   # one size
// Flags:
//   --edges N             single-size mode (default: sweep)
//   --max-edges N         cap the sweep sizes (default 5000, max 10000)
//   --dense-max-edges N   dense cross-check at sizes <= N (default 400)
//   --packets N           workload volume per world (default 2000000)
//   --seed S              master seed (default 1)
//   --json FILE           write deterministic per-size metrics (no wall
//                         times, no RSS) for same-seed reproducibility diffs
// Malformed or missing numbers print usage and exit 2; a --json file that
// cannot be written exits 1.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "exp/spec.hpp"
#include "net/topologies.hpp"
#include "obs/export.hpp"
#include "workload/policy_gen.hpp"
#include "workload/traffic_matrix.hpp"

using namespace sdmbox;

namespace {

double secs(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Peak resident set size in kB from /proc/self/status (VmHWM). A coarse
/// process-wide high-water mark — monotone across a sweep, so per-size
/// values record "peak so far". 0 when unavailable (non-Linux).
double peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
  }
  return 0;
}

struct Args {
  std::uint64_t edges = 0;  // 0 = sweep
  std::uint64_t max_edges = 5000;
  std::uint64_t dense_max_edges = 400;
  std::uint64_t packets = 2'000'000;
  std::uint64_t seed = 1;
  std::string json_path;
};

/// Deterministic facts about one world+solve: everything here must be a
/// pure function of (seed, size) — no clocks, no RSS — so two runs
/// with the same arguments produce byte-identical --json exports.
struct SizeResult {
  std::size_t edges = 0;
  std::size_t routers = 0;  // core + edge routers
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t middleboxes = 0;
  std::uint64_t flows = 0;
  std::size_t peak_resident = 0;
  double traffic_total = 0;
  std::size_t lp_vars = 0;
  std::size_t lp_rows = 0;
  std::size_t pivots = 0;
  double lambda = 0;
  // Printed only, never in the deterministic export:
  double build_s = 0;
  double stream_s = 0;
  double solve_ms = 0;
  double dense_solve_ms = 0;  // 0 when the dense cross-check was skipped
  double rss_kb = 0;
};

SizeResult run_size(std::size_t edges, const Args& args) {
  SizeResult r;
  r.edges = edges;
  auto t0 = std::chrono::steady_clock::now();

  net::WaxmanParams wp;
  wp.seed = args.seed;
  wp.edge_count = edges;
  // /20 slices run out at 4094 stubs; wider worlds get /22 (16382 stubs).
  wp.subnet_prefix_len = edges + 2 < (1u << 12) ? 20 : 22;
  net::GeneratedNetwork network = net::make_waxman_topology(wp);

  util::Rng rng(args.seed);
  const auto catalog = policy::FunctionCatalog::standard();
  // Scale the paper's FW7/IDS7/WP4/TM4 mix with the world: one replica set
  // per 400 edge routers, capped at 8x (the LP stays middlebox-bound).
  const std::size_t mult = std::min<std::size_t>(8, std::max<std::size_t>(1, edges / 400));
  core::DeploymentParams dp;
  for (auto& [fn, count] : dp.counts) count *= mult;
  core::Deployment deployment = core::deploy_middleboxes(network, catalog, dp, rng);

  workload::PolicyGenParams pp;
  pp.many_to_one = pp.one_to_many = pp.one_to_one = 6;
  const auto gen = workload::generate_policies(network, pp, rng);

  r.routers = network.core_routers.size() + network.edge_routers.size();
  r.nodes = network.topo.node_count();
  r.links = network.topo.link_count();
  r.middleboxes = deployment.size();
  r.build_s = secs(t0);

  // Streaming workload: flows are measured into the traffic matrix one at a
  // time; the full flow list (millions of records at 10k routers) is never
  // materialized.
  t0 = std::chrono::steady_clock::now();
  workload::FlowGenParams fp;
  fp.target_total_packets = args.packets;
  workload::FlowStream stream(network, gen, fp, rng);
  const workload::TrafficMatrix traffic = workload::measure_stream(gen.policies, stream);
  SDM_CHECK_MSG(stream.peak_resident() <= workload::FlowStream::kMaxResident,
                "streaming generator exceeded its residency bound");
  r.flows = stream.emitted();
  r.peak_resident = stream.peak_resident();
  r.traffic_total = traffic.grand_total();
  r.stream_s = secs(t0);
  deployment.set_uniform_capacity(std::max(1.0, traffic.grand_total()));

  const core::Controller controller(network, deployment, gen.policies);
  t0 = std::chrono::steady_clock::now();
  const core::RatioResult lp = controller.solve_load_balancing(traffic);
  r.solve_ms = secs(t0) * 1000.0;
  SDM_CHECK_MSG(lp.status == lp::SolveStatus::kOptimal, "LB solve must be optimal");
  r.lp_vars = lp.stats.variables;
  r.lp_rows = lp.stats.constraints;
  r.pivots = lp.pivots;
  r.lambda = lp.lambda;

  if (edges <= args.dense_max_edges) {
    core::ControllerParams dparams;
    dparams.lp.simplex.engine = lp::SimplexEngine::kDense;
    const core::Controller dense_ctrl(network, deployment, gen.policies, dparams);
    t0 = std::chrono::steady_clock::now();
    const core::RatioResult dlp = dense_ctrl.solve_load_balancing(traffic);
    r.dense_solve_ms = secs(t0) * 1000.0;
    SDM_CHECK_MSG(dlp.status == lp::SolveStatus::kOptimal, "dense LB solve must be optimal");
    SDM_CHECK_MSG(std::fabs(dlp.lambda - lp.lambda) <= 1e-6,
                  "dense and sparse lambda disagree");
  }
  r.rss_kb = peak_rss_kb();
  return r;
}

void append_num(std::string& out, const char* key, double v, const char* sep = ",\n") {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += "      \"";
  out += key;
  out += "\": ";
  out += buf;
  out += sep;
}

/// Deterministic export for CI same-seed diffs: facts only, no timings.
/// False when the file could not be written.
bool write_metrics_json(const std::string& path, const Args& args,
                        const std::vector<SizeResult>& results) {
  std::string out = "{\n  \"example\": \"waxman_scale\",\n  \"engine\": \"sparse\"";
  out += ",\n  \"seed\": " + std::to_string(args.seed);
  out += ",\n  \"packets\": " + std::to_string(args.packets);
  out += ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    out += "    {\n";
    append_num(out, "edges", static_cast<double>(r.edges));
    append_num(out, "routers", static_cast<double>(r.routers));
    append_num(out, "nodes", static_cast<double>(r.nodes));
    append_num(out, "links", static_cast<double>(r.links));
    append_num(out, "middleboxes", static_cast<double>(r.middleboxes));
    append_num(out, "flows", static_cast<double>(r.flows));
    append_num(out, "peak_resident_flows", static_cast<double>(r.peak_resident));
    append_num(out, "traffic_total", r.traffic_total);
    append_num(out, "lp_vars", static_cast<double>(r.lp_vars));
    append_num(out, "lp_rows", static_cast<double>(r.lp_rows));
    append_num(out, "pivots", static_cast<double>(r.pivots));
    append_num(out, "lambda", r.lambda, "\n");
    out += i + 1 < results.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  if (!obs::write_file(path, out)) return false;
  std::fprintf(stderr, "deterministic metrics written to %s\n", path.c_str());
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--edges N] [--max-edges N] [--dense-max-edges N] [--packets N]\n"
               "          [--seed S] [--json FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    // Every flag takes a value.
    if (i + 1 == argc) return usage(argv[0]);
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--edges") {
      ok = exp::parse_u64(value, args.edges);
    } else if (flag == "--max-edges") {
      ok = exp::parse_u64(value, args.max_edges);
    } else if (flag == "--dense-max-edges") {
      ok = exp::parse_u64(value, args.dense_max_edges);
    } else if (flag == "--packets") {
      ok = exp::parse_u64(value, args.packets);
    } else if (flag == "--seed") {
      ok = exp::parse_u64(value, args.seed);
    } else if (flag == "--json") {
      args.json_path = value;
    } else {
      ok = false;
    }
    if (!ok) return usage(argv[0]);
  }

  std::vector<std::size_t> sizes;
  if (args.edges > 0) {
    sizes.push_back(args.edges);
  } else {
    for (const std::size_t e : {std::size_t{400}, std::size_t{1000}, std::size_t{2000},
                                std::size_t{5000}, std::size_t{10000}}) {
      if (e <= args.max_edges) sizes.push_back(e);
    }
  }

  std::vector<SizeResult> results;
  std::printf("%7s %8s %9s %9s | %8s %8s | %11s %8s | %11s | %9s\n", "edges", "routers",
              "flows", "lp_vars", "build_s", "flows_s", "solve_ms", "pivots", "dense_ms",
              "rss_MB");
  for (const std::size_t edges : sizes) {
    const SizeResult r = run_size(edges, args);
    std::printf("%7zu %8zu %9llu %9zu | %8.2f %8.2f | %11.2f %8zu | ", r.edges, r.routers,
                static_cast<unsigned long long>(r.flows), r.lp_vars, r.build_s, r.stream_s,
                r.solve_ms, r.pivots);
    if (r.dense_solve_ms > 0) {
      std::printf("%11.2f", r.dense_solve_ms);
    } else {
      std::printf("%11s", "-");
    }
    std::printf(" | %9.1f\n", r.rss_kb / 1024.0);
    results.push_back(r);
  }

  if (!args.json_path.empty() && !write_metrics_json(args.json_path, args, results)) return 1;
  return 0;
}
