// Ablation A8: consolidated (multi-function) middleboxes. FW -> IDS is the
// prefix of two of the three policy-class chains; a box implementing both
// serves it without a second tunnel hop (Π_x excludes own functions). We
// compare the paper's all-single-function deployment with mixes that
// consolidate FW+IDS pairs, measuring inter-middlebox transitions (tunnel
// hops crossing the core) and the achievable balance. Every LB plan must
// pass core::validate_plan; the bench exits 1 on any violation.
#include "analytic/load_evaluator.hpp"
#include "common.hpp"
#include "core/validate.hpp"

using namespace sdmbox;
using namespace sdmbox::bench;

namespace {

core::DeploymentParams deployment_mix(std::size_t combos) {
  core::DeploymentParams dp;
  dp.counts = {{policy::kFirewall, 7 - combos},
               {policy::kIntrusionDetection, 7 - combos},
               {policy::kWebProxy, 4},
               {policy::kTrafficMeasure, 4}};
  dp.combos.clear();
  if (combos > 0) {
    dp.combos = {{policy::FunctionSet::of({policy::kFirewall, policy::kIntrusionDetection}),
                  combos}};
  }
  return dp;
}

}  // namespace

int main() {
  std::printf("=== Ablation A8: consolidating FW+IDS into multi-function middleboxes ===\n");
  std::printf("Campus topology, 2M packets, LB strategy; |M^FW| = |M^IDS| = 7 throughout.\n\n");

  stats::TextTable table;
  table.set_header({"FW+IDS combos", "boxes", "forwarded transitions(M)", "local continuations(M)",
                    "max load(M)", "lambda"});

  std::size_t violations = 0;
  for (const std::size_t combos : {0u, 2u, 4u, 7u}) {
    util::Rng rng(2019);
    net::GeneratedNetwork network = net::make_campus_topology();
    const auto catalog = policy::FunctionCatalog::standard();
    core::Deployment deployment =
        core::deploy_middleboxes(network, catalog, deployment_mix(combos), rng);
    workload::PolicyGenParams pp;
    const auto gen = workload::generate_policies(network, pp, rng);
    workload::FlowGenParams fp;
    fp.target_total_packets = 2'000'000;
    const auto flows = workload::generate_flows(network, gen, fp, rng);
    const auto traffic = workload::TrafficMatrix::measure(gen.policies, flows.flows);
    deployment.set_uniform_capacity(std::max(1.0, traffic.grand_total()));
    core::Controller controller(network, deployment, gen.policies);
    const auto plan = controller.compile(core::StrategyKind::kLoadBalanced, &traffic);
    for (const std::string& v : core::validate_plan(plan, network, deployment, gen.policies)) {
      std::fprintf(stderr, "%zu combos: %s\n", combos, v.c_str());
      ++violations;
    }
    const auto report =
        analytic::evaluate_loads(network, deployment, gen.policies, plan, flows.flows);
    std::uint64_t max_load = 0;
    for (const auto& m : deployment.middleboxes()) {
      max_load = std::max(max_load, report.load_of(m.node));
    }
    table.add_row(
        {std::to_string(combos), std::to_string(deployment.size()),
         util::format_millions(static_cast<double>(report.forwarded_transitions)),
         util::format_millions(static_cast<double>(report.local_continuations)),
         util::format_millions(static_cast<double>(max_load)),
         util::format_fixed(plan.lambda, 4)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Expected shape: every consolidated pair converts FW->IDS tunnel hops into\n"
              "local continuations (less core traffic, one less IP-over-IP leg); the\n"
              "per-box max load rises because one box now absorbs two functions' work.\n");
  if (violations > 0) {
    std::fprintf(stderr, "%zu plan violation(s)\n", violations);
    return 1;
  }
  return 0;
}
