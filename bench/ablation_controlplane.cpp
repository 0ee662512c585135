// Ablation A10: control-plane overhead of the SDM architecture. Runs the
// full in-band loop (traffic -> proxy reports -> LP -> differential config
// push) over several measurement epochs and reports the control bytes as a
// fraction of data bytes — quantifying the paper's claim that the
// controller "is unlikely to become a bottleneck" (§I) and that Eq. (2)
// keeps the distribution small (§III.C).
#include "common.hpp"
#include "control/endpoints.hpp"

using namespace sdmbox;
using namespace sdmbox::bench;

int main() {
  std::printf("=== Ablation A10: in-band control-plane overhead over measurement epochs ===\n\n");

  EvalScenario s = build_eval_scenario();
  const net::NodeId controller_node = control::add_controller_host(s.network);

  // One modest workload template; epochs re-send it with drifting class mix.
  std::vector<workload::GeneratedFlows> epochs;
  util::Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    workload::FlowGenParams fp;
    fp.target_total_packets = 40'000;
    fp.class_weights[0] = static_cast<double>(5 - i);
    fp.class_weights[2] = static_cast<double>(1 + i);
    epochs.push_back(workload::generate_flows(s.network, s.gen, fp, rng));
  }
  double peak = 1;
  for (const auto& e : epochs) peak = std::max(peak, static_cast<double>(e.total_packets));
  s.deployment.set_uniform_capacity(peak);

  const auto routing = net::RoutingTables::compute(s.network.topo);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);
  const auto initial = s.controller->compile(core::StrategyKind::kHotPotato);
  auto cp = control::install_control_plane(simnet, s.network, s.deployment, s.gen.policies,
                                           *s.controller, controller_node, initial,
                                           core::AgentOptions{});

  stats::TextTable table("campus topology; config pushes are differential");
  table.set_header({"epoch", "data packets", "report bytes", "pushes", "skipped",
                    "push bytes", "ctrl overhead"});

  std::uint64_t push_bytes_prev = 0, pushes_prev = 0, skipped_prev = 0;
  std::uint64_t report_bytes_total = 0;
  double epoch_start = 0;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    double t = epoch_start;
    std::uint64_t data_bytes = 0;
    for (const auto& f : epochs[i].flows) {
      for (std::uint64_t j = 0; j < f.packets; ++j) {
        packet::Packet p;
        p.inner.src = f.id.src;
        p.inner.dst = f.id.dst;
        p.src_port = f.id.src_port;
        p.dst_port = f.id.dst_port;
        p.payload_bytes = 600;
        p.flow_seq = j;
        data_bytes += p.wire_bytes();
        simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)], p, t);
        t += 1e-7;
      }
    }
    simnet.run();
    // Reports in, LP solved, configs out — all in-band.
    const std::uint64_t report_bytes = control::send_reports(simnet, cp);
    simnet.run();
    cp.controller->replan(simnet, control::ReplanRequest{});
    simnet.run();

    // Control bytes this epoch (deltas of cumulative counters).
    const std::uint64_t push_bytes = cp.controller->push_bytes_sent() - push_bytes_prev;
    const std::uint64_t pushes = cp.controller->pushes_sent() - pushes_prev;
    const std::uint64_t skipped = cp.controller->pushes_skipped_unchanged() - skipped_prev;
    push_bytes_prev = cp.controller->push_bytes_sent();
    pushes_prev = cp.controller->pushes_sent();
    skipped_prev = cp.controller->pushes_skipped_unchanged();
    report_bytes_total += report_bytes;

    const double overhead = 100.0 * static_cast<double>(push_bytes + report_bytes) /
                            static_cast<double>(data_bytes);
    table.add_row({std::to_string(i), util::with_thousands(epochs[i].total_packets),
                   util::with_thousands(report_bytes), std::to_string(pushes),
                   std::to_string(skipped), util::with_thousands(push_bytes),
                   util::format_fixed(overhead, 3) + "%"});
    epoch_start = simnet.simulator().now() + 1.0;
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Expected shape: epoch 0 pushes every device (first LB config); later\n"
              "epochs push only devices whose split ratios changed under the drift;\n"
              "total control bytes stay a fraction of a percent of data bytes.\n");
  return 0;
}
