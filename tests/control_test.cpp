// Control plane over the simulated network: wire codec round-trips,
// malformed-message rejection, and the full closed loop — traffic flows,
// proxies measure, reports travel to the controller as packets, the
// controller solves the LP and pushes serialized configs back, and the data
// plane switches behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
#include <tuple>

#include "analytic/load_evaluator.hpp"
#include "control/codec.hpp"
#include "control/endpoints.hpp"
#include "control/wire.hpp"
#include "scenario.hpp"

namespace sdmbox::control {
namespace {

using core::StrategyKind;
using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::make_scenario;

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

TEST(Wire, RoundTripsAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);
  const auto bytes = w.take();
  ByteReader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Wire, OverrunFlipsToErrorState) {
  ByteWriter w;
  w.u16(7);
  const auto bytes = w.take();
  ByteReader r(bytes);
  r.u16();
  EXPECT_TRUE(r.ok());
  r.u32();  // overrun
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.u64(), 0u);  // stays safe
}

// ---------------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------------

core::DeviceConfig sample_config() {
  core::DeviceConfig cfg;
  cfg.strategy = StrategyKind::kLoadBalanced;
  cfg.version = 42;
  cfg.node.node = net::NodeId{17};
  cfg.node.is_proxy = true;
  cfg.node.own_functions.insert(policy::kWebProxy);
  cfg.node.relevant_policies = {policy::PolicyId{0}, policy::PolicyId{3}};
  cfg.node.candidates[policy::kFirewall.v] = {net::NodeId{60}, net::NodeId{61}};
  cfg.node.candidates[policy::kIntrusionDetection.v] = {net::NodeId{70}};
  cfg.node.ratios.set(policy::kFirewall, policy::PolicyId{3},
                      {{net::NodeId{60}, 0.25}, {net::NodeId{61}, 0.75}});
  return cfg;
}

TEST(Codec, DeviceConfigRoundTrip) {
  const core::DeviceConfig original = sample_config();
  const auto bytes = encode_device_config(original);
  const auto decoded = decode_device_config(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->strategy, original.strategy);
  EXPECT_EQ(decoded->version, original.version);
  EXPECT_EQ(decoded->node.node, original.node.node);
  EXPECT_EQ(decoded->node.is_proxy, original.node.is_proxy);
  EXPECT_EQ(decoded->node.own_functions, original.node.own_functions);
  EXPECT_EQ(decoded->node.relevant_policies, original.node.relevant_policies);
  EXPECT_EQ(decoded->node.candidates[policy::kFirewall.v],
            original.node.candidates[policy::kFirewall.v]);
  const auto* shares = decoded->node.ratios.find(policy::kFirewall, policy::PolicyId{3});
  ASSERT_NE(shares, nullptr);
  ASSERT_EQ(shares->size(), 2u);
  EXPECT_DOUBLE_EQ((*shares)[1].weight, 0.75);
}

TEST(Codec, EqualConfigsEncodeToEqualBytes) {
  // The differential push skips a device whose encoded slice is unchanged,
  // so equal contents must give equal bytes whatever order they were set in.
  const auto set_all = [](core::DeviceConfig& cfg, bool reversed) {
    std::vector<std::tuple<std::uint8_t, std::uint32_t, int, int>> keys;
    for (std::uint8_t e = 0; e < 4; ++e) {
      for (std::uint32_t p = 0; p < 6; ++p) {
        keys.emplace_back(e, p, -1, -1);
        keys.emplace_back(e, p, static_cast<int>(p), 7 - static_cast<int>(e));
      }
    }
    if (reversed) std::reverse(keys.begin(), keys.end());
    for (const auto& [e, p, src, dst] : keys) {
      cfg.node.ratios.set(policy::FunctionId{e}, policy::PolicyId{p},
                          {{net::NodeId{60u + e}, 1.0 + p}, {net::NodeId{61u + e}, 0.5}}, src,
                          dst);
    }
  };
  core::DeviceConfig forward = sample_config();
  core::DeviceConfig backward = sample_config();
  set_all(forward, false);
  set_all(backward, true);
  EXPECT_EQ(encode_device_config(forward), encode_device_config(backward));
}

TEST(Codec, MeasurementReportRoundTrip) {
  MeasurementReport report;
  report.src_subnet = 5;
  report.lines = {{0, 2, 1000}, {3, -1, 77}};
  const auto bytes = encode_measurement_report(report);
  const auto decoded = decode_measurement_report(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src_subnet, 5);
  ASSERT_EQ(decoded->lines.size(), 2u);
  EXPECT_EQ(decoded->lines[1].dst_subnet, -1);
  EXPECT_EQ(decoded->lines[1].packets, 77u);
}

TEST(Codec, RejectsWrongMagicAndTruncation) {
  auto bytes = encode_device_config(sample_config());
  auto wrong_magic = bytes;
  wrong_magic[0] ^= 0xff;
  EXPECT_FALSE(decode_device_config(wrong_magic).has_value());
  auto truncated = bytes;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(decode_device_config(truncated).has_value());
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(decode_device_config(extended).has_value());
  // A config is not a report and vice versa.
  EXPECT_FALSE(decode_measurement_report(bytes).has_value());
}

TEST(Codec, FuzzedBytesNeverCrash) {
  util::Rng rng(77);
  const auto valid = encode_device_config(sample_config());
  for (int i = 0; i < 2000; ++i) {
    auto bytes = valid;
    // Flip a few random bytes and randomly truncate.
    const std::size_t flips = 1 + rng.next_below(5);
    for (std::size_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.pick_index(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    if (rng.next_bool(0.3) && !bytes.empty()) bytes.resize(rng.pick_index(bytes.size()));
    const auto decoded = decode_device_config(bytes);  // must not crash / throw
    (void)decoded;
  }
}

TEST(Codec, InvalidIdsAreRejectedNotThrown) {
  // One relevant policy, one candidate set and one entry in each ratio
  // table, so every id and weight the decoder reads sits at a fixed offset.
  // Each case overwrites one field of an otherwise valid push with a value
  // SplitRatioTable or the device would refuse.
  core::DeviceConfig cfg;
  cfg.node.node = net::NodeId{3};
  cfg.node.relevant_policies = {policy::PolicyId{0}};
  cfg.node.candidates[1] = {net::NodeId{5}};
  cfg.node.ratios.set(policy::FunctionId{1}, policy::PolicyId{0}, {{net::NodeId{5}, 1.0}});
  cfg.node.ratios.set(policy::FunctionId{1}, policy::PolicyId{0}, {{net::NodeId{5}, 1.0}}, 0, 1);
  const auto valid = encode_device_config(cfg);
  ASSERT_EQ(valid.size(), 94u);
  ASSERT_TRUE(decode_device_config(valid).has_value());

  const auto bits = [](double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  struct Case {
    const char* field;
    std::size_t offset;
    std::size_t width;
    std::uint64_t was;  // the valid encoding's value there
    std::uint64_t value;
  };
  const std::uint64_t one = bits(1.0);
  const std::uint64_t nan = bits(std::numeric_limits<double>::quiet_NaN());
  const Case cases[] = {
      {"device id", 11, 4, 3, 0xffffffff},
      {"relevant policy id", 28, 4, 0, 0xffffffff},
      {"candidate id", 36, 4, 5, 0xffffffff},
      {"ratio function id 0xff", 44, 1, 1, 0xff},
      {"ratio function id kMaxFunctions", 44, 1, 1, policy::kMaxFunctions},
      {"ratio policy id", 45, 4, 0, 0xffffffff},
      {"ratio share target", 51, 4, 5, 0xffffffff},
      {"ratio weight NaN", 55, 8, one, nan},
      {"ratio weight +inf", 55, 8, one, bits(std::numeric_limits<double>::infinity())},
      {"detailed function id", 67, 1, 1, 0xff},
      {"detailed policy id", 68, 4, 0, 0xffffffff},
      // (-1, -1) keys the aggregate entry; a detailed entry names subnets.
      {"detailed source subnet", 72, 4, 0, 0xffffffff},
      {"detailed destination subnet", 76, 4, 1, 0xffffffff},
      {"detailed share target", 82, 4, 5, 0xffffffff},
      {"detailed weight NaN", 86, 8, one, nan},
  };
  for (const Case& c : cases) {
    auto bytes = valid;
    std::uint64_t was = 0;
    for (std::size_t i = 0; i < c.width; ++i) {
      was |= std::uint64_t{bytes[c.offset + i]} << (8 * i);
      bytes[c.offset + i] = static_cast<std::uint8_t>(c.value >> (8 * i));
    }
    ASSERT_EQ(was, c.was) << c.field << ": the encoding's layout moved";
    std::optional<core::DeviceConfig> decoded;
    EXPECT_NO_THROW(decoded = decode_device_config(bytes)) << c.field;
    EXPECT_FALSE(decoded.has_value()) << c.field;
  }
}

TEST(Codec, FuzzedReportsNeverThrow) {
  MeasurementReport report;
  report.src_subnet = 5;
  report.lines = {{0, 2, 1000}, {3, -1, 77}, {7, 4, 0}};
  const auto valid = encode_measurement_report(report);
  util::Rng rng(78);
  for (int i = 0; i < 2000; ++i) {
    auto bytes = valid;
    const std::size_t flips = 1 + rng.next_below(5);
    for (std::size_t f = 0; f < flips; ++f) {
      bytes[rng.pick_index(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    if (rng.next_bool(0.3)) bytes.resize(rng.pick_index(bytes.size()));
    EXPECT_NO_THROW((void)decode_measurement_report(bytes));
  }
  // Every truncation of a valid report is rejected.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    const std::vector<std::uint8_t> cut(valid.begin(),
                                        valid.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_measurement_report(cut).has_value()) << len;
  }
}

// ---------------------------------------------------------------------------
// Closed loop in the DES
// ---------------------------------------------------------------------------

struct Loop {
  explicit Loop(Scenario& s, const core::EnforcementPlan& initial,
                const core::AgentOptions& options = {})
      : controller_node(add_controller_host(s.network)),
        routing(net::RoutingTables::compute(s.network.topo)),
        resolver(net::AddressResolver::build(s.network.topo)),
        simnet(s.network.topo, routing, resolver),
        cp(install_control_plane(simnet, s.network, s.deployment, s.gen.policies,
                                 *s.controller, controller_node, initial, options)) {}

  net::NodeId controller_node;
  net::RoutingTables routing;
  net::AddressResolver resolver;
  sim::SimNetwork simnet;
  ControlPlane cp;
};

/// Inject every flow where its hosts' traffic enters the network: at the
/// proxy in-path, at the edge router (which loops it through the proxy)
/// off-path.
void inject_flows(Loop& loop, const Scenario& s, double start) {
  const std::vector<net::NodeId>& entries = s.network.proxy_mode == net::ProxyMode::kOffPath
                                                ? s.network.edge_routers
                                                : s.network.proxies;
  double t = start;
  for (const auto& f : s.flows.flows) {
    for (std::uint64_t j = 0; j < f.packets; ++j) {
      packet::Packet p;
      p.inner.src = f.id.src;
      p.inner.dst = f.id.dst;
      p.src_port = f.id.src_port;
      p.dst_port = f.id.dst_port;
      p.payload_bytes = 300;
      p.flow_seq = j;
      loop.simnet.inject(entries[static_cast<std::size_t>(f.src_subnet)], p, t);
      t += 1e-7;
    }
  }
}

/// Every proxy reports in-band; the matrix the controller assembles from
/// the reports must equal the scenario's ground truth.
void expect_reports_rebuild_traffic(Loop& loop, const Scenario& s) {
  send_reports(loop.simnet, loop.cp);
  loop.simnet.run();

  EXPECT_EQ(loop.cp.controller->reports_received(), s.network.proxies.size());
  EXPECT_EQ(loop.cp.controller->malformed_messages(), 0u);
  const auto& collected = loop.cp.controller->collected();
  EXPECT_DOUBLE_EQ(collected.grand_total(), s.traffic.grand_total());
  for (const auto& p : s.gen.policies.all()) {
    EXPECT_DOUBLE_EQ(collected.total(p.id), s.traffic.total(p.id));
    const auto pairs = s.traffic.active_pairs(p.id);
    EXPECT_EQ(collected.active_pairs(p.id), pairs);
    for (const auto& [src, dst] : pairs) {
      EXPECT_DOUBLE_EQ(collected.from(p.id, src), s.traffic.from(p.id, src));
      EXPECT_DOUBLE_EQ(collected.between(p.id, src, dst), s.traffic.between(p.id, src, dst));
    }
  }
}

/// Each middlebox processed exactly what the offline analytic evaluation of
/// `plan` predicts for one pass of the scenario's flows (`before` holds the
/// processed counts before that pass).
void expect_loads_follow_plan(const Loop& loop, const Scenario& s,
                              const core::EnforcementPlan& plan,
                              const std::vector<std::uint64_t>& before) {
  const auto expected = analytic::evaluate_loads(s.network, s.deployment, s.gen.policies, plan,
                                                 s.flows.flows);
  for (std::size_t i = 0; i < loop.cp.agents.middleboxes.size(); ++i) {
    const auto delta = loop.cp.agents.middleboxes[i]->counters().processed_packets - before[i];
    EXPECT_EQ(delta, expected.load_of(s.deployment.middleboxes()[i].node))
        << s.deployment.middleboxes()[i].name;
  }
}

TEST(ControlLoop, ReportsReconstructTheTrafficMatrixExactly) {
  ScenarioParams sp;
  sp.seed = 61;
  sp.target_packets = 3000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);

  inject_flows(loop, s, 0.0);
  loop.simnet.run();
  expect_reports_rebuild_traffic(loop, s);
}

TEST(ControlLoop, ConfigPushSwitchesStrategyMidRun) {
  ScenarioParams sp;
  sp.seed = 62;
  sp.target_packets = 2000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);

  // Epoch 1 under hot-potato.
  inject_flows(loop, s, 0.0);
  loop.simnet.run();
  // Reports -> controller; controller reoptimizes and pushes LB configs.
  send_reports(loop.simnet, loop.cp);
  loop.simnet.run();
  const control::ReplanOutcome reopt = loop.cp.controller->replan(loop.simnet, ReplanRequest{});
  EXPECT_TRUE(reopt.solved);
  EXPECT_FALSE(reopt.suppressed);
  EXPECT_EQ(reopt.trigger, ReplanTrigger::kMeasurement);
  EXPECT_GT(reopt.reports_used, 0u);
  const core::EnforcementPlan lb_plan = loop.cp.controller->last_plan();
  loop.simnet.run();  // configs propagate

  // Every device applied version 1.
  for (auto* device : loop.cp.proxies) {
    EXPECT_EQ(device->counters().configs_applied, 1u);
    EXPECT_EQ(device->config_version(), 1u);
  }
  for (auto* device : loop.cp.middleboxes) {
    EXPECT_EQ(device->counters().configs_applied, 1u);
  }

  // Epoch 2 traffic follows the pushed LB plan: per-box processed deltas
  // match the offline analytic evaluation of lb_plan.
  std::vector<std::uint64_t> before;
  for (const auto* mbx : loop.cp.agents.middleboxes) {
    before.push_back(mbx->counters().processed_packets);
  }
  inject_flows(loop, s, loop.simnet.simulator().now() + 1.0);
  loop.simnet.run();
  expect_loads_follow_plan(loop, s, lb_plan, before);
}

TEST(ControlLoop, OffPathNetworkRunsTheInBandLoop) {
  // The off-path install attaches an edge-router loopback next to every
  // managed proxy: control traffic to and from the proxies, like data,
  // detours through it.
  ScenarioParams sp;
  sp.seed = 85;
  sp.target_packets = 3000;
  sp.proxy_mode = net::ProxyMode::kOffPath;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);
  ASSERT_EQ(loop.cp.agents.loopbacks.size(), s.network.edge_routers.size());

  // Push an LB plan in-band: every managed device applies and acks it.
  const auto plan = s.controller->compile(StrategyKind::kLoadBalanced, &s.traffic);
  const ReplanOutcome pushed = loop.cp.controller->replan(
      loop.simnet, ReplanRequest{.trigger = ReplanTrigger::kInitial, .plan = &plan});
  loop.simnet.run();
  EXPECT_EQ(pushed.pushes_sent, s.network.proxies.size() + s.deployment.size());
  EXPECT_EQ(loop.cp.controller->acks_received(), pushed.pushes_sent);
  EXPECT_EQ(loop.cp.controller->outstanding_pushes(), 0u);
  for (const auto& devices : {loop.cp.proxies, loop.cp.middleboxes}) {
    for (const auto* device : devices) {
      EXPECT_EQ(device->counters().configs_applied, 1u);
      EXPECT_EQ(device->counters().acks_sent, 1u);
      EXPECT_EQ(device->config_version(), 1u);
    }
  }

  // Traffic enters at the edge routers and follows the pushed plan.
  inject_flows(loop, s, loop.simnet.simulator().now() + 1.0);
  loop.simnet.run();
  expect_loads_follow_plan(loop, s, plan,
                           std::vector<std::uint64_t>(loop.cp.agents.middleboxes.size(), 0));
  expect_reports_rebuild_traffic(loop, s);
  for (const auto* loopback : loop.cp.agents.loopbacks) {
    EXPECT_GT(loopback->looped_packets(), 0u);
  }
}

TEST(ControlLoop, StaleConfigVersionsAreRejected) {
  ScenarioParams sp;
  sp.seed = 63;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);

  const auto plan = s.controller->compile(StrategyKind::kRandom);
  loop.cp.controller->replan(loop.simnet,
                             ReplanRequest{.trigger = ReplanTrigger::kInitial,
                                           .plan = &plan});  // version 1
  loop.simnet.run();
  // Hand-deliver a stale (version 0) config to proxy 0: must be rejected.
  core::DeviceConfig stale = core::slice_for_device(initial, s.network.proxies[0], 0);
  EXPECT_FALSE(loop.cp.agents.proxies[0]->apply_config(std::move(stale)));
  EXPECT_EQ(loop.cp.proxies[0]->config_version(), 1u);
}

TEST(ControlLoop, MeasurementsClearAfterReporting) {
  ScenarioParams sp;
  sp.seed = 64;
  sp.target_packets = 1000;
  Scenario s = make_scenario(sp);
  const auto initial = s.controller->compile(StrategyKind::kHotPotato);
  Loop loop(s, initial);
  inject_flows(loop, s, 0.0);
  loop.simnet.run();
  bool any_nonempty = false;
  for (const auto* proxy : loop.cp.agents.proxies) {
    any_nonempty |= !proxy->measurements().empty();
  }
  EXPECT_TRUE(any_nonempty);
  send_reports(loop.simnet, loop.cp);
  for (const auto* proxy : loop.cp.agents.proxies) {
    EXPECT_TRUE(proxy->measurements().empty());
  }
}

}  // namespace
}  // namespace sdmbox::control
