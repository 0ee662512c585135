// The enforcement-invariant oracle, tested from both sides:
//
//  * positive — synthetic traversals that honour the policy chain, and full
//    simulated runs (every placement strategy, scripted chaos, generated
//    chaos, closed-loop reoptimisation), must report ZERO violations;
//  * negative — streams with enforcement deliberately broken one way at a
//    time must each be caught AND named by the right violation class. An
//    oracle that cannot fail is not evidence of anything.
//
// Plus the seeded chaos-schedule generator (a pure function of its seed) and
// the sampled-stream relaxation a trace rate below 1.0 switches on.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "exp/world.hpp"
#include "net/routing.hpp"
#include "obs/trace.hpp"
#include "scenario.hpp"
#include "verify/chaosgen.hpp"
#include "verify/oracle.hpp"

namespace sdmbox {
namespace {

using sdmbox::testing::Scenario;
using sdmbox::testing::ScenarioParams;
using sdmbox::testing::make_scenario;
using verify::InvariantOracle;
using verify::ViolationKind;

// ---------------------------------------------------------------------------
// Synthetic-stream harness: a real scenario (topology, deployment, policies,
// plan) but hand-authored TraceRecords, so each test controls exactly which
// enforcement step is broken.
// ---------------------------------------------------------------------------

struct OracleRig {
  Scenario s;
  core::EnforcementPlan plan;
  std::unique_ptr<InvariantOracle> oracle;

  // A flow matched to a chained (>= 2 function) policy, plus the nodes its
  // enforcement legitimately involves.
  packet::FlowId flow;
  const policy::Policy* pol = nullptr;
  net::NodeId proxy;                  // ingress policy proxy
  net::NodeId dst_terminal;           // where delivery legitimately happens
  std::vector<net::NodeId> boxes;     // one implementer per chain function
};

OracleRig make_rig() {
  OracleRig rig;
  ScenarioParams sp;
  sp.seed = 21;
  sp.target_packets = 2000;
  rig.s = make_scenario(sp);
  rig.plan = rig.s.controller->compile(core::StrategyKind::kHotPotato);
  rig.oracle = std::make_unique<InvariantOracle>(rig.s.network, rig.s.deployment,
                                                 rig.s.gen.policies, rig.plan, &rig.s.catalog);

  const auto resolver = net::AddressResolver::build(rig.s.network.topo);
  for (const auto& f : rig.s.flows.flows) {
    const policy::Policy* pol = rig.s.gen.policies.first_match(f.id);
    if (pol == nullptr || pol->deny || pol->actions.size() < 2) continue;
    // Every chain function needs a live implementer, and the destination a
    // resolvable terminal, or the traversal cannot be authored.
    std::vector<net::NodeId> boxes;
    for (const policy::FunctionId fn : pol->actions) {
      net::NodeId box;
      for (const core::MiddleboxInfo& m : rig.s.deployment.middleboxes()) {
        if (m.functions.contains(fn)) {
          box = m.node;
          break;
        }
      }
      if (!box.valid()) break;
      boxes.push_back(box);
    }
    const auto terminal = resolver.resolve(f.id.dst);
    if (boxes.size() != pol->actions.size() || !terminal.has_value()) continue;
    rig.flow = f.id;
    rig.pol = pol;
    rig.proxy = rig.s.network.proxies[static_cast<std::size_t>(f.src_subnet)];
    rig.dst_terminal = *terminal;
    rig.boxes = std::move(boxes);
    return rig;
  }
  ADD_FAILURE() << "scenario has no authorable chained flow";
  return rig;
}

obs::TraceRecord rec(obs::Hop hop, const packet::FlowId& flow, double at, net::NodeId node,
                     std::uint64_t detail = 0, std::uint64_t seq = 1) {
  return obs::TraceRecord{at, flow, node, hop, detail, seq};
}

// Feed a legitimate, complete tunneled traversal for (flow, seq): classify,
// encap, every chain function in policy order at its implementer, chain
// tail, delivery at the destination terminal.
void feed_clean_tunneled(OracleRig& rig, const packet::FlowId& flow, std::uint64_t seq,
                         double t0) {
  using obs::Hop;
  InvariantOracle& o = *rig.oracle;
  o.on_record(rec(Hop::kInjected, flow, t0, rig.proxy, 0, seq));
  o.on_record(rec(Hop::kClassified, flow, t0 + 0.01, rig.proxy, rig.pol->id.v, seq));
  o.on_record(rec(Hop::kTunnelEncap, flow, t0 + 0.02, rig.proxy, rig.boxes[0].v, seq));
  double t = t0 + 0.03;
  for (std::size_t i = 0; i < rig.boxes.size(); ++i, t += 0.01) {
    o.on_record(rec(Hop::kFunctionApplied, flow, t, rig.boxes[i], rig.pol->actions[i].v, seq));
  }
  o.on_record(rec(Hop::kChainTail, flow, t, rig.boxes.back(), 0, seq));
  o.on_record(rec(Hop::kDelivered, flow, t + 0.01, rig.dst_terminal, 0, seq));
}

void feed_clean_tunneled(OracleRig& rig, std::uint64_t seq, double t0 = 1.0) {
  feed_clean_tunneled(rig, rig.flow, seq, t0);
}

// Feed (flow, seq) riding the established box sequence over label `label`,
// through the chain tail to delivery.
void feed_clean_switched(OracleRig& rig, const packet::FlowId& flow, std::uint64_t seq,
                         double t0, std::uint64_t label) {
  using obs::Hop;
  InvariantOracle& o = *rig.oracle;
  o.on_record(rec(Hop::kInjected, flow, t0, rig.proxy, 0, seq));
  o.on_record(rec(Hop::kLabelSwitchTx, flow, t0 + 0.01, rig.proxy, label, seq));
  double t = t0 + 0.02;
  for (const net::NodeId box : rig.boxes) {
    o.on_record(rec(Hop::kLabelSwitchRx, flow, t, box, label, seq));
    t += 0.01;
  }
  o.on_record(rec(Hop::kChainTail, flow, t, rig.boxes.back(), 0, seq));
  o.on_record(rec(Hop::kDelivered, flow, t + 0.01, rig.dst_terminal, 0, seq));
}

std::uint64_t count_of(const verify::VerifyReport& r, ViolationKind k) {
  return static_cast<std::uint64_t>(
      std::count_if(r.violations.begin(), r.violations.end(),
                    [&](const verify::Violation& v) { return v.kind == k; }));
}

TEST(Oracle, CleanTunneledTraversalDeliversOk) {
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  feed_clean_tunneled(rig, 1);
  const auto& r = rig.oracle->finish();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.packets_tracked, 1u);
  EXPECT_EQ(r.packets_delivered_ok, 1u);
  EXPECT_EQ(r.packets_in_flight, 0u);
}

TEST(Oracle, CatchesSkippedFunction) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  // Visit every chain function EXCEPT the last, then deliver anyway.
  o.on_record(rec(Hop::kInjected, rig.flow, 1.0, rig.proxy));
  o.on_record(rec(Hop::kClassified, rig.flow, 1.01, rig.proxy, rig.pol->id.v));
  o.on_record(rec(Hop::kTunnelEncap, rig.flow, 1.02, rig.proxy, rig.boxes[0].v));
  for (std::size_t i = 0; i + 1 < rig.boxes.size(); ++i) {
    o.on_record(rec(Hop::kFunctionApplied, rig.flow, 1.03 + 0.01 * static_cast<double>(i),
                    rig.boxes[i], rig.pol->actions[i].v));
  }
  o.on_record(rec(Hop::kDelivered, rig.flow, 1.2, rig.dst_terminal));

  // A sibling flow, tunneled before any classification committed a policy
  // (so no order check runs on the way), applies its ground-truth chain in
  // reverse: the function count matches, the content does not.
  packet::FlowId other = rig.flow;
  other.dst = net::IpAddress(rig.flow.dst.value() + 1);
  ASSERT_EQ(rig.s.gen.policies.first_match(other), rig.pol);
  o.on_record(rec(Hop::kInjected, other, 2.0, rig.proxy, 0, 2));
  o.on_record(rec(Hop::kTunnelEncap, other, 2.01, rig.proxy, rig.boxes.back().v, 2));
  for (std::size_t i = rig.boxes.size(); i-- > 0;) {
    o.on_record(rec(Hop::kFunctionApplied, other, 2.02, rig.boxes[i], rig.pol->actions[i].v, 2));
  }
  o.on_record(rec(Hop::kDelivered, other, 2.1, rig.dst_terminal, 0, 2));

  const auto& r = o.finish();
  ASSERT_EQ(r.violations.size(), 2u) << r.summary();
  EXPECT_EQ(count_of(r, ViolationKind::kSkippedFunction), 2u);
  EXPECT_NE(r.violations[0].narrative.find("skipped_function"), std::string::npos);
  EXPECT_NE(r.violations[0].narrative.find("unvisited"), std::string::npos);
  EXPECT_EQ(r.violations[1].seq, 2u);
  EXPECT_NE(r.violations[1].narrative.find("unvisited"), std::string::npos);
}

TEST(Oracle, CatchesReorderedChain) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  ASSERT_GE(rig.boxes.size(), 2u);
  InvariantOracle& o = *rig.oracle;
  // Apply function 2 before function 1 — both at legitimate implementers, so
  // only the ORDER is wrong.
  o.on_record(rec(Hop::kInjected, rig.flow, 1.0, rig.proxy));
  o.on_record(rec(Hop::kClassified, rig.flow, 1.01, rig.proxy, rig.pol->id.v));
  o.on_record(rec(Hop::kTunnelEncap, rig.flow, 1.02, rig.proxy, rig.boxes[1].v));
  o.on_record(rec(Hop::kFunctionApplied, rig.flow, 1.03, rig.boxes[1], rig.pol->actions[1].v));
  o.on_record(rec(Hop::kFunctionApplied, rig.flow, 1.04, rig.boxes[0], rig.pol->actions[0].v));
  o.on_record(rec(Hop::kDelivered, rig.flow, 1.2, rig.dst_terminal));
  const auto& r = o.finish();
  EXPECT_GE(count_of(r, ViolationKind::kReorderedChain), 1u) << r.summary();
  EXPECT_NE(r.violations[0].narrative.find("out of policy order"), std::string::npos);
}

TEST(Oracle, CatchesFunctionAtNonImplementer) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  // The proxy is not a middlebox; a function "applied" there is forged.
  o.on_record(rec(Hop::kInjected, rig.flow, 1.0, rig.proxy));
  o.on_record(rec(Hop::kClassified, rig.flow, 1.01, rig.proxy, rig.pol->id.v));
  o.on_record(rec(Hop::kTunnelEncap, rig.flow, 1.02, rig.proxy, rig.boxes[0].v));
  o.on_record(rec(Hop::kFunctionApplied, rig.flow, 1.03, rig.proxy, rig.pol->actions[0].v));
  const auto& r = o.finish();
  EXPECT_EQ(count_of(r, ViolationKind::kUnexpectedFunction), 1u) << r.summary();
  EXPECT_NE(r.violations[0].narrative.find("does not implement"), std::string::npos);
}

TEST(Oracle, CatchesDeliveryWithoutChain) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  // The proxy lets a chained-policy packet straight through to delivery.
  o.on_record(rec(Hop::kInjected, rig.flow, 1.0, rig.proxy));
  o.on_record(rec(Hop::kClassified, rig.flow, 1.01, rig.proxy, rig.pol->id.v));
  o.on_record(rec(Hop::kPermitted, rig.flow, 1.02, rig.proxy));
  o.on_record(rec(Hop::kDelivered, rig.flow, 1.1, rig.dst_terminal));
  const auto& r = o.finish();
  ASSERT_EQ(r.violations.size(), 1u) << r.summary();
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kDeliveredWithoutChain);
  EXPECT_NE(r.violations[0].narrative.find("no enforcement at all"), std::string::npos);
}

TEST(Oracle, CatchesPostTeardownLabelReuse) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  // seq 1 establishes the label path with a full tunneled traversal...
  feed_clean_tunneled(rig, 1);
  // ...the proxy tears the label state down (epoch advances)...
  o.on_record(rec(Hop::kLabelTeardown, rig.flow, 2.0, rig.proxy, 7, 0));
  // ...and seq 2 still rides the label with no re-establishment in between.
  o.on_record(rec(Hop::kInjected, rig.flow, 2.1, rig.proxy, 0, 2));
  o.on_record(rec(Hop::kLabelSwitchTx, rig.flow, 2.11, rig.proxy, 7, 2));
  for (const net::NodeId box : rig.boxes) {
    o.on_record(rec(Hop::kLabelSwitchRx, rig.flow, 2.12, box, 7, 2));
  }
  o.on_record(rec(Hop::kChainTail, rig.flow, 2.13, rig.boxes.back(), 0, 2));
  o.on_record(rec(Hop::kDelivered, rig.flow, 2.2, rig.dst_terminal, 0, 2));
  const auto& r = o.finish();
  ASSERT_EQ(r.violations.size(), 1u) << r.summary();
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kPostTeardownLabelUse);
  EXPECT_EQ(r.teardown_notices, 1u);
  EXPECT_NE(r.violations[0].narrative.find("after teardown"), std::string::npos);
}

TEST(Oracle, CatchesLabelPathDivergence) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  ASSERT_GE(rig.boxes.size(), 2u);
  InvariantOracle& o = *rig.oracle;
  feed_clean_tunneled(rig, 1);  // establishes boxes in policy order
  // seq 2 switches through the SAME boxes in the reverse order — a label
  // path no tunneled packet ever established.
  o.on_record(rec(Hop::kInjected, rig.flow, 2.0, rig.proxy, 0, 2));
  o.on_record(rec(Hop::kLabelSwitchTx, rig.flow, 2.01, rig.proxy, 9, 2));
  for (auto it = rig.boxes.rbegin(); it != rig.boxes.rend(); ++it) {
    o.on_record(rec(Hop::kLabelSwitchRx, rig.flow, 2.02, *it, 9, 2));
  }
  o.on_record(rec(Hop::kChainTail, rig.flow, 2.03, rig.boxes.front(), 0, 2));
  o.on_record(rec(Hop::kDelivered, rig.flow, 2.1, rig.dst_terminal, 0, 2));
  // seq 3 bounces between the first two boxes, visiting more boxes than the
  // longest policy chain has functions: the whole path is still compared
  // and told.
  ASSERT_NE(rig.boxes[0], rig.boxes[1]);
  std::size_t longest = 0;
  for (const policy::Policy& p : rig.s.gen.policies.all()) {
    longest = std::max(longest, p.actions.size());
  }
  o.on_record(rec(Hop::kInjected, rig.flow, 3.0, rig.proxy, 0, 3));
  o.on_record(rec(Hop::kLabelSwitchTx, rig.flow, 3.01, rig.proxy, 9, 3));
  std::string bounced;
  for (std::size_t i = 0; i <= longest; ++i) {
    const net::NodeId box = rig.boxes[i % 2];
    o.on_record(rec(Hop::kLabelSwitchRx, rig.flow, 3.02, box, 9, 3));
    bounced += (i ? "->" : "") + rig.s.network.topo.node(box).name;
  }
  o.on_record(rec(Hop::kChainTail, rig.flow, 3.03, rig.boxes[longest % 2], 0, 3));
  o.on_record(rec(Hop::kDelivered, rig.flow, 3.1, rig.dst_terminal, 0, 3));
  const auto& r = o.finish();
  ASSERT_EQ(r.violations.size(), 2u) << r.summary();
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kLabelPathDivergence);
  EXPECT_NE(r.violations[0].narrative.find("established"), std::string::npos);
  EXPECT_EQ(r.violations[1].kind, ViolationKind::kLabelPathDivergence);
  EXPECT_NE(r.violations[1].narrative.find("path visited [" + bounced + "]"), std::string::npos)
      << r.violations[1].narrative;
}

TEST(Oracle, AcceptsSwitchedPacketOnEstablishedPath) {
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  feed_clean_tunneled(rig, 1);
  // seq 2 follows exactly the established box sequence over labels.
  feed_clean_switched(rig, rig.flow, 2, 2.0, 9);
  const auto& r = o.finish();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.packets_delivered_ok, 2u);
}

TEST(Oracle, AccountsTerminalOutcomesWithoutViolations) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  // Inline deny.
  o.on_record(rec(Hop::kInjected, rig.flow, 1.0, rig.proxy, 0, 1));
  o.on_record(rec(Hop::kClassified, rig.flow, 1.01, rig.proxy, rig.pol->id.v, 1));
  o.on_record(rec(Hop::kDenied, rig.flow, 1.02, rig.proxy, rig.pol->id.v, 1));
  // WP cache response (§III.F legal truncation).
  o.on_record(rec(Hop::kInjected, rig.flow, 2.0, rig.proxy, 0, 2));
  o.on_record(rec(Hop::kWpCacheResponse, rig.flow, 2.01, rig.boxes[0], 0, 2));
  // In-flight loss at a crashed node.
  o.on_record(rec(Hop::kInjected, rig.flow, 3.0, rig.proxy, 0, 3));
  o.on_record(rec(Hop::kDropNodeDown, rig.flow, 3.01, rig.boxes[0], 0, 3));
  // Still in flight at end of run.
  o.on_record(rec(Hop::kInjected, rig.flow, 4.0, rig.proxy, 0, 4));
  const auto& r = o.finish();
  EXPECT_TRUE(r.violations.empty()) << r.summary();
  EXPECT_EQ(r.packets_denied, 1u);
  EXPECT_EQ(r.packets_wp_served, 1u);
  EXPECT_EQ(r.packets_dropped, 1u);
  EXPECT_EQ(r.packets_in_flight, 1u);
  EXPECT_EQ(r.packets_tracked, 4u);
}

TEST(Oracle, AliasCollisionMarksBothPacketsUnverified) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  // Two flows identical except for the destination, same seq, both switched:
  // mid-chain records (destination rewritten) cannot be attributed to either.
  packet::FlowId other = rig.flow;
  other.dst = net::IpAddress(rig.flow.dst.value() + 1);
  for (const packet::FlowId& f : {rig.flow, other}) {
    o.on_record(rec(Hop::kInjected, f, 1.0, rig.proxy, 0, 5));
    o.on_record(rec(Hop::kClassified, f, 1.01, rig.proxy, rig.pol->id.v, 5));
    o.on_record(rec(Hop::kLabelSwitchTx, f, 1.02, rig.proxy, 11, 5));
  }
  o.on_record(rec(Hop::kDelivered, rig.flow, 1.2, rig.dst_terminal, 0, 5));
  const auto& r = o.finish();
  EXPECT_TRUE(r.violations.empty()) << r.summary();
  EXPECT_EQ(r.packets_unverified, 1u);  // the delivered one; the other is open
  EXPECT_EQ(r.packets_in_flight, 1u);
}

TEST(Oracle, DuplicateInjectionDropsTheOldAlias) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  packet::FlowId other = rig.flow;
  other.dst = net::IpAddress(rig.flow.dst.value() + 1);
  ASSERT_EQ(rig.s.gen.policies.first_match(other), rig.pol);
  ASSERT_EQ(net::AddressResolver::build(rig.s.network.topo).resolve(other.dst),
            std::optional<net::NodeId>(rig.dst_terminal));
  // (flow, 5) label-switches and so holds the alias shared with (other, 5)...
  o.on_record(rec(Hop::kInjected, rig.flow, 1.0, rig.proxy, 0, 5));
  o.on_record(rec(Hop::kClassified, rig.flow, 1.01, rig.proxy, rig.pol->id.v, 5));
  o.on_record(rec(Hop::kLabelSwitchTx, rig.flow, 1.02, rig.proxy, 11, 5));
  // ...until it is injected again: the re-injected copy holds no alias, and
  // it is lost on the wire.
  o.on_record(rec(Hop::kInjected, rig.flow, 1.1, rig.proxy, 0, 5));
  o.on_record(rec(Hop::kDropLinkLoss, rig.flow, 1.2, rig.proxy, 0, 5));
  // `other` establishes its chain path, then rides it switched with seq 5:
  // its alias is free, so the packet is checked, not left unverified.
  feed_clean_tunneled(rig, other, 1, 2.0);
  feed_clean_switched(rig, other, 5, 3.0, 12);
  const auto& r = o.finish();
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.packets_unverified, 0u);
  EXPECT_EQ(r.packets_delivered_ok, 2u);
  EXPECT_EQ(r.packets_dropped, 1u);
  EXPECT_EQ(r.packets_in_flight, 1u);  // the first copy of (flow, 5), fate unknown
}

TEST(Oracle, NarrativeTellsOnlyThisPacketsHops) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  InvariantOracle& o = *rig.oracle;
  const auto name = [&](net::NodeId n) { return rig.s.network.topo.node(n).name; };
  const auto detail = [](std::uint64_t d) {
    return d == 0 ? std::string() : "(detail=" + std::to_string(d) + ")";
  };
  // seq 1 completes cleanly, so its state (and hop history) is freed first.
  feed_clean_tunneled(rig, 1);
  // seq 2 is tunneled but delivered with no function applied.
  o.on_record(rec(Hop::kInjected, rig.flow, 2.0, rig.proxy, 0, 2));
  o.on_record(rec(Hop::kClassified, rig.flow, 2.01, rig.proxy, rig.pol->id.v, 2));
  o.on_record(rec(Hop::kTunnelEncap, rig.flow, 2.02, rig.proxy, rig.boxes[0].v, 2));
  o.on_record(rec(Hop::kDelivered, rig.flow, 2.1, rig.dst_terminal, 0, 2));
  // seq 3 wanders through more reroutes than the history keeps, then is
  // delivered with no enforcement at all.
  o.on_record(rec(Hop::kInjected, rig.flow, 3.0, rig.proxy, 0, 3));
  for (int i = 0; i < 120; ++i) {
    o.on_record(rec(Hop::kFailoverReroute, rig.flow, 3.01, rig.boxes[0], 0, 3));
  }
  o.on_record(rec(Hop::kDelivered, rig.flow, 3.5, rig.dst_terminal, 0, 3));
  const auto& r = o.finish();
  ASSERT_EQ(r.violations.size(), 2u) << r.summary();

  const std::string expected =
      "hops: t=2 injected@" + name(rig.proxy) + " -> t=2.01 classified@" + name(rig.proxy) +
      detail(rig.pol->id.v) + " -> t=2.02 tunnel_encap@" + name(rig.proxy) +
      detail(rig.boxes[0].v) + " -> t=2.1 delivered@" + name(rig.dst_terminal);
  const std::string& story = r.violations[0].narrative;
  EXPECT_EQ(r.violations[0].seq, 2u);
  ASSERT_GE(story.size(), expected.size());
  EXPECT_EQ(story.substr(story.size() - expected.size()), expected);

  const std::string& capped = r.violations[1].narrative;
  EXPECT_EQ(r.violations[1].seq, 3u);
  const std::string suffix = " -> ... (history capped)";
  ASSERT_GE(capped.size(), suffix.size());
  EXPECT_EQ(capped.substr(capped.size() - suffix.size()), suffix);
  const std::string hops = capped.substr(capped.find("hops: "));
  std::size_t kept = 0;
  for (std::size_t at = hops.find("t="); at != std::string::npos; at = hops.find("t=", at + 1)) {
    ++kept;
  }
  EXPECT_EQ(kept, 96u);
}

TEST(Oracle, SampledStreamMatchesSwitchedPathsByTail) {
  using obs::Hop;
  OracleRig rig = make_rig();
  ASSERT_NE(rig.pol, nullptr);
  ASSERT_NE(rig.boxes.front(), rig.boxes.back());
  InvariantOracle& o = *rig.oracle;
  // Below trace rate 1.0 the sampler may miss a switched packet's
  // mid-chain records, whose on-wire 5-tuple is rewritten.
  o.set_complete_stream(false);
  // A switched packet whose only sampled mid-chain record is at `box`,
  // where its chain also ends.
  const auto feed_switched_at = [&](std::uint64_t seq, double t0, net::NodeId box) {
    o.on_record(rec(Hop::kInjected, rig.flow, t0, rig.proxy, 0, seq));
    o.on_record(rec(Hop::kLabelSwitchTx, rig.flow, t0 + 0.01, rig.proxy, 9, seq));
    o.on_record(rec(Hop::kLabelSwitchRx, rig.flow, t0 + 0.02, box, 9, seq));
    o.on_record(rec(Hop::kChainTail, rig.flow, t0 + 0.03, box, 0, seq));
    o.on_record(rec(Hop::kDelivered, rig.flow, t0 + 0.1, rig.dst_terminal, 0, seq));
  };
  feed_clean_tunneled(rig, 1);  // establishes the boxes in policy order
  // seq 2 is seen only at the tail box: a subsequence of the established
  // path that ends where it ends, so it passes.
  feed_switched_at(2, 2.0, rig.boxes.back());
  // seq 3 ends its chain at the first box instead: no established path has
  // that tail.
  feed_switched_at(3, 3.0, rig.boxes.front());
  const auto& r = o.finish();
  ASSERT_EQ(r.violations.size(), 1u) << r.summary();
  EXPECT_EQ(r.violations[0].kind, ViolationKind::kLabelPathDivergence);
  EXPECT_EQ(r.violations[0].seq, 3u);
  EXPECT_EQ(r.packets_delivered_ok, 2u);
}

// ---------------------------------------------------------------------------
// Seeded chaos-schedule generator: one knob, many timelines, zero wall-clock.
// ---------------------------------------------------------------------------

std::string schedule_fingerprint(const sim::FaultSchedule& s) {
  std::string out;
  for (const auto& e : s.events()) {
    out += std::to_string(e.at) + ':' + std::to_string(static_cast<int>(e.kind)) + ':' +
           std::to_string(e.node.v) + ':' + std::to_string(e.link.v) + ':' +
           std::to_string(e.loss_rate) + '\n';
  }
  return out;
}

TEST(ChaosGen, SameSeedSameSchedule) {
  ScenarioParams sp;
  sp.seed = 21;
  const Scenario s = make_scenario(sp);
  const auto a = verify::generate_chaos(s.network, s.deployment, 42);
  const auto b = verify::generate_chaos(s.network, s.deployment, 42);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(schedule_fingerprint(a), schedule_fingerprint(b));
}

TEST(ChaosGen, DistinctSeedsDistinctSchedules) {
  ScenarioParams sp;
  sp.seed = 21;
  const Scenario s = make_scenario(sp);
  std::vector<std::string> prints;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto sched = verify::generate_chaos(s.network, s.deployment, seed);
    EXPECT_FALSE(sched.empty()) << "seed " << seed;
    // Every crash is paired with a restart and every loss episode is cleared,
    // so a generated run always ends with the network whole again.
    std::uint64_t crashes = 0, restarts = 0;
    for (const auto& e : sched.events()) {
      crashes += e.kind == sim::FaultEvent::Kind::kNodeDown;
      restarts += e.kind == sim::FaultEvent::Kind::kNodeUp;
    }
    EXPECT_EQ(crashes, restarts) << "seed " << seed;
    prints.push_back(schedule_fingerprint(sched));
  }
  std::sort(prints.begin(), prints.end());
  EXPECT_EQ(std::unique(prints.begin(), prints.end()), prints.end())
      << "seeds collided into identical schedules";
}

TEST(ChaosGen, FlapsNeverDisconnectTheTopology) {
  // On Waxman every edge router hangs off one uplink: flapping it would cut
  // its subnet off and turn the run into no-route drops.
  exp::ScenarioSpec spec;
  spec.topology = exp::TopologyKind::kWaxman;
  spec.faults = exp::FaultScript::kGenerated;
  const auto w = exp::build_world(spec);
  w->prepare_sim();
  const net::Topology& topo = w->network.topo;
  const std::uint32_t n = static_cast<std::uint32_t>(topo.node_count());
  std::size_t flaps = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sim::FaultSchedule schedule = verify::generate_chaos(w->network, w->deployment, seed);
    for (const auto& e : schedule.events()) {
      if (e.kind != sim::FaultEvent::Kind::kLinkDown) continue;
      ++flaps;
      std::vector<bool> down(topo.link_count(), false);
      down[e.link.v] = true;
      const auto routing = net::RoutingTables::compute(topo, &down);
      std::size_t unreachable = 0;
      for (std::uint32_t a = 0; a < n; ++a) {
        for (std::uint32_t b = 0; b < n; ++b) {
          unreachable += routing.distance(net::NodeId{a}, net::NodeId{b}) ==
                         net::ShortestPathTree::kInfinity;
        }
      }
      EXPECT_EQ(unreachable, 0u) << "chaos seed " << seed << " flaps link " << e.link.v;
    }
  }
  EXPECT_EQ(flaps, 16u);
}

// ---------------------------------------------------------------------------
// End to end: full simulated runs with the oracle attached live must be
// violation-free on every arm the paper evaluates.
// ---------------------------------------------------------------------------

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

exp::ScenarioSpec verified_spec() {
  exp::ScenarioSpec spec;
  spec.packets = 800;
  spec.verify = true;
  spec.trace_sample = 1.0;
  return spec;
}

TEST(OracleEndToEnd, AllPlacementStrategiesRunClean) {
  for (const core::StrategyKind strat :
       {core::StrategyKind::kHotPotato, core::StrategyKind::kRandom,
        core::StrategyKind::kLoadBalanced}) {
    exp::ScenarioSpec spec = verified_spec();
    spec.strategy = strat;
    const auto snap = exp::run_scenario(spec);
    EXPECT_EQ(snapshot_sum(snap, "verify_violations"), 0.0)
        << "strategy " << static_cast<int>(strat);
    EXPECT_EQ(snapshot_sum(snap, "verify_coverage_incomplete"), 0.0);
    EXPECT_GT(snapshot_sum(snap, "verify_packets_tracked"), 0.0);
  }
}

TEST(OracleEndToEnd, GeneratedChaosRunsClean) {
  for (const std::uint64_t chaos_seed : {3ULL, 4ULL}) {
    exp::ScenarioSpec spec = verified_spec();
    spec.faults = exp::FaultScript::kGenerated;
    spec.chaos_seed = chaos_seed;
    const auto snap = exp::run_scenario(spec);
    EXPECT_EQ(snapshot_sum(snap, "verify_violations"), 0.0) << "chaos seed " << chaos_seed;
    EXPECT_GT(snapshot_sum(snap, "verify_packets_tracked"), 0.0);
  }
}

TEST(OracleEndToEnd, ClosedLoopReoptimisationRunsClean) {
  exp::ScenarioSpec spec = verified_spec();
  spec.reopt.epoch_period = 2.0;
  spec.reopt.drift_threshold = 0.1;
  const auto snap = exp::run_scenario(spec);
  EXPECT_EQ(snapshot_sum(snap, "verify_violations"), 0.0);
  EXPECT_EQ(snapshot_sum(snap, "verify_coverage_incomplete"), 0.0);
}

TEST(OracleEndToEnd, PatchedFailoverRunsClean) {
  // The scripted chaos arm crashes a single middlebox, so the health
  // monitor names it and the kFailure replan takes the scoped patch path
  // (plan patched in place, only affected slices repushed) instead of a
  // full recompute. The invariant oracle must not notice the difference —
  // and the patched path must actually have run.
  exp::ScenarioSpec spec = verified_spec();
  spec.faults = exp::FaultScript::kChaos;
  const auto snap = exp::run_scenario(spec);
  EXPECT_EQ(snapshot_sum(snap, "verify_violations"), 0.0);
  EXPECT_EQ(snapshot_sum(snap, "verify_coverage_incomplete"), 0.0);
  EXPECT_GT(snapshot_sum(snap, "ctrl_replans_patched"), 0.0);
}

TEST(OracleEndToEnd, SampledTraceRunsClean) {
  // Trace rate 0.5 puts the oracle on the sampled-stream rules.
  exp::ScenarioSpec spec;
  spec.packets = 4000;
  spec.seed = 42;
  spec.verify = true;
  spec.trace_sample = 0.5;
  ASSERT_EQ(spec.faults, exp::FaultScript::kChaos);
  const auto snap = exp::run_scenario(spec);
  EXPECT_EQ(snapshot_sum(snap, "verify_violations"), 0.0);
  EXPECT_EQ(snapshot_sum(snap, "verify_coverage_incomplete"), 0.0);
  EXPECT_GT(snapshot_sum(snap, "verify_packets_tracked"), 0.0);
}

TEST(OracleEndToEnd, VerifiedRunsAreDeterministic) {
  exp::ScenarioSpec spec = verified_spec();
  spec.faults = exp::FaultScript::kGenerated;
  spec.chaos_seed = 11;
  const auto a = exp::run_scenario(spec);
  const auto b = exp::run_scenario(spec);
  EXPECT_EQ(a, b) << "same seed + verify must reproduce every metric bit-for-bit";
}

}  // namespace
}  // namespace sdmbox
