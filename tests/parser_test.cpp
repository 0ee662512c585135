// Policy text format (policy/parser), deny semantics, and the trie
// classifier cross-checked against the linear reference.
#include <gtest/gtest.h>

#include "analytic/load_evaluator.hpp"
#include "mutate.hpp"
#include "policy/analysis.hpp"
#include "policy/classifier.hpp"
#include "policy/parser.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"
#include "core/agents.hpp"
#include "util/rng.hpp"

namespace sdmbox::policy {
namespace {

const FunctionCatalog kCatalog = FunctionCatalog::standard();

const std::string kTableOne = R"(
# Table I of the paper
permit-internal = 128.40.0.0/16 128.40.0.0/16 * 80 -> permit
inbound-web     = *             128.40.0.0/16 * 80 -> FW,IDS
outbound-web    = 128.40.0.0/16 *             * 80 -> FW,IDS,WP
no-telnet       = *             *             * 23 -> deny
)";

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(Parser, ParsesTheTableOneFile) {
  const auto result = parse_policies(kTableOne, kCatalog);
  ASSERT_TRUE(result.ok()) << result.errors.front().message;
  ASSERT_EQ(result.policies.size(), 4u);
  const auto& all = result.policies.all();
  EXPECT_EQ(all[0].name, "permit-internal");
  EXPECT_TRUE(all[0].is_permit());
  EXPECT_EQ(all[1].actions, (ActionList{kFirewall, kIntrusionDetection}));
  EXPECT_EQ(all[2].actions, (ActionList{kFirewall, kIntrusionDetection, kWebProxy}));
  EXPECT_TRUE(all[3].deny);
  EXPECT_EQ(all[3].descriptor.dst_port.lo, 23);
  EXPECT_TRUE(all[3].descriptor.src.is_wildcard());
}

TEST(Parser, PortRangesProtocolsAndBareAddresses) {
  const auto result = parse_policies(
      "10.1.2.3 10.2.0.0/16 1024-2048 443 tcp -> FW\n"
      "* * * * udp -> IDS\n"
      "* * * * 47 -> TM\n",
      kCatalog);
  ASSERT_TRUE(result.ok());
  const auto& all = result.policies.all();
  EXPECT_EQ(all[0].descriptor.src.length(), 32);
  EXPECT_EQ(all[0].descriptor.src_port, (PortRange{1024, 2048}));
  EXPECT_EQ(*all[0].descriptor.protocol, packet::kProtoTcp);
  EXPECT_EQ(*all[1].descriptor.protocol, packet::kProtoUdp);
  EXPECT_EQ(*all[2].descriptor.protocol, 47);
}

TEST(Parser, AnonymousPoliciesAndSpacedActionLists) {
  const auto result = parse_policies("* * * 80 -> FW, IDS , WP\n", kCatalog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.policies.all()[0].actions.size(), 3u);
  EXPECT_TRUE(result.policies.all()[0].name.empty());
}

TEST(Parser, ReportsErrorsWithLineNumbersAndContinues) {
  const auto result = parse_policies(
      "* * * 80 -> FW\n"
      "bogus line without arrow\n"
      "* * * 81 -> NOSUCHFN\n"
      "* * notaport 82 -> FW\n"
      "* * * 83 -> IDS\n",
      kCatalog);
  EXPECT_EQ(result.errors.size(), 3u);
  EXPECT_EQ(result.errors[0].line, 2u);
  EXPECT_EQ(result.errors[1].line, 3u);
  EXPECT_EQ(result.errors[2].line, 4u);
  EXPECT_EQ(result.policies.size(), 2u);  // good lines survived
}

TEST(Parser, RejectsWrongFieldCountsAndEmptyActions) {
  EXPECT_FALSE(parse_policies("* * * -> FW\n", kCatalog).ok());
  EXPECT_FALSE(parse_policies("* * * * * * -> FW\n", kCatalog).ok());
  EXPECT_FALSE(parse_policies("* * * 80 ->\n", kCatalog).ok());
}

TEST(Parser, FormatRoundTrips) {
  const std::string text =
      "permit-internal = 128.40.0.0/16 128.40.0.0/16 * 80 -> permit\n"
      "inbound-web = * 128.40.0.0/16 * 80 -> FW,IDS\n"
      "range-rule = 10.0.0.0/8 * 1024-2048 443 tcp -> IDS,TM\n"
      "no-telnet = * * * 23 -> deny\n";
  const auto first = parse_policies(text, kCatalog);
  ASSERT_TRUE(first.ok());
  const std::string rendered = format_policies(first.policies, kCatalog);
  const auto second = parse_policies(rendered, kCatalog);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first.policies.size(), second.policies.size());
  for (std::size_t i = 0; i < first.policies.size(); ++i) {
    const Policy& a = first.policies.all()[i];
    const Policy& b = second.policies.all()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.descriptor.to_string(), b.descriptor.to_string());
    EXPECT_EQ(a.actions, b.actions);
    EXPECT_EQ(a.deny, b.deny);
  }
}

TEST(Parser, MutatedTableOneNeverThrows) {
  // Every mutant is parsed or rejected line by line, never thrown on.
  util::Rng rng(31);
  for (int i = 0; i < 2000; ++i) {
    const std::string text =
        sdmbox::testing::mutate_text(kTableOne, "0123456789abcxyz-=./*#> ,\n", rng);
    EXPECT_NO_THROW((void)parse_policies(text, kCatalog)) << text;
  }
}

// ---------------------------------------------------------------------------
// Deny semantics
// ---------------------------------------------------------------------------

TEST(Deny, FirstMatchDenyDropsAtProxyInDesAndAnalytic) {
  sdmbox::testing::ScenarioParams sp;
  sp.target_packets = 2000;
  auto s = sdmbox::testing::make_scenario(sp);

  // Deny everything to port 23 plus one of the generated chains' ports.
  policy::PolicyList policies;
  TrafficDescriptor telnet;
  telnet.dst_port = PortRange::exactly(23);
  policies.add_deny(telnet, "no-telnet");
  TrafficDescriptor web;
  web.dst_port = PortRange::exactly(80);
  policies.add(web, {kFirewall}, "web");

  core::Controller controller(s.network, s.deployment, policies);
  const auto plan = controller.compile(core::StrategyKind::kHotPotato);

  std::vector<workload::FlowRecord> flows;
  for (int i = 0; i < 20; ++i) {
    workload::FlowRecord f;
    f.src_subnet = 0;
    f.dst_subnet = 1;
    f.id.src = net::IpAddress(s.network.subnets[0].base().value() + 10 +
                              static_cast<std::uint32_t>(i));
    f.id.dst = net::IpAddress(s.network.subnets[1].base().value() + 10);
    f.id.src_port = static_cast<std::uint16_t>(50000 + i);
    f.id.dst_port = i % 2 == 0 ? 23 : 80;
    f.packets = 3;
    flows.push_back(f);
  }

  const auto report = analytic::evaluate_loads(s.network, s.deployment, policies, plan, flows);
  EXPECT_EQ(report.denied_packets, 30u);   // 10 telnet flows x 3 packets
  EXPECT_EQ(report.matched_packets, 30u);  // 10 web flows x 3 packets

  const auto routing = net::RoutingTables::compute(s.network.topo);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  sim::SimNetwork simnet(s.network.topo, routing, resolver);
  const auto agents =
      core::install_agents(simnet, s.network, s.deployment, policies, plan, {});
  for (const auto& f : flows) {
    for (std::uint64_t j = 0; j < f.packets; ++j) {
      packet::Packet p;
      p.inner.src = f.id.src;
      p.inner.dst = f.id.dst;
      p.src_port = f.id.src_port;
      p.dst_port = f.id.dst_port;
      p.payload_bytes = 100;
      simnet.inject(s.network.proxies[0], p, 0.0);
    }
  }
  simnet.run();
  EXPECT_EQ(agents.proxies[0]->counters().denied_packets, 30u);
  EXPECT_EQ(simnet.counters().delivered, 30u);  // only the web packets survive
}

TEST(Deny, AnalysisDistinguishesDenyFromPermit) {
  PolicyList list;
  TrafficDescriptor td;
  td.dst_port = PortRange::exactly(80);
  list.add(td, {}, "permit-web");
  TrafficDescriptor narrow;
  narrow.dst = net::Prefix(net::IpAddress(10, 1, 0, 0), 16);
  narrow.dst_port = PortRange::exactly(80);
  list.add_deny(narrow, "deny-web-to-subnet");
  const auto report = analyze_policies(list);
  // Shadowed AND acting differently (deny vs permit) -> conflict, not
  // harmless redundancy.
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, IssueKind::kShadowedConflict);
}

// ---------------------------------------------------------------------------
// Classifier equivalence
// ---------------------------------------------------------------------------

class ThreeEngineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreeEngineEquivalence, AllClassifiersAgreeOnRandomRuleSets) {
  util::Rng rng(GetParam() + 1000);
  PolicyList list;
  const std::size_t n_rules = 1 + rng.next_below(80);
  for (std::size_t i = 0; i < n_rules; ++i) {
    TrafficDescriptor td;
    if (!rng.next_bool(0.25)) {
      td.src = net::Prefix(net::IpAddress(static_cast<std::uint32_t>(rng.next_u64())),
                           static_cast<std::uint8_t>(8 * (1 + rng.next_below(4))));
    }
    if (!rng.next_bool(0.25)) {
      td.dst = net::Prefix(net::IpAddress(static_cast<std::uint32_t>(rng.next_u64())),
                           static_cast<std::uint8_t>(8 * (1 + rng.next_below(4))));
    }
    if (rng.next_bool(0.6)) {
      td.dst_port = PortRange::exactly(static_cast<std::uint16_t>(rng.next_below(2000)));
    }
    if (rng.next_bool(0.2)) td.protocol = packet::kProtoTcp;
    list.add(td, {kFirewall});
  }
  const auto trie = make_trie_classifier(list);
  for (int i = 0; i < 3000; ++i) {
    packet::FlowId f;
    if (i % 2 == 0) {
      const Policy& p = list.all()[rng.pick_index(list.all().size())];
      f.src = net::IpAddress(p.descriptor.src.base().value() +
                             static_cast<std::uint32_t>(rng.next_below(64)));
      f.dst = net::IpAddress(p.descriptor.dst.base().value() +
                             static_cast<std::uint32_t>(rng.next_below(64)));
      f.dst_port = p.descriptor.dst_port.lo;
    } else {
      f.src = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
      f.dst = net::IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
      f.dst_port = static_cast<std::uint16_t>(rng.next_below(65536));
    }
    f.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
    f.protocol = rng.next_bool(0.5) ? packet::kProtoTcp : packet::kProtoUdp;
    const Policy* expected = list.first_match(f);
    ASSERT_EQ(trie->first_match(f), expected) << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ThreeEngineEquivalence, ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace sdmbox::policy
