#include <gtest/gtest.h>

#include <memory>

#include "policy/classifier.hpp"
#include "policy/function.hpp"
#include "policy/policy.hpp"
#include "util/rng.hpp"

namespace sdmbox::policy {
namespace {

using net::IpAddress;
using net::Prefix;
using packet::FlowId;

FlowId flow(IpAddress src, IpAddress dst, std::uint16_t sport, std::uint16_t dport,
            std::uint8_t proto = packet::kProtoTcp) {
  return FlowId{src, dst, sport, dport, proto};
}

// ---------------------------------------------------------------------------
// FunctionCatalog / FunctionSet
// ---------------------------------------------------------------------------

TEST(FunctionCatalog, StandardRegistersPaperFunctions) {
  const auto c = FunctionCatalog::standard();
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.name(kFirewall), "FW");
  EXPECT_EQ(c.name(kIntrusionDetection), "IDS");
  EXPECT_EQ(c.name(kWebProxy), "WP");
  EXPECT_EQ(c.name(kTrafficMeasure), "TM");
}

TEST(FunctionCatalog, FindByName) {
  const auto c = FunctionCatalog::standard();
  EXPECT_EQ(c.find("IDS"), kIntrusionDetection);
  EXPECT_FALSE(c.find("NAT").valid());
}

TEST(FunctionCatalog, RegisterExtends) {
  auto c = FunctionCatalog::standard();
  const FunctionId nat = c.register_function("NAT");
  EXPECT_TRUE(nat.valid());
  EXPECT_EQ(c.name(nat), "NAT");
  EXPECT_EQ(c.size(), 5u);
}

TEST(FunctionCatalog, DuplicateNameRejected) {
  auto c = FunctionCatalog::standard();
  EXPECT_THROW(c.register_function("FW"), ContractViolation);
}

TEST(FunctionSet, InsertEraseContains) {
  FunctionSet s;
  EXPECT_TRUE(s.empty());
  s.insert(kFirewall);
  s.insert(kWebProxy);
  EXPECT_TRUE(s.contains(kFirewall));
  EXPECT_FALSE(s.contains(kIntrusionDetection));
  EXPECT_EQ(s.size(), 2u);
  s.erase(kFirewall);
  EXPECT_FALSE(s.contains(kFirewall));
}

TEST(FunctionSet, MinusComputesPiX) {
  const auto c = FunctionCatalog::standard();
  const FunctionSet pi = FunctionSet::universe(c);
  const FunctionSet own = FunctionSet::of({kFirewall});
  const FunctionSet pi_x = pi.minus(own);
  EXPECT_FALSE(pi_x.contains(kFirewall));
  EXPECT_TRUE(pi_x.contains(kIntrusionDetection));
  EXPECT_EQ(pi_x.size(), 3u);
}

TEST(FunctionSet, ToVectorIsSorted) {
  const FunctionSet s = FunctionSet::of({kTrafficMeasure, kFirewall});
  const auto v = s.to_vector();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], kFirewall);
  EXPECT_EQ(v[1], kTrafficMeasure);
}

TEST(FunctionSet, InvalidIdRejected) {
  FunctionSet s;
  EXPECT_THROW(s.insert(FunctionId{}), ContractViolation);
}

// ---------------------------------------------------------------------------
// PortRange / TrafficDescriptor
// ---------------------------------------------------------------------------

TEST(PortRange, WildcardAndExact) {
  EXPECT_TRUE(PortRange::wildcard().contains(0));
  EXPECT_TRUE(PortRange::wildcard().contains(65535));
  EXPECT_TRUE(PortRange::wildcard().is_wildcard());
  const PortRange p = PortRange::exactly(80);
  EXPECT_TRUE(p.contains(80));
  EXPECT_FALSE(p.contains(81));
}

TEST(PortRange, Overlap) {
  EXPECT_TRUE((PortRange{10, 20}.overlaps(PortRange{20, 30})));
  EXPECT_FALSE((PortRange{10, 20}.overlaps(PortRange{21, 30})));
}

TEST(Descriptor, AllWildcardMatchesEverything) {
  const TrafficDescriptor td;
  EXPECT_TRUE(td.matches(flow(IpAddress(1, 2, 3, 4), IpAddress(5, 6, 7, 8), 1, 2)));
}

TEST(Descriptor, TableOneExample) {
  // Paper Table I row 3: * -> subnet a, dst port 80, FW+IDS.
  TrafficDescriptor td;
  td.dst = Prefix(IpAddress(128, 40, 0, 0), 16);
  td.dst_port = PortRange::exactly(80);
  EXPECT_TRUE(td.matches(flow(IpAddress(8, 8, 8, 8), IpAddress(128, 40, 1, 1), 5555, 80)));
  EXPECT_FALSE(td.matches(flow(IpAddress(8, 8, 8, 8), IpAddress(128, 41, 1, 1), 5555, 80)));
  EXPECT_FALSE(td.matches(flow(IpAddress(8, 8, 8, 8), IpAddress(128, 40, 1, 1), 5555, 443)));
}

TEST(Descriptor, ProtocolField) {
  TrafficDescriptor td;
  td.protocol = packet::kProtoUdp;
  EXPECT_TRUE(td.matches(flow(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), 1, 2,
                              packet::kProtoUdp)));
  EXPECT_FALSE(td.matches(flow(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), 1, 2,
                               packet::kProtoTcp)));
}

TEST(Descriptor, OverlapDetection) {
  TrafficDescriptor a;
  a.src = Prefix(IpAddress(10, 1, 0, 0), 16);
  TrafficDescriptor b;
  b.src = Prefix(IpAddress(10, 1, 128, 0), 17);
  TrafficDescriptor c;
  c.src = Prefix(IpAddress(10, 2, 0, 0), 16);
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  TrafficDescriptor d;  // wildcard
  EXPECT_TRUE(a.overlaps(d));
}

TEST(Descriptor, PortOverlapRequired) {
  TrafficDescriptor a, b;
  a.dst_port = PortRange::exactly(80);
  b.dst_port = PortRange::exactly(443);
  EXPECT_FALSE(a.overlaps(b));
}

// ---------------------------------------------------------------------------
// PolicyList first-match
// ---------------------------------------------------------------------------

class PolicyListTest : public ::testing::Test {
protected:
  void SetUp() override {
    // Mirrors the structure of the paper's Table I.
    TrafficDescriptor internal;
    internal.src = subnet_a;
    internal.dst = subnet_a;
    internal.dst_port = PortRange::exactly(80);
    permit_id = list.add(internal, {}, "internal-web-permit");

    TrafficDescriptor inbound;
    inbound.dst = subnet_a;
    inbound.dst_port = PortRange::exactly(80);
    inbound_id = list.add(inbound, {kFirewall, kIntrusionDetection}, "inbound-web");

    TrafficDescriptor outbound;
    outbound.src = subnet_a;
    outbound.dst_port = PortRange::exactly(80);
    outbound_id =
        list.add(outbound, {kFirewall, kIntrusionDetection, kWebProxy}, "outbound-web");
  }

  const Prefix subnet_a = Prefix(IpAddress(128, 40, 0, 0), 16);
  PolicyList list;
  PolicyId permit_id, inbound_id, outbound_id;
};

TEST_F(PolicyListTest, FirstMatchWins) {
  // Internal web traffic matches both the permit rule and the inbound rule;
  // the permit rule is first.
  const auto f = flow(IpAddress(128, 40, 1, 1), IpAddress(128, 40, 2, 2), 5555, 80);
  const Policy* p = list.first_match(f);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id, permit_id);
  EXPECT_TRUE(p->is_permit());
}

TEST_F(PolicyListTest, ExternalInboundGetsChain) {
  const auto f = flow(IpAddress(9, 9, 9, 9), IpAddress(128, 40, 2, 2), 5555, 80);
  const Policy* p = list.first_match(f);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id, inbound_id);
  EXPECT_EQ(p->actions, (ActionList{kFirewall, kIntrusionDetection}));
}

TEST_F(PolicyListTest, NoMatchReturnsNull) {
  const auto f = flow(IpAddress(9, 9, 9, 9), IpAddress(8, 8, 8, 8), 5555, 22);
  EXPECT_EQ(list.first_match(f), nullptr);
}

TEST_F(PolicyListTest, ActionIndexAndNextAfter) {
  const Policy& p = list.at(outbound_id);
  EXPECT_EQ(p.action_index(kIntrusionDetection), 1);
  EXPECT_EQ(p.action_index(kTrafficMeasure), -1);
  EXPECT_EQ(p.next_after(0), kIntrusionDetection);
  EXPECT_EQ(p.next_after(2), FunctionId{});
}

TEST_F(PolicyListTest, SubsetPointersPreserveIdsAndOrder) {
  const auto view = list.subset_pointers({outbound_id, permit_id});
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0]->id, permit_id);  // sorted by id
  EXPECT_EQ(view[1]->id, outbound_id);
}

TEST_F(PolicyListTest, FirstMatchInViewHonorsSubset) {
  // Without the permit rule, internal web traffic falls to the inbound rule.
  const auto view = list.subset_pointers({inbound_id, outbound_id});
  const auto f = flow(IpAddress(128, 40, 1, 1), IpAddress(128, 40, 2, 2), 5555, 80);
  const Policy* p = first_match_in(view, f);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id, inbound_id);
}

// ---------------------------------------------------------------------------
// The trie classifier against the linear scan PolicyList::first_match
// ---------------------------------------------------------------------------

TEST_F(PolicyListTest, TrieAgreesOnTableOneTraffic) {
  const auto trie = make_trie_classifier(list);
  const FlowId flows[] = {
      flow(IpAddress(128, 40, 1, 1), IpAddress(128, 40, 2, 2), 5555, 80),
      flow(IpAddress(9, 9, 9, 9), IpAddress(128, 40, 2, 2), 5555, 80),
      flow(IpAddress(128, 40, 1, 1), IpAddress(9, 9, 9, 9), 5555, 80),
      flow(IpAddress(9, 9, 9, 9), IpAddress(8, 8, 8, 8), 5555, 22),
  };
  for (const FlowId& f : flows) {
    EXPECT_EQ(list.first_match(f), trie->first_match(f)) << f.to_string();
  }
}

TEST(TrieClassifier, EmptyListMatchesNothing) {
  PolicyList empty;
  const auto trie = make_trie_classifier(empty);
  EXPECT_EQ(trie->first_match(flow(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), 1, 2)), nullptr);
}

TEST(TrieClassifier, LongestAndShortestPrefixesCoexist) {
  PolicyList list;
  TrafficDescriptor wide;
  wide.src = Prefix(IpAddress(10, 0, 0, 0), 8);
  const PolicyId wide_id = list.add(wide, {kFirewall}, "wide");
  TrafficDescriptor host;
  host.src = Prefix::host(IpAddress(10, 1, 1, 1));
  list.add(host, {kWebProxy}, "host");  // later: loses to wide on first match
  const auto trie = make_trie_classifier(list);
  const Policy* p = trie->first_match(flow(IpAddress(10, 1, 1, 1), IpAddress(2, 2, 2, 2), 1, 2));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id, wide_id);
}

TEST(TrieClassifier, HostPrefixWinsWhenFirst) {
  PolicyList list;
  TrafficDescriptor host;
  host.src = Prefix::host(IpAddress(10, 1, 1, 1));
  const PolicyId host_id = list.add(host, {kWebProxy}, "host");
  TrafficDescriptor wide;
  wide.src = Prefix(IpAddress(10, 0, 0, 0), 8);
  list.add(wide, {kFirewall}, "wide");
  const auto trie = make_trie_classifier(list);
  const Policy* p = trie->first_match(flow(IpAddress(10, 1, 1, 1), IpAddress(2, 2, 2, 2), 1, 2));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->id, host_id);
}

/// Property sweep: random rule sets, random flows — the trie must agree with
/// the linear scan (PolicyList::first_match) exactly.
class ClassifierEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierEquivalence, TrieMatchesLinearOnRandomRuleSets) {
  util::Rng rng(GetParam());
  PolicyList list;
  const auto random_prefix = [&]() {
    if (rng.next_bool(0.25)) return Prefix::wildcard();
    const auto len = static_cast<std::uint8_t>(8 + rng.next_below(25));  // 8..32
    return Prefix(IpAddress(static_cast<std::uint32_t>(rng.next_u64())), len);
  };
  const auto random_ports = [&]() {
    if (rng.next_bool(0.5)) return PortRange::wildcard();
    const auto lo = static_cast<std::uint16_t>(rng.next_below(65000));
    const auto hi = static_cast<std::uint16_t>(lo + rng.next_below(500));
    return PortRange{lo, hi};
  };
  const std::size_t n_rules = 1 + rng.next_below(60);
  for (std::size_t i = 0; i < n_rules; ++i) {
    TrafficDescriptor td;
    td.src = random_prefix();
    td.dst = random_prefix();
    td.src_port = random_ports();
    td.dst_port = random_ports();
    if (rng.next_bool(0.3)) td.protocol = rng.next_bool(0.5) ? packet::kProtoTcp : packet::kProtoUdp;
    list.add(td, rng.next_bool(0.2) ? ActionList{} : ActionList{kFirewall});
  }
  const auto trie = make_trie_classifier(list);
  for (int i = 0; i < 2000; ++i) {
    FlowId f;
    // Half the flows are biased toward rule prefixes so matches actually occur.
    if (i % 2 == 0 && !list.all().empty()) {
      const Policy& p = list.all()[rng.pick_index(list.all().size())];
      f.src = IpAddress(p.descriptor.src.base().value() +
                        static_cast<std::uint32_t>(rng.next_below(256)));
      f.dst = IpAddress(p.descriptor.dst.base().value() +
                        static_cast<std::uint32_t>(rng.next_below(256)));
      f.src_port = p.descriptor.src_port.lo;
      f.dst_port = p.descriptor.dst_port.lo;
    } else {
      f.src = IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
      f.dst = IpAddress(static_cast<std::uint32_t>(rng.next_u64()));
      f.src_port = static_cast<std::uint16_t>(rng.next_below(65536));
      f.dst_port = static_cast<std::uint16_t>(rng.next_below(65536));
    }
    f.protocol = rng.next_bool(0.5) ? packet::kProtoTcp : packet::kProtoUdp;
    ASSERT_EQ(list.first_match(f), trie->first_match(f))
        << "seed=" << GetParam() << " flow=" << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomRuleSets, ClassifierEquivalence,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace sdmbox::policy
