#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "net/topologies.hpp"
#include "workload/flow_gen.hpp"
#include "workload/policy_gen.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::workload {
namespace {

class WorkloadTest : public ::testing::Test {
protected:
  WorkloadTest() : network(net::make_campus_topology()), rng(42) {
    PolicyGenParams pp;
    pp.many_to_one = 4;
    pp.one_to_many = 4;
    pp.one_to_one = 4;
    policies = generate_policies(network, pp, rng);
  }

  net::GeneratedNetwork network;
  util::Rng rng;
  GeneratedPolicies policies;
};

// ---------------------------------------------------------------------------
// Policy generation
// ---------------------------------------------------------------------------

TEST_F(WorkloadTest, GeneratesRequestedCounts) {
  EXPECT_EQ(policies.policies.size(), 12u);
  EXPECT_EQ(policies.of_class(PolicyClass::kManyToOne).size(), 4u);
  EXPECT_EQ(policies.of_class(PolicyClass::kOneToMany).size(), 4u);
  EXPECT_EQ(policies.of_class(PolicyClass::kOneToOne).size(), 4u);
}

TEST_F(WorkloadTest, ClassActionListsMatchPaper) {
  using policy::kFirewall;
  using policy::kIntrusionDetection;
  using policy::kTrafficMeasure;
  using policy::kWebProxy;
  for (const auto* info : policies.of_class(PolicyClass::kManyToOne)) {
    EXPECT_EQ(policies.policies.at(info->id).actions,
              (policy::ActionList{kFirewall, kIntrusionDetection, kWebProxy}));
  }
  for (const auto* info : policies.of_class(PolicyClass::kOneToMany)) {
    EXPECT_EQ(policies.policies.at(info->id).actions,
              (policy::ActionList{kFirewall, kIntrusionDetection}));
  }
  for (const auto* info : policies.of_class(PolicyClass::kOneToOne)) {
    EXPECT_EQ(policies.policies.at(info->id).actions,
              (policy::ActionList{kIntrusionDetection, kTrafficMeasure}));
  }
}

TEST_F(WorkloadTest, DescriptorShapesMatchClasses) {
  for (const auto* info : policies.of_class(PolicyClass::kManyToOne)) {
    const auto& d = policies.policies.at(info->id).descriptor;
    EXPECT_TRUE(d.src.is_wildcard());
    EXPECT_FALSE(d.dst.is_wildcard());
    EXPECT_FALSE(d.dst_port.is_wildcard());
    EXPECT_GE(info->dst_subnet, 0);
  }
  for (const auto* info : policies.of_class(PolicyClass::kOneToMany)) {
    const auto& d = policies.policies.at(info->id).descriptor;
    EXPECT_FALSE(d.src.is_wildcard());
    EXPECT_TRUE(d.dst.is_wildcard());
    EXPECT_EQ(d.dst_port.lo, 80);
    EXPECT_GE(info->src_subnet, 0);
  }
  for (const auto* info : policies.of_class(PolicyClass::kOneToOne)) {
    const auto& d = policies.policies.at(info->id).descriptor;
    EXPECT_FALSE(d.src.is_wildcard());
    EXPECT_FALSE(d.dst.is_wildcard());
  }
}

TEST_F(WorkloadTest, OneToManySubnetsAreDistinct) {
  std::set<int> subnets;
  for (const auto* info : policies.of_class(PolicyClass::kOneToMany)) {
    EXPECT_TRUE(subnets.insert(info->src_subnet).second);
  }
}

TEST_F(WorkloadTest, ReturnCompanionsReverseTheChain) {
  PolicyGenParams pp;
  pp.web_return_companions = true;
  util::Rng r2(7);
  const auto with_return = generate_policies(network, pp, r2);
  const auto companions = with_return.of_class(PolicyClass::kWebReturn);
  EXPECT_EQ(companions.size(), pp.one_to_many);
  for (const auto* info : companions) {
    const auto& p = with_return.policies.at(info->id);
    EXPECT_EQ(p.actions, (policy::ActionList{policy::kIntrusionDetection, policy::kFirewall}));
    EXPECT_EQ(p.descriptor.src_port.lo, 80);
  }
}

TEST_F(WorkloadTest, TooManyWebPoliciesRejected) {
  PolicyGenParams pp;
  pp.one_to_many = network.subnets.size() + 1;
  util::Rng r2(7);
  EXPECT_THROW(generate_policies(network, pp, r2), ContractViolation);
}

// ---------------------------------------------------------------------------
// Flow generation
// ---------------------------------------------------------------------------

TEST_F(WorkloadTest, ReachesTargetPacketVolume) {
  FlowGenParams fp;
  fp.target_total_packets = 100000;
  const auto flows = generate_flows(network, policies, fp, rng);
  EXPECT_GE(flows.total_packets, 100000u);
  EXPECT_LT(flows.total_packets, 100000u + kMaxFlowPackets);
}

TEST_F(WorkloadTest, EveryFlowFirstMatchesItsIntendedPolicy) {
  FlowGenParams fp;
  fp.target_total_packets = 50000;
  const auto flows = generate_flows(network, policies, fp, rng);
  for (const FlowRecord& f : flows.flows) {
    const policy::Policy* p = policies.policies.first_match(f.id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, f.intended);
  }
}

TEST_F(WorkloadTest, FlowSizesWithinBounds) {
  FlowGenParams fp;
  fp.target_total_packets = 50000;
  const auto flows = generate_flows(network, policies, fp, rng);
  for (const FlowRecord& f : flows.flows) {
    EXPECT_GE(f.packets, kMinFlowPackets);
    EXPECT_LE(f.packets, kMaxFlowPackets);
  }
}

TEST_F(WorkloadTest, MeanFlowSizeNearPaperRatio) {
  // The paper pairs 30k-300k flows with 1M-10M packets, i.e. a mean around
  // 33 packets/flow; alpha = 1.6 should land in that neighborhood.
  FlowGenParams fp;
  fp.target_total_packets = 2000000;
  const auto flows = generate_flows(network, policies, fp, rng);
  const double mean =
      static_cast<double>(flows.total_packets) / static_cast<double>(flows.flows.size());
  EXPECT_GT(mean, 15.0);
  EXPECT_LT(mean, 70.0);
}

TEST_F(WorkloadTest, ClassSharesAreRoughlyThirds) {
  FlowGenParams fp;
  fp.target_total_packets = 300000;
  const auto flows = generate_flows(network, policies, fp, rng);
  std::size_t counts[3] = {0, 0, 0};
  for (const FlowRecord& f : flows.flows) {
    for (const auto& info : policies.classes) {
      if (info.id == f.intended) {
        counts[static_cast<int>(info.cls)]++;
        break;
      }
    }
  }
  const double total = static_cast<double>(flows.flows.size());
  for (const std::size_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / total, 1.0 / 3.0, 0.05);
  }
}

TEST_F(WorkloadTest, SrcAndDstSubnetsDiffer) {
  FlowGenParams fp;
  fp.target_total_packets = 30000;
  const auto flows = generate_flows(network, policies, fp, rng);
  for (const FlowRecord& f : flows.flows) {
    EXPECT_NE(f.src_subnet, f.dst_subnet);
    EXPECT_TRUE(network.subnets[static_cast<std::size_t>(f.src_subnet)].contains(f.id.src));
    EXPECT_TRUE(network.subnets[static_cast<std::size_t>(f.dst_subnet)].contains(f.id.dst));
  }
}

TEST_F(WorkloadTest, BackgroundFlowsMatchNothing) {
  FlowGenParams fp;
  fp.target_total_packets = 20000;
  fp.background_flow_fraction = 0.5;
  const auto flows = generate_flows(network, policies, fp, rng);
  std::size_t background = 0;
  for (const FlowRecord& f : flows.flows) {
    if (!f.intended.valid()) {
      ++background;
      EXPECT_EQ(policies.policies.first_match(f.id), nullptr);
    }
  }
  EXPECT_GT(background, 0u);
  EXPECT_GT(flows.background_packets, 0u);
}

TEST_F(WorkloadTest, DeterministicForSameSeed) {
  FlowGenParams fp;
  fp.target_total_packets = 20000;
  util::Rng r1(5), r2(5);
  const auto a = generate_flows(network, policies, fp, r1);
  const auto b = generate_flows(network, policies, fp, r2);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].id, b.flows[i].id);
    EXPECT_EQ(a.flows[i].packets, b.flows[i].packets);
  }
}

// ---------------------------------------------------------------------------
// TrafficMatrix
// ---------------------------------------------------------------------------

TEST_F(WorkloadTest, MatrixTotalsAreConsistent) {
  FlowGenParams fp;
  fp.target_total_packets = 100000;
  const auto flows = generate_flows(network, policies, fp, rng);
  const auto tm = TrafficMatrix::measure(policies.policies, flows.flows);
  EXPECT_DOUBLE_EQ(tm.grand_total(), static_cast<double>(flows.total_packets));
  for (const auto& p : policies.policies.all()) {
    double from_sum = 0, to_sum = 0, pair_sum = 0;
    for (const int s : tm.active_sources(p.id)) from_sum += tm.from(p.id, s);
    for (const int d : tm.active_destinations(p.id)) to_sum += tm.to(p.id, d);
    for (const auto& [s, d] : tm.active_pairs(p.id)) pair_sum += tm.between(p.id, s, d);
    EXPECT_DOUBLE_EQ(from_sum, tm.total(p.id));
    EXPECT_DOUBLE_EQ(to_sum, tm.total(p.id));
    EXPECT_DOUBLE_EQ(pair_sum, tm.total(p.id));
  }
}

TEST_F(WorkloadTest, FixedEndpointsShowUpInMatrix) {
  FlowGenParams fp;
  fp.target_total_packets = 100000;
  const auto flows = generate_flows(network, policies, fp, rng);
  const auto tm = TrafficMatrix::measure(policies.policies, flows.flows);
  for (const auto* info : policies.of_class(PolicyClass::kManyToOne)) {
    const auto dests = tm.active_destinations(info->id);
    if (tm.total(info->id) > 0) {
      ASSERT_EQ(dests.size(), 1u);
      EXPECT_EQ(dests[0], info->dst_subnet);
    }
  }
  for (const auto* info : policies.of_class(PolicyClass::kOneToMany)) {
    const auto sources = tm.active_sources(info->id);
    if (tm.total(info->id) > 0) {
      ASSERT_EQ(sources.size(), 1u);
      EXPECT_EQ(sources[0], info->src_subnet);
    }
  }
}

TEST_F(WorkloadTest, BackgroundTrafficExcludedFromMatrix) {
  FlowGenParams fp;
  fp.target_total_packets = 20000;
  fp.background_flow_fraction = 1.0;
  const auto flows = generate_flows(network, policies, fp, rng);
  const auto tm = TrafficMatrix::measure(policies.policies, flows.flows);
  EXPECT_DOUBLE_EQ(tm.grand_total(), static_cast<double>(flows.total_packets));
}

TEST(TrafficMatrixEdge, EmptyFlows) {
  policy::PolicyList empty;
  const auto tm = TrafficMatrix::measure(empty, {});
  EXPECT_DOUBLE_EQ(tm.grand_total(), 0.0);
}

}  // namespace
}  // namespace sdmbox::workload
