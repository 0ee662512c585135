// Generation of the paper's three policy classes (§IV.A).
//
//  * many-to-one — protect a service at one destination subnet from all
//    sources; action list FW -> IDS -> WP.
//  * one-to-many — http from one source subnet to anywhere; FW -> IDS
//    (optionally with the companion return-traffic policy the paper
//    describes, chain reversed).
//  * one-to-one  — traffic between a chosen pair of subnets; IDS -> TM.
//
// Note: §IV.A's prose and its final traffic-assignment sentence disagree on
// which of the first two classes carries WP; we follow the traffic
// assignment actually simulated ("one third to the many-to-one policy class
// (with the action list being FW -> IDS -> WP)"). Policies get pairwise
// disjoint descriptors (unique service ports; web policies disjoint by
// subnet) so intended class proportions survive first-match semantics.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topologies.hpp"
#include "policy/policy.hpp"
#include "util/rng.hpp"

namespace sdmbox::workload {

enum class PolicyClass : std::uint8_t {
  kManyToOne,
  kOneToMany,
  kOneToOne,
  kWebReturn,  // companion of a one-to-many policy
};

struct PolicyClassInfo {
  policy::PolicyId id;
  PolicyClass cls;
  /// Fixed source subnet index, or -1 for wildcard.
  int src_subnet = -1;
  /// Fixed destination subnet index, or -1 for wildcard.
  int dst_subnet = -1;
};

struct GeneratedPolicies {
  policy::PolicyList policies;
  std::vector<PolicyClassInfo> classes;  // parallel to policies (list order)

  std::vector<const PolicyClassInfo*> of_class(PolicyClass c) const;
};

struct PolicyGenParams {
  std::size_t many_to_one = 4;
  std::size_t one_to_many = 4;
  std::size_t one_to_one = 4;
  bool web_return_companions = false;
};

GeneratedPolicies generate_policies(const net::GeneratedNetwork& network,
                                    const PolicyGenParams& params, util::Rng& rng);

}  // namespace sdmbox::workload
