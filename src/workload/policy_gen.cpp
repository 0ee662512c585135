#include "workload/policy_gen.hpp"

#include <algorithm>

namespace sdmbox::workload {

using policy::FunctionId;

GeneratedPolicies generate_policies(const net::GeneratedNetwork& network,
                                    const PolicyGenParams& params, util::Rng& rng) {
  SDM_CHECK(!network.subnets.empty());
  GeneratedPolicies out;
  const std::size_t subnet_count = network.subnets.size();

  // Service ports are unique per policy (counting up from 1000) so the three
  // classes never overlap: a flow generated for one policy matches exactly
  // that policy. Web policies share port 80 but are disjoint by source subnet.
  std::uint16_t next_service_port = 1000;

  // (1) many-to-one: protect a service at a random destination subnet from
  // all sources. Action list FW -> IDS -> WP (§IV.A packet assignment).
  for (std::size_t i = 0; i < params.many_to_one; ++i) {
    const std::size_t dst = rng.pick_index(subnet_count);
    policy::TrafficDescriptor td;
    td.dst = network.subnets[dst];
    td.dst_port = policy::PortRange::exactly(next_service_port++);
    const policy::PolicyId id = out.policies.add(
        td, {policy::kFirewall, policy::kIntrusionDetection, policy::kWebProxy},
        "mto" + std::to_string(i));
    out.classes.push_back(PolicyClassInfo{id, PolicyClass::kManyToOne, -1,
                                          static_cast<int>(dst)});
  }

  // (2) one-to-many: http from a random source subnet to anywhere.
  // Action list FW -> IDS. Source subnets are drawn without replacement:
  // two web policies on the same subnet would be first-match duplicates and
  // distort the intended class proportions.
  SDM_CHECK_MSG(params.one_to_many <= subnet_count,
                "more one-to-many policies than subnets");
  const std::vector<std::size_t> otm_subnets =
      rng.sample_without_replacement(subnet_count, params.one_to_many);
  for (std::size_t i = 0; i < params.one_to_many; ++i) {
    const std::size_t src = otm_subnets[i];
    policy::TrafficDescriptor td;
    td.src = network.subnets[src];
    td.dst_port = policy::PortRange::exactly(80);
    const policy::PolicyId id =
        out.policies.add(td, {policy::kFirewall, policy::kIntrusionDetection},
                         "otm" + std::to_string(i));
    out.classes.push_back(PolicyClassInfo{id, PolicyClass::kOneToMany,
                                          static_cast<int>(src), -1});
    if (params.web_return_companions) {
      // Companion many-to-one policy for the return web traffic (§IV.A):
      // reversed chain, matching src port 80 toward the client subnet.
      policy::TrafficDescriptor back;
      back.dst = network.subnets[src];
      back.src_port = policy::PortRange::exactly(80);
      const policy::PolicyId cid =
          out.policies.add(back, {policy::kIntrusionDetection, policy::kFirewall},
                           "otm" + std::to_string(i) + "-return");
      out.classes.push_back(PolicyClassInfo{cid, PolicyClass::kWebReturn, -1,
                                            static_cast<int>(src)});
    }
  }

  // (3) one-to-one: investigate traffic between a random pair of subnets.
  // Action list IDS -> TM.
  for (std::size_t i = 0; i < params.one_to_one; ++i) {
    const std::size_t src = rng.pick_index(subnet_count);
    std::size_t dst = rng.pick_index(subnet_count);
    while (dst == src && subnet_count > 1) dst = rng.pick_index(subnet_count);
    policy::TrafficDescriptor td;
    td.src = network.subnets[src];
    td.dst = network.subnets[dst];
    td.dst_port = policy::PortRange::exactly(next_service_port++);
    const policy::PolicyId id = out.policies.add(
        td, {policy::kIntrusionDetection, policy::kTrafficMeasure}, "oto" + std::to_string(i));
    out.classes.push_back(PolicyClassInfo{id, PolicyClass::kOneToOne,
                                          static_cast<int>(src), static_cast<int>(dst)});
  }
  return out;
}

std::vector<const PolicyClassInfo*> GeneratedPolicies::of_class(PolicyClass c) const {
  std::vector<const PolicyClassInfo*> out;
  for (const PolicyClassInfo& info : classes) {
    if (info.cls == c) out.push_back(&info);
  }
  return out;
}

}  // namespace sdmbox::workload
