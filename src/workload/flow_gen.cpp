#include "workload/flow_gen.hpp"

#include <algorithm>

namespace sdmbox::workload {

namespace {

/// Random host address inside a stub subnet (skipping the proxy at offset 1).
net::IpAddress random_host(const net::Prefix& subnet, util::Rng& rng) {
  const std::uint32_t span = (1u << (32 - subnet.length())) - 4;
  return net::IpAddress(subnet.base().value() + 2 +
                        static_cast<std::uint32_t>(rng.next_below(span)));
}

std::uint16_t ephemeral_port(util::Rng& rng) {
  return static_cast<std::uint16_t>(49152 + rng.next_below(16384));
}

}  // namespace

FlowStream::FlowStream(const net::GeneratedNetwork& network, const GeneratedPolicies& policies,
                       const FlowGenParams& params, util::Rng& rng)
    : network_(network), policies_(policies), params_(params), rng_(rng) {
  SDM_CHECK(network.subnets.size() >= kMinFlowSubnets);
  pools_[0] = policies.of_class(PolicyClass::kManyToOne);
  pools_[1] = policies.of_class(PolicyClass::kOneToMany);
  pools_[2] = policies.of_class(PolicyClass::kOneToOne);
  SDM_CHECK_MSG(!pools_[0].empty() && !pools_[1].empty() && !pools_[2].empty(),
                "flow generation needs at least one policy of each class");
  weight_total_ = params.class_weights[0] + params.class_weights[1] + params.class_weights[2];
  SDM_CHECK_MSG(weight_total_ > 0 && params.class_weights[0] >= 0 &&
                    params.class_weights[1] >= 0 && params.class_weights[2] >= 0,
                "class weights must be non-negative with a positive sum");
  if (params.target_total_packets == 0) phase_ = Phase::kBackground;
}

FlowRecord FlowStream::make_main_flow() {
  const std::size_t subnet_count = network_.subnets.size();
  // Flows split across the classes by weight (§IV.A uses even thirds).
  double r = rng_.next_double() * weight_total_;
  std::size_t cls = 0;
  while (cls < 2 && r >= params_.class_weights[cls]) {
    r -= params_.class_weights[cls];
    ++cls;
  }
  const auto& pool = pools_[cls];
  const PolicyClassInfo& info = *pool[rng_.pick_index(pool.size())];
  const policy::Policy& pol = policies_.policies.at(info.id);

  FlowRecord f;
  f.intended = info.id;
  // Source subnet: the policy's fixed subnet, else any subnet other than
  // the destination.
  f.dst_subnet = info.dst_subnet >= 0 ? info.dst_subnet
                                      : static_cast<int>(rng_.pick_index(subnet_count));
  if (info.src_subnet >= 0) {
    f.src_subnet = info.src_subnet;
  } else {
    do {
      f.src_subnet = static_cast<int>(rng_.pick_index(subnet_count));
    } while (f.src_subnet == f.dst_subnet && subnet_count > 1);
  }
  if (info.dst_subnet < 0) {
    while (f.dst_subnet == f.src_subnet && subnet_count > 1) {
      f.dst_subnet = static_cast<int>(rng_.pick_index(subnet_count));
    }
  }
  f.id.src = random_host(network_.subnets[static_cast<std::size_t>(f.src_subnet)], rng_);
  f.id.dst = random_host(network_.subnets[static_cast<std::size_t>(f.dst_subnet)], rng_);
  // Ports: land inside the policy's (exact or wildcard) port ranges.
  f.id.dst_port = pol.descriptor.dst_port.is_wildcard() ? ephemeral_port(rng_)
                                                        : pol.descriptor.dst_port.lo;
  f.id.src_port = pol.descriptor.src_port.is_wildcard() ? ephemeral_port(rng_)
                                                        : pol.descriptor.src_port.lo;
  f.id.protocol = packet::kProtoTcp;
  f.packets = rng_.next_power_law(kMinFlowPackets, kMaxFlowPackets, kFlowSizeAlpha);
  total_packets_ += f.packets;
  SDM_DCHECK(policies_.policies.first_match(f.id) == &pol);

  // Web responses: the reversed 5-tuple matches the one-to-many policy's
  // return companion (src port 80 toward the client subnet).
  if (params_.web_return_traffic && info.cls == PolicyClass::kOneToMany) {
    FlowRecord back;
    back.id.src = f.id.dst;
    back.id.dst = f.id.src;
    back.id.src_port = f.id.dst_port;  // 80
    back.id.dst_port = f.id.src_port;
    back.id.protocol = f.id.protocol;
    back.src_subnet = f.dst_subnet;
    back.dst_subnet = f.src_subnet;
    back.packets = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(static_cast<double>(f.packets) *
                                      params_.web_return_scale));
    const policy::Policy* return_pol = policies_.policies.first_match(back.id);
    SDM_CHECK_MSG(return_pol != nullptr,
                  "web_return_traffic needs companion policies "
                  "(PolicyGenParams::web_return_companions)");
    back.intended = return_pol->id;
    total_packets_ += back.packets;
    pending_ = back;
    has_pending_ = true;
  }
  return f;
}

FlowRecord FlowStream::make_background_flow() {
  const std::size_t subnet_count = network_.subnets.size();
  FlowRecord f;
  f.src_subnet = static_cast<int>(rng_.pick_index(subnet_count));
  do {
    f.dst_subnet = static_cast<int>(rng_.pick_index(subnet_count));
  } while (f.dst_subnet == f.src_subnet && subnet_count > 1);
  f.id.src = random_host(network_.subnets[static_cast<std::size_t>(f.src_subnet)], rng_);
  f.id.dst = random_host(network_.subnets[static_cast<std::size_t>(f.dst_subnet)], rng_);
  // Destination ports in [40000, 49152) are touched by no generated policy
  // (services sit below 2048, ephemeral ports at 49152+), so these flows
  // match nothing by construction.
  f.id.dst_port = static_cast<std::uint16_t>(40000 + rng_.next_below(9000));
  f.id.src_port = ephemeral_port(rng_);
  f.id.protocol = packet::kProtoUdp;
  f.packets = rng_.next_power_law(kMinFlowPackets, kMaxFlowPackets, kFlowSizeAlpha);
  background_packets_ += f.packets;
  SDM_DCHECK(policies_.policies.first_match(f.id) == nullptr);
  return f;
}

bool FlowStream::next(FlowRecord& out) {
  if (has_pending_) {
    out = pending_;
    has_pending_ = false;
    ++emitted_;
    ++main_flow_count_;
    return true;
  }
  if (phase_ == Phase::kMain) {
    if (total_packets_ < params_.target_total_packets) {
      out = make_main_flow();
      peak_resident_ = std::max(peak_resident_, has_pending_ ? std::size_t{2} : std::size_t{1});
      ++emitted_;
      ++main_flow_count_;
      return true;
    }
    phase_ = Phase::kBackground;
  }
  if (phase_ == Phase::kBackground) {
    if (background_target_ == 0 && params_.background_flow_fraction > 0) {
      background_target_ = static_cast<std::uint64_t>(
          static_cast<double>(main_flow_count_) * params_.background_flow_fraction);
    }
    if (background_emitted_ < background_target_) {
      out = make_background_flow();
      peak_resident_ = std::max(peak_resident_, std::size_t{1});
      ++background_emitted_;
      ++emitted_;
      return true;
    }
    phase_ = Phase::kDone;
  }
  return false;
}

GeneratedFlows generate_flows(const net::GeneratedNetwork& network,
                              const GeneratedPolicies& policies, const FlowGenParams& params,
                              util::Rng& rng) {
  FlowStream stream(network, policies, params, rng);
  GeneratedFlows out;
  FlowRecord f;
  while (stream.next(f)) out.flows.push_back(f);
  out.total_packets = stream.total_packets();
  out.background_packets = stream.background_packets();
  return out;
}

}  // namespace sdmbox::workload
