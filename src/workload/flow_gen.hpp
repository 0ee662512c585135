// Flow synthesis (§IV.A).
//
// Flows are assigned one third to each of the three policy classes; sizes
// follow a bounded discrete power law in [1, 5000] packets. With
// alpha = 1.6 the mean flow size is ~33 packets, so the paper's 30k-300k
// flow range spans its stated 1M-10M packet range. Every generated flow's
// 5-tuple is constructed to first-match exactly its intended policy;
// optional background flows match no policy at all (they exercise the
// negative cache of §III.D).
#pragma once

#include <cstdint>
#include <vector>

#include "net/topologies.hpp"
#include "packet/packet.hpp"
#include "util/rng.hpp"
#include "workload/policy_gen.hpp"

namespace sdmbox::workload {

struct FlowRecord {
  packet::FlowId id;
  std::uint64_t packets = 0;
  int src_subnet = -1;  // index into GeneratedNetwork::subnets
  int dst_subnet = -1;
  /// The policy this flow was generated to match; invalid for background
  /// flows. Tests assert first_match agrees with this.
  policy::PolicyId intended;
};

/// Flow sizes: a bounded discrete power law over [kMinFlowPackets,
/// kMaxFlowPackets] packets with exponent kFlowSizeAlpha.
inline constexpr std::uint64_t kMinFlowPackets = 1;
inline constexpr std::uint64_t kMaxFlowPackets = 5000;
inline constexpr double kFlowSizeAlpha = 1.6;

/// Every flow runs between two distinct stub subnets, so flow generation
/// needs at least this many.
inline constexpr std::size_t kMinFlowSubnets = 2;

struct FlowGenParams {
  /// Generate flows until their packet total reaches this.
  std::uint64_t target_total_packets = 1'000'000;
  /// Fraction of additional flows (by count) matching no policy.
  double background_flow_fraction = 0.0;
  /// Relative flow-count weights of the three classes {many-to-one,
  /// one-to-many, one-to-one}; the paper's even thirds by default. Drifting
  /// these across measurement epochs models workload change for the
  /// re-optimization study.
  double class_weights[3] = {1.0, 1.0, 1.0};
  /// Generate the RETURN flow for every one-to-many web flow (response from
  /// the server back to the client, source port 80). Requires the policy
  /// set to have been generated with web_return_companions = true, so the
  /// return flows match the companion policies (reversed chain, §IV.A).
  bool web_return_traffic = false;
  /// Response bytes dwarf request bytes on the web; the paper doesn't model
  /// asymmetry, so the default keeps request/response packet counts equal.
  double web_return_scale = 1.0;
};

struct GeneratedFlows {
  std::vector<FlowRecord> flows;
  std::uint64_t total_packets = 0;         // policy-matching packets
  std::uint64_t background_packets = 0;
};

/// The flow generator, one record at a time. Flows are drawn until their
/// policy packets reach the target — each one-to-many web flow followed by
/// its return companion when requested — and then the background tail.
/// The companion is derived from its forward flow without further draws, so
/// it is held back in a one-slot buffer: peak residency is O(1) regardless
/// of how many flows the stream emits, which is what lets ISP-scale worlds
/// (examples/waxman_scale) measure traffic without a resident flow list.
class FlowStream {
public:
  /// Upper bound on FlowRecords the stream ever holds at once (the record
  /// being emitted + one buffered web-return companion). The residency test
  /// pins this: streaming never becomes O(total flows).
  static constexpr std::size_t kMaxResident = 2;

  /// `network`, `policies` and `rng` must outlive the stream.
  FlowStream(const net::GeneratedNetwork& network, const GeneratedPolicies& policies,
             const FlowGenParams& params, util::Rng& rng);

  /// Produce the next flow; false when the stream is exhausted.
  bool next(FlowRecord& out);

  std::uint64_t emitted() const noexcept { return emitted_; }
  std::uint64_t total_packets() const noexcept { return total_packets_; }
  std::uint64_t background_packets() const noexcept { return background_packets_; }
  /// High-water mark of resident FlowRecords (<= kMaxResident by design).
  std::size_t peak_resident() const noexcept { return peak_resident_; }

private:
  FlowRecord make_main_flow();
  FlowRecord make_background_flow();

  const net::GeneratedNetwork& network_;
  const GeneratedPolicies& policies_;
  FlowGenParams params_;
  util::Rng& rng_;

  std::vector<const PolicyClassInfo*> pools_[3];
  double weight_total_ = 0;

  enum class Phase : std::uint8_t { kMain, kBackground, kDone };
  Phase phase_ = Phase::kMain;
  FlowRecord pending_;  // web-return companion awaiting emission
  bool has_pending_ = false;
  std::uint64_t emitted_ = 0;
  std::uint64_t main_flow_count_ = 0;  // flows (companions included) before background
  std::uint64_t background_target_ = 0;
  std::uint64_t background_emitted_ = 0;
  std::uint64_t total_packets_ = 0;
  std::uint64_t background_packets_ = 0;
  std::size_t peak_resident_ = 0;
};

/// Drain a FlowStream into a resident flow list.
GeneratedFlows generate_flows(const net::GeneratedNetwork& network,
                              const GeneratedPolicies& policies, const FlowGenParams& params,
                              util::Rng& rng);

}  // namespace sdmbox::workload
