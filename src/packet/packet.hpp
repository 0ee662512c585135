// Packet model.
//
// We model exactly the header state the paper's mechanisms manipulate:
//  * an inner IPv4 header (the original packet),
//  * an optional outer IPv4 header added by IP-over-IP tunneling (§III.B) —
//    +20 bytes on the wire, which is what threatens fragmentation. Only its
//    addresses and TTL vary (its protocol is always IP-in-IP, its ToS and
//    fragment offset 0), so a Packet stores just those next to a flag,
//  * a 16-bit label carried in reclaimed header fields (ToS byte + the low
//    8 bits of the fragment offset) used by label switching (§III.E),
//  * the 5-tuple FlowId that keys flow tables and the per-flow hash used for
//    probabilistic next-middlebox selection (§III.C).
//
// A data packet is headers only, so Packet is a trivially copyable 44 bytes.
// What a control packet carries beyond its headers (sequence number, flow,
// serialized payload) is a ControlBody, which the packet names by a 32-bit
// id and the network that carries it owns (sim::SimNetwork).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "net/ip.hpp"
#include "util/hash.hpp"

namespace sdmbox::packet {

inline constexpr std::uint32_t kIpv4HeaderBytes = 20;
inline constexpr std::uint32_t kL4HeaderBytes = 8;  // UDP-sized transport header

inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;
inline constexpr std::uint8_t kProtoIpInIp = 4;  // IP-over-IP (RFC 2003)

/// The flow identifier: 5-element tuple from the packet header (§III.D).
struct FlowId {
  net::IpAddress src;
  net::IpAddress dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = kProtoTcp;

  friend constexpr auto operator<=>(const FlowId&, const FlowId&) noexcept = default;

  /// Deterministic 64-bit hash; `seed` lets independent consumers (flow-table
  /// bucketing vs. next-hop selection) draw uncorrelated values.
  std::uint64_t hash(std::uint64_t seed = 0) const noexcept;

  std::string to_string() const;
};

/// Simplified IPv4 header: the fields the enforcement plane reads or writes.
struct Ipv4Header {
  net::IpAddress src;
  net::IpAddress dst;
  std::uint8_t protocol = kProtoTcp;
  std::uint8_t tos = 0;
  std::uint16_t frag_offset = 0;  // 13-bit field in a real header
  std::uint8_t ttl = 64;
};

/// Embed a 16-bit label into the unused header fields (ToS byte + the low 8
/// bits of the fragment offset), as proposed in §III.E.
void set_label(Ipv4Header& h, std::uint16_t label) noexcept;
std::uint16_t get_label(const Ipv4Header& h) noexcept;
void clear_label(Ipv4Header& h) noexcept;
bool has_label(const Ipv4Header& h) noexcept;

enum class PacketKind : std::uint8_t {
  kData,               // ordinary traffic
  kLabelConfirm,       // control packet from last middlebox back to the proxy (§III.E)
  kConfigPush,         // controller -> device: serialized DeviceConfig (§III.A)
  kConfigAck,          // device -> controller: applied version confirmation
  kMeasurementReport,  // proxy -> controller: serialized traffic volumes (§III.C)
  kHeartbeat,          // liveness probe (controller -> device, or peer -> peer)
  kHeartbeatAck,       // probe reply, echoing the probe's sequence number
  kLabelTeardown,      // middlebox -> proxy: a label-switched chain broke; re-establish
};

/// The body of a control packet: what it carries beyond its headers. A
/// Packet names its body by id (Packet::control); sim::SimNetwork owns the
/// bodies of the packets it carries and releases one when its packet is
/// delivered or dropped.
struct ControlBody {
  /// Control-plane sequence number (kConfigPush/kConfigAck pair it for the
  /// reliable config channel; kHeartbeat/kHeartbeatAck pair probe and reply),
  /// or the label a kLabelConfirm confirms or a kLabelTeardown tears down.
  /// 0 means unsequenced.
  std::uint64_t seq = 0;
  FlowId flow;  // the flow a kLabelConfirm confirms
  /// Serialized control-plane payload (kConfigPush / kMeasurementReport).
  /// Shared so retransmissions reuse it; its size counts as payload on the
  /// wire (set payload_bytes = payload->size()).
  std::shared_ptr<const std::vector<std::uint8_t>> payload;
};

struct Packet {
  Ipv4Header inner;                  // the original packet header
  net::IpAddress outer_src;          // IP-over-IP tunnel header, if `tunneled`
  net::IpAddress outer_dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t payload_bytes = 0;   // transport payload
  std::uint32_t flow_seq = 0;        // packet index within its flow (diagnostics)
  /// Id of this packet's ControlBody in the carrying network, 0 for a data
  /// packet. Modeled as part of the payload on the wire.
  std::uint32_t control = 0;
  PacketKind kind = PacketKind::kData;
  /// Index into the matched policy's action list of the function the NEXT
  /// middlebox should perform; set by the tunneling sender. The analogue of
  /// a service index in NSH-style service chaining — needed once a
  /// middlebox can implement several functions, since the receiver could
  /// otherwise not tell which of its chain appearances is intended.
  std::uint8_t chain_pos = 0;
  std::uint8_t outer_ttl = 0;
  bool tunneled = false;             // an outer header is present

  /// 5-tuple of the original (inner) packet.
  FlowId flow_id() const noexcept {
    return FlowId{inner.src, inner.dst, src_port, dst_port, inner.protocol};
  }

  /// The header the network routes on: outer when tunneled, else inner.
  Ipv4Header routing_header() const noexcept {
    return tunneled ? Ipv4Header{outer_src, outer_dst, kProtoIpInIp, 0, 0, outer_ttl} : inner;
  }

  /// Bytes on the wire: all IP headers + transport header + payload.
  std::uint32_t wire_bytes() const noexcept {
    return kIpv4HeaderBytes * (tunneled ? 2 : 1) + kL4HeaderBytes + payload_bytes;
  }

  /// Add an IP-over-IP outer header (tunnel_src -> tunnel_dst). The packet
  /// must not already be encapsulated — the paper never nests tunnels.
  void encapsulate(net::IpAddress tunnel_src, net::IpAddress tunnel_dst);

  /// Strip the outer header; returns the stripped header.
  Ipv4Header decapsulate();
};
static_assert(std::is_trivially_copyable_v<Packet>);

/// Number of link-layer fragments a packet of `wire_bytes` needs at `mtu`
/// (each fragment repeats the 20-byte IP header; payload split across
/// 8-byte-aligned chunks as IPv4 requires).
std::uint32_t fragments_needed(std::uint32_t wire_bytes, std::uint32_t mtu) noexcept;

}  // namespace sdmbox::packet
