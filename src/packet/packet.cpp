#include "packet/packet.hpp"

#include "util/check.hpp"

namespace sdmbox::packet {

std::uint64_t FlowId::hash(std::uint64_t seed) const noexcept {
  std::uint64_t h = util::mix64(seed ^ 0x5dee7c0ffee5ULL);
  h = util::hash_combine(h, src.value());
  h = util::hash_combine(h, dst.value());
  h = util::hash_combine(h, (std::uint64_t{src_port} << 32) | std::uint64_t{dst_port});
  h = util::hash_combine(h, protocol);
  return h;
}

std::string FlowId::to_string() const {
  return src.to_string() + ":" + std::to_string(src_port) + "->" + dst.to_string() + ":" +
         std::to_string(dst_port) + "/" + std::to_string(protocol);
}

void set_label(Ipv4Header& h, std::uint16_t label) noexcept {
  h.tos = static_cast<std::uint8_t>(label >> 8);
  h.frag_offset = static_cast<std::uint16_t>((h.frag_offset & 0x1f00u) | (label & 0xffu));
}

std::uint16_t get_label(const Ipv4Header& h) noexcept {
  return static_cast<std::uint16_t>((std::uint16_t{h.tos} << 8) | (h.frag_offset & 0xffu));
}

void clear_label(Ipv4Header& h) noexcept {
  h.tos = 0;
  h.frag_offset = static_cast<std::uint16_t>(h.frag_offset & 0x1f00u);
}

bool has_label(const Ipv4Header& h) noexcept { return get_label(h) != 0; }

void Packet::encapsulate(net::IpAddress tunnel_src, net::IpAddress tunnel_dst) {
  SDM_CHECK_MSG(!tunneled, "IP-over-IP tunnels do not nest in this design");
  tunneled = true;
  outer_src = tunnel_src;
  outer_dst = tunnel_dst;
  outer_ttl = 64;
}

Ipv4Header Packet::decapsulate() {
  SDM_CHECK_MSG(tunneled, "decapsulate on a packet without an outer header");
  const Ipv4Header o = routing_header();
  tunneled = false;
  return o;
}

std::uint32_t fragments_needed(std::uint32_t wire_bytes, std::uint32_t mtu) noexcept {
  if (wire_bytes <= mtu) return 1;
  if (mtu <= kIpv4HeaderBytes + 8) return 0;  // unfragmentable: no room for payload
  // Each fragment carries a fresh IP header; payload per fragment is rounded
  // down to a multiple of 8 bytes (IPv4 fragment offsets are in 8-byte units).
  const std::uint32_t payload = wire_bytes - kIpv4HeaderBytes;
  const std::uint32_t per_frag = ((mtu - kIpv4HeaderBytes) / 8) * 8;
  return (payload + per_frag - 1) / per_frag;
}

}  // namespace sdmbox::packet
