#include <gtest/gtest.h>

#include <set>

#include "packet/packet.hpp"
#include "util/check.hpp"

namespace sdmbox::packet {
namespace {

using net::IpAddress;

FlowId sample_flow() {
  return FlowId{IpAddress(10, 1, 0, 5), IpAddress(10, 2, 0, 9), 49152, 80, kProtoTcp};
}

// ---------------------------------------------------------------------------
// FlowId
// ---------------------------------------------------------------------------

TEST(FlowId, EqualityIsFieldwise) {
  FlowId a = sample_flow();
  FlowId b = sample_flow();
  EXPECT_EQ(a, b);
  b.dst_port = 81;
  EXPECT_NE(a, b);
}

TEST(FlowId, HashIsDeterministic) {
  EXPECT_EQ(sample_flow().hash(), sample_flow().hash());
  EXPECT_EQ(sample_flow().hash(7), sample_flow().hash(7));
}

TEST(FlowId, HashDependsOnEveryField) {
  const FlowId base = sample_flow();
  FlowId m = base;
  std::set<std::uint64_t> hashes{base.hash()};
  m.src = IpAddress(10, 1, 0, 6);
  EXPECT_TRUE(hashes.insert(m.hash()).second);
  m = base;
  m.dst = IpAddress(10, 2, 0, 10);
  EXPECT_TRUE(hashes.insert(m.hash()).second);
  m = base;
  m.src_port = 49153;
  EXPECT_TRUE(hashes.insert(m.hash()).second);
  m = base;
  m.dst_port = 443;
  EXPECT_TRUE(hashes.insert(m.hash()).second);
  m = base;
  m.protocol = kProtoUdp;
  EXPECT_TRUE(hashes.insert(m.hash()).second);
}

TEST(FlowId, SeedDecorrelatesHashes) {
  const FlowId f = sample_flow();
  EXPECT_NE(f.hash(1), f.hash(2));
}

TEST(FlowId, ToStringIsReadable) {
  EXPECT_EQ(sample_flow().to_string(), "10.1.0.5:49152->10.2.0.9:80/6");
}

// ---------------------------------------------------------------------------
// Label embedding (§III.E)
// ---------------------------------------------------------------------------

TEST(Label, RoundTripsThroughHeaderFields) {
  Ipv4Header h;
  set_label(h, 0xabcd);
  EXPECT_EQ(get_label(h), 0xabcd);
  EXPECT_TRUE(has_label(h));
}

TEST(Label, UsesTosAndLowFragBits) {
  Ipv4Header h;
  set_label(h, 0x1234);
  EXPECT_EQ(h.tos, 0x12);
  EXPECT_EQ(h.frag_offset & 0xff, 0x34);
}

TEST(Label, PreservesHighFragBits) {
  Ipv4Header h;
  h.frag_offset = 0x1f00;
  set_label(h, 0xffff);
  EXPECT_EQ(h.frag_offset & 0x1f00, 0x1f00);
  clear_label(h);
  EXPECT_EQ(h.frag_offset, 0x1f00);
  EXPECT_FALSE(has_label(h));
}

TEST(Label, ZeroMeansNoLabel) {
  Ipv4Header h;
  EXPECT_FALSE(has_label(h));
  set_label(h, 1);
  EXPECT_TRUE(has_label(h));
  clear_label(h);
  EXPECT_FALSE(has_label(h));
}

TEST(Label, AllValuesRoundTrip) {
  Ipv4Header h;
  for (std::uint32_t l = 1; l <= 0xffff; l += 257) {
    set_label(h, static_cast<std::uint16_t>(l));
    EXPECT_EQ(get_label(h), l);
  }
}

// ---------------------------------------------------------------------------
// Packet / tunneling
// ---------------------------------------------------------------------------

TEST(Packet, WireBytesWithoutTunnel) {
  Packet p;
  p.payload_bytes = 1000;
  EXPECT_EQ(p.wire_bytes(), 1000u + kIpv4HeaderBytes + kL4HeaderBytes);
}

TEST(Packet, EncapsulateAddsTwentyBytes) {
  Packet p;
  p.payload_bytes = 1000;
  const auto before = p.wire_bytes();
  p.encapsulate(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2));
  EXPECT_EQ(p.wire_bytes(), before + kIpv4HeaderBytes);
}

TEST(Packet, RoutingHeaderFollowsOuter) {
  Packet p;
  p.inner.dst = IpAddress(9, 9, 9, 9);
  EXPECT_EQ(p.routing_header().dst, IpAddress(9, 9, 9, 9));
  p.encapsulate(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2));
  EXPECT_EQ(p.routing_header().dst, IpAddress(2, 2, 2, 2));
  EXPECT_EQ(p.routing_header().protocol, kProtoIpInIp);
}

TEST(Packet, DecapsulateRestoresInnerAndReturnsOuter) {
  Packet p;
  p.inner.dst = IpAddress(9, 9, 9, 9);
  p.encapsulate(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2));
  const Ipv4Header outer = p.decapsulate();
  EXPECT_EQ(outer.src, IpAddress(1, 1, 1, 1));
  EXPECT_EQ(outer.dst, IpAddress(2, 2, 2, 2));
  EXPECT_EQ(outer.protocol, kProtoIpInIp);
  EXPECT_EQ(outer.ttl, 64);
  EXPECT_FALSE(p.tunneled);
  EXPECT_EQ(p.routing_header().dst, IpAddress(9, 9, 9, 9));
}

TEST(Packet, NestedTunnelsRejected) {
  Packet p;
  p.encapsulate(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2));
  EXPECT_THROW(p.encapsulate(IpAddress(3, 3, 3, 3), IpAddress(4, 4, 4, 4)),
               sdmbox::ContractViolation);
}

TEST(Packet, DecapsulateWithoutTunnelRejected) {
  Packet p;
  EXPECT_THROW(p.decapsulate(), sdmbox::ContractViolation);
}

TEST(Packet, FlowIdComesFromInnerHeader) {
  Packet p;
  p.inner.src = IpAddress(10, 0, 0, 1);
  p.inner.dst = IpAddress(10, 0, 0, 2);
  p.src_port = 1234;
  p.dst_port = 80;
  p.encapsulate(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2));
  const FlowId f = p.flow_id();
  EXPECT_EQ(f.src, IpAddress(10, 0, 0, 1));
  EXPECT_EQ(f.dst_port, 80);
}

// ---------------------------------------------------------------------------
// Fragmentation (§III.E motivation)
// ---------------------------------------------------------------------------

TEST(Fragmentation, FitsWithinMtu) {
  EXPECT_EQ(fragments_needed(1500, 1500), 1u);
  EXPECT_EQ(fragments_needed(100, 1500), 1u);
}

TEST(Fragmentation, TunnelOverheadPushesOverMtu) {
  // A full-MTU packet plus the 20-byte IP-over-IP header fragments.
  EXPECT_EQ(fragments_needed(1500 + kIpv4HeaderBytes, 1500), 2u);
}

TEST(Fragmentation, PayloadSplitsOnEightByteUnits) {
  // mtu 116 -> per-fragment payload floor((116-20)/8)*8 = 96.
  // 500-byte wire packet = 480 payload -> 5 fragments.
  EXPECT_EQ(fragments_needed(500, 116), 5u);
}

TEST(Fragmentation, UnfragmentableMtuReturnsZero) {
  EXPECT_EQ(fragments_needed(500, 20), 0u);
  EXPECT_EQ(fragments_needed(500, 28), 0u);
}

TEST(Fragmentation, LargeSweepIsMonotonic) {
  std::uint32_t prev = 1;
  for (std::uint32_t bytes = 100; bytes <= 10000; bytes += 100) {
    const auto frags = fragments_needed(bytes, 1500);
    EXPECT_GE(frags, prev);
    prev = frags;
  }
  EXPECT_EQ(fragments_needed(10000, 1500), 7u);  // 9980/1480 -> 7
}

}  // namespace
}  // namespace sdmbox::packet
