#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <tuple>

#include "core/agents.hpp"
#include "exp/world.hpp"
#include "net/topologies.hpp"
#include "obs/trace.hpp"
#include "scenario.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace sdmbox::sim {
namespace {

using net::IpAddress;
using net::NodeId;

// ---------------------------------------------------------------------------
// Simulator engine
// ---------------------------------------------------------------------------

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.events_processed(), 3u);
}

TEST(Simulator, EqualTimesFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowAdvancesWithEvents) {
  Simulator s;
  double seen = -1;
  s.schedule_at(5.5, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(s.now(), 5.5);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] {
    ++fired;
    s.schedule_in(1.0, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(10.0, [&] { ++fired; });
  s.run(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInThePastRejected) {
  Simulator s;
  s.schedule_at(5.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), ContractViolation);
}

TEST(Simulator, PeriodicRejectsNonPositiveAndNonFinitePeriods) {
  Simulator s;
  EXPECT_THROW(s.schedule_every(0.0, [] {}), ContractViolation);
  EXPECT_THROW(s.schedule_every(-0.5, [] {}), ContractViolation);
  EXPECT_THROW(s.schedule_every(std::numeric_limits<double>::infinity(), [] {}),
               ContractViolation);
  EXPECT_THROW(s.schedule_every(std::numeric_limits<double>::quiet_NaN(), [] {}),
               ContractViolation);
  // The rejected calls must leave no half-scheduled chain behind.
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, ResetClearsState) {
  Simulator s;
  s.schedule_at(1.0, [] {});
  s.reset();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
}

// ---------------------------------------------------------------------------
// Typed calendar: packet events
// ---------------------------------------------------------------------------

// Records each dispatched packet event as (sim time, arrival node).
struct RecordingSink final : PacketSink {
  explicit RecordingSink(Simulator& s) : sim(&s) { s.set_packet_sink(this); }
  void on_packet_event(const PacketEvent& ev) override {
    seen.emplace_back(sim->now(), ev.node.v);
    last = ev;
  }
  Simulator* sim;
  std::vector<std::pair<double, std::uint32_t>> seen;
  PacketEvent last;
};

TEST(Simulator, PacketEventsCarryTheirContext) {
  Simulator s;
  RecordingSink sink(s);
  packet::Packet p;
  p.payload_bytes = 777;
  s.schedule_packet_at(2.0, p, NodeId{4}, NodeId{9}, NodeId{6}, 0.25);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.seen[0].first, 2.0);
  EXPECT_EQ(sink.last.pkt.payload_bytes, 777u);
  EXPECT_EQ(sink.last.node, NodeId{4});
  EXPECT_EQ(sink.last.from, NodeId{9});
  EXPECT_EQ(sink.last.dest_hint, NodeId{6});
  EXPECT_DOUBLE_EQ(sink.last.injected_at, 0.25);
}

TEST(Simulator, PacketEventWithoutSinkRejected) {
  Simulator s;
  EXPECT_THROW(s.schedule_packet_at(1.0, packet::Packet{}, NodeId{1}, NodeId{}, NodeId{}, 0),
               ContractViolation);
}

TEST(Simulator, MixedKindsAtEqualTimeFireInScheduleOrder) {
  Simulator s;
  RecordingSink sink(s);
  std::vector<int> order;
  s.set_packet_sink(&sink);
  // Interleave callbacks and packet events at one timestamp; the sequence
  // tie-break must hold across kinds, not just within one.
  s.schedule_at(1.0, [&] { order.push_back(0); });
  s.schedule_packet_at(1.0, packet::Packet{}, NodeId{1}, NodeId{}, NodeId{}, 0);
  s.schedule_at(1.0, [&] { order.push_back(2); });
  s.schedule_packet_at(1.0, packet::Packet{}, NodeId{3}, NodeId{}, NodeId{}, 0);
  s.run();
  ASSERT_EQ(sink.seen.size(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(sink.seen[0].second, 1u);
  EXPECT_EQ(sink.seen[1].second, 3u);
  EXPECT_EQ(s.events_processed(), 4u);
}

TEST(Simulator, OutOfOrderSchedulesMergeIntoGlobalTimeOrder) {
  // A monotone burst (the fast-path shape) with out-of-order stragglers mixed
  // in: pops must still come out globally sorted by time.
  Simulator s;
  std::vector<double> fired;
  for (int i = 1; i <= 8; ++i) {
    s.schedule_at(static_cast<double>(i), [&fired, i] { fired.push_back(static_cast<double>(i)); });
  }
  s.schedule_at(2.5, [&] { fired.push_back(2.5); });
  s.schedule_at(0.5, [&] { fired.push_back(0.5); });
  s.schedule_at(6.5, [&] { fired.push_back(6.5); });
  s.run();
  EXPECT_EQ(fired, (std::vector<double>{0.5, 1, 2, 2.5, 3, 4, 5, 6, 6.5, 7, 8}));
}

TEST(Simulator, ManyLanesPopInExactTimeSeqOrder) {
  // Packet events on 64 lanes plus callbacks. Most schedules append
  // monotonically to their lane (often at the lane's last time, so
  // equal-time runs form); some land anywhere from now on, which sends
  // them to the overflow heap when they undercut the lane. Handlers keep
  // scheduling, often onto the lane being popped, so lanes drain and
  // refill mid-run. Dispatch must follow (time, schedule order) exactly.
  constexpr std::uint32_t kLanes = 64;
  constexpr std::size_t kEvents = 20000;
  Simulator s;
  util::Rng rng(2019);
  std::vector<double> at;  // at[id]: the time event `id` was scheduled for
  std::vector<double> lane_tail(kLanes + 1, 0.0);
  std::vector<std::uint32_t> fired;
  std::function<void(std::uint32_t)> on_fire;

  struct LaneSink final : PacketSink {
    void on_packet_event(const PacketEvent& ev) override { fire(ev.node.v, ev.from.v); }
    std::function<void(std::uint32_t, std::uint32_t)> fire;
  } sink;
  s.set_packet_sink(&sink);

  // Schedule event number at.size() on `lane`; lane 0 with `callback` set
  // schedules a callback event instead of a packet event.
  const auto schedule = [&](std::uint32_t lane, bool callback) {
    if (at.size() >= kEvents) return;
    const auto id = static_cast<std::uint32_t>(at.size());
    const double base = std::max(s.now(), lane_tail[lane]);
    const double r = rng.next_double();
    double t = base + rng.next_double() * 0.002;  // a monotone append
    if (r < 0.1) {
      t = s.now() + rng.next_double() * 0.05;  // anywhere from now on
    } else if (r < 0.4) {
      t = base;  // an equal-time append
    }
    lane_tail[lane] = std::max(lane_tail[lane], t);
    at.push_back(t);
    if (callback) {
      s.schedule_at(t, [&on_fire, id] { on_fire(id); });
    } else {
      s.schedule_packet_at(t, packet::Packet{}, NodeId{id}, NodeId{lane}, NodeId{}, 0, lane);
    }
  };
  const auto follow_up = [&](std::uint32_t lane) {
    const double r = rng.next_double();
    if (r < 0.45) {
      schedule(lane, false);  // the lane being popped
    } else if (r < 0.85) {
      schedule(static_cast<std::uint32_t>(rng.next_below(kLanes + 1)), false);
    } else if (r < 0.97) {
      schedule(0, true);
    }
  };
  on_fire = [&](std::uint32_t id) {
    fired.push_back(id);
    follow_up(0);
  };
  sink.fire = [&](std::uint32_t id, std::uint32_t lane) {
    fired.push_back(id);
    follow_up(lane);
    if (rng.next_bool(0.05)) follow_up(lane);
  };

  for (int i = 0; i < 2000; ++i) {
    const auto lane = static_cast<std::uint32_t>(rng.next_below(kLanes + 1));
    schedule(lane, lane == 0 && rng.next_bool(0.5));
  }
  s.run();

  ASSERT_EQ(at.size(), kEvents);
  std::vector<std::uint32_t> expected(kEvents);
  std::iota(expected.begin(), expected.end(), 0u);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return at[a] < at[b]; });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.events_processed(), kEvents);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, InjectionsInterleaveInExactTimeSeqOrder) {
  // Injected packets on six stagger-slot lanes (the shape of a policy wave
  // scheduled up front: slot j at wave time + j steps), stored hop packets
  // on six more lanes and callbacks, all on a grid of a few exact times so
  // most events share their time with events of the other kinds. Some
  // injections undercut their lane and go to the overflow heap. Handlers
  // keep scheduling every kind, at the current time and at later grid
  // times. Dispatch must follow (time, schedule order) exactly, and an
  // injection must arrive as the packet event it was scheduled as.
  constexpr std::uint32_t kSlots = 6;
  constexpr std::size_t kEvents = 12000;
  constexpr double kStep = 0.25;  // exact in binary, so equal times stay equal
  Simulator s;
  util::Rng rng(22);
  std::vector<double> at;  // at[id]: the time event `id` was scheduled for
  std::vector<double> slot_tail(kSlots, 0.0);
  std::vector<std::uint32_t> fired;
  std::size_t bad_injections = 0;
  std::function<void()> follow_up;

  struct Sink final : PacketSink {
    void on_packet_event(const PacketEvent& ev) override { fire(ev); }
    std::function<void(const PacketEvent&)> fire;
  } sink;
  s.set_packet_sink(&sink);

  enum Kind { kCallback, kPacket, kInjection };
  const auto schedule = [&](Kind kind, double t, std::uint32_t slot) {
    if (at.size() >= kEvents) return;
    const auto id = static_cast<std::uint32_t>(at.size());
    at.push_back(t);
    if (kind == kCallback) {
      s.schedule_at(t, [&, id] {
        fired.push_back(id);
        follow_up();
      });
    } else if (kind == kPacket) {
      s.schedule_packet_at(t, packet::Packet{}, NodeId{id}, NodeId{id}, NodeId{}, 0,
                           /*lane=*/kSlots + 1 + slot);
    } else {
      packet::Packet p;
      p.src_port = static_cast<std::uint16_t>(slot);
      p.payload_bytes = 200;
      p.flow_seq = id;
      s.schedule_packet_at(t, p, NodeId{id}, NodeId{}, NodeId{}, /*injected_at=*/t,
                           /*lane=*/1 + slot);
      slot_tail[slot] = std::max(slot_tail[slot], t);
    }
  };
  // A grid time at or after now: now itself, or up to three steps later.
  const auto grid_time = [&] {
    return s.now() + kStep * static_cast<double>(rng.next_below(4));
  };
  follow_up = [&] {
    const double r = rng.next_double();
    const auto slot = static_cast<std::uint32_t>(rng.next_below(kSlots));
    if (r < 0.35) {
      // Usually a monotone append to the slot's lane, sometimes one that
      // undercuts it.
      const double t = rng.next_bool(0.8) ? std::max(grid_time(), slot_tail[slot]) : s.now();
      schedule(kInjection, t, slot);
    } else if (r < 0.7) {
      schedule(kPacket, grid_time(), slot);
    } else if (r < 0.95) {
      schedule(kCallback, grid_time(), slot);
    }
  };
  sink.fire = [&](const PacketEvent& ev) {
    fired.push_back(ev.node.v);
    if (ev.from.valid()) {  // a stored packet event
      follow_up();
      return;
    }
    const bool as_packet = !ev.dest_hint.valid() && ev.injected_at == s.now() &&
                           ev.pkt.flow_seq == ev.node.v && ev.pkt.payload_bytes == 200 &&
                           ev.pkt.src_port < kSlots && !ev.pkt.tunneled;
    if (!as_packet) ++bad_injections;
    follow_up();
    if (rng.next_bool(0.1)) follow_up();
  };

  // Four waves, each injecting every slot of 300 flows, with callbacks and
  // stored packet events scheduled at the same times in between.
  for (int wave = 0; wave < 4; ++wave) {
    const double base = 8.0 * kStep * static_cast<double>(wave);
    for (int flow = 0; flow < 300; ++flow) {
      for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
        const double t = base + kStep * static_cast<double>(slot);
        schedule(kInjection, t, slot);
        if (rng.next_bool(0.1)) schedule(rng.next_bool(0.5) ? kPacket : kCallback, t, slot);
      }
    }
  }
  s.run();

  ASSERT_EQ(at.size(), kEvents);
  std::vector<std::uint32_t> expected(kEvents);
  std::iota(expected.begin(), expected.end(), 0u);
  std::stable_sort(expected.begin(), expected.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return at[a] < at[b]; });
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(bad_injections, 0u);
  EXPECT_EQ(s.events_processed(), kEvents);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, ResetDropsPendingPacketEvents) {
  Simulator s;
  RecordingSink sink(s);
  s.schedule_packet_at(1.0, packet::Packet{}, NodeId{1}, NodeId{}, NodeId{}, 0);
  s.schedule_at(2.0, [] {});
  s.reset();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_processed(), 0u);
  // The clock is clean: scheduling before the old horizon works again.
  s.schedule_packet_at(0.5, packet::Packet{}, NodeId{2}, NodeId{}, NodeId{}, 0);
  s.run();
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0].second, 2u);
}

TEST(Simulator, NegativeZeroTimeOrdersAsZero) {
  // The calendar compares a time by its bit pattern, which puts -0.0 after
  // every positive time; a -0.0 event must still fire as a time-0 event. A
  // later event sits on lane 1 first, so lane 1's time-0 events undercut it
  // and go to the overflow heap; lane 2 takes its own in order; callbacks
  // ride lane 0.
  Simulator s;
  std::vector<std::uint32_t> fired;
  bool clock_negative = false;
  struct Sink final : PacketSink {
    void on_packet_event(const PacketEvent& ev) override { fire(ev.node.v); }
    std::function<void(std::uint32_t)> fire;
  } sink;
  const auto fire = [&](std::uint32_t id) {
    fired.push_back(id);
    clock_negative = clock_negative || std::signbit(s.now());
  };
  sink.fire = fire;
  s.set_packet_sink(&sink);
  constexpr std::uint32_t kLater = 1000;
  s.schedule_packet_at(0.5, packet::Packet{}, NodeId{kLater}, NodeId{}, NodeId{}, 0, /*lane=*/1);
  std::uint32_t id = 0;
  for (int round = 0; round < 2; ++round) {
    for (const double t : {-0.0, 0.0}) {
      s.schedule_packet_at(t, packet::Packet{}, NodeId{id++}, NodeId{}, NodeId{}, 0, /*lane=*/1);
      s.schedule_packet_at(t, packet::Packet{}, NodeId{id++}, NodeId{}, NodeId{}, 0, /*lane=*/2);
      s.schedule_at(t, [&fire, i = id++] { fire(i); });
    }
  }
  s.run();
  std::vector<std::uint32_t> expected(id);
  std::iota(expected.begin(), expected.end(), 0u);
  expected.push_back(kLater);
  EXPECT_EQ(fired, expected);
  EXPECT_FALSE(clock_negative);
  EXPECT_DOUBLE_EQ(s.now(), 0.5);
}

// ---------------------------------------------------------------------------
// SimNetwork forwarding
// ---------------------------------------------------------------------------

class SimNetworkTest : public ::testing::Test {
protected:
  SimNetworkTest()
      : network(net::make_campus_topology()),
        routing(net::RoutingTables::compute(network.topo)),
        resolver(net::AddressResolver::build(network.topo)),
        simnet(network.topo, routing, resolver) {}

  packet::Packet host_to_host(std::size_t s, std::size_t d) {
    packet::Packet p;
    p.inner.src = network.topo.node(network.hosts[s][0]).address;
    p.inner.dst = network.topo.node(network.hosts[d][0]).address;
    p.src_port = 50000;
    p.dst_port = 80;
    p.payload_bytes = 500;
    return p;
  }

  net::GeneratedNetwork network;
  net::RoutingTables routing;
  net::AddressResolver resolver;
  SimNetwork simnet;
};

TEST_F(SimNetworkTest, PacketReachesDestinationHost) {
  simnet.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  simnet.run();
  EXPECT_EQ(simnet.counters().injected, 1u);
  EXPECT_EQ(simnet.counters().delivered, 1u);
  EXPECT_EQ(simnet.node_counters(network.hosts[5][0]).packets_delivered, 1u);
}

TEST_F(SimNetworkTest, DeliveryLatencyIsPositive) {
  simnet.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  simnet.run();
  EXPECT_GT(simnet.counters().total_latency, 0.0);
}

TEST_F(SimNetworkTest, PathCrossesExpectedNodes) {
  simnet.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  simnet.run();
  // Both proxies (in-path) and both edge routers must have seen the packet.
  EXPECT_GE(simnet.node_counters(network.proxies[0]).packets_seen, 1u);
  EXPECT_GE(simnet.node_counters(network.proxies[5]).packets_seen, 1u);
  EXPECT_GE(simnet.node_counters(network.edge_routers[0]).packets_seen, 1u);
  EXPECT_GE(simnet.node_counters(network.edge_routers[5]).packets_seen, 1u);
}

TEST_F(SimNetworkTest, NoRouteIsCountedAsDrop) {
  packet::Packet p = host_to_host(0, 1);
  p.inner.dst = IpAddress(203, 0, 113, 99);  // unknown destination
  simnet.inject(network.hosts[0][0], p, 0.0);
  simnet.run();
  EXPECT_EQ(simnet.counters().delivered, 0u);
  EXPECT_EQ(simnet.counters().dropped_no_route, 1u);
}

TEST_F(SimNetworkTest, TtlExpiryDropsPacket) {
  packet::Packet p = host_to_host(0, 5);
  p.inner.ttl = 2;  // path needs more hops than that
  simnet.inject(network.hosts[0][0], p, 0.0);
  simnet.run();
  EXPECT_EQ(simnet.counters().delivered, 0u);
  EXPECT_EQ(simnet.counters().dropped_ttl, 1u);
}

TEST_F(SimNetworkTest, TunneledPacketRoutesOnOuterHeader) {
  packet::Packet p = host_to_host(0, 5);
  // Tunnel to host 3's address: the network must deliver to host 3 even
  // though the inner destination is host 5.
  p.encapsulate(network.topo.node(network.hosts[0][0]).address,
                network.topo.node(network.hosts[3][0]).address);
  simnet.inject(network.hosts[0][0], p, 0.0);
  simnet.run();
  EXPECT_EQ(simnet.node_counters(network.hosts[3][0]).packets_delivered, 1u);
  EXPECT_EQ(simnet.node_counters(network.hosts[5][0]).packets_delivered, 0u);
}

TEST_F(SimNetworkTest, LinkCountersAccumulateBytes) {
  simnet.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  simnet.run();
  const net::LinkId first_link = network.topo.find_link(network.hosts[0][0], network.proxies[0]);
  ASSERT_TRUE(first_link.valid());
  EXPECT_EQ(simnet.link_counters(first_link).packets, 1u);
  EXPECT_EQ(simnet.link_counters(first_link).bytes, host_to_host(0, 5).wire_bytes());
}

TEST_F(SimNetworkTest, FragmentationAccounting) {
  packet::Packet p = host_to_host(0, 5);
  p.payload_bytes = 3000;  // > 1500 MTU
  const auto wire = p.wire_bytes();
  simnet.inject(network.hosts[0][0], p, 0.0);
  simnet.run();
  const net::LinkId first_link = network.topo.find_link(network.hosts[0][0], network.proxies[0]);
  const auto& lc = simnet.link_counters(first_link);
  EXPECT_EQ(lc.fragmentation_events, 1u);
  EXPECT_EQ(lc.fragments, packet::fragments_needed(wire, 1500));
  EXPECT_GT(lc.bytes, wire);  // extra fragment headers on the wire
  EXPECT_EQ(simnet.counters().delivered, 1u);
}

TEST_F(SimNetworkTest, SerializationDelaysQueueBuildUp) {
  // Two back-to-back packets on the same path: the second arrives strictly
  // later because the first occupies the links.
  simnet.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  simnet.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  simnet.run();
  EXPECT_EQ(simnet.counters().delivered, 2u);
  // Total latency > 2x single-packet latency implies queueing happened.
  SimNetwork fresh(network.topo, routing, resolver);
  fresh.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  fresh.run();
  EXPECT_GT(simnet.counters().total_latency, 2 * fresh.counters().total_latency - 1e-12);
}

TEST_F(SimNetworkTest, AgentInterceptsPackets) {
  struct Sink final : NodeAgent {
    std::uint64_t seen = 0;
    void on_packet(SimNetwork& net, packet::Packet pkt, net::NodeId from) override {
      ++seen;
      last_from = from;
      net.deliver(node, pkt);
    }
    net::NodeId node;
    net::NodeId last_from;
  };
  auto sink = std::make_unique<Sink>();
  Sink* raw = sink.get();
  raw->node = network.proxies[5];
  simnet.attach(network.proxies[5], std::move(sink));
  simnet.inject(network.hosts[0][0], host_to_host(0, 5), 0.0);
  simnet.run();
  EXPECT_EQ(raw->seen, 1u);
  // The ingress interface is reported: the proxy's only neighbor toward the
  // core is its edge router.
  EXPECT_EQ(raw->last_from, network.edge_routers[5]);
  // The packet was consumed at the proxy, never reaching the host.
  EXPECT_EQ(simnet.node_counters(network.hosts[5][0]).packets_delivered, 0u);
}

TEST_F(SimNetworkTest, UnfragmentableDropIsTraced) {
  // Two routers joined by one link whose MTU leaves no room for payload.
  net::Topology topo;
  const NodeId a = topo.add_node(net::NodeKind::kCoreRouter, "a", IpAddress(172, 16, 0, 1));
  const NodeId b = topo.add_node(net::NodeKind::kCoreRouter, "b", IpAddress(172, 16, 0, 2));
  net::LinkParams tiny;
  tiny.mtu = 28;
  topo.add_link(a, b, tiny);
  const auto rt = net::RoutingTables::compute(topo);
  const auto res = net::AddressResolver::build(topo);
  SimNetwork n(topo, rt, res);
  obs::PathTracer tracer(1.0);
  n.set_tracer(&tracer);

  packet::Packet p;
  p.inner.src = topo.node(a).address;
  p.inner.dst = topo.node(b).address;
  p.payload_bytes = 200;
  n.inject(a, p, 0.0);
  n.run();

  EXPECT_EQ(n.counters().dropped_no_route, 1u);
  // Every drop leaves a record: the oracle counts drops only from those.
  const auto records = tracer.sink().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].hop, obs::Hop::kInjected);
  EXPECT_EQ(records[1].hop, obs::Hop::kDropNoRoute);
  EXPECT_EQ(records[1].node, a);
  EXPECT_EQ(records[1].detail, b.v);
}

TEST_F(SimNetworkTest, DeterministicAcrossRuns) {
  const auto run_once = [&]() {
    SimNetwork n(network.topo, routing, resolver);
    for (std::size_t i = 0; i < 20; ++i) {
      n.inject(network.hosts[i % 10][0], host_to_host(i % 10, (i + 3) % 10),
               static_cast<double>(i) * 1e-5);
    }
    n.run();
    return std::pair{n.counters().delivered, n.counters().total_latency};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------------
// Control bodies: held by the network while their packet is in flight
// ---------------------------------------------------------------------------

TEST_F(SimNetworkTest, ControlBodiesArriveIntact) {
  const auto payload =
      std::make_shared<const std::vector<std::uint8_t>>(std::vector<std::uint8_t>{7, 1, 9, 4});
  const packet::FlowId confirmed = host_to_host(2, 8).flow_id();
  struct Seen {
    std::uint64_t seq = 0;
    packet::FlowId flow;
    bool same_payload = false;
  };
  std::map<packet::PacketKind, Seen> seen;
  simnet.on_delivered([&](const packet::Packet& pkt, SimTime) {
    const packet::ControlBody& body = simnet.control(pkt);
    seen[pkt.kind] = Seen{body.seq, body.flow, body.payload == payload};
  });
  // Injects a control packet of `kind` from host `s` to host `d`; returns
  // its body to fill in.
  const auto send = [&](packet::PacketKind kind, std::size_t s,
                        std::size_t d) -> packet::ControlBody& {
    packet::Packet p = host_to_host(s, d);
    p.kind = kind;
    packet::ControlBody& body = simnet.new_control(p);
    simnet.inject(network.hosts[s][0], p, 0.0);
    return body;
  };
  packet::ControlBody& push_body = send(packet::PacketKind::kConfigPush, 0, 5);
  push_body.seq = 41;
  push_body.payload = payload;
  packet::ControlBody& confirm_body = send(packet::PacketKind::kLabelConfirm, 1, 6);
  confirm_body.seq = 777;
  confirm_body.flow = confirmed;
  send(packet::PacketKind::kHeartbeat, 3, 4).seq = 9;
  EXPECT_EQ(payload.use_count(), 2);
  simnet.run();

  EXPECT_EQ(simnet.counters().delivered, 3u);
  ASSERT_EQ(seen.size(), 3u);
  const Seen& push = seen[packet::PacketKind::kConfigPush];
  EXPECT_EQ(push.seq, 41u);
  EXPECT_TRUE(push.same_payload);
  const Seen& confirm = seen[packet::PacketKind::kLabelConfirm];
  EXPECT_EQ(confirm.seq, 777u);
  EXPECT_EQ(confirm.flow, confirmed);
  EXPECT_FALSE(confirm.same_payload);
  EXPECT_EQ(seen[packet::PacketKind::kHeartbeat].seq, 9u);
  EXPECT_EQ(payload.use_count(), 1);  // delivery released the push's body
}

TEST_F(SimNetworkTest, ControlBodyIsReleasedOnDeliveryAndEveryDrop) {
  const auto payload = std::make_shared<const std::vector<std::uint8_t>>(1200, 0x5a);
  const long before = payload.use_count();
  // Sends `count` config pushes of `payload` from host 0 to host 5 at t=0
  // over `n` and runs it.
  const auto send = [&](SimNetwork& n, const net::GeneratedNetwork& topo_net, int count = 1,
                        std::uint8_t ttl = 64) {
    for (int i = 0; i < count; ++i) {
      packet::Packet p;
      p.kind = packet::PacketKind::kConfigPush;
      p.inner.src = topo_net.topo.node(topo_net.hosts[0][0]).address;
      p.inner.dst = topo_net.topo.node(topo_net.hosts[5][0]).address;
      p.inner.ttl = ttl;
      p.payload_bytes = static_cast<std::uint32_t>(payload->size());
      packet::ControlBody& body = n.new_control(p);
      body.seq = static_cast<std::uint64_t>(i + 1);
      body.payload = payload;
      n.inject(topo_net.hosts[0][0], p, 0.0);
    }
    EXPECT_EQ(payload.use_count(), before + count);
    n.run();
  };
  {
    SimNetwork n(network.topo, routing, resolver);
    send(n, network);
    EXPECT_EQ(n.counters().delivered, 1u);
    EXPECT_EQ(payload.use_count(), before);
  }
  {
    SimNetwork n(network.topo, routing, resolver);
    n.set_link_up(network.topo.find_link(network.hosts[0][0], network.proxies[0]), false);
    send(n, network);
    EXPECT_EQ(n.counters().dropped_link_down, 1u);
    EXPECT_EQ(payload.use_count(), before);
  }
  {
    SimNetwork n(network.topo, routing, resolver);
    n.set_node_up(network.hosts[5][0], false);
    send(n, network);
    EXPECT_EQ(n.counters().dropped_node_down, 1u);
    EXPECT_EQ(payload.use_count(), before);
  }
  {
    SimNetwork n(network.topo, routing, resolver);
    send(n, network, 1, /*ttl=*/2);  // the path needs more hops than that
    EXPECT_EQ(n.counters().dropped_ttl, 1u);
    EXPECT_EQ(payload.use_count(), before);
  }
  {
    // The same campus with drop-tail stub links about two pushes deep.
    net::CampusParams cp;
    cp.stub_link.queue_limit_bytes = 3000;
    const net::GeneratedNetwork tight = net::make_campus_topology(cp);
    const auto tight_routing = net::RoutingTables::compute(tight.topo);
    const auto tight_resolver = net::AddressResolver::build(tight.topo);
    SimNetwork n(tight.topo, tight_routing, tight_resolver);
    send(n, tight, 10);
    EXPECT_GT(n.counters().dropped_queue, 0u);
    EXPECT_EQ(n.counters().delivered + n.counters().dropped_queue, 10u);
    EXPECT_EQ(payload.use_count(), before);
  }
}

// ---------------------------------------------------------------------------
// Policy waves injected per stagger slot, through a network with agents
// ---------------------------------------------------------------------------

// TraceRecord has no operator==: every field must agree.
bool same_record(const obs::TraceRecord& a, const obs::TraceRecord& b) {
  return a.at == b.at && a.flow == b.flow && a.node == b.node && a.hop == b.hop &&
         a.detail == b.detail && a.seq == b.seq;
}

bool record_less(const obs::TraceRecord& a, const obs::TraceRecord& b) {
  return std::tie(a.at, a.flow, a.seq, a.node.v, a.detail) <
         std::tie(b.at, b.flow, b.seq, b.node.v, b.detail);
}

TEST(LazyWave, MatchesUpFrontPacketInjection) {
  // Two networks with the same label-switching agents over one campus plan,
  // traced in full: one gets two policy waves scheduled up front through
  // inject(Packet), built by the reference loop below, the other through
  // exp::inject_wave, whose slot events build and inject each packet when
  // it comes due. Every packet is handled at the same time and in the same
  // order either way. Only the kInjected records move: up front they are
  // all made before the run, lazily each one is made at its packet's
  // injection time.
  testing::ScenarioParams sp;
  sp.seed = 2019;
  sp.target_packets = 20000;
  const testing::Scenario s = testing::make_scenario(sp);
  const core::EnforcementPlan plan =
      s.controller->compile(core::StrategyKind::kLoadBalanced, &s.traffic);
  const auto routing = net::RoutingTables::compute(s.network.topo);
  const auto resolver = net::AddressResolver::build(s.network.topo);
  const std::pair<double, std::uint64_t> waves[] = {{1.0, 0}, {2.2, 1}};
  constexpr std::uint64_t kSlotEvents = 2 * 6;

  struct Outcome {
    NetworkCounters counters;
    std::uint64_t events = 0;
    std::vector<obs::TraceRecord> injected;  // the kInjected records
    std::vector<obs::TraceRecord> others;    // every other record, in order
    bool time_ordered = true;
  };
  const auto run = [&](bool lazy) {
    SimNetwork simnet(s.network.topo, routing, resolver);
    core::AgentOptions options;
    options.enable_label_switching = true;
    core::install_agents(simnet, s.network, s.deployment, s.gen.policies, plan, options);
    obs::PathTracer tracer(1.0);
    obs::TraceCollector collector;
    tracer.set_observer(&collector);
    simnet.set_tracer(&tracer);
    for (const auto& [at, wave] : waves) {
      if (lazy) {
        exp::inject_wave(simnet, s.network, s.flows, at, wave);
        continue;
      }
      for (const auto& f : s.flows.flows) {
        const std::uint64_t n = std::min<std::uint64_t>(f.packets, 6);
        for (std::uint64_t j = 0; j < n; ++j) {
          packet::Packet p;
          p.inner.src = f.id.src;
          p.inner.dst = f.id.dst;
          p.src_port = f.id.src_port;
          p.dst_port = f.id.dst_port;
          p.payload_bytes = 200;
          p.flow_seq = wave * 6 + j + 1;
          simnet.inject(s.network.proxies[static_cast<std::size_t>(f.src_subnet)], p,
                        at + static_cast<double>(j) * 0.03);
        }
      }
    }
    simnet.run();
    Outcome out{simnet.counters(), simnet.simulator().events_processed(), {}, {}, true};
    const std::vector<obs::TraceRecord>& records = collector.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      (records[i].hop == obs::Hop::kInjected ? out.injected : out.others).push_back(records[i]);
      if (i > 0 && records[i].at < records[i - 1].at) out.time_ordered = false;
    }
    return out;
  };
  Outcome ref = run(false);
  Outcome got = run(true);

  EXPECT_GT(ref.counters.injected, 1000u);
  EXPECT_GT(ref.counters.delivered, 0u);
  EXPECT_EQ(got.counters.injected, ref.counters.injected);
  EXPECT_EQ(got.counters.delivered, ref.counters.delivered);
  EXPECT_EQ(got.counters.dropped_ttl, ref.counters.dropped_ttl);
  EXPECT_EQ(got.counters.dropped_no_route, ref.counters.dropped_no_route);
  EXPECT_EQ(got.counters.dropped_node_down, ref.counters.dropped_node_down);
  EXPECT_EQ(got.counters.dropped_queue, ref.counters.dropped_queue);
  EXPECT_EQ(got.counters.dropped_link_down, ref.counters.dropped_link_down);
  EXPECT_EQ(got.counters.dropped_link_loss, ref.counters.dropped_link_loss);
  EXPECT_EQ(got.counters.total_latency, ref.counters.total_latency);

  // Every wave injection was an event of its own up front; lazily, six
  // slot events per wave stand in for them.
  EXPECT_EQ(got.events + ref.counters.injected, ref.events + kSlotEvents);

  ASSERT_EQ(got.others.size(), ref.others.size());
  std::size_t first_mismatch = got.others.size();
  for (std::size_t i = 0; i < got.others.size() && first_mismatch == got.others.size(); ++i) {
    if (!same_record(got.others[i], ref.others[i])) first_mismatch = i;
  }
  EXPECT_EQ(first_mismatch, got.others.size()) << "non-injection record streams diverge";

  ASSERT_EQ(got.injected.size(), ref.counters.injected);
  ASSERT_EQ(ref.injected.size(), ref.counters.injected);
  std::sort(got.injected.begin(), got.injected.end(), record_less);
  std::sort(ref.injected.begin(), ref.injected.end(), record_less);
  EXPECT_TRUE(
      std::equal(got.injected.begin(), got.injected.end(), ref.injected.begin(), same_record))
      << "the kInjected records differ as multisets";

  EXPECT_TRUE(got.time_ordered) << "a lazy wave's record stream goes back in time";
  EXPECT_FALSE(ref.time_ordered);  // up front, the later slots' records come first
}

}  // namespace
}  // namespace sdmbox::sim
