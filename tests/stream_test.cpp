// FlowStream's contract: a pinned flow sequence per seed (including
// web-return companions and the background tail), measure_stream ==
// TrafficMatrix::measure, and O(1) peak residency no matter how many flows
// are emitted.
#include <gtest/gtest.h>

#include "net/topologies.hpp"
#include "util/hash.hpp"
#include "workload/flow_gen.hpp"
#include "workload/policy_gen.hpp"
#include "workload/traffic_matrix.hpp"

namespace sdmbox::workload {
namespace {

struct StreamWorld {
  net::GeneratedNetwork network;
  GeneratedPolicies gen;
};

StreamWorld make_world(std::uint64_t seed, bool web_return = false) {
  StreamWorld w;
  net::CampusParams cp;
  w.network = net::make_campus_topology(cp);
  util::Rng rng(seed);
  PolicyGenParams pp;
  pp.many_to_one = pp.one_to_many = pp.one_to_one = 3;
  pp.web_return_companions = web_return;
  w.gen = generate_policies(w.network, pp, rng);
  return w;
}

/// Order-sensitive hash of every field of every generated flow, plus the
/// packet totals.
std::uint64_t fingerprint(const GeneratedFlows& g) {
  std::uint64_t h = util::hash_combine(util::mix64(g.total_packets), g.background_packets);
  for (const FlowRecord& f : g.flows) {
    h = util::hash_combine(h, (std::uint64_t{f.id.src.value()} << 32) | f.id.dst.value());
    h = util::hash_combine(h, (std::uint64_t{f.id.src_port} << 24) |
                                  (std::uint64_t{f.id.dst_port} << 8) | f.id.protocol);
    h = util::hash_combine(h, f.packets);
    h = util::hash_combine(h, (std::uint64_t{static_cast<std::uint32_t>(f.src_subnet)} << 32) |
                                  static_cast<std::uint32_t>(f.dst_subnet));
    h = util::hash_combine(h, f.intended.v);
  }
  return h;
}

struct Pinned {
  std::size_t flows;
  std::uint64_t fingerprint;
  std::uint64_t next_draw;
};

// generate_flows drains a FlowStream, so stream and batch output agree by
// construction. What stays pinned is the generator itself: the whole flow
// list and the Rng's next draw after it, as the batch generator produced
// them before it became a drain of the stream. Both the batch call and a
// stream pulled one flow at a time must reproduce those values.
void expect_pinned(const StreamWorld& w, const FlowGenParams& fp, std::uint64_t seed,
                   const Pinned& want) {
  util::Rng batch_rng(seed);
  const GeneratedFlows batch = generate_flows(w.network, w.gen, fp, batch_rng);
  EXPECT_EQ(batch.flows.size(), want.flows);
  EXPECT_EQ(fingerprint(batch), want.fingerprint);
  EXPECT_EQ(batch_rng.next_below(1u << 30), want.next_draw);

  util::Rng stream_rng(seed);
  FlowStream stream(w.network, w.gen, fp, stream_rng);
  GeneratedFlows pulled;
  FlowRecord f;
  while (stream.next(f)) pulled.flows.push_back(f);
  pulled.total_packets = stream.total_packets();
  pulled.background_packets = stream.background_packets();
  EXPECT_EQ(stream.emitted(), want.flows);
  EXPECT_EQ(fingerprint(pulled), want.fingerprint);
  EXPECT_EQ(stream_rng.next_below(1u << 30), want.next_draw);
}

TEST(FlowStream, MatchesBatchGenerator) {
  const StreamWorld w = make_world(3);
  FlowGenParams fp;
  fp.target_total_packets = 100000;
  expect_pinned(w, fp, 17, {2324, 0x8cc3c59cae90c883ULL, 112735308});
}

TEST(FlowStream, MatchesBatchWithBackgroundTail) {
  const StreamWorld w = make_world(5);
  FlowGenParams fp;
  fp.target_total_packets = 80000;
  fp.background_flow_fraction = 0.3;
  expect_pinned(w, fp, 23, {2661, 0x5932b7c3119ecd84ULL, 47366445});
}

TEST(FlowStream, MatchesBatchWithWebReturnTraffic) {
  const StreamWorld w = make_world(7, /*web_return=*/true);
  FlowGenParams fp;
  fp.target_total_packets = 80000;
  fp.web_return_traffic = true;
  fp.web_return_scale = 1.5;
  fp.background_flow_fraction = 0.2;
  expect_pinned(w, fp, 29, {1758, 0x3d3283f68768d603ULL, 817643391});
}

TEST(FlowStream, MeasureStreamMatchesBatchMatrix) {
  const StreamWorld w = make_world(11, /*web_return=*/true);
  FlowGenParams fp;
  fp.target_total_packets = 120000;
  fp.web_return_traffic = true;
  fp.background_flow_fraction = 0.25;
  for (const double rate : {1.0, 0.25}) {
    SCOPED_TRACE(rate);
    MeasureOptions mo;
    mo.sample_rate = rate;
    mo.seed = 99;

    util::Rng batch_rng(31);
    const GeneratedFlows batch = generate_flows(w.network, w.gen, fp, batch_rng);
    const TrafficMatrix want = TrafficMatrix::measure(w.gen.policies, batch.flows, mo);

    util::Rng stream_rng(31);
    FlowStream stream(w.network, w.gen, fp, stream_rng);
    const TrafficMatrix got = measure_stream(w.gen.policies, stream, mo);

    EXPECT_EQ(want.grand_total(), got.grand_total());  // byte-identical, not NEAR
    for (const policy::Policy& p : w.gen.policies.all()) {
      EXPECT_EQ(want.total(p.id), got.total(p.id));
      ASSERT_EQ(want.active_pairs(p.id), got.active_pairs(p.id));
      for (const auto& [s, d] : want.active_pairs(p.id)) {
        EXPECT_EQ(want.between(p.id, s, d), got.between(p.id, s, d));
      }
    }
  }
}

TEST(FlowStream, PeakResidencyIsBounded) {
  // The scale contract: tens of thousands of flows stream through while at
  // most kMaxResident (= 2) FlowRecords are ever alive inside the stream.
  const StreamWorld w = make_world(13, /*web_return=*/true);
  FlowGenParams fp;
  fp.target_total_packets = 500000;
  fp.web_return_traffic = true;
  fp.background_flow_fraction = 0.5;
  util::Rng rng(37);
  FlowStream stream(w.network, w.gen, fp, rng);
  FlowRecord f;
  std::uint64_t n = 0;
  while (stream.next(f)) ++n;
  EXPECT_GT(n, 10000u);
  EXPECT_EQ(stream.emitted(), n);
  EXPECT_LE(stream.peak_resident(), FlowStream::kMaxResident);
  EXPECT_GE(stream.peak_resident(), 1u);
}

TEST(FlowStream, EmptyTargetYieldsOnlyBackground) {
  const StreamWorld w = make_world(17);
  FlowGenParams fp;
  fp.target_total_packets = 0;
  fp.background_flow_fraction = 0.5;  // of zero main flows — nothing at all
  util::Rng rng(41);
  FlowStream stream(w.network, w.gen, fp, rng);
  FlowRecord f;
  EXPECT_FALSE(stream.next(f));
  EXPECT_EQ(stream.emitted(), 0u);
}

}  // namespace
}  // namespace sdmbox::workload
