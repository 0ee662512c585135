// Per-flow path tracing: which hops did a flow's packets actually take
// through their enforcement chain, in simulated time?
//
// A deterministic sampler picks flows by hashing the 5-tuple against the
// sample rate (no RNG state, so the same flows are traced in every run with
// the same seed — a prerequisite for byte-identical trace dumps). Traced
// packets leave one TraceRecord per enforcement event (proxy classify,
// flow-cache hit/miss, tunnel encap/decap, label switch, failover reroute,
// chain tail, delivery, drops) in a bounded ring sink, so tracing at rate 1
// on a long run costs memory proportional to the ring, not the run.
//
// Disabled tracing is free on the hot path: SimNetwork carries a nullable
// PathTracer*, and with sample rate 0 record() rejects in one compare.
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "packet/packet.hpp"

namespace sdmbox::obs {

/// Enforcement-plane event a traced packet passed through.
enum class Hop : std::uint8_t {
  kInjected,        // entered the network at its origin node
  kClassified,      // multi-field classifier consulted (cache miss path)
  kCacheHit,        // flow cache answered
  kCacheMiss,       // flow cache had no entry
  kDenied,          // dropped inline by a deny policy
  kPermitted,       // no chain: released to plain routing
  kTunnelEncap,     // IP-over-IP encapsulated toward a middlebox (detail = node)
  kTunnelDecap,     // outer header stripped at a middlebox
  kFunctionApplied, // middlebox applied one chain function (detail = function id)
  kLabelSwitchTx,   // sent on the switched path (detail = label)
  kLabelSwitchRx,   // label-switched packet consumed a label entry (detail = label)
  kChainTail,       // last middlebox of the chain released the packet
  kWpCacheResponse, // WP served the flow from cache; chain skipped (§III.F)
  kFailoverReroute, // steered past a blacklisted candidate (detail = new node)
  kAnomaly,         // a box could not interpret the packet
  kDelivered,       // consumed at its final destination
  kDropNodeDown,    // reached a crashed node
  kDropNoRoute,     // no route to destination
  kDropTtl,         // TTL expired
  kDropQueue,       // drop-tail queue overflow
  kDropLinkDown,    // transmitted onto a failed link
  kDropLinkLoss,    // injected probabilistic wire loss
  kLabelTeardown,   // a label binding was invalidated (detail = label)
};

const char* to_string(Hop hop) noexcept;

struct TraceRecord {
  double at = 0;            // simulated time of the event
  packet::FlowId flow;      // 5-tuple of the traced packet
  net::NodeId node;         // where the event happened
  Hop hop = Hop::kInjected;
  std::uint64_t detail = 0; // hop-specific (label, function id, node id); 0 = none
  std::uint64_t seq = 0;    // packet index within its flow (ties records to one packet)
};

/// Live consumer of sampled trace records, notified as each record is made
/// (before any ring eviction, so it sees the full stream even when the
/// bounded sink wraps). Observers must not mutate the tracer.
class TraceObserver {
public:
  virtual ~TraceObserver() = default;
  virtual void on_record(const TraceRecord& r) = 0;
};

/// Deterministic flow sampler: a flow is traced iff the low 32 bits of its
/// seeded 5-tuple hash fall under rate * 2^32. Stateless, so every packet of
/// a flow agrees, and runs with equal seeds trace equal flow sets. Rates
/// outside [0, 1] are clamped (a rate > 1 would otherwise overflow the 2^32
/// threshold scaling and trace nothing).
class TraceSampler {
public:
  explicit TraceSampler(double rate = 0.0, std::uint64_t seed = kDefaultSeed);

  bool sampled(const packet::FlowId& flow) const noexcept {
    if (threshold_ == 0) return false;
    return (flow.hash(seed_) & 0xffffffffULL) < threshold_;
  }

  double rate() const noexcept { return rate_; }
  std::uint64_t seed() const noexcept { return seed_; }

  static constexpr std::uint64_t kDefaultSeed = 0x7aceULL;  // "trace"

private:
  double rate_;
  std::uint64_t seed_;
  std::uint64_t threshold_;  // rate scaled to 2^32; 2^32 traces everything
};

/// Bounded ring of trace records: the newest `capacity` records survive, and
/// the dropped count says how much history was shed (each overwrite drops
/// exactly one record, counted explicitly so consumers can tell a complete
/// ring from a wrapped one).
class TraceSink {
public:
  explicit TraceSink(std::size_t capacity = 1 << 16);

  void record(TraceRecord r);

  /// Surviving records, oldest first. A copy of the ring; nth() reads it
  /// in place.
  std::vector<TraceRecord> records() const;

  /// Number of surviving records.
  std::size_t size() const noexcept { return ring_.size(); }

  /// The i-th surviving record, oldest first (i < size()): records()[i]
  /// without the copy.
  const TraceRecord& nth(std::size_t i) const noexcept {
    // Once the ring has wrapped, the oldest survivor sits where the next
    // record will go.
    const std::size_t at =
        (recorded_ > capacity_ ? static_cast<std::size_t>(recorded_ % capacity_) : 0) + i;
    return ring_[at < ring_.size() ? at : at - ring_.size()];
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t recorded() const noexcept { return recorded_; }
  /// Records shed from the ring by overwrite; > 0 means history is incomplete.
  std::uint64_t dropped() const noexcept { return dropped_; }

private:
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TraceRecord> ring_;
};

/// Sampler + sink, wired into SimNetwork via set_tracer(). Agents call
/// record() unconditionally for traced events; the sampler gate is inside.
/// An optional live observer (e.g. the enforcement-invariant oracle) sees
/// every sampled record as it happens, independent of ring capacity.
class PathTracer {
public:
  explicit PathTracer(double sample_rate, std::size_t capacity = 1 << 16,
                      std::uint64_t seed = TraceSampler::kDefaultSeed)
      : sampler_(sample_rate, seed), sink_(capacity) {}

  void record(Hop hop, const packet::FlowId& flow, double at, net::NodeId node,
              std::uint64_t detail = 0, std::uint64_t seq = 0) {
    if (!sampler_.sampled(flow)) return;
    const TraceRecord r{at, flow, node, hop, detail, seq};
    sink_.record(r);
    if (observer_ != nullptr) observer_->on_record(r);
  }

  /// Attach/detach a live record consumer; nullptr detaches. Not owned.
  void set_observer(TraceObserver* observer) noexcept { observer_ = observer; }
  TraceObserver* observer() const noexcept { return observer_; }

  bool sampled(const packet::FlowId& flow) const noexcept { return sampler_.sampled(flow); }

  const TraceSampler& sampler() const noexcept { return sampler_; }
  const TraceSink& sink() const noexcept { return sink_; }

private:
  TraceSampler sampler_;
  TraceSink sink_;
  TraceObserver* observer_ = nullptr;
};

/// Unbounded capture of a tracer's full record stream: every sampled record
/// in emission order, before any ring eviction. Attach it as a PathTracer's
/// observer when a consumer needs the complete stream after the run (e.g.
/// replaying it into a fresh verify::InvariantOracle) while the ring itself
/// stays bounded. Memory is proportional to the traffic actually traced.
class TraceCollector final : public TraceObserver {
public:
  void on_record(const TraceRecord& r) override { records_.push_back(r); }

  const std::vector<TraceRecord>& records() const noexcept { return records_; }

private:
  std::vector<TraceRecord> records_;
};

}  // namespace sdmbox::obs
