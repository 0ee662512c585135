#include "obs/trace.hpp"

#include <cmath>

#include "util/check.hpp"

namespace sdmbox::obs {

const char* to_string(Hop hop) noexcept {
  switch (hop) {
    case Hop::kInjected: return "injected";
    case Hop::kClassified: return "classified";
    case Hop::kCacheHit: return "cache_hit";
    case Hop::kCacheMiss: return "cache_miss";
    case Hop::kDenied: return "denied";
    case Hop::kPermitted: return "permitted";
    case Hop::kTunnelEncap: return "tunnel_encap";
    case Hop::kTunnelDecap: return "tunnel_decap";
    case Hop::kFunctionApplied: return "function_applied";
    case Hop::kLabelSwitchTx: return "label_switch_tx";
    case Hop::kLabelSwitchRx: return "label_switch_rx";
    case Hop::kChainTail: return "chain_tail";
    case Hop::kWpCacheResponse: return "wp_cache_response";
    case Hop::kFailoverReroute: return "failover_reroute";
    case Hop::kAnomaly: return "anomaly";
    case Hop::kDelivered: return "delivered";
    case Hop::kDropNodeDown: return "drop_node_down";
    case Hop::kDropNoRoute: return "drop_no_route";
    case Hop::kDropTtl: return "drop_ttl";
    case Hop::kDropQueue: return "drop_queue";
    case Hop::kDropLinkDown: return "drop_link_down";
    case Hop::kDropLinkLoss: return "drop_link_loss";
    case Hop::kLabelTeardown: return "label_teardown";
  }
  return "?";
}

TraceSampler::TraceSampler(double rate, std::uint64_t seed) : rate_(rate), seed_(seed) {
  // Clamp instead of asserting: a rate above 1 would overflow the 2^32
  // threshold scaling (llround of e.g. 1.5 * 2^32 truncates modulo 2^32 on
  // some platforms and traces *nothing*); NaN and negatives mean "off".
  if (!(rate_ >= 0.0)) rate_ = 0.0;  // also catches NaN
  if (rate_ > 1.0) rate_ = 1.0;
  threshold_ = static_cast<std::uint64_t>(std::llround(rate_ * 4294967296.0));  // rate * 2^32
}

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity) {
  SDM_CHECK_MSG(capacity > 0, "trace sink capacity must be positive");
  ring_.reserve(capacity < 4096 ? capacity : 4096);  // grow lazily up to capacity
}

void TraceSink::record(TraceRecord r) {
  if (ring_.size() < capacity_) {
    ring_.push_back(r);
  } else {
    ring_[recorded_ % capacity_] = r;
    ++dropped_;
  }
  ++recorded_;
}

std::vector<TraceRecord> TraceSink::records() const {
  std::vector<TraceRecord> out;
  out.reserve(ring_.size());
  if (recorded_ <= capacity_) {
    out = ring_;
    return out;
  }
  const std::size_t head = static_cast<std::size_t>(recorded_ % capacity_);
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

}  // namespace sdmbox::obs
