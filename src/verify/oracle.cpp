#include "verify/oracle.hpp"

#include <algorithm>
#include <cstdio>

#include "util/hash.hpp"

namespace sdmbox::verify {
namespace {

/// Narratives keep the full story of short paths and elide the middle of
/// pathological ones.
constexpr std::uint32_t kHistoryCap = 96;
constexpr std::size_t kSummaryViolations = 5;
constexpr std::uint64_t kFlowSeed = 0x5eedULL;

std::string fmt_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", t);
  return buf;
}

/// Is `seq` a subsequence of `path`? Used below trace rate 1.0, where
/// mid-chain switched records (rewritten 5-tuple) may be unsampled.
bool subsequence_of(std::span<const net::NodeId> seq, const std::vector<net::NodeId>& path) {
  std::size_t i = 0;
  for (const net::NodeId n : path) {
    if (i < seq.size() && seq[i] == n) ++i;
  }
  return i == seq.size();
}

bool has_path(const std::vector<std::vector<net::NodeId>>& paths,
              std::span<const net::NodeId> boxes) {
  return std::any_of(paths.begin(), paths.end(), [&](const std::vector<net::NodeId>& p) {
    return std::ranges::equal(p, boxes);
  });
}

/// A packet's index key hashes everything but the destination, so a
/// mid-chain switched record (destination rewritten) probes the same chain
/// as the packet it belongs to.
std::uint64_t packet_hash(packet::FlowId flow, std::uint64_t seq) noexcept {
  flow.dst = net::IpAddress{};
  return util::mix64(flow.hash(0xa11a5ULL) ^ (seq * 0x9e3779b97f4a7c15ULL));
}

/// Flows that agree on everything but the destination share an alias.
bool same_alias(const packet::FlowId& a, const packet::FlowId& b) noexcept {
  return a.src == b.src && a.src_port == b.src_port && a.dst_port == b.dst_port &&
         a.protocol == b.protocol;
}

}  // namespace

const char* to_string(ViolationKind k) noexcept {
  switch (k) {
    case ViolationKind::kSkippedFunction: return "skipped_function";
    case ViolationKind::kReorderedChain: return "reordered_chain";
    case ViolationKind::kUnexpectedFunction: return "unexpected_function";
    case ViolationKind::kDeliveredWithoutChain: return "delivered_without_chain";
    case ViolationKind::kLabelPathDivergence: return "label_path_divergence";
    case ViolationKind::kPostTeardownLabelUse: return "post_teardown_label_use";
  }
  return "?";
}

std::string VerifyReport::summary() const {
  std::string out = "invariant oracle: ";
  out += std::to_string(violations.size()) + " violation(s) over " +
         std::to_string(packets_tracked) + " tracked packet(s) (" +
         std::to_string(records_seen) + " records; delivered_ok=" +
         std::to_string(packets_delivered_ok) + " denied=" + std::to_string(packets_denied) +
         " dropped=" + std::to_string(packets_dropped) +
         " wp_served=" + std::to_string(packets_wp_served) +
         " anomaly_sunk=" + std::to_string(packets_anomaly_sunk) +
         " in_flight=" + std::to_string(packets_in_flight) +
         " unverified=" + std::to_string(packets_unverified) + ")";
  if (packets_in_unenforced_window > 0) {
    out += "\n" + std::to_string(packets_in_unenforced_window) +
           " packet(s) were forwarded inside unenforced windows (open replan or "
           "crash episode) — tolerated, attributed to their episode spans";
  }
  if (!coverage_complete) out += "\ncoverage INCOMPLETE: " + coverage_note;
  const std::size_t shown = std::min(violations.size(), kSummaryViolations);
  for (std::size_t i = 0; i < shown; ++i) out += "\n  " + violations[i].narrative;
  if (violations.size() > shown) {
    out += "\n  ... and " + std::to_string(violations.size() - shown) + " more";
  }
  return out;
}

InvariantOracle::InvariantOracle(const net::GeneratedNetwork& network,
                                 const core::Deployment& deployment,
                                 const policy::PolicyList& policies,
                                 const core::EnforcementPlan& /*plan*/,
                                 const policy::FunctionCatalog* catalog)
    : topo_(&network.topo),
      policies_(&policies),
      catalog_(catalog),
      resolver_(net::AddressResolver::build(network.topo)) {
  proxy_nodes_.resize(topo_->node_count(), false);
  for (const net::NodeId p : network.proxies) {
    if (p.valid() && p.v < proxy_nodes_.size()) proxy_nodes_[p.v] = true;
  }
  for (const core::MiddleboxInfo& m : deployment.middleboxes()) {
    if (m.node.v >= box_functions_.size()) box_functions_.resize(m.node.v + 1);
    box_functions_[m.node.v] = m.functions;
  }
  for (const policy::Policy& p : policies.all()) {
    chain_cap_ = std::max(chain_cap_, static_cast<std::uint32_t>(p.actions.size()));
  }
}

bool InvariantOracle::is_proxy(net::NodeId n) const noexcept {
  return n.valid() && n.v < proxy_nodes_.size() && proxy_nodes_[n.v];
}

bool InvariantOracle::at_destination(net::NodeId n, const packet::FlowId& flow) const {
  if (!n.valid() || n.v >= topo_->node_count()) return false;
  if (topo_->node(n).address == flow.dst) return true;
  const auto terminal = resolver_.resolve(flow.dst);
  return terminal.has_value() && *terminal == n;
}

bool InvariantOracle::implements(net::NodeId n, policy::FunctionId fn) const noexcept {
  return n.v < box_functions_.size() && box_functions_[n.v].contains(fn);
}

std::string InvariantOracle::function_name(policy::FunctionId fn) const {
  if (catalog_ != nullptr && fn.valid() && fn.v < catalog_->size()) return catalog_->name(fn);
  return "fn" + std::to_string(fn.v);
}

std::string InvariantOracle::node_name(net::NodeId n) const {
  if (n.valid() && n.v < topo_->node_count()) return topo_->node(n).name;
  return "node" + std::to_string(n.v);
}

std::string InvariantOracle::describe_chain(const policy::Policy& pol) const {
  if (pol.deny) return "deny";
  if (pol.actions.empty()) return "permit";
  std::string out;
  for (std::size_t i = 0; i < pol.actions.size(); ++i) {
    if (i) out += "->";
    out += function_name(pol.actions[i]);
  }
  return out;
}

std::string InvariantOracle::hop_story(const PacketState& ps) const {
  std::string out;
  for (std::uint32_t e = ps.history_head; e != kNil; e = history_[e].next) {
    const HistoryEntry& h = history_[e];
    if (e != ps.history_head) out += " -> ";
    out += "t=" + fmt_time(h.at) + ' ' + obs::to_string(h.hop) + '@' + node_name(h.node);
    if (h.detail != 0) out += "(detail=" + std::to_string(h.detail) + ')';
  }
  if (ps.history_count == kHistoryCap) out += " -> ... (history capped)";
  return out;
}

std::uint32_t InvariantOracle::find_flow(const packet::FlowId& flow,
                                         std::uint64_t hash) const noexcept {
  return flow_index_.find(hash, [&](std::uint32_t s) { return flows_[s].flow == flow; });
}

InvariantOracle::FlowState& InvariantOracle::flow_state(PacketState& ps) {
  if (ps.flow_slot == kNil) {
    const std::uint64_t hash = ps.flow.hash(kFlowSeed);
    ps.flow_slot = find_flow(ps.flow, hash);
    if (ps.flow_slot == kNil) {
      ps.flow_slot = flows_.push();
      flows_[ps.flow_slot].flow = ps.flow;
      flow_index_.insert(hash, ps.flow_slot);
    }
  }
  return flows_[ps.flow_slot];
}

const policy::Policy* InvariantOracle::committed_policy(const FlowState& fs) const {
  if (!fs.policy_known || !fs.policy.valid() || fs.policy.v >= policies_->size()) return nullptr;
  return &policies_->at(fs.policy);
}

InvariantOracle::PacketState* InvariantOracle::find_packet(const obs::TraceRecord& r) {
  // One probe walk serves both lookups: the exact (flow, seq) wins; failing
  // that, the packet holding the record's alias, since mid-chain switched
  // records carry a rewritten destination.
  std::uint32_t alias = kNil;
  const std::uint32_t exact =
      packet_index_.find(packet_hash(r.flow, r.seq), [&](std::uint32_t s) {
        const PacketState& ps = packets_[s];
        if (ps.seq != r.seq || !same_alias(ps.flow, r.flow)) return false;
        if (ps.flow.dst == r.flow.dst) return true;
        if (ps.has_alias) alias = s;
        return false;
      });
  const std::uint32_t slot = exact != kNil ? exact : alias;
  return slot == kNil ? nullptr : &packets_[slot];
}

InvariantOracle::PacketState& InvariantOracle::open_packet(const obs::TraceRecord& r) {
  const std::uint64_t hash = packet_hash(r.flow, r.seq);
  std::uint32_t slot = packet_index_.find(hash, [&](std::uint32_t s) {
    return packets_[s].seq == r.seq && packets_[s].flow == r.flow;
  });
  if (slot != kNil) {
    // Same (flow, seq) injected twice: the old packet's fate is unknowable,
    // and its alias and history go with it.
    ++report_.packets_in_flight;
    release(packets_[slot]);
  } else {
    if (packet_free_ != kNil) {
      slot = packet_free_;
      packet_free_ = packets_[slot].next_free;
    } else {
      slot = packets_.push();
      applied_.resize(applied_.size() + chain_cap_);
      boxes_.resize(boxes_.size() + chain_cap_);
    }
    packet_index_.insert(hash, slot);
  }
  PacketState& ps = packets_[slot];
  ps = PacketState{.flow = r.flow, .seq = r.seq, .hash = hash, .slot = slot, .live = true};
  return ps;
}

void InvariantOracle::release(PacketState& ps) {
  if (ps.history_head != kNil) {
    history_[ps.history_tail].next = history_free_;
    history_free_ = ps.history_head;
  }
  if (ps.box_count > chain_cap_) long_boxes_.erase(ps.slot);
}

void InvariantOracle::push_history(PacketState& ps, const obs::TraceRecord& r) {
  if (ps.history_count == kHistoryCap) return;
  std::uint32_t e = history_free_;
  if (e != kNil) {
    history_free_ = history_[e].next;
  } else {
    e = history_.push();
  }
  history_[e] = HistoryEntry{r.at, r.detail, r.node, r.hop, kNil};
  if (ps.history_tail == kNil) {
    ps.history_head = e;
  } else {
    history_[ps.history_tail].next = e;
  }
  ps.history_tail = e;
  ++ps.history_count;
}

std::span<const net::NodeId> InvariantOracle::boxes(const PacketState& ps) const {
  if (ps.box_count > chain_cap_) return long_boxes_.at(ps.slot);
  return {boxes_.data() + std::size_t{ps.slot} * chain_cap_, ps.box_count};
}

void InvariantOracle::push_box(PacketState& ps, net::NodeId box) {
  const std::span<const net::NodeId> seen = boxes(ps);
  if (!seen.empty() && seen.back() == box) return;
  if (ps.box_count < chain_cap_) {
    boxes_[std::size_t{ps.slot} * chain_cap_ + ps.box_count] = box;
  } else {
    std::vector<net::NodeId>& spill = long_boxes_[ps.slot];
    if (spill.empty()) spill.assign(seen.begin(), seen.end());
    spill.push_back(box);
  }
  ++ps.box_count;
}

void InvariantOracle::violation(ViolationKind kind, const PacketState& ps, double at,
                                const std::string& cause) {
  ++violation_counts_[static_cast<std::size_t>(kind)];
  Violation v;
  v.kind = kind;
  v.flow = ps.flow;
  v.seq = ps.seq;
  v.at = at;
  v.narrative = std::string("[") + to_string(kind) + "] flow " + ps.flow.to_string() + " seq " +
                std::to_string(ps.seq) + ": " + cause + "; hops: " + hop_story(ps);
  report_.violations.push_back(std::move(v));
}

void InvariantOracle::handle_teardown(const obs::TraceRecord& r) {
  ++report_.teardown_notices;
  // Only proxy-side teardown records carry true 5-tuples (the middlebox-side
  // ones are synthesized from the label key, which lost the full tuple).
  if (!is_proxy(r.node)) return;
  const std::uint32_t slot = find_flow(r.flow, r.flow.hash(kFlowSeed));
  if (slot == kNil) return;
  FlowState& fs = flows_[slot];
  ++fs.epoch;
  fs.torn_at = r.at;
  if (fs.established.size() <= fs.epoch) fs.established.resize(fs.epoch + 1);
}

void InvariantOracle::handle_classified(const obs::TraceRecord& r, FlowState& fs) {
  if (!is_proxy(r.node)) {
    // Middlebox-side re-classification: cross-check only.
    if (fs.policy_known && fs.policy.v != r.detail) ++report_.policy_conflicts;
    return;
  }
  fs.touched_proxy = true;
  if (fs.policy_known) {
    if (fs.policy.v != r.detail) ++report_.policy_conflicts;
    return;
  }
  // detail is `policy id or 0 for no match`; committing waits for the next
  // hop (deny/tunnel/switch names the real id, permit needs none), which
  // disambiguates id 0 from "no policy".
  fs.candidate = r.detail;
  fs.has_candidate = true;
}

void InvariantOracle::handle_function(const obs::TraceRecord& r, PacketState& ps) {
  const policy::FunctionId fn{static_cast<std::uint8_t>(r.detail)};
  push_box(ps, r.node);
  if (ps.applied_count < chain_cap_) {
    applied_[std::size_t{ps.slot} * chain_cap_ + ps.applied_count] = fn;
  }
  ++ps.applied_count;

  // Invariant 1a: functions are applied by deployed implementers only.
  if (!implements(r.node, fn)) {
    if (!ps.violated) {
      violation(ViolationKind::kUnexpectedFunction, ps, r.at,
                "function " + function_name(fn) + " applied at " + node_name(r.node) +
                    ", which does not implement it");
      ps.violated = true;
      ++report_.packets_violating;
    }
    return;
  }

  // Invariant 1b: policy order. Checked against the datapath's committed
  // policy; the ground-truth cross-check happens at delivery.
  const policy::Policy* pol = committed_policy(flow_state(ps));
  if (pol == nullptr || ps.violated) return;
  if (ps.visited < pol->actions.size() && pol->actions[ps.visited] == fn) {
    ++ps.visited;
    return;
  }
  const bool in_chain =
      std::find(pol->actions.begin(), pol->actions.end(), fn) != pol->actions.end();
  const char* what = in_chain ? "out of policy order" : "not in the policy chain";
  violation(in_chain ? ViolationKind::kReorderedChain : ViolationKind::kUnexpectedFunction, ps,
            r.at,
            "policy " + std::to_string(pol->id.v) + " (" + describe_chain(*pol) +
                ") expected " +
                (ps.visited < pol->actions.size() ? function_name(pol->actions[ps.visited])
                                                  : std::string("chain tail")) +
                " next, but " + node_name(r.node) + " applied " + function_name(fn) + " (" +
                what + ")");
  ps.violated = true;
  ++report_.packets_violating;
}

void InvariantOracle::handle_chain_tail(PacketState& ps) {
  ps.chain_tail = true;
  if (ps.mode != Mode::kTunneled || ps.violated || ps.unverified) return;
  FlowState& fs = flow_state(ps);
  const policy::Policy* pol = committed_policy(fs);
  if (pol == nullptr || ps.applied_count != pol->actions.size() ||
      ps.visited != pol->actions.size()) {
    return;
  }
  // A complete, in-order tunneled traversal: this box sequence is what the
  // flow's label path must reproduce (invariant 3). Several sequences per
  // epoch are legal — failover mid-establishment installs more than one.
  if (fs.established.size() <= fs.epoch) fs.established.resize(fs.epoch + 1);
  auto& paths = fs.established[fs.epoch];
  const std::span<const net::NodeId> seen = boxes(ps);
  if (!has_path(paths, seen)) paths.emplace_back(seen.begin(), seen.end());
}

void InvariantOracle::note_delivered_ok() {
  ++report_.packets_delivered_ok;
  if (spans_ == nullptr) return;
  // Attribute the delivery to the transient window it rode through, if any:
  // a replan still rolling out is the concrete unenforced window the PR-6
  // oracle merely tolerated; failing that, an open unenforced fault episode
  // (crash detected but recovery not yet begun).
  obs::SpanId target = spans_->latest_open("replan");
  if (target == 0) {
    const obs::SpanId episode = spans_->latest_open("episode");
    if (episode != 0) {
      const obs::Span* e = spans_->find(episode);
      if (e != nullptr && e->attr_or("unenforced") == 1) target = episode;
    }
  }
  if (target == 0) return;
  ++report_.packets_in_unenforced_window;
  spans_->add_attr(target, "packets_in_window", 1);
}

void InvariantOracle::handle_delivered(const obs::TraceRecord& r, PacketState& ps) {
  FlowState& fs = flow_state(ps);
  if (!fs.touched_proxy) {
    // Control/cross traffic that never crossed a policy proxy (controller
    // pushes, heartbeats, management flows): out of the oracle's scope.
    ++report_.packets_delivered_ok;
    return;
  }
  // Policy traffic consumed somewhere other than its destination is an
  // anomaly sink (misdirected packets are swallowed, not forwarded):
  // accounted, and never a completed delivery.
  if (!at_destination(r.node, ps.flow)) {
    ps.anomaly = true;
    ++report_.packets_anomaly_sunk;
    return;
  }
  if (ps.unverified) {
    ++report_.packets_unverified;
    return;
  }

  // Invariant 2 uses the oracle's own ground truth — the full policy list,
  // not any device's possibly-stale slice.
  const policy::Policy* gt = policies_->first_match(ps.flow);
  const policy::Policy* pol = committed_policy(fs);
  if (pol != nullptr && gt != nullptr && pol->id != gt->id) ++report_.policy_conflicts;

  if (gt != nullptr && gt->deny) {
    if (!ps.violated) {
      violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                "policy " + std::to_string(gt->id.v) +
                    " denies this flow, yet the packet was delivered at " + node_name(r.node));
      ps.violated = true;
      ++report_.packets_violating;
    }
    return;
  }
  if (gt == nullptr || gt->actions.empty()) {
    note_delivered_ok();
    return;
  }
  if (ps.violated) return;  // already reported upstream; don't cascade

  const policy::ActionList& required = gt->actions;
  const auto requires_chain = [&] {
    return "policy " + std::to_string(gt->id.v) + " requires chain " + describe_chain(*gt);
  };
  switch (ps.mode) {
    case Mode::kOpen:
    case Mode::kPlain:
    case Mode::kDenied: {
      violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                requires_chain() + ", but the packet reached " + node_name(r.node) +
                    " with no enforcement at all");
      ps.violated = true;
      ++report_.packets_violating;
      return;
    }
    case Mode::kTunneled: {
      // required fits in chain_cap_, so equal counts mean fully stored lists.
      const policy::FunctionId* applied = applied_.data() + std::size_t{ps.slot} * chain_cap_;
      if (ps.applied_count == required.size() &&
          std::equal(required.begin(), required.end(), applied)) {
        note_delivered_ok();
        return;
      }
      if (ps.applied_count == 0) {
        violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                  requires_chain() + ", but the tunneled packet reached " + node_name(r.node) +
                      " with no function applied");
      } else {
        std::string missing;
        for (std::size_t i = ps.visited; i < required.size(); ++i) {
          if (!missing.empty()) missing += ", ";
          missing += function_name(required[i]);
        }
        violation(ViolationKind::kSkippedFunction, ps, r.at,
                  requires_chain() + ", but the packet was delivered with [" +
                      (missing.empty() ? "chain content mismatch" : missing) + "] unvisited");
      }
      ps.violated = true;
      ++report_.packets_violating;
      return;
    }
    case Mode::kSwitched: {
      if (!ps.chain_tail) {
        violation(ViolationKind::kDeliveredWithoutChain, ps, r.at,
                  requires_chain() + ", but the switched packet reached " + node_name(r.node) +
                      " without traversing a chain tail");
        ps.violated = true;
        ++report_.packets_violating;
        return;
      }
      const auto* paths = ps.path_epoch < fs.established.size()
                              ? &fs.established[ps.path_epoch]
                              : nullptr;
      if (paths == nullptr || paths->empty()) {
        const bool after_teardown = ps.path_epoch > 0 && fs.torn_at >= 0;
        violation(after_teardown ? ViolationKind::kPostTeardownLabelUse
                                 : ViolationKind::kLabelPathDivergence,
                  ps, r.at,
                  after_teardown
                      ? ("label " + std::to_string(ps.label) +
                         " was used after teardown (t=" + fmt_time(fs.torn_at) +
                         ") without a tunneled packet re-establishing the chain")
                      : ("switched packet followed label " + std::to_string(ps.label) +
                         " but the flow never established a tunneled chain path"));
        ps.violated = true;
        ++report_.packets_violating;
        return;
      }
      const std::span<const net::NodeId> seen = boxes(ps);
      const bool matched =
          complete_stream_
              ? has_path(*paths, seen)
              : std::any_of(paths->begin(), paths->end(),
                            [&](const std::vector<net::NodeId>& p) {
                              return !p.empty() && !seen.empty() && p.back() == seen.back() &&
                                     subsequence_of(seen, p);
                            });
      if (!matched) {
        std::string observed;
        for (std::size_t i = 0; i < seen.size(); ++i) {
          if (i) observed += "->";
          observed += node_name(seen[i]);
        }
        std::string expect;
        for (std::size_t i = 0; i < paths->size(); ++i) {
          if (i) expect += " | ";
          for (std::size_t j = 0; j < (*paths)[i].size(); ++j) {
            if (j) expect += "->";
            expect += node_name((*paths)[i][j]);
          }
        }
        violation(ViolationKind::kLabelPathDivergence, ps, r.at,
                  "label " + std::to_string(ps.label) + " path visited [" + observed +
                      "] but the flow's tunneled packets established [" + expect + "]");
        ps.violated = true;
        ++report_.packets_violating;
        return;
      }
      note_delivered_ok();
      return;
    }
  }
}

void InvariantOracle::finalize(PacketState& ps) {
  release(ps);
  packet_index_.erase(ps.hash, ps.slot);
  ps.live = false;
  ps.next_free = packet_free_;
  packet_free_ = ps.slot;
}

void InvariantOracle::on_record(const obs::TraceRecord& r) {
  if (finished_) return;
  ++report_.records_seen;
  using obs::Hop;

  if (r.hop == Hop::kLabelTeardown) {
    handle_teardown(r);
    return;
  }
  if (r.hop == Hop::kInjected) {
    PacketState& ps = open_packet(r);
    ++report_.packets_tracked;
    push_history(ps, r);
    return;
  }

  PacketState* psp = find_packet(r);
  if (psp == nullptr) {
    ++report_.untracked_records;
    return;
  }
  PacketState& ps = *psp;
  push_history(ps, r);

  bool terminal = false;
  switch (r.hop) {
    case Hop::kClassified:
      handle_classified(r, flow_state(ps));
      break;
    case Hop::kCacheHit:
    case Hop::kCacheMiss:
      if (is_proxy(r.node)) flow_state(ps).touched_proxy = true;
      break;
    case Hop::kDenied: {
      FlowState& fs = flow_state(ps);
      fs.touched_proxy = true;
      if (!fs.policy_known) {
        fs.policy = policy::PolicyId{static_cast<std::uint32_t>(r.detail)};
        fs.policy_known = true;
      }
      ps.mode = Mode::kDenied;
      ++report_.packets_denied;
      terminal = true;
      break;
    }
    case Hop::kPermitted:
      flow_state(ps).touched_proxy = true;
      if (ps.mode == Mode::kOpen) ps.mode = Mode::kPlain;
      break;
    case Hop::kTunnelEncap:
      if (is_proxy(r.node) && ps.mode == Mode::kOpen) {
        FlowState& fs = flow_state(ps);
        fs.touched_proxy = true;
        if (!fs.policy_known && fs.has_candidate) {
          fs.policy = policy::PolicyId{static_cast<std::uint32_t>(fs.candidate)};
          fs.policy_known = true;
        }
        ps.mode = Mode::kTunneled;
      }
      break;
    case Hop::kTunnelDecap:
      if (ps.mode == Mode::kOpen) ps.mode = Mode::kTunneled;
      break;
    case Hop::kFunctionApplied:
      handle_function(r, ps);
      break;
    case Hop::kLabelSwitchTx:
      if (is_proxy(r.node) && ps.mode == Mode::kOpen) {
        FlowState& fs = flow_state(ps);
        fs.touched_proxy = true;
        if (!fs.policy_known && fs.has_candidate) {
          fs.policy = policy::PolicyId{static_cast<std::uint32_t>(fs.candidate)};
          fs.policy_known = true;
        }
        ps.mode = Mode::kSwitched;
        ps.label = static_cast<std::uint16_t>(r.detail);
        ps.path_epoch = fs.epoch;
        // Claim the destination-agnostic alias for mid-chain records.
        const std::uint32_t holder = packet_index_.find(ps.hash, [&](std::uint32_t s) {
          const PacketState& other = packets_[s];
          return other.has_alias && other.seq == ps.seq && same_alias(other.flow, ps.flow);
        });
        if (holder != kNil) {
          // Two in-flight switched packets share everything but the
          // destination: neither can be attributed mid-chain. Flag both —
          // counted, never silently excused.
          packets_[holder].unverified = true;
          ps.unverified = true;
        } else {
          ps.has_alias = true;
        }
      }
      break;
    case Hop::kLabelSwitchRx:
      push_box(ps, r.node);
      break;
    case Hop::kChainTail:
      handle_chain_tail(ps);
      break;
    case Hop::kWpCacheResponse:
      // §III.F legal truncation: the chain's web proxy answered from cache.
      ++report_.packets_wp_served;
      terminal = true;
      break;
    case Hop::kFailoverReroute:
      break;
    case Hop::kAnomaly:
      ps.anomaly = true;
      break;
    case Hop::kDelivered:
      handle_delivered(r, ps);
      terminal = true;
      break;
    case Hop::kDropNodeDown:
    case Hop::kDropNoRoute:
    case Hop::kDropTtl:
    case Hop::kDropQueue:
    case Hop::kDropLinkDown:
    case Hop::kDropLinkLoss:
      // Legitimate in-flight loss under faults: accounted explicitly.
      ++report_.packets_dropped;
      terminal = true;
      break;
    case Hop::kInjected:
    case Hop::kLabelTeardown:
      break;  // handled above
  }
  if (terminal) finalize(ps);
}

const VerifyReport& InvariantOracle::finish() {
  if (finished_) return report_;
  finished_ = true;
  if (report_.records_seen == 0) {
    // Zero records means zero verification, not a clean pass: the sampler
    // may have rejected every flow (tiny trace rate), or the oracle was
    // never attached to a live stream.
    report_.coverage_complete = false;
    report_.coverage_note =
        "no trace records reached the oracle — nothing was verified (raise the "
        "trace sample rate or attach the oracle to a live tracer)";
  }
  // Open packets are unfinished business, not violations: their terminal
  // record never arrived (in flight at end of run, or silently consumed
  // after an anomaly). Counted so nothing is silently excused.
  for (std::uint32_t i = 0; i < packets_.size(); ++i) {
    const PacketState& ps = packets_[i];
    if (!ps.live) continue;
    if (ps.anomaly) {
      ++report_.packets_dropped;
    } else {
      ++report_.packets_in_flight;
    }
  }
  return report_;
}

void InvariantOracle::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels base{{"subsystem", "verify"}};
  registry.expose_counter("verify_records_seen", base, &report_.records_seen);
  registry.expose_counter("verify_packets_tracked", base, &report_.packets_tracked);
  registry.expose_counter("verify_packets_delivered_ok", base, &report_.packets_delivered_ok);
  registry.expose_counter("verify_packets_denied", base, &report_.packets_denied);
  registry.expose_counter("verify_packets_dropped", base, &report_.packets_dropped);
  registry.expose_counter("verify_packets_wp_served", base, &report_.packets_wp_served);
  registry.expose_counter("verify_packets_anomaly_sunk", base, &report_.packets_anomaly_sunk);
  registry.expose_counter("verify_packets_in_flight", base, &report_.packets_in_flight);
  registry.expose_counter("verify_packets_violating", base, &report_.packets_violating);
  registry.expose_counter("verify_packets_unverified", base, &report_.packets_unverified);
  registry.expose_counter("verify_untracked_records", base, &report_.untracked_records);
  registry.expose_counter("verify_teardown_notices", base, &report_.teardown_notices);
  registry.expose_counter("verify_policy_conflicts", base, &report_.policy_conflicts);
  for (std::size_t i = 0; i < kViolationKindCount; ++i) {
    obs::Labels labels = base;
    labels.set("class", to_string(static_cast<ViolationKind>(i)));
    registry.expose_counter("verify_violations", labels, &violation_counts_[i]);
  }
  registry.expose_gauge("verify_coverage_incomplete", base,
                        [this] { return report_.coverage_complete ? 0.0 : 1.0; });
  // conv_* series exist only when the span machinery is attached, so a
  // verified-but-unspanned run's metrics dump is unchanged.
  if (spans_ != nullptr) {
    registry.expose_counter("conv_unenforced_window_packets", base,
                            &report_.packets_in_unenforced_window);
  }
}

}  // namespace sdmbox::verify
