#include "control/endpoints.hpp"

#include <algorithm>

#include "control/health.hpp"
#include "obs/metrics.hpp"

namespace sdmbox::control {

const char* to_string(ReplanTrigger t) noexcept {
  switch (t) {
    case ReplanTrigger::kInitial: return "initial";
    case ReplanTrigger::kFailure: return "failure";
    case ReplanTrigger::kMeasurement: return "measurement";
    case ReplanTrigger::kDrift: return "drift";
  }
  return "?";
}

namespace {

// Reliable config channel: every kConfigPush carries a sequence number and
// is retransmitted with exponential backoff until the device's kConfigAck
// echoes it back.
constexpr double kRetransmitTimeout = 0.1;  // initial retransmission timeout (s)
constexpr double kRetransmitBackoff = 2.0;  // timeout multiplier per retry
constexpr int kMaxRetransmits = 6;          // retries after the initial send

/// Device -> controller rollout confirmation, echoing the push's sequence.
void send_config_ack(sim::SimNetwork& net, net::NodeId node, net::IpAddress device,
                     net::IpAddress controller, std::uint64_t seq) {
  packet::Packet ack;
  ack.kind = packet::PacketKind::kConfigAck;
  ack.inner.src = device;
  ack.inner.dst = controller;
  ack.inner.protocol = packet::kProtoUdp;
  ack.payload_bytes = 12;
  net.new_control(ack).seq = seq;
  net.inject(node, ack, net.simulator().now());
}

}  // namespace

// ---------------------------------------------------------------------------
// ManagedDevice
// ---------------------------------------------------------------------------

ManagedDevice::ManagedDevice(std::unique_ptr<core::DeviceAgent> agent)
    : node_(agent->node()), address_(agent->address()), agent_(std::move(agent)) {}

void ManagedDevice::on_packet(sim::SimNetwork& net, packet::Packet pkt, net::NodeId from) {
  if (pkt.kind == packet::PacketKind::kConfigPush && pkt.routing_header().dst == address_) {
    const std::uint64_t seq = net.control(pkt).seq;
    if (seq != 0 && seq == last_seq_) {
      // Retransmission of the push we already applied (our ack was lost or
      // late). Re-ack, don't re-apply.
      ++counters_.configs_duplicate;
      ++counters_.acks_sent;
      send_config_ack(net, node_, address_, pkt.inner.src, seq);
      net.deliver(node_, pkt);
      return;
    }
    if (seq != 0 && seq < last_seq_) {
      // Out of order: an older push overtaken by a newer one. Acking it
      // would tell the controller the NEW config landed, so stay silent and
      // let the stale push die of retransmission exhaustion.
      ++counters_.configs_rejected;
      net.deliver(node_, pkt);
      return;
    }
    bool applied = false;
    if (const auto& payload = net.control(pkt).payload) {
      if (auto config = decode_device_config(*payload)) {
        applied = agent_->apply_config(std::move(*config));
      }
    }
    ++(applied ? counters_.configs_applied : counters_.configs_rejected);
    if (applied) {
      last_seq_ = seq;
      ++counters_.acks_sent;
      send_config_ack(net, node_, address_, pkt.inner.src, seq);
    }
    net.deliver(node_, pkt);
    return;
  }
  if (pkt.kind == packet::PacketKind::kConfigAck && pkt.routing_header().dst != address_) {
    net.forward(node_, pkt);
    return;
  }
  // Control traffic originated here (reports) or transiting: plain routing,
  // not policy enforcement.
  if (pkt.kind == packet::PacketKind::kConfigPush ||
      pkt.kind == packet::PacketKind::kMeasurementReport) {
    net.forward(node_, pkt);
    return;
  }
  agent_->on_packet(net, pkt, from);
}

std::size_t ManagedDevice::send_report(sim::SimNetwork& net, net::IpAddress controller,
                                       const MeasurementReport& report) {
  packet::Packet pkt;
  pkt.kind = packet::PacketKind::kMeasurementReport;
  pkt.inner.src = address_;
  pkt.inner.dst = controller;
  pkt.inner.protocol = packet::kProtoUdp;
  auto payload =
      std::make_shared<const std::vector<std::uint8_t>>(encode_measurement_report(report));
  const std::size_t bytes = payload->size();
  pkt.payload_bytes = static_cast<std::uint32_t>(bytes);
  net.new_control(pkt).payload = std::move(payload);
  ++counters_.reports_sent;
  net.inject(node_, pkt, net.simulator().now());
  return bytes;
}

std::size_t send_reports(sim::SimNetwork& net, const ControlPlane& plane) {
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < plane.proxies.size(); ++s) {
    core::ProxyAgent& proxy = *plane.agents.proxies[s];
    MeasurementReport report;
    report.src_subnet = proxy.subnet_index();
    for (const auto& m : proxy.measurements()) {
      report.lines.push_back(MeasurementReport::Line{m.policy.v, m.dst_subnet, m.packets});
    }
    proxy.clear_measurements();
    bytes += plane.proxies[s]->send_report(net, plane.controller->address(), report);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// ControllerAgent
// ---------------------------------------------------------------------------

ControllerAgent::ControllerAgent(net::NodeId node, net::IpAddress address,
                                 core::Controller& controller,
                                 const net::GeneratedNetwork& network)
    : node_(node), address_(address), controller_(controller), network_(network) {}

void ControllerAgent::on_packet(sim::SimNetwork& net, packet::Packet pkt, net::NodeId /*from*/) {
  if (pkt.routing_header().dst != address_) {
    // Our own outbound control traffic (config pushes) leaving this host.
    net.forward(node_, pkt);
    return;
  }
  if (pkt.kind == packet::PacketKind::kConfigAck) {
    ++acks_;
    const std::uint64_t seq = net.control(pkt).seq;
    const auto node_it = addr_to_node_.find(pkt.inner.src.value());
    if (node_it != addr_to_node_.end()) {
      const auto p = pending_.find(node_it->second);
      if (p != pending_.end() && p->second.seq == seq) {
        // Rollout confirmed; retransmission timers go idle.
        resolve_push_span(p->second, net.simulator().now(), "ack");
        pending_.erase(p);
      } else if (seq != 0) {
        // Ack for a push no longer outstanding (duplicate after a
        // retransmission, or overtaken by a newer push).
        ++stale_acks_;
      }
    }
    net.deliver(node_, pkt);
    return;
  }
  if (pkt.kind == packet::PacketKind::kHeartbeatAck) {
    if (health_ != nullptr) health_->on_probe_reply(net, pkt.inner.src, net.control(pkt).seq);
    net.deliver(node_, pkt);
    return;
  }
  if (pkt.kind == packet::PacketKind::kMeasurementReport && net.control(pkt).payload != nullptr) {
    if (const auto report = decode_measurement_report(*net.control(pkt).payload)) {
      for (const auto& line : report->lines) {
        collected_.add_sample(policy::PolicyId{line.policy}, report->src_subnet,
                              line.dst_subnet, static_cast<double>(line.packets));
      }
      ++reports_received_;
      ++pending_reports_;
    } else {
      ++malformed_;
    }
  }
  // Reports and anything else addressed here are consumed (management host).
  net.deliver(node_, pkt);
}

void ControllerAgent::send_push(sim::SimNetwork& net, const PendingPush& push) {
  packet::Packet pkt;
  pkt.kind = packet::PacketKind::kConfigPush;
  pkt.inner.src = address_;
  pkt.inner.dst = push.device_addr;
  pkt.inner.protocol = packet::kProtoUdp;
  pkt.payload_bytes = static_cast<std::uint32_t>(push.payload->size());
  packet::ControlBody& body = net.new_control(pkt);
  body.seq = push.seq;
  body.payload = push.payload;
  push_bytes_ += pkt.payload_bytes;
  net.inject(node_, pkt, net.simulator().now());
}

void ControllerAgent::schedule_retransmit(sim::SimNetwork& net, std::uint32_t device_v,
                                          std::uint64_t seq, double rto) {
  net.simulator().schedule_in(rto, [this, &net, device_v, seq, rto] {
    const auto it = pending_.find(device_v);
    if (it == pending_.end() || it->second.seq != seq) return;  // acked or superseded
    PendingPush& push = it->second;
    if (push.attempts > kMaxRetransmits) {
      // Give up — and void the differential fingerprint, or the device (which
      // may never have applied this slice) would be skipped forever.
      ++pushes_abandoned_;
      last_pushed_.erase(device_v);
      const PendingPush abandoned = std::move(push);
      pending_.erase(it);
      resolve_push_span(abandoned, net.simulator().now(), "abandoned");
      return;
    }
    ++push.attempts;
    ++retransmissions_;
    if (spans_ != nullptr && push.push_span != 0) {
      const auto id =
          spans_->instant("retransmit", net.simulator().now(), push.push_span, "", "controller");
      spans_->set_attr(id, "attempt", push.attempts);
    }
    send_push(net, push);
    schedule_retransmit(net, device_v, seq, rto * kRetransmitBackoff);
  });
}

void ControllerAgent::resolve_push_span(const PendingPush& push, double now, const char* how) {
  if (spans_ == nullptr || push.push_span == 0) return;
  if (std::string_view(how) == "ack") {
    const auto ack = spans_->instant("ack", now, push.push_span, "", "controller");
    spans_->set_attr(ack, "attempts", push.attempts);
  } else {
    // superseded / abandoned / voided: mark the push span with its fate.
    spans_->set_attr(push.push_span, how, 1);
  }
  spans_->end(push.push_span, now);
  const auto rs = replan_spans_.find(push.replan_span);
  if (rs != replan_spans_.end() && rs->second.outstanding > 0) {
    if (--rs->second.outstanding == 0) complete_replan_span(push.replan_span, now);
  }
}

void ControllerAgent::complete_replan_span(obs::SpanId replan_span, double now) {
  const auto it = replan_spans_.find(replan_span);
  if (it == replan_spans_.end()) return;
  const ReplanSpanState state = std::move(it->second);
  replan_spans_.erase(it);
  spans_->end(replan_span, now);
  conv_push_latency_.add(now - state.started_at);
  // The rollout is live everywhere it could land: close the episodes this
  // replan was acting for. An unenforced episode's full lifetime — fault to
  // plan-live — is the paper's dangerous window.
  for (const obs::SpanId episode : state.episodes) {
    const obs::Span* e = spans_->find(episode);
    if (e == nullptr || !e->open()) continue;
    if (e->attr_or("unenforced") == 1) {
      conv_total_unenforced_window_.add(now - e->start);
      spans_->set_attr(episode, "unenforced_window", now - e->start);
    }
    spans_->end(episode, now);
  }
}

std::size_t ControllerAgent::distribute(sim::SimNetwork& net) {
  ++version_;
  std::size_t pushed = 0;
  for (const auto& [node_v, cfg] : last_plan_.configs) {
    const net::NodeId device{node_v};
    // Differential distribution: compare against the last pushed slice with
    // the version zeroed out — unchanged devices are skipped entirely.
    core::DeviceConfig slice = core::slice_for_device(last_plan_, device, 0);
    const std::vector<std::uint8_t> fingerprint = encode_device_config(slice);
    const auto it = last_pushed_.find(node_v);
    if (it != last_pushed_.end() && it->second == fingerprint) {
      ++pushes_skipped_;
      continue;
    }
    last_pushed_[node_v] = fingerprint;
    slice.version = version_;

    PendingPush push;
    push.seq = ++push_seq_;
    push.device_addr = net.topology().node(device).address;
    push.payload =
        std::make_shared<const std::vector<std::uint8_t>>(encode_device_config(slice));
    addr_to_node_[push.device_addr.value()] = node_v;
    if (spans_ != nullptr) {
      const double now = net.simulator().now();
      // A newer push to the same device supersedes any older in-flight one.
      if (const auto old = pending_.find(node_v); old != pending_.end()) {
        resolve_push_span(old->second, now, "superseded");
      }
      push.push_span = spans_->begin("push", now, current_replan_span_,
                                     net.topology().node(device).name, "controller");
      push.replan_span = current_replan_span_;
      spans_->set_attr(push.push_span, "bytes", static_cast<double>(push.payload->size()));
      spans_->set_attr(push.push_span, "seq", static_cast<double>(push.seq));
      const auto rs = replan_spans_.find(current_replan_span_);
      if (rs != replan_spans_.end()) ++rs->second.outstanding;
    }
    send_push(net, push);
    const std::uint64_t seq = push.seq;
    pending_[node_v] = std::move(push);  // a newer push supersedes any older pending one
    schedule_retransmit(net, node_v, seq, kRetransmitTimeout);
    ++pushed;
    ++pushes_sent_;
  }
  return pushed;
}

void ControllerAgent::forget_device(net::NodeId device) {
  last_pushed_.erase(device.v);
  const auto it = pending_.find(device.v);
  if (it == pending_.end()) return;
  // Any in-flight push span is voided — the device's applied state is
  // unknown, the next replan resends its full slice.
  if (span_clock_ != nullptr) resolve_push_span(it->second, span_clock_->now(), "voided");
  pending_.erase(it);
}

ReplanOutcome ControllerAgent::replan(sim::SimNetwork& net, const ReplanRequest& request) {
  SDM_CHECK_MSG((request.plan != nullptr) == (request.trigger == ReplanTrigger::kInitial),
                "a replan carries a plan exactly when its trigger is kInitial");
  ReplanOutcome out;
  out.trigger = request.trigger;
  ++replans_;
  const std::uint64_t skipped_before = pushes_skipped_;
  const std::uint64_t bytes_before = push_bytes_;
  const double now = net.simulator().now();

  obs::SpanId rspan = 0;
  if (spans_ != nullptr) {
    // Parent under the episode span a caller parked on the context stack
    // (fault declaration, revival, drift trigger); no context = a root
    // replan (e.g. the initial rollout).
    rspan = spans_->begin(std::string("replan:") + to_string(request.trigger), now,
                          spans_->context(), "", "controller");
    ReplanSpanState state;
    state.started_at = now;
    // Snapshot every parked episode: a multi-failure round pushes several,
    // and all of them are resolved by this one rollout.
    for (const obs::SpanId ep : spans_->context_stack()) {
      if (const obs::Span* e = spans_->find(ep); e != nullptr && e->open()) {
        state.episodes.push_back(ep);
      }
    }
    spans_->set_attr(rspan, "episodes", static_cast<double>(state.episodes.size()));
    replan_spans_.emplace(rspan, std::move(state));
  }

  // The trigger picks the plan; every path past the switch leaves it in last_plan_.
  switch (request.trigger) {
    case ReplanTrigger::kInitial:
      last_plan_ = *request.plan;
      break;
    case ReplanTrigger::kFailure:
      if (request.failed_node.valid() && !last_plan_.configs.empty()) {
        // One failed middlebox: patch the pushed plan in place. Every slice
        // the patch leaves alone stays byte-identical, so the push skips it.
        const std::vector<net::NodeId> affected =
            controller_.patch_failed_node(request.failed_node);
        for (const net::NodeId d : affected) {
          core::NodeConfig& cfg = last_plan_.configs.at(d.v);
          cfg.candidates = controller_.configs().at(d.v).candidates;
          // Drop the shares that point outside the new lists (at the dead
          // box): agents fall back to hot-potato there until the next solve.
          // The LP put no share outside a device's lists, so devices the
          // patch leaves alone keep all of theirs.
          cfg.ratios.filter_shares([&](policy::FunctionId e, net::NodeId to) {
            const std::vector<net::NodeId>& cands = cfg.candidates[e.v];
            return std::find(cands.begin(), cands.end(), to) != cands.end();
          });
        }
        out.patched = true;
        out.devices_patched = affected.size();
        out.lambda = last_plan_.lambda;
        ++replans_patched_;
      } else {
        // A revival, several failures, or no plan pushed yet: recompute
        // every assignment and recover with hot-potato, which needs no reports.
        controller_.recompute();
        last_plan_ = controller_.compile(core::StrategyKind::kHotPotato);
      }
      break;
    case ReplanTrigger::kMeasurement:
    case ReplanTrigger::kDrift:
      if (pending_reports_ == 0) {
        // Zero reports since the last solve: the matrix is empty, a solve
        // would push a meaningless plan networkwide. No-op.
        ++replans_suppressed_;
        out.suppressed = true;
        if (rspan != 0) {
          spans_->set_attr(rspan, "suppressed", 1);
          spans_->end(rspan, now);
          replan_spans_.erase(rspan);
        }
        return out;
      }
      core::Controller::SolveInfo info;
      last_plan_ = controller_.compile(core::StrategyKind::kLoadBalanced, &collected_, &info);
      out.solved = true;
      out.lambda = info.lambda;
      out.lp_pivots = info.pivots;
      out.lp_warm_started = info.warm_started;
      out.reports_used = pending_reports_;
      collected_ = workload::TrafficMatrix{};
      pending_reports_ = 0;
      break;
  }

  if (rspan != 0 && request.trigger != ReplanTrigger::kInitial) {
    // Solve cost is modeled from the pivot count (wall time isn't
    // deterministic); a recovery without an LP records the base cost.
    const double modeled_ms = modeled_solve_ms(out.lp_pivots);
    const auto solve = spans_->instant("solve", now, rspan, "", "controller");
    spans_->set_attr(solve, "lambda", out.lambda);
    spans_->set_attr(solve, "modeled_ms", modeled_ms);
    spans_->set_attr(solve, "pivots", static_cast<double>(out.lp_pivots));
    spans_->set_attr(solve, "reports", static_cast<double>(out.reports_used));
    spans_->set_attr(solve, "solved", out.solved ? 1 : 0);
    spans_->set_attr(solve, "warm", out.lp_warm_started ? 1 : 0);
    spans_->set_attr(solve, "patched", out.patched ? 1 : 0);
    conv_solve_latency_.add(modeled_ms / 1000.0);
  }

  current_replan_span_ = rspan;
  out.pushes_sent = distribute(net);
  current_replan_span_ = 0;
  out.pushes_skipped = static_cast<std::size_t>(pushes_skipped_ - skipped_before);
  out.push_bytes = push_bytes_ - bytes_before;

  if (rspan != 0) {
    const auto diff = spans_->instant("plan_diff", now, rspan, "", "controller");
    spans_->set_attr(diff, "bytes", static_cast<double>(out.push_bytes));
    spans_->set_attr(diff, "devices", static_cast<double>(last_plan_.configs.size()));
    spans_->set_attr(diff, "pushed", static_cast<double>(out.pushes_sent));
    spans_->set_attr(diff, "skipped", static_cast<double>(out.pushes_skipped));
    spans_->set_attr(diff, "patched_devices", static_cast<double>(out.devices_patched));
    // Nothing to roll out (every slice unchanged): the plan is live now.
    const auto it = replan_spans_.find(rspan);
    if (it != replan_spans_.end() && it->second.outstanding == 0) {
      complete_replan_span(rspan, now);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------------

net::NodeId add_controller_host(net::GeneratedNetwork& network) {
  // The controller is a management host off the first gateway (campus) or
  // the first core router (gateway-less topologies).
  const net::NodeId attach =
      network.gateways.empty() ? network.core_routers.front() : network.gateways.front();
  const net::NodeId node = network.topo.add_node(net::NodeKind::kHost, "controller",
                                                 net::IpAddress(172, 30, 0, 1));
  network.topo.add_link(attach, node, net::LinkParams{});
  return node;
}

ControlPlane install_control_plane(sim::SimNetwork& simnet, net::GeneratedNetwork& network,
                                   const core::Deployment& deployment,
                                   const policy::PolicyList& policies,
                                   core::Controller& controller, net::NodeId controller_node,
                                   const core::EnforcementPlan& initial_plan,
                                   const core::AgentOptions& options) {
  ControlPlane cp;
  cp.controller_node = controller_node;
  auto controller_agent = std::make_unique<ControllerAgent>(
      controller_node, network.topo.node(controller_node).address, controller, network);
  cp.controller = controller_agent.get();
  simnet.attach(controller_node, std::move(controller_agent));

  std::vector<ManagedDevice*> managed;  // every proxy, then every middlebox
  cp.agents = core::install_devices(
      simnet, network, deployment, policies, initial_plan, options,
      [&](std::unique_ptr<core::DeviceAgent> agent) -> std::unique_ptr<sim::NodeAgent> {
        auto device = std::make_unique<ManagedDevice>(std::move(agent));
        managed.push_back(device.get());
        return device;
      });
  const auto first_middlebox =
      managed.begin() + static_cast<std::ptrdiff_t>(cp.agents.proxies.size());
  cp.proxies.assign(managed.begin(), first_middlebox);
  cp.middleboxes.assign(first_middlebox, managed.end());
  return cp;
}

void ManagedDevice::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels base{{"device", agent_->name()}, {"subsystem", "control"}};
  registry.expose_counter("control_configs_applied", base, &counters_.configs_applied);
  registry.expose_counter("control_configs_rejected", base, &counters_.configs_rejected);
  registry.expose_counter("control_configs_duplicate", base, &counters_.configs_duplicate);
  registry.expose_counter("control_acks_sent", base, &counters_.acks_sent);
  registry.expose_counter("control_reports_sent", base, &counters_.reports_sent);
  agent_->register_metrics(registry);
}

void ControllerAgent::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels labels{{"subsystem", "controller"}};
  registry.expose_counter("ctrl_reports_received", labels, &reports_received_);
  registry.expose_counter("ctrl_malformed_messages", labels, &malformed_);
  registry.expose_counter("ctrl_acks_received", labels, &acks_);
  registry.expose_counter("ctrl_pushes_sent", labels, &pushes_sent_);
  registry.expose_counter("ctrl_pushes_skipped_unchanged", labels, &pushes_skipped_);
  registry.expose_counter("ctrl_push_bytes_sent", labels, &push_bytes_);
  registry.expose_counter("ctrl_retransmissions", labels, &retransmissions_);
  registry.expose_counter("ctrl_pushes_abandoned", labels, &pushes_abandoned_);
  registry.expose_counter("ctrl_stale_acks", labels, &stale_acks_);
  registry.expose_counter("ctrl_replans", labels, &replans_);
  registry.expose_counter("ctrl_replans_suppressed", labels, &replans_suppressed_);
  registry.expose_counter("ctrl_replans_patched", labels, &replans_patched_);
  registry.expose_gauge("ctrl_pending_reports", labels,
                        [this] { return static_cast<double>(pending_reports_); });
  registry.expose_gauge("ctrl_outstanding_pushes", labels,
                        [this] { return static_cast<double>(pending_.size()); });
  registry.expose_gauge("ctrl_config_version", labels,
                        [this] { return static_cast<double>(version_); });
  // conv_* series exist only when the span machinery is attached, so an
  // unattached run's metrics dump stays byte-identical.
  if (spans_ != nullptr) {
    registry.expose_histogram("conv_push_latency", labels, &conv_push_latency_);
    registry.expose_histogram("conv_solve_latency", labels, &conv_solve_latency_);
    registry.expose_histogram("conv_total_unenforced_window", labels,
                              &conv_total_unenforced_window_);
  }
}

void register_metrics(obs::MetricsRegistry& registry, const ControlPlane& plane) {
  if (plane.controller != nullptr) plane.controller->register_metrics(registry);
  for (const ManagedDevice* d : plane.proxies) d->register_metrics(registry);
  for (const ManagedDevice* d : plane.middleboxes) d->register_metrics(registry);
}

}  // namespace sdmbox::control
