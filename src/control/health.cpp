#include "control/health.hpp"

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace sdmbox::control {

HealthMonitor::HealthMonitor(ControllerAgent& agent, core::Deployment& deployment,
                             const net::GeneratedNetwork& network, HealthParams params)
    : agent_(agent), deployment_(deployment), params_(params) {
  SDM_CHECK(params_.probe_period > 0);
  SDM_CHECK(params_.miss_threshold >= 1);
  for (const core::MiddleboxInfo& m : deployment.middleboxes()) {
    devices_.push_back(Device{m.node, network.topo.node(m.node).address, false});
  }
  for (const net::NodeId p : network.proxies) {
    devices_.push_back(Device{p, network.topo.node(p).address, true});
  }
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    by_addr_[devices_[i].address.value()] = i;
  }
  agent_.set_health_monitor(this);
}

void HealthMonitor::start(sim::SimNetwork& net) {
  if (running_) return;
  running_ = true;
  round(net);
}

bool HealthMonitor::declared_failed(net::NodeId node) const {
  for (const Device& d : devices_) {
    if (d.node == node) return d.declared_failed;
  }
  return false;
}

bool HealthMonitor::declare(sim::SimNetwork& net, Device& device, sim::SimTime now) {
  device.declared_failed = true;
  ++counters_.failures_declared;
  const bool false_positive = net.node_up(device.node);
  if (false_positive) ++counters_.false_positives;
  counters_.detection_latency_total += now - device.last_reply_at;
  log_.push_back(Event{device.node, now, true});
  bool pushed_context = false;
  if (spans_ != nullptr) {
    const std::string& name = net.topology().node(device.node).name;
    // Join the fault injector's episode tree via the node-id correlation; a
    // declaration with no open fault episode (false positive, or a crash
    // before the tracer attached) roots its own.
    obs::SpanId episode = spans_->correlated_open(device.node.v);
    if (episode == 0) {
      episode = spans_->begin("episode:declared", device.last_reply_at, 0, name, "health");
      spans_->set_attr(episode, "node", static_cast<double>(device.node.v));
      spans_->set_attr(episode, "unenforced", false_positive ? 0 : 1);
      spans_->correlate(device.node.v, episode);
    }
    // The detection span covers the silent interval: last heard from ->
    // declared failed. Its duration IS the detection latency the registry's
    // health_detection_latency_total sums.
    const obs::SpanId detect = spans_->begin("detect", device.last_reply_at, episode, name, "health");
    spans_->set_attr(detect, "misses", device.misses);
    spans_->set_attr(detect, "false_positive", false_positive ? 1 : 0);
    spans_->end(detect, now);
    conv_detection_latency_.add(now - device.last_reply_at);
    spans_->push_context(episode);
    pushed_context = true;
  }
  SDM_LOG_INFO("health", "declared " << net.topology().node(device.node).name
                                     << " failed after " << device.misses << " silent rounds");
  // Deliberately keep the device's differential fingerprint: pushing its
  // full slice now would only feed the retransmission machinery a guaranteed
  // abandonment. The fingerprint is voided on revival (forcing a full
  // resync) and by push abandonment itself.
  return pushed_context;
}

void HealthMonitor::round(sim::SimNetwork& net) {
  if (!running_) return;
  const sim::SimTime now = net.simulator().now();
  std::vector<net::NodeId> newly_failed;  // middleboxes marked failed this round
  int contexts_pushed = 0;
  for (Device& d : devices_) {
    if (d.seq_sent > d.seq_acked) {
      ++d.misses;
      if (!d.declared_failed && d.misses >= params_.miss_threshold) {
        if (declare(net, d, now)) ++contexts_pushed;
        // Proxies can't be routed around (they ARE the subnet's enforcement
        // point); only middlebox failures change the assignment problem.
        if (!d.is_proxy && deployment_.set_failed(d.node, true)) {
          newly_failed.push_back(d.node);
        }
      }
    } else {
      d.misses = 0;
    }
    packet::Packet probe;
    probe.kind = packet::PacketKind::kHeartbeat;
    probe.inner.src = agent_.address();
    probe.inner.dst = d.address;
    probe.inner.protocol = packet::kProtoUdp;
    probe.payload_bytes = 8;
    net.new_control(probe).seq = ++d.seq_sent;
    ++counters_.probes_sent;
    net.inject(agent_.node(), probe, now);
  }
  if (!newly_failed.empty()) {
    // One dead middlebox -> patch the plan around it; anything more complex
    // falls back to the full recompute path.
    repush(net, newly_failed.size() == 1 ? newly_failed.front() : net::NodeId{});
  }
  // The episode contexts only existed so the repush's replan span could
  // parent under (and later close) them.
  for (; contexts_pushed > 0; --contexts_pushed) {
    if (spans_ != nullptr) spans_->pop_context();
  }
  net.simulator().schedule_in(params_.probe_period, [this, &net] { round(net); });
}

void HealthMonitor::on_probe_reply(sim::SimNetwork& net, net::IpAddress from,
                                   std::uint64_t seq) {
  const auto it = by_addr_.find(from.value());
  if (it == by_addr_.end()) return;  // not one of ours (e.g. a peer-probe ack)
  Device& d = devices_[it->second];
  ++counters_.replies_received;
  if (seq > d.seq_acked) d.seq_acked = seq;
  d.misses = 0;
  d.last_reply_at = net.simulator().now();
  if (!d.declared_failed) return;

  // A declared-dead device answered: revive it and (for middleboxes) fold it
  // back into the assignment problem.
  d.declared_failed = false;
  ++counters_.revivals_declared;
  log_.push_back(Event{d.node, d.last_reply_at, false});
  SDM_LOG_INFO("health", "revived " << net.topology().node(d.node).name);
  agent_.forget_device(d.node);
  // The restart episode (opened by the fault injector, if any) is the
  // revival's causal root: the resync replan parents under it.
  obs::SpanId episode = 0;
  if (spans_ != nullptr) {
    episode = spans_->correlated_open(d.node.v);
    if (episode != 0) spans_->push_context(episode);
  }
  if (!d.is_proxy && deployment_.set_failed(d.node, false)) repush(net);
  if (episode != 0) spans_->pop_context();
}

void HealthMonitor::repush(sim::SimNetwork& net, net::NodeId failed_node) {
  try {
    agent_.replan(net, {.trigger = ReplanTrigger::kFailure, .failed_node = failed_node});
    ++counters_.repushes;
  } catch (const ContractViolation&) {
    // Every live implementer of some needed function is gone — no valid plan
    // exists. Keep the current config and retry on the next state change.
    ++counters_.recompute_refused;
  }
}

void HealthMonitor::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels labels{{"subsystem", "health"}};
  registry.expose_counter("health_probes_sent", labels, &counters_.probes_sent);
  registry.expose_counter("health_replies_received", labels, &counters_.replies_received);
  registry.expose_counter("health_failures_declared", labels, &counters_.failures_declared);
  registry.expose_counter("health_revivals_declared", labels, &counters_.revivals_declared);
  registry.expose_counter("health_false_positives", labels, &counters_.false_positives);
  registry.expose_counter("health_repushes", labels, &counters_.repushes);
  registry.expose_counter("health_recompute_refused", labels, &counters_.recompute_refused);
  registry.expose_gauge("health_detection_latency_total_s", labels,
                        [this] { return counters_.detection_latency_total; });
  registry.expose_gauge("health_mean_detection_latency_s", labels,
                        [this] { return mean_detection_latency(); });
  // conv_* series exist only when the span machinery is attached, so an
  // unattached run's metrics dump stays byte-identical (the acceptance
  // contract for "attaching the tracer perturbs nothing").
  if (spans_ != nullptr) {
    registry.expose_histogram("conv_detection_latency", labels, &conv_detection_latency_);
  }
}

}  // namespace sdmbox::control
