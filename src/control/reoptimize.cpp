#include "control/reoptimize.hpp"

#include <cmath>
#include <numeric>

#include "util/log.hpp"

namespace sdmbox::control {

namespace {

std::vector<double> normalize(const std::vector<double>& raw) {
  const double total = std::accumulate(raw.begin(), raw.end(), 0.0);
  std::vector<double> shares(raw.size(), 0.0);
  if (total <= 0) return shares;
  for (std::size_t i = 0; i < raw.size(); ++i) shares[i] = raw[i] / total;
  return shares;
}

}  // namespace

const char* to_string(DriftDetector::Decision d) noexcept {
  switch (d) {
    case DriftDetector::Decision::kSeeded: return "seeded";
    case DriftDetector::Decision::kTrigger: return "trigger";
    case DriftDetector::Decision::kBelowThreshold: return "below-threshold";
    case DriftDetector::Decision::kCooldown: return "cooldown";
    case DriftDetector::Decision::kTooFewReports: return "too-few-reports";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// DriftDetector
// ---------------------------------------------------------------------------

DriftDetector::DriftDetector(double threshold, int cooldown_epochs, std::uint64_t min_reports)
    : DriftDetector([&] {
        ReoptimizeOptions o;
        o.drift_threshold = threshold;
        o.cooldown_epochs = cooldown_epochs;
        o.min_reports = min_reports;
        return o;
      }()) {}

DriftDetector::DriftDetector(const ReoptimizeOptions& options) : opt_(options) {
  SDM_CHECK_MSG(opt_.drift_threshold >= 0 && opt_.drift_threshold <= 1,
                "drift threshold must be in [0, 1]");
  SDM_CHECK_MSG(opt_.cooldown_epochs >= 1, "cooldown must be at least 1 epoch");
}

double DriftDetector::drift(const std::vector<double>& reference,
                            const std::vector<double>& observed) {
  SDM_CHECK_MSG(reference.size() == observed.size(),
                "drift needs load vectors over the same middlebox set");
  const double ref_total = std::accumulate(reference.begin(), reference.end(), 0.0);
  const double obs_total = std::accumulate(observed.begin(), observed.end(), 0.0);
  if (ref_total <= 0 || obs_total <= 0) return (ref_total <= 0) == (obs_total <= 0) ? 0.0 : 1.0;
  double tv = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    tv += std::abs(reference[i] / ref_total - observed[i] / obs_total);
  }
  return 0.5 * tv;
}

double DriftDetector::drift_grouped(const std::vector<double>& reference,
                                    const std::vector<double>& observed) const {
  double d = drift(reference, observed);
  std::vector<double> ref_g;
  std::vector<double> obs_g;
  for (const std::vector<std::size_t>& g : groups_) {
    ref_g.clear();
    obs_g.clear();
    for (const std::size_t i : g) {
      if (i >= reference.size()) continue;
      ref_g.push_back(reference[i]);
      obs_g.push_back(observed[i]);
    }
    // drift() renormalizes each sub-vector by its own total, so this is the
    // TV distance of the load distribution WITHIN one function's
    // implementers — a shift confined there can't hide in the global sum.
    d = std::max(d, drift(ref_g, obs_g));
  }
  return d;
}

DriftDetector::Decision DriftDetector::evaluate(const std::vector<double>& observed,
                                                std::uint64_t pending_reports) {
  ++epochs_since_solve_;
  if (pending_reports < opt_.min_reports) return Decision::kTooFewReports;
  const double total = std::accumulate(observed.begin(), observed.end(), 0.0);
  if (total <= 0) {
    // No load observed at all: nothing to compare (and nothing worth
    // re-balancing). Never seed the reference from silence.
    last_drift_ = 0;
    return Decision::kBelowThreshold;
  }
  if (!has_reference_) {
    // Observe-first: the first usable window defines what the current plan
    // serves; drift is measured against it from the next epoch on.
    reference_ = normalize(observed);
    has_reference_ = true;
    last_drift_ = 0;
    return Decision::kSeeded;
  }
  SDM_CHECK_MSG(observed.size() == reference_.size(),
                "drift needs load vectors over the same middlebox set");
  last_drift_ = drift_grouped(reference_, observed);
  if (epochs_since_solve_ < opt_.cooldown_epochs) return Decision::kCooldown;
  if (last_drift_ > opt_.drift_threshold) return Decision::kTrigger;
  return Decision::kBelowThreshold;
}

void DriftDetector::mark_solved(const std::vector<double>& observed) {
  reference_ = normalize(observed);
  has_reference_ = true;
  epochs_since_solve_ = 0;
}

// ---------------------------------------------------------------------------
// ReoptimizePolicy
// ---------------------------------------------------------------------------

ReoptimizePolicy::ReoptimizePolicy(ControllerAgent& agent, const ControlPlane& plane,
                                   const obs::EpochRecorder& recorder, ReoptimizeOptions params)
    : agent_(agent),
      plane_(plane),
      recorder_(recorder),
      params_(params),
      detector_(params) {
  SDM_CHECK_MSG(params_.epoch_period > 0, "re-optimisation epoch period must be positive");
  SDM_CHECK_MSG(!plane_.agents.middleboxes.empty(), "the loop needs middleboxes to watch");
  base_.assign(plane_.agents.middleboxes.size(), 0.0);
  // Per-function drift groups: plane.agents.middleboxes parallels the deployment's
  // middlebox order, which is also the order cumulative_loads() reads, so
  // index i in the observed vector IS deployment middlebox i. Groups that
  // span the whole deployment duplicate the global drift and are skipped.
  const core::Deployment& dep = agent_.controller().deployment();
  SDM_CHECK_MSG(dep.middleboxes().size() == plane_.agents.middleboxes.size(),
                "control plane and deployment disagree on the middlebox set");
  std::vector<std::vector<std::size_t>> groups;
  for (const policy::FunctionId e : dep.all_functions().to_vector()) {
    std::vector<std::size_t> g;
    for (std::size_t i = 0; i < dep.middleboxes().size(); ++i) {
      if (dep.middleboxes()[i].functions.contains(e)) g.push_back(i);
    }
    if (!g.empty() && g.size() < dep.middleboxes().size()) groups.push_back(std::move(g));
  }
  detector_.set_groups(std::move(groups));
}

void ReoptimizePolicy::start(sim::SimNetwork& net) {
  if (running()) return;
  periodic_ = net.simulator().schedule_every(params_.epoch_period, [this, &net] { epoch(net); });
}

void ReoptimizePolicy::stop() noexcept {
  if (periodic_ != nullptr) periodic_->cancel();
}

std::vector<double> ReoptimizePolicy::cumulative_loads() const {
  std::vector<double> cum(plane_.agents.middleboxes.size(), 0.0);
  for (std::size_t i = 0; i < plane_.agents.middleboxes.size(); ++i) {
    const obs::Labels labels{{"device", plane_.agents.middleboxes[i]->name()},
                             {"subsystem", "middlebox"}};
    cum[i] = recorder_.latest("mbx_processed_packets", labels).value_or(0.0);
  }
  return cum;
}

void ReoptimizePolicy::epoch(sim::SimNetwork& net) {
  ++counters_.epochs;
  const std::vector<double> cum = cumulative_loads();
  std::vector<double> window(cum.size());
  for (std::size_t i = 0; i < cum.size(); ++i) window[i] = cum[i] - base_[i];

  DriftDetector::Decision decision = detector_.evaluate(window, agent_.pending_reports());
  if (decision == DriftDetector::Decision::kTrigger) {
    // The drift trigger roots this episode's trace tree, exactly like a
    // crash roots a failure episode: the replan span below becomes its
    // child via the context stack. Drift never leaves the network
    // unenforced — the old plan keeps enforcing while the new one rolls out.
    obs::SpanId episode = 0;
    if (spans_ != nullptr) {
      episode = spans_->begin("episode:drift", net.simulator().now(), 0, "", "reoptimize");
      spans_->set_attr(episode, "drift", detector_.last_drift());
      spans_->set_attr(episode, "threshold", detector_.threshold());
      spans_->set_attr(episode, "unenforced", 0);
      spans_->push_context(episode);
    }
    ReplanRequest request;
    request.trigger = ReplanTrigger::kDrift;
    const ReplanOutcome outcome = agent_.replan(net, request);
    if (episode != 0) spans_->pop_context();
    if (outcome.suppressed) {
      // The report pool emptied between the gate and the solve (cannot
      // happen from this loop, but replan() owns the final word).
      ++counters_.suppressed;
      ++counters_.suppressed_reports;
      decision = DriftDetector::Decision::kTooFewReports;
      if (episode != 0) {
        spans_->set_attr(episode, "suppressed", 1);
        spans_->end(episode, net.simulator().now());
      }
    } else {
      ++counters_.triggered;
      ++counters_.solves;
      counters_.solve_pivots += outcome.lp_pivots;
      if (outcome.lp_warm_started) ++counters_.solve_warm_starts;
      counters_.pushes += outcome.pushes_sent;
      counters_.push_bytes += outcome.push_bytes;
      solve_ms_modeled_ += modeled_solve_ms(outcome.lp_pivots);
      detector_.mark_solved(window);
      base_ = cum;
      SDM_LOG_INFO("reopt", "drift " << detector_.last_drift() << " > "
                                     << detector_.threshold() << ": re-solved (λ = "
                                     << outcome.lambda << ", " << outcome.pushes_sent
                                     << " pushes)");
    }
  } else if (decision == DriftDetector::Decision::kSeeded) {
    // The reference window is consumed: measure future windows from here.
    base_ = cum;
  } else {
    ++counters_.suppressed;
    switch (decision) {
      case DriftDetector::Decision::kBelowThreshold: ++counters_.suppressed_drift; break;
      case DriftDetector::Decision::kCooldown: ++counters_.suppressed_cooldown; break;
      case DriftDetector::Decision::kTooFewReports: ++counters_.suppressed_reports; break;
      default: break;
    }
  }
  log_.push_back(Event{counters_.epochs, net.simulator().now(), decision, detector_.last_drift()});

  send_reports(net, plane_);
}

void ReoptimizePolicy::register_metrics(obs::MetricsRegistry& registry) const {
  const obs::Labels labels{{"subsystem", "reoptimize"}};
  registry.expose_counter("reopt_epochs", labels, &counters_.epochs);
  registry.expose_counter("reopt_triggered", labels, &counters_.triggered);
  registry.expose_counter("reopt_suppressed", labels, &counters_.suppressed);
  registry.expose_counter("reopt_suppressed_drift", labels, &counters_.suppressed_drift);
  registry.expose_counter("reopt_suppressed_cooldown", labels, &counters_.suppressed_cooldown);
  registry.expose_counter("reopt_suppressed_reports", labels, &counters_.suppressed_reports);
  registry.expose_counter("reopt_solves", labels, &counters_.solves);
  registry.expose_counter("reopt_solve_pivots", labels, &counters_.solve_pivots);
  registry.expose_counter("reopt_solve_warm_starts", labels, &counters_.solve_warm_starts);
  registry.expose_counter("reopt_pushes", labels, &counters_.pushes);
  registry.expose_counter("reopt_push_bytes", labels, &counters_.push_bytes);
  // Modeled (pivot-derived), NOT wall time: keeps same-seed exports
  // byte-identical.
  registry.expose_gauge("reopt_solve_ms", labels, [this] { return solve_ms_modeled_; });
  registry.expose_gauge("reopt_last_drift", labels, [this] { return detector_.last_drift(); });
}

}  // namespace sdmbox::control
