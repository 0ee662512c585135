// Declarative experiment scenarios — the unit of work the sweep runner
// schedules.
//
// A ScenarioSpec is a complete, serializable description of one run: which
// topology (kind, size, seed), which workload (policy classes, packet
// volume), which enforcement strategy and datapath options, which scripted
// fault schedule, and the drift-reoptimisation knobs. It is the flag soup of
// examples/scenario_cli factored into a value type, so a whole §V-style
// evaluation grid — topologies × strategies × fault schedules × seeds — is a
// list of specs instead of a shell script of CLI invocations.
//
// Serialization is a line-based `key = value` text format ('#' comments,
// unknown keys rejected, every field optional over the defaults), chosen
// over JSON because the repo writes JSON but deliberately never parses it.
// to_text() emits every field in a fixed order with %.17g doubles, so
// parse_text(to_text(s)) == s exactly — the round trip the exp tests pin.
//
// Replicate seeds derive from (base_seed, task_index) via the splitmix64
// sequence (util::mix64 is its finalizer): derive_seed(base, i) walks the
// stream positioned at i. Every task's seed is therefore a pure function of
// the suite's base seed and the task's position — independent of how many
// worker threads ran it, which is half of the suite determinism contract
// (the other half is collecting results in task order; see runner.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/reoptimize_options.hpp"
#include "core/plan.hpp"
#include "lp/simplex.hpp"
#include "util/hash.hpp"

namespace sdmbox::exp {

/// Evaluation topology generator to instantiate (§IV.A).
enum class TopologyKind : std::uint8_t { kCampus, kWaxman };

/// Scripted fault timeline applied during the packet-level run.
enum class FaultScript : std::uint8_t {
  kNone,       // fault-free run
  kChaos,      // victim-middlebox crash + restart, core<->gateway link flap,
               // lossy control channel (the chaos_test / scenario_cli timeline)
  kGenerated,  // randomized crash/restart/link-flap schedule derived from
               // chaos_seed (verify::generate_chaos) — many timelines, one knob
};

const char* to_string(TopologyKind k) noexcept;
const char* to_string(FaultScript f) noexcept;

/// One fully described run. Field defaults reproduce scenario_cli's
/// defaults, so an empty spec file is the CLI's no-flag invocation.
struct ScenarioSpec {
  // --- topology: kind, size, seed ---
  TopologyKind topology = TopologyKind::kCampus;
  bool off_path = false;            // off-path proxies (§III.A, Figure 2)
  std::uint64_t seed = 2019;        // master seed: topology + workload + traces
  std::size_t campus_edge_count = 10;
  std::size_t campus_core_count = 16;
  std::size_t waxman_edge_count = 400;
  std::size_t waxman_core_count = 25;

  // --- workload ---
  std::uint64_t packets = 1'000'000;   // target policy-traffic packet volume
  std::size_t policies_per_class = 4;  // ×3 classes (§IV.A)

  // --- enforcement ---
  core::StrategyKind strategy = core::StrategyKind::kLoadBalanced;
  std::string fail_one;  // pre-fail one implementer of this function ("" = none)
  /// Which simplex engine solves the LB LPs: the sparse revised simplex
  /// (default) or the dense tableau oracle. Same optimum either way; the
  /// pivot sequences (and so pivot-derived metrics) differ per engine.
  lp::SimplexEngine lp_engine = lp::SimplexEngine::kSparse;
  /// Warm-start re-solves from the previous compile's basis (sparse only).
  /// On by default since the incremental-reoptimization rework: the solver
  /// cold-falls-back whenever the cached basis doesn't fit, so warm starts
  /// change pivot counts, never the optimum.
  bool lp_warm_start = true;

  // --- datapath options (core::AgentOptions) ---
  bool flow_cache = true;        // §III.D flow cache in front of the classifier
  bool label_switching = true;   // §III.E label switching (needs flow cache)
  double wp_cache_hit_rate = 0;  // §III.F WP cache hit probability
  bool peer_health = true;       // local failover (blacklist + candidate fallback)

  // --- packet-level run ---
  FaultScript faults = FaultScript::kChaos;
  /// Seed for the kGenerated fault schedule; 0 = reuse the master seed.
  std::uint64_t chaos_seed = 0;
  double epoch = 0.5;         // EpochRecorder sampling period (simulated s)
  double trace_sample = 1.0;  // PathTracer flow sampling rate in [0, 1]

  // --- enforcement-invariant verification ---
  /// Attach the verify::InvariantOracle as a live trace observer and report
  /// violations in the run's metrics (verify_* series). Off by default: the
  /// oracle needs the trace stream (trace_sample > 0 to see anything).
  bool verify = false;

  // --- control-plane spans ---
  /// Attach the obs::SpanTracer to the whole control plane: fault episodes,
  /// detection, replan/solve/push/ack become causal span trees and the
  /// conv_* convergence-latency histograms appear in the registry. On by
  /// default — attaching is pure observation (exports beyond the additive
  /// conv_* series are byte-identical either way).
  bool spans = true;

  // --- drift-triggered re-optimisation (epoch_period 0 = loop off) ---
  /// Shared knob struct (control::ReoptimizeOptions): the same fields the
  /// ReoptimizePolicy consumes and scenario_cli's --reopt-* flags set, so
  /// spec files and CLI stay mechanically in sync. Serialized as the
  /// reopt_* keys.
  control::ReoptimizeOptions reopt{.epoch_period = 0};

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  /// Empty string when the spec is runnable; otherwise the first violated
  /// constraint, human-readable.
  std::string validate() const;

  /// Full `key = value` rendering, every field, fixed order, round-trips
  /// exactly through parse_text.
  std::string to_text() const;
};

struct SpecParseResult {
  ScenarioSpec spec;
  std::vector<std::string> errors;  // one per offending line
  bool ok() const noexcept { return errors.empty(); }
};

/// Outcome of setting one field from its text value.
enum class FieldStatus : std::uint8_t { kOk, kUnknownKey, kBadValue };

/// Set the field named `key` (a spec-file key such as "packets") from its
/// text value: the per-key parser parse_text applies to every line, shared
/// with scenario_cli's valued flags. Integers must be plain decimal digits
/// that fit the field (no sign, no trailing junk); doubles must consume the
/// whole value. Cross-field constraints are left to validate(). On
/// kBadValue or kUnknownKey the spec is unchanged.
FieldStatus set_field(ScenarioSpec& s, const std::string& key, const std::string& value);

/// Parse the `key = value` format over `defaults`. Missing keys keep their
/// default; unknown keys, malformed lines and out-of-domain values are
/// reported with their line number.
SpecParseResult parse_text(const std::string& text, const ScenarioSpec& defaults = {});

/// Replicate-seed derivation: position `task_index` of the splitmix64
/// stream seeded with `base_seed`. Deterministic, collision-resistant
/// across indices, and independent of thread scheduling — the sweep
/// runner's only source of per-task randomness.
constexpr std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t task_index) noexcept {
  // splitmix64 state after task_index steps is base + gamma*i; mix64 applies
  // the stream's output finalizer to it.
  return util::mix64(base_seed + 0x9e3779b97f4a7c15ULL * task_index);
}

}  // namespace sdmbox::exp
