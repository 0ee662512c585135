// Causal control-plane spans — the third telemetry pillar next to metrics
// (what happened, in aggregate) and packet traces (what one packet did).
//
// A Span is one control-plane activity on the SIMULATED clock: a name,
// device/subsystem labels, start/end sim-time, a parent span, the trace it
// belongs to (the root span's id), and sorted key=value numeric attributes.
// Components begin a span when an episode opens (a fault fires, drift
// trips), add children for each causal stage (detection, LP solve, plan
// diff, per-device push, ack), and end spans as the stages complete — so a
// whole dependability episode exports as one tree whose edge timestamps ARE
// the convergence latencies.
//
// Determinism contract (same as the rest of obs):
//  * ids are sequential and assigned in call order — same-seed runs produce
//    identical span tables, so JSON/CSV exports are byte-identical;
//  * storage is a bounded ring over ids (capacity newest spans survive,
//    dropped() counts eviction); operations on evicted ids are no-ops;
//  * attributes are numeric only and kept sorted by key;
//  * the tracer never schedules events, draws randomness, or touches the
//    components it observes — attaching it cannot perturb a run.
//
// Cross-component correlation runs through two tiny facilities:
//  * correlate(key, id) / correlated_open(key) — the fault injector files
//    its episode root under the crashed node's id; the health monitor finds
//    it again at declaration time without knowing the injector exists;
//  * push_context(id) / context() — a caller (health repush, drift loop)
//    parks the episode span it acts on behalf of; ControllerAgent::replan
//    parents its span under the context top and closes every context
//    episode when the rollout is fully acknowledged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sdmbox::obs {

using SpanId = std::uint64_t;  // sequential from 1; 0 = "no span"

struct Span {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  SpanId trace = 0;   // root span id of this tree
  std::string name;
  std::string device;     // node name, "" when not device-scoped
  std::string subsystem;  // fault / health / controller / reoptimize / ...
  double start = 0;       // simulated seconds
  double end = -1;        // simulated seconds; < 0 = still open
  /// Numeric attributes, sorted by key (numbers keep exports trivially
  /// deterministic; enumerations go into the span NAME, e.g. "replan:drift").
  std::vector<std::pair<std::string, double>> attrs;

  bool open() const noexcept { return end < 0; }
  double duration() const noexcept { return open() ? 0.0 : end - start; }
  /// Attribute value, or `fallback` when the key is absent.
  double attr_or(std::string_view key, double fallback = 0) const noexcept;
};

class SpanTracer {
public:
  explicit SpanTracer(std::size_t capacity = 1 << 12);

  // --- span lifecycle ---------------------------------------------------

  /// Open a span starting `at`. A zero parent makes a root (trace = own id);
  /// otherwise the trace id is inherited from the parent (an evicted or
  /// unknown parent degrades to a root — never an error).
  SpanId begin(std::string name, double at, SpanId parent = 0, std::string device = {},
               std::string subsystem = {});

  /// Close an open span at `at`. No-op on unknown/evicted/closed ids.
  void end(SpanId id, double at);

  /// A zero-duration span (begin + end at the same instant).
  SpanId instant(std::string name, double at, SpanId parent = 0, std::string device = {},
                 std::string subsystem = {});

  /// Insert or overwrite one attribute (kept sorted by key). No-op on
  /// evicted/unknown ids.
  void set_attr(SpanId id, std::string_view key, double value);
  /// Add `delta` to an attribute, creating it at `delta` when absent.
  void add_attr(SpanId id, std::string_view key, double delta);

  // --- lookup -----------------------------------------------------------

  /// The span, or nullptr when unknown or evicted. The pointer is
  /// invalidated by the next begin()/instant().
  const Span* find(SpanId id) const noexcept;

  /// Surviving spans in id (creation) order — the export order.
  std::vector<Span> spans() const;

  std::uint64_t started() const noexcept { return next_ - 1; }
  /// Spans shed from the ring by eviction; > 0 means history is incomplete.
  std::uint64_t dropped() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Most recently begun open span whose name starts with `prefix`; 0 when
  /// none. How the oracle finds "the replan in flight right now".
  SpanId latest_open(std::string_view prefix) const noexcept;

  // --- correlation ------------------------------------------------------

  /// File `id` under an arbitrary 64-bit key (e.g. a crashed node id).
  void correlate(std::uint64_t key, SpanId id);
  /// The span filed under `key`, provided it is still alive AND open;
  /// 0 otherwise.
  SpanId correlated_open(std::uint64_t key) const noexcept;

  // --- context stack ----------------------------------------------------

  /// Park a span id for a downstream component to pick up (LIFO).
  void push_context(SpanId id) { context_.push_back(id); }
  void pop_context() {
    if (!context_.empty()) context_.pop_back();
  }
  /// Top of the context stack; 0 when empty.
  SpanId context() const noexcept { return context_.empty() ? 0 : context_.back(); }
  const std::vector<SpanId>& context_stack() const noexcept { return context_; }

private:
  Span* mutable_find(SpanId id) noexcept;
  std::size_t slot(SpanId id) const noexcept { return (id - 1) % capacity_; }

  std::size_t capacity_;
  SpanId next_ = 1;         // id the next begin() will assign
  std::vector<Span> ring_;  // slot (id-1) % capacity holds span `id` while alive
  std::vector<SpanId> open_;
  std::unordered_map<std::uint64_t, SpanId> correlations_;
  std::vector<SpanId> context_;
};

}  // namespace sdmbox::obs
