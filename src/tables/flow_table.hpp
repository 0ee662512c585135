// Per-node flow cache (§III.D) with label-switching state (§III.E).
//
// Stores ⟨f, a⟩ pairs keyed by 5-tuple so that only the first packet of a
// flow pays for multi-field classification. The entry keeps the matched
// policy's id, which names a in the device's P_x, so entries own no heap
// memory. Three refinements from the paper, all implemented here:
//  * negative caching — a flow that matches no policy is cached with a null
//    action so later packets skip the policy table entirely;
//  * soft state — an entry idle past `idle_timeout` expires the next time a
//    lookup or confirmation finds it;
//  * label switching — proxy-side entries carry a locally unique label and a
//    "switched" flag set when the last middlebox's confirmation of that
//    label arrives.
//
// Bounded capacity with least-recently-used eviction protects the middlebox
// from state exhaustion under flow churn (the paper leaves sizing open; a
// production table must bound memory).
//
// Storage is a chunked slab of entry slots (stable addresses — see
// StableSlab) plus a FlatIndex mapping the cached
// 64-bit FlowId hash to slot ids. The LRU list is intrusive — slot-index
// prev/next fields inside the slab — so a hit is one probe run and two index
// rewires with no node allocation anywhere: at steady state (slab warmed,
// index below its load limit) the table performs zero heap operations per
// packet, misses and evictions included. Callers that already hold the
// flow's hash (agents compute it once per packet) use the hash-taking
// overloads to skip rehashing.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "packet/packet.hpp"
#include "policy/policy.hpp"
#include "tables/flat_index.hpp"
#include "tables/slab.hpp"

namespace sdmbox::obs {
class MetricsRegistry;
class Labels;
}  // namespace sdmbox::obs

namespace sdmbox::tables {

/// Simulation time in seconds.
using SimTime = double;

struct FlowEntry {
  packet::FlowId flow;
  /// Matched policy, or invalid for a negative (null-action) entry.
  policy::PolicyId policy;
  /// Topology node the flow's packets are currently tunneled to (the first
  /// middlebox of its chain), recorded by the proxy on each send so the
  /// entry can be invalidated when that box is locally blacklisted.
  /// net::NodeId::kInvalid when not tracked.
  std::uint32_t next_hop_node = 0xffffffffu;
  SimTime last_used = 0;
  /// The flow's source and destination stub-subnet indices, cached by the
  /// owning agent next to the policy; -1 outside every subnet.
  std::int16_t src_subnet = -1;
  std::int16_t dst_subnet = -1;
  /// Locally unique label allocated by the proxy; 0 when unused.
  std::uint16_t label = 0;
  /// Set when the chain tail's confirmation of `label` arrived.
  bool label_switched = false;

  bool is_negative() const noexcept { return !policy.valid(); }
};
static_assert(std::is_trivially_copyable_v<FlowEntry>);

struct FlowTableStats {
  std::uint64_t hits = 0;
  std::uint64_t negative_hits = 0;  // subset of hits landing on null entries
  std::uint64_t misses = 0;
  std::uint64_t expirations = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // entries dropped by invalidate_where()

  double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class FlowTable {
public:
  /// idle_timeout: seconds an entry may go unreferenced before expiring.
  /// capacity: maximum live entries; LRU eviction beyond that.
  explicit FlowTable(SimTime idle_timeout = 30.0, std::size_t capacity = 1 << 20);

  /// The table's bucketing hash for `f`. Callers touching the table more
  /// than once per packet (lookup-then-insert on miss) compute it once and
  /// pass it to the hash-taking overloads below.
  static std::uint64_t hash_of(const packet::FlowId& f) noexcept { return f.hash(kHashSeed); }

  /// Look up `f` at time `now`. Refreshes last_used on hit; lazily expires
  /// and miss-counts entries idle past the timeout. The returned pointer is
  /// invalidated by the next non-const call.
  FlowEntry* lookup(const packet::FlowId& f, SimTime now) { return lookup(f, hash_of(f), now); }
  FlowEntry* lookup(const packet::FlowId& f, std::uint64_t hash, SimTime now);

  /// Insert (or overwrite) an entry; returns it. An invalid `policy` makes
  /// a negative entry. Allocates no label — see allocate_label(). `hash`
  /// must equal hash_of(f). Slots never move, so the reference stays valid
  /// until the entry is invalidated, expires or is evicted.
  FlowEntry& insert(const packet::FlowId& f, policy::PolicyId policy, SimTime now) {
    return insert(f, hash_of(f), policy, now);
  }
  FlowEntry& insert(const packet::FlowId& f, std::uint64_t hash, policy::PolicyId policy,
                    SimTime now);

  /// Assign a locally unique non-zero label to an existing entry (proxy-side,
  /// first packet of a flow under label switching). Returns the label.
  std::uint16_t allocate_label(FlowEntry& entry);

  /// Mark the entry for `f` as label-switched: the chain tail confirmed
  /// `label`. Returns false, changing nothing, unless the entry holds that
  /// label — a confirmation that outlived its entry must not switch the
  /// entry re-created in its place, whose own label no box may have bound
  /// yet. Also false if the entry is gone or idle past the timeout (it then
  /// expires here; the paper's soft-state design drops the confirmation).
  bool confirm_label(const packet::FlowId& f, std::uint16_t label, SimTime now);

  /// Drop every entry matching `pred` (e.g. all flows pinned to a failed
  /// middlebox). Returns the number of entries erased. Erasing never moves
  /// live slots, so the slab walk is safe against the erasures it performs.
  template <typename Pred>
  std::size_t invalidate_where(Pred&& pred) {
    std::size_t erased = 0;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].live && pred(slots_[i].entry)) {
        erase_slot(i);
        ++stats_.invalidations;
        ++erased;
      }
    }
    return erased;
  }

  std::size_t size() const noexcept { return size_; }
  const FlowTableStats& stats() const noexcept { return stats_; }

  /// Expose this table's counters as flow_cache_* registry views under
  /// `base` labels (the stats struct stays the hot-path storage).
  void register_metrics(obs::MetricsRegistry& registry, const obs::Labels& base) const;

private:
  static constexpr std::uint64_t kHashSeed = 0x7ab1e5;  // "table(s)"
  static constexpr std::uint32_t kNil = FlatIndex::kNil;

  /// Slab slot: the entry, its cached bucketing hash, and the intrusive LRU
  /// links. A dead slot reuses `lru_next` as its free-list link.
  struct Slot {
    FlowEntry entry;
    std::uint64_t hash = 0;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    bool live = false;
  };

  std::uint32_t find_slot(const packet::FlowId& f, std::uint64_t hash) const noexcept;
  void lru_unlink(std::uint32_t idx) noexcept;
  void lru_push_front(std::uint32_t idx) noexcept;
  void touch(std::uint32_t idx, SimTime now) noexcept;
  void erase_slot(std::uint32_t idx);
  void evict_for_space();

  SimTime idle_timeout_;
  std::size_t capacity_;
  FlatIndex index_;
  StableSlab<Slot> slots_;  // chunked: entry references survive later inserts
  std::uint32_t free_head_ = kNil;   // LIFO free list through lru_next
  std::uint32_t lru_head_ = kNil;    // most recently used
  std::uint32_t lru_tail_ = kNil;    // least recently used (eviction victim)
  std::size_t size_ = 0;
  std::uint16_t next_label_ = 1;
  std::uint64_t live_labels_ = 0;
  // One bit per label value up to the highest ever handed out (at most
  // 2^16 bits, 8 KB); allocate_label() doubles it on demand, so a table that
  // never labels holds none. It follows the rolling next_label_, not the
  // live labels: under flow turnover a wave of fresh labeled flows
  // allocates whenever the counter first passes a power of two.
  std::vector<bool> label_in_use_;
  FlowTableStats stats_;
};

}  // namespace sdmbox::tables
