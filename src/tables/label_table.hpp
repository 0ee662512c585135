// Per-middlebox label table (§III.E).
//
// Keyed by ⟨src | l⟩ — the original source address concatenated with the
// proxy-allocated label, which together are network-unique because labels
// are locally unique per proxy and the proxy's address rides the outer IP
// header's source field during chain setup. The paper's entry is
// ⟨src|l, a, dst⟩. Of a, a box reads only how many chain functions it
// applies, so each entry stores that count, the pinned next hop mid-chain,
// and the original destination address dst at the last middlebox of the
// chain. Subsequent packets are label-switched by rewriting the destination
// address instead of being tunneled IP-over-IP.
//
// Storage mirrors FlowTable: a chunked slot slab plus a FlatIndex over the
// cached key hash, so steady-state lookups touch one probe run and allocate
// nothing, and entries own no heap memory. Idle entries expire the next
// time a lookup finds them.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/ip.hpp"
#include "tables/flat_index.hpp"
#include "tables/flow_table.hpp"
#include "tables/slab.hpp"
#include "util/hash.hpp"

namespace sdmbox::tables {

struct LabelKey {
  net::IpAddress src;   // original flow source address
  std::uint16_t label;  // proxy-allocated label

  friend constexpr auto operator<=>(const LabelKey&, const LabelKey&) noexcept = default;
};

struct LabelEntry {
  SimTime last_used = 0;
  /// Address of the next middlebox in the chain, chosen when the flow's
  /// first packet passed through tunneled. Label-switched packets have their
  /// destination rewritten hop by hop, so the choice cannot be recomputed
  /// from the packet — it is pinned here. Absent at the chain tail.
  std::optional<net::IpAddress> next_hop;
  /// Original destination; present only at the last middlebox of the chain.
  std::optional<net::IpAddress> final_dst;
  /// Address of the proxy that set the chain up (outer source during setup).
  /// Lets a middlebox send kLabelTeardown back when the pinned next hop
  /// stops answering, so the proxy re-establishes the flow elsewhere.
  net::IpAddress proxy_addr;
  /// Chain functions this box applies per packet of the flow: more than one
  /// when a consolidated middlebox serves consecutive chain positions. At
  /// most policy::kMaxFunctions.
  std::uint8_t functions_applied = 1;

  bool is_chain_tail() const noexcept { return final_dst.has_value(); }
};
static_assert(std::is_trivially_copyable_v<LabelEntry>);

struct LabelTableStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t expirations = 0;
  std::uint64_t invalidations = 0;  // entries dropped by invalidate_next_hop()
};

class LabelTable {
public:
  explicit LabelTable(SimTime idle_timeout = 30.0);

  /// The table's bucketing hash for `key`; see FlowTable::hash_of.
  static std::uint64_t hash_of(const LabelKey& key) noexcept {
    return util::hash_combine(util::mix64(key.src.value()), key.label);
  }

  /// Insert or overwrite the entry for `key`. `hash` must equal hash_of(key).
  LabelEntry& insert(const LabelKey& key, std::uint64_t hash, LabelEntry entry, SimTime now);

  /// Lookup with soft-state expiry; nullptr on miss. The returned pointer is
  /// invalidated by the next non-const call.
  LabelEntry* lookup(const LabelKey& key, SimTime now) { return lookup(key, hash_of(key), now); }
  LabelEntry* lookup(const LabelKey& key, std::uint64_t hash, SimTime now);

  /// Drop every entry whose pinned next hop is `next_hop` (that middlebox
  /// stopped answering). Returns the removed entries so the caller can send
  /// kLabelTeardown to each entry's proxy.
  std::vector<std::pair<LabelKey, LabelEntry>> invalidate_next_hop(net::IpAddress next_hop);

  std::size_t size() const noexcept { return size_; }
  const LabelTableStats& stats() const noexcept { return stats_; }

  /// Expose this table's counters as label_table_* registry views under
  /// `base` labels.
  void register_metrics(obs::MetricsRegistry& registry, const obs::Labels& base) const;

private:
  static constexpr std::uint32_t kNil = FlatIndex::kNil;

  /// Slab slot: key + entry + cached hash. A dead slot's `free_next` chains
  /// the LIFO free list.
  struct Slot {
    LabelKey key{};
    LabelEntry entry;
    std::uint64_t hash = 0;
    std::uint32_t free_next = kNil;
    bool live = false;
  };

  std::uint32_t find_slot(const LabelKey& key, std::uint64_t hash) const noexcept;
  void erase_slot(std::uint32_t idx);

  SimTime idle_timeout_;
  FlatIndex index_;
  StableSlab<Slot> slots_;  // chunked: entry references survive later inserts
  std::uint32_t free_head_ = kNil;
  std::size_t size_ = 0;
  LabelTableStats stats_;
};

}  // namespace sdmbox::tables
