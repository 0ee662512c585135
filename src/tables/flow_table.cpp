#include "tables/flow_table.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace sdmbox::tables {

FlowTable::FlowTable(SimTime idle_timeout, std::size_t capacity)
    : idle_timeout_(idle_timeout), capacity_(capacity) {
  SDM_CHECK(idle_timeout > 0);
  SDM_CHECK(capacity >= 1);
}

std::uint32_t FlowTable::find_slot(const packet::FlowId& f, std::uint64_t hash) const noexcept {
  return index_.find(hash, [&](std::uint32_t slot) { return slots_[slot].entry.flow == f; });
}

void FlowTable::lru_unlink(std::uint32_t idx) noexcept {
  Slot& s = slots_[idx];
  if (s.lru_prev != kNil) {
    slots_[s.lru_prev].lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next != kNil) {
    slots_[s.lru_next].lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
}

void FlowTable::lru_push_front(std::uint32_t idx) noexcept {
  Slot& s = slots_[idx];
  s.lru_prev = kNil;
  s.lru_next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].lru_prev = idx;
  lru_head_ = idx;
  if (lru_tail_ == kNil) lru_tail_ = idx;
}

void FlowTable::touch(std::uint32_t idx, SimTime now) noexcept {
  slots_[idx].entry.last_used = now;
  if (lru_head_ == idx) return;
  lru_unlink(idx);
  lru_push_front(idx);
}

void FlowTable::erase_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  if (const std::uint16_t label = s.entry.label; label != 0) {
    --live_labels_;
    label_in_use_[label] = false;
  }
  lru_unlink(idx);
  index_.erase(s.hash, idx);
  s.live = false;
  s.lru_next = free_head_;
  free_head_ = idx;
  --size_;
}

FlowEntry* FlowTable::lookup(const packet::FlowId& f, std::uint64_t hash, SimTime now) {
  const std::uint32_t idx = find_slot(f, hash);
  if (idx == kNil) {
    ++stats_.misses;
    return nullptr;
  }
  if (now - slots_[idx].entry.last_used > idle_timeout_) {
    // Lazy soft-state expiry: the entry died of idleness before this packet.
    erase_slot(idx);
    ++stats_.expirations;
    ++stats_.misses;
    return nullptr;
  }
  touch(idx, now);
  ++stats_.hits;
  if (slots_[idx].entry.is_negative()) ++stats_.negative_hits;
  return &slots_[idx].entry;
}

FlowEntry& FlowTable::insert(const packet::FlowId& f, std::uint64_t hash, policy::PolicyId policy,
                             SimTime now) {
  SDM_DCHECK(hash == hash_of(f));
  std::uint32_t idx = find_slot(f, hash);
  if (idx != kNil) {
    Slot& s = slots_[idx];
    if (const std::uint16_t label = s.entry.label; label != 0) {
      --live_labels_;
      label_in_use_[label] = false;
    }
    s.entry = FlowEntry{.flow = f, .policy = policy, .last_used = now};
    touch(idx, now);
    return s.entry;
  }
  if (size_ >= capacity_) evict_for_space();
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slots_[idx].lru_next;
  } else {
    idx = slots_.push();
  }
  Slot& s = slots_[idx];
  s.entry = FlowEntry{.flow = f, .policy = policy, .last_used = now};
  s.hash = hash;
  s.live = true;
  lru_push_front(idx);
  index_.insert(hash, idx);
  ++size_;
  return s.entry;
}

void FlowTable::evict_for_space() {
  SDM_CHECK(lru_tail_ != kNil);
  erase_slot(lru_tail_);
  ++stats_.evictions;
}

std::uint16_t FlowTable::allocate_label(FlowEntry& entry) {
  SDM_CHECK_MSG(entry.label == 0, "entry already labeled");
  SDM_CHECK_MSG(live_labels_ < 0xffff, "label space exhausted");
  // Labels are locally unique among live entries; 0 is reserved for
  // "no label". Scan the rolling counter forward until a free value; the
  // bitmap makes each probe O(1) and termination follows from
  // live_labels_ < 0xffff. A candidate past the bitmap has never been
  // handed out: the bitmap doubles to cover it (at most 2^16 bits).
  for (;;) {
    const std::uint16_t candidate = next_label_;
    next_label_ = static_cast<std::uint16_t>(next_label_ == 0xffff ? 1 : next_label_ + 1);
    if (candidate >= label_in_use_.size()) {
      label_in_use_.resize(std::max<std::size_t>(64, std::bit_ceil(candidate + 1u)), false);
    }
    if (!label_in_use_[candidate]) {
      label_in_use_[candidate] = true;
      entry.label = candidate;
      ++live_labels_;
      return candidate;
    }
  }
}

bool FlowTable::confirm_label(const packet::FlowId& f, std::uint16_t label, SimTime now) {
  const std::uint32_t idx = find_slot(f, hash_of(f));
  if (idx == kNil) return false;
  if (now - slots_[idx].entry.last_used > idle_timeout_) {
    erase_slot(idx);
    ++stats_.expirations;
    return false;
  }
  if (slots_[idx].entry.label != label) return false;
  touch(idx, now);
  slots_[idx].entry.label_switched = true;
  return true;
}

void FlowTable::register_metrics(obs::MetricsRegistry& registry,
                                 const obs::Labels& base) const {
  registry.expose_counter("flow_cache_hits", base, &stats_.hits);
  registry.expose_counter("flow_cache_negative_hits", base, &stats_.negative_hits);
  registry.expose_counter("flow_cache_misses", base, &stats_.misses);
  registry.expose_counter("flow_cache_expirations", base, &stats_.expirations);
  registry.expose_counter("flow_cache_evictions", base, &stats_.evictions);
  registry.expose_counter("flow_cache_invalidations", base, &stats_.invalidations);
  registry.expose_gauge("flow_cache_size", base, [this] { return static_cast<double>(size_); });
  registry.expose_gauge("flow_cache_hit_rate", base, [this] { return stats_.hit_rate(); });
}

}  // namespace sdmbox::tables
