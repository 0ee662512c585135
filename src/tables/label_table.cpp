#include "tables/label_table.hpp"

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace sdmbox::tables {

LabelTable::LabelTable(SimTime idle_timeout) : idle_timeout_(idle_timeout) {
  SDM_CHECK(idle_timeout > 0);
}

std::uint32_t LabelTable::find_slot(const LabelKey& key, std::uint64_t hash) const noexcept {
  return index_.find(hash, [&](std::uint32_t slot) { return slots_[slot].key == key; });
}

void LabelTable::erase_slot(std::uint32_t idx) {
  Slot& s = slots_[idx];
  index_.erase(s.hash, idx);
  s.live = false;
  s.free_next = free_head_;
  free_head_ = idx;
  --size_;
}

LabelEntry& LabelTable::insert(const LabelKey& key, std::uint64_t hash, LabelEntry entry,
                               SimTime now) {
  SDM_DCHECK(hash == hash_of(key));
  entry.last_used = now;
  std::uint32_t idx = find_slot(key, hash);
  if (idx != kNil) {
    slots_[idx].entry = entry;
    return slots_[idx].entry;
  }
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = slots_[idx].free_next;
  } else {
    idx = slots_.push();
  }
  Slot& s = slots_[idx];
  s.key = key;
  s.entry = entry;
  s.hash = hash;
  s.live = true;
  index_.insert(hash, idx);
  ++size_;
  return s.entry;
}

LabelEntry* LabelTable::lookup(const LabelKey& key, std::uint64_t hash, SimTime now) {
  const std::uint32_t idx = find_slot(key, hash);
  if (idx == kNil) {
    ++stats_.misses;
    return nullptr;
  }
  if (now - slots_[idx].entry.last_used > idle_timeout_) {
    erase_slot(idx);
    ++stats_.expirations;
    ++stats_.misses;
    return nullptr;
  }
  slots_[idx].entry.last_used = now;
  ++stats_.hits;
  return &slots_[idx].entry;
}

std::vector<std::pair<LabelKey, LabelEntry>> LabelTable::invalidate_next_hop(
    net::IpAddress next_hop) {
  std::vector<std::pair<LabelKey, LabelEntry>> removed;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (s.live && s.entry.next_hop && *s.entry.next_hop == next_hop) {
      removed.emplace_back(s.key, s.entry);
      erase_slot(i);
      ++stats_.invalidations;
    }
  }
  return removed;
}

void LabelTable::register_metrics(obs::MetricsRegistry& registry,
                                  const obs::Labels& base) const {
  registry.expose_counter("label_table_hits", base, &stats_.hits);
  registry.expose_counter("label_table_misses", base, &stats_.misses);
  registry.expose_counter("label_table_expirations", base, &stats_.expirations);
  registry.expose_counter("label_table_invalidations", base, &stats_.invalidations);
  registry.expose_gauge("label_table_size", base, [this] { return static_cast<double>(size_); });
}

}  // namespace sdmbox::tables
