#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tables/flow_table.hpp"
#include "tables/label_table.hpp"

namespace sdmbox::tables {
namespace {

using net::IpAddress;
using packet::FlowId;
using policy::PolicyId;

FlowId flow(std::uint32_t n) {
  return FlowId{IpAddress(10, 1, 0, 1), IpAddress(10, 2, 0, 1), static_cast<std::uint16_t>(n),
                80, packet::kProtoTcp};
}

// ---------------------------------------------------------------------------
// FlowTable basics (§III.D)
// ---------------------------------------------------------------------------

TEST(FlowTable, MissThenHit) {
  FlowTable t(30.0, 100);
  EXPECT_EQ(t.lookup(flow(1), 0.0), nullptr);
  t.insert(flow(1), PolicyId{3}, 0.0);
  FlowEntry* e = t.lookup(flow(1), 1.0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->policy.v, 3u);
  EXPECT_EQ(t.stats().misses, 1u);
  EXPECT_EQ(t.stats().hits, 1u);
}

TEST(FlowTable, NegativeEntryCachesNoMatch) {
  FlowTable t;
  t.insert(flow(1), PolicyId{}, 0.0);
  FlowEntry* e = t.lookup(flow(1), 1.0);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->is_negative());
  EXPECT_EQ(t.stats().negative_hits, 1u);
}

TEST(FlowTable, SoftStateExpiresLazily) {
  FlowTable t(10.0, 100);
  t.insert(flow(1), PolicyId{1}, 0.0);
  EXPECT_NE(t.lookup(flow(1), 9.0), nullptr);   // refreshed at 9
  EXPECT_NE(t.lookup(flow(1), 18.0), nullptr);  // idle 9 < 10
  EXPECT_EQ(t.lookup(flow(1), 40.0), nullptr);  // idle 22 > 10 -> expired
  EXPECT_EQ(t.stats().expirations, 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowTable, LookupRefreshesIdleClock) {
  FlowTable t(10.0, 100);
  t.insert(flow(1), PolicyId{1}, 0.0);
  for (double now = 5; now <= 50; now += 5) EXPECT_NE(t.lookup(flow(1), now), nullptr);
}

TEST(FlowTable, OnlyIdleEntriesExpire) {
  FlowTable t(10.0, 100);
  t.insert(flow(1), PolicyId{1}, 0.0);
  t.insert(flow(2), PolicyId{1}, 8.0);
  EXPECT_EQ(t.lookup(flow(1), 15.0), nullptr);  // idle 15 > 10
  EXPECT_NE(t.lookup(flow(2), 15.0), nullptr);  // idle 7
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.stats().expirations, 1u);
}

TEST(FlowTable, CapacityEvictsLeastRecentlyUsed) {
  FlowTable t(1000.0, 3);
  t.insert(flow(1), PolicyId{1}, 0.0);
  t.insert(flow(2), PolicyId{1}, 1.0);
  t.insert(flow(3), PolicyId{1}, 2.0);
  t.lookup(flow(1), 3.0);  // 1 becomes MRU; LRU is now 2
  t.insert(flow(4), PolicyId{1}, 4.0);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.stats().evictions, 1u);
  EXPECT_EQ(t.lookup(flow(2), 5.0), nullptr);   // evicted
  EXPECT_NE(t.lookup(flow(1), 5.0), nullptr);
  EXPECT_NE(t.lookup(flow(4), 5.0), nullptr);
}

TEST(FlowTable, ReinsertOverwrites) {
  FlowTable t;
  FlowEntry& first = t.insert(flow(1), PolicyId{1}, 0.0);
  first.src_subnet = 3;
  first.dst_subnet = 4;
  t.insert(flow(1), PolicyId{2}, 1.0);
  EXPECT_EQ(t.size(), 1u);
  FlowEntry* e = t.lookup(flow(1), 2.0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->policy.v, 2u);
  // The owning agent's cached subnet pair goes with the old entry.
  EXPECT_EQ(e->src_subnet, -1);
  EXPECT_EQ(e->dst_subnet, -1);
}

TEST(FlowTable, HitRateAccounting) {
  FlowTable t;
  t.lookup(flow(1), 0.0);  // miss
  t.insert(flow(1), PolicyId{1}, 0.0);
  t.lookup(flow(1), 1.0);  // hit
  t.lookup(flow(1), 2.0);  // hit
  EXPECT_DOUBLE_EQ(t.stats().hit_rate(), 2.0 / 3.0);
}

// ---------------------------------------------------------------------------
// FlowTable labels (§III.E)
// ---------------------------------------------------------------------------

TEST(FlowTableLabels, AllocateIsNonZeroAndUnique) {
  FlowTable t;
  auto& e1 = t.insert(flow(1), PolicyId{1}, 0.0);
  auto& e2 = t.insert(flow(2), PolicyId{1}, 0.0);
  const auto l1 = t.allocate_label(e1);
  const auto l2 = t.allocate_label(e2);
  EXPECT_NE(l1, 0);
  EXPECT_NE(l2, 0);
  EXPECT_NE(l1, l2);
}

TEST(FlowTableLabels, DoubleAllocateRejected) {
  FlowTable t;
  auto& e = t.insert(flow(1), PolicyId{1}, 0.0);
  t.allocate_label(e);
  EXPECT_THROW(t.allocate_label(e), ContractViolation);
}

TEST(FlowTableLabels, LabelsRecycleAfterEviction) {
  FlowTable t(1000.0, 2);
  for (std::uint32_t i = 0; i < 100; ++i) {
    auto& e = t.insert(flow(i), PolicyId{1}, static_cast<double>(i));
    t.allocate_label(e);  // would exhaust a 2-entry table without recycling
  }
  EXPECT_EQ(t.size(), 2u);
}

TEST(FlowTableLabels, LabelsStayUniqueAmongLiveEntries) {
  FlowTable t(1000.0, 1000);
  std::vector<std::uint16_t> labels;
  for (std::uint32_t i = 0; i < 500; ++i) {
    auto& e = t.insert(flow(i), PolicyId{1}, 0.0);
    labels.push_back(t.allocate_label(e));
  }
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(std::unique(labels.begin(), labels.end()), labels.end());
}

TEST(FlowTableLabels, ConfirmSetsFlag) {
  FlowTable t;
  auto& e = t.insert(flow(1), PolicyId{1}, 0.0);
  const auto label = t.allocate_label(e);
  EXPECT_FALSE(e.label_switched);
  EXPECT_TRUE(t.confirm_label(flow(1), label, 1.0));
  EXPECT_TRUE(t.lookup(flow(1), 2.0)->label_switched);
}

TEST(FlowTableLabels, ConfirmOnMissingOrExpiredEntryFails) {
  FlowTable t(10.0, 100);
  EXPECT_FALSE(t.confirm_label(flow(9), 1, 0.0));
  auto& e = t.insert(flow(1), PolicyId{1}, 0.0);
  const auto label = t.allocate_label(e);
  EXPECT_FALSE(t.confirm_label(flow(1), label, 100.0));  // expired
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.stats().expirations, 1u);
}

TEST(FlowTableLabels, ConfirmOfAnotherLabelChangesNothing) {
  FlowTable t(10.0, 100);
  auto& e = t.insert(flow(1), PolicyId{1}, 0.0);
  const auto label = t.allocate_label(e);
  // The label an earlier entry for this flow held, and no label at all.
  EXPECT_FALSE(t.confirm_label(flow(1), static_cast<std::uint16_t>(label + 1), 5.0));
  EXPECT_FALSE(t.confirm_label(flow(1), 0, 5.0));
  EXPECT_FALSE(e.label_switched);
  EXPECT_EQ(e.last_used, 0.0);  // not refreshed either
  EXPECT_TRUE(t.confirm_label(flow(1), label, 6.0));
  EXPECT_TRUE(e.label_switched);
}

TEST(FlowTableLabels, ReinsertClearsLabelState) {
  FlowTable t;
  auto& e = t.insert(flow(1), PolicyId{1}, 0.0);
  const auto label = t.allocate_label(e);
  t.confirm_label(flow(1), label, 0.5);
  auto& e2 = t.insert(flow(1), PolicyId{2}, 1.0);
  EXPECT_EQ(e2.label, 0);
  EXPECT_FALSE(e2.label_switched);
  // The old label is free again.
  auto& e3 = t.insert(flow(2), PolicyId{1}, 1.0);
  EXPECT_NE(t.allocate_label(e3), 0);
}

// ---------------------------------------------------------------------------
// LabelTable (§III.E)
// ---------------------------------------------------------------------------

TEST(LabelTable, InsertAndLookup) {
  LabelTable t(30.0);
  const LabelKey key{IpAddress(10, 1, 0, 5), 42};
  LabelEntry e;
  e.functions_applied = 2;
  e.next_hop = IpAddress(172, 31, 0, 1);
  t.insert(key, LabelTable::hash_of(key), e, 0.0);
  LabelEntry* found = t.lookup(key, 1.0);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->functions_applied, 2);
  EXPECT_FALSE(found->is_chain_tail());
  EXPECT_EQ(*found->next_hop, IpAddress(172, 31, 0, 1));
}

TEST(LabelTable, KeyIncludesBothSrcAndLabel) {
  LabelTable t;
  const LabelKey key{IpAddress(10, 1, 0, 5), 42};
  t.insert(key, LabelTable::hash_of(key), LabelEntry{}, 0.0);
  EXPECT_EQ(t.lookup(LabelKey{IpAddress(10, 1, 0, 6), 42}, 1.0), nullptr);
  EXPECT_EQ(t.lookup(LabelKey{IpAddress(10, 1, 0, 5), 43}, 1.0), nullptr);
  EXPECT_NE(t.lookup(key, 1.0), nullptr);
}

TEST(LabelTable, TailEntryCarriesFinalDestination) {
  LabelTable t;
  LabelEntry e;
  e.final_dst = IpAddress(10, 9, 0, 1);
  const LabelKey key{IpAddress(10, 1, 0, 5), 7};
  t.insert(key, LabelTable::hash_of(key), e, 0.0);
  LabelEntry* found = t.lookup(key, 1.0);
  ASSERT_NE(found, nullptr);
  EXPECT_TRUE(found->is_chain_tail());
  EXPECT_EQ(*found->final_dst, IpAddress(10, 9, 0, 1));
}

TEST(LabelTable, SoftStateExpiry) {
  LabelTable t(10.0);
  const LabelKey key{IpAddress(10, 1, 0, 5), 7};
  t.insert(key, LabelTable::hash_of(key), LabelEntry{}, 0.0);
  EXPECT_NE(t.lookup(key, 9.0), nullptr);
  EXPECT_EQ(t.lookup(key, 30.0), nullptr);
  EXPECT_EQ(t.stats().expirations, 1u);
}

TEST(LabelTable, OnlyIdleEntriesExpire) {
  LabelTable t(10.0);
  const LabelKey first{IpAddress(10, 1, 0, 5), 1};
  const LabelKey second{IpAddress(10, 1, 0, 5), 2};
  t.insert(first, LabelTable::hash_of(first), LabelEntry{}, 0.0);
  t.insert(second, LabelTable::hash_of(second), LabelEntry{}, 8.0);
  EXPECT_EQ(t.lookup(first, 15.0), nullptr);   // idle 15 > 10
  EXPECT_NE(t.lookup(second, 15.0), nullptr);  // idle 7
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.stats().expirations, 1u);
}

// ---------------------------------------------------------------------------
// Flat-storage behaviors: LRU discipline, cached-hash overloads, label-space
// exhaustion, and invalidation-during-sweep safety
// ---------------------------------------------------------------------------

TEST(FlowTable, EvictionOrderTracksInterleavedHits) {
  FlowTable t(1000.0, 3);
  t.insert(flow(1), PolicyId{1}, 0.0);
  t.insert(flow(2), PolicyId{1}, 1.0);
  t.insert(flow(3), PolicyId{1}, 2.0);
  // Recency after the hits below: 2 (MRU), 1, 3 (LRU).
  ASSERT_NE(t.lookup(flow(1), 3.0), nullptr);
  ASSERT_NE(t.lookup(flow(2), 4.0), nullptr);
  t.insert(flow(4), PolicyId{1}, 5.0);  // evicts 3
  EXPECT_EQ(t.lookup(flow(3), 6.0), nullptr);
  // Recency: 4, 2, 1 — another hit on 1 saves it from the next eviction.
  ASSERT_NE(t.lookup(flow(1), 7.0), nullptr);
  t.insert(flow(5), PolicyId{1}, 8.0);  // evicts 2
  EXPECT_EQ(t.lookup(flow(2), 9.0), nullptr);
  EXPECT_NE(t.lookup(flow(1), 9.0), nullptr);
  EXPECT_NE(t.lookup(flow(4), 9.0), nullptr);
  EXPECT_NE(t.lookup(flow(5), 9.0), nullptr);
  EXPECT_EQ(t.stats().evictions, 2u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(FlowTable, NegativeEntryExpiryCountsAsExpirationNotNegativeHit) {
  FlowTable t(10.0, 100);
  t.insert(flow(1), PolicyId{}, 0.0);
  ASSERT_NE(t.lookup(flow(1), 5.0), nullptr);   // live negative hit
  EXPECT_EQ(t.stats().negative_hits, 1u);
  EXPECT_EQ(t.lookup(flow(1), 50.0), nullptr);  // idle 45 > 10 -> expired
  EXPECT_EQ(t.stats().expirations, 1u);
  EXPECT_EQ(t.stats().misses, 1u);
  EXPECT_EQ(t.stats().negative_hits, 1u);  // expiry is not a negative hit
  EXPECT_EQ(t.size(), 0u);
  // Expiry found by a confirmation counts the same way.
  t.insert(flow(2), PolicyId{}, 60.0);
  EXPECT_FALSE(t.confirm_label(flow(2), 1, 100.0));
  EXPECT_EQ(t.stats().expirations, 2u);
  EXPECT_EQ(t.stats().negative_hits, 1u);
}

TEST(FlowTable, HashOverloadsMatchTheConvenienceForms) {
  FlowTable t(30.0, 100);
  const std::uint64_t h = FlowTable::hash_of(flow(1));
  t.insert(flow(1), h, PolicyId{5}, 0.0);
  FlowEntry* via_hash = t.lookup(flow(1), h, 1.0);
  ASSERT_NE(via_hash, nullptr);
  EXPECT_EQ(via_hash->policy.v, 5u);
  EXPECT_EQ(t.lookup(flow(1), 2.0), via_hash);  // same slot either way
}

TEST(FlowTableLabels, WraparoundReusesFreedLabelAfterFullCycle) {
  // Distinct 5-tuples beyond the 16-bit port space of flow().
  const auto wide_flow = [](std::uint32_t n) {
    return FlowId{IpAddress(10, 1, 0, 1), IpAddress(10, 2, 0, 1),
                  static_cast<std::uint16_t>(n), static_cast<std::uint16_t>(443 + (n >> 16)),
                  packet::kProtoTcp};
  };
  FlowTable t(1e9, 1 << 17);
  for (std::uint32_t i = 0; i < 0xffff; ++i) {
    auto& e = t.insert(wide_flow(i), PolicyId{1}, 0.0);
    t.allocate_label(e);
  }
  // Every label 1..65535 is live: one more allocation must refuse.
  auto& overflow = t.insert(wide_flow(0x20000), PolicyId{1}, 0.0);
  EXPECT_THROW(t.allocate_label(overflow), ContractViolation);
  // Free the entry holding label 1234 (labels were handed out in insertion
  // order starting at 1). The allocator's rolling counter has wrapped past
  // 0xffff back to 1, so the next allocation must skip every live label and
  // land exactly on the freed one.
  EXPECT_EQ(t.invalidate_where([](const FlowEntry& e) { return e.label == 1234; }), 1u);
  auto& fresh = t.insert(wide_flow(0x20001), PolicyId{1}, 0.0);
  EXPECT_EQ(t.allocate_label(fresh), 1234);
}

TEST(FlowTable, InvalidateWhereErasesDuringIterationSafely) {
  FlowTable t(1000.0, 100);
  for (std::uint32_t i = 0; i < 10; ++i) {
    t.insert(flow(i), PolicyId{i}, 0.0);
  }
  // The predicate runs mid-sweep while earlier matches have already been
  // erased; live entries must each be visited exactly once.
  std::size_t visited = 0;
  const std::size_t erased = t.invalidate_where([&](const FlowEntry& e) {
    ++visited;
    return e.policy.v % 2 == 0;
  });
  EXPECT_EQ(visited, 10u);
  EXPECT_EQ(erased, 5u);
  EXPECT_EQ(t.stats().invalidations, 5u);
  EXPECT_EQ(t.size(), 5u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(t.lookup(flow(i), 1.0), nullptr) << i;
    } else {
      EXPECT_NE(t.lookup(flow(i), 1.0), nullptr) << i;
    }
  }
  // Freed slots are reusable and a full wipe leaves a working table.
  EXPECT_EQ(t.invalidate_where([](const FlowEntry&) { return true; }), 5u);
  EXPECT_EQ(t.size(), 0u);
  t.insert(flow(99), PolicyId{1}, 2.0);
  EXPECT_NE(t.lookup(flow(99), 3.0), nullptr);
}

TEST(LabelTable, InvalidateNextHopReturnsRemovedEntries) {
  LabelTable t;
  const IpAddress failed(172, 31, 0, 9);
  LabelEntry pinned;
  pinned.next_hop = failed;
  LabelEntry other;
  other.next_hop = IpAddress(172, 31, 0, 8);
  const LabelKey survivor{IpAddress(10, 1, 0, 3), 3};
  const LabelKey pinned_keys[] = {{IpAddress(10, 1, 0, 1), 1}, {IpAddress(10, 1, 0, 2), 2}};
  for (const LabelKey& k : pinned_keys) t.insert(k, LabelTable::hash_of(k), pinned, 0.0);
  t.insert(survivor, LabelTable::hash_of(survivor), other, 0.0);
  const auto removed = t.invalidate_next_hop(failed);
  EXPECT_EQ(removed.size(), 2u);
  for (const auto& [key, entry] : removed) EXPECT_EQ(*entry.next_hop, failed);
  EXPECT_EQ(t.stats().invalidations, 2u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NE(t.lookup(survivor, 1.0), nullptr);
}

TEST(LabelTable, InsertOverwrites) {
  LabelTable t;
  const LabelKey key{IpAddress(10, 1, 0, 5), 1};
  LabelEntry e1;
  e1.functions_applied = 1;
  t.insert(key, LabelTable::hash_of(key), e1, 0.0);
  LabelEntry e2;
  e2.functions_applied = 2;
  t.insert(key, LabelTable::hash_of(key), e2, 1.0);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(key, 2.0)->functions_applied, 2);
}

}  // namespace
}  // namespace sdmbox::tables
