#include "sim/simulator.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "util/log.hpp"

namespace sdmbox::sim {

// 4-ary heap: shallower than binary (fewer compare levels per sift), and the
// four children of a node are four adjacent 16-byte entries. They are not
// one cache line: with the root at index 0 they start at byte 64i+16 of a
// std::vector buffer that is only 16-byte aligned, and large buffers were
// found at addresses ≡ 16 (mod 64), so each level straddles two lines.
namespace {
constexpr std::size_t kArity = 4;
}  // namespace

std::size_t Simulator::least_child(const std::vector<HeapItem>& heap,
                                   std::size_t first) noexcept {
  const std::size_t n = heap.size();
  if (first + kArity <= n) {
    // A full set: a tournament of conditional selects. Which child is least
    // is a coin flip on the data, which a branch would mispredict about half
    // the time.
    const HeapItem* c = &heap[first];
    const Order k0 = order(c[0]), k1 = order(c[1]), k2 = order(c[2]), k3 = order(c[3]);
    const bool pick1 = k1 < k0;
    const bool pick3 = k3 < k2;
    const Order m01 = pick1 ? k1 : k0;
    const Order m23 = pick3 ? k3 : k2;
    return first + (m23 < m01 ? 2 + std::size_t{pick3} : std::size_t{pick1});
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < n; ++c) {
    if (before(heap[c], heap[best])) best = c;
  }
  return best;
}

std::uint64_t Simulator::next_key(std::uint32_t slot) {
  SDM_CHECK_MSG(seq_ <= kMaxSeq, "event sequence space exhausted");
  return (seq_++ << kSlotBits) | slot;
}

template <class Slot>
std::uint32_t Simulator::acquire_slot(std::vector<Slot>& pool, std::uint32_t& free,
                                      const char* what) {
  if (free != kNil) {
    const std::uint32_t idx = free;
    free = pool[idx].next_free;
    return idx;
  }
  SDM_CHECK_MSG(pool.size() < kIndexMask, std::string(what) + " event pool exhausted");
  pool.emplace_back();
  return static_cast<std::uint32_t>(pool.size() - 1);
}

void Simulator::calendar_push(HeapItem item, std::uint32_t lane) {
  // order() reads −0.0 as the largest time of all: store it as +0.0.
  if (item.at == 0) item.at = 0;
  // Monotone streams (per-link FIFO arrivals) ride their lane; anything out
  // of order goes to the overflow heap. Appending at an equal time is still
  // lane-eligible: seq is monotone, so FIFO order IS (at, seq) order.
  if (lane >= lanes_.size()) {
    SDM_CHECK_MSG(lane <= kSlotMask, "calendar lane id out of range");
    lanes_.resize(lane + 1);
  }
  Lane& l = lanes_[lane];
  if (l.head == l.items.size()) {
    l.items.clear();
    l.head = 0;
    l.items.push_back(item);
    ++lane_pending_;
    laneheap_push(lane_node(item, lane));  // the lane just became non-empty
    return;
  }
  if (item.at >= l.items.back().at) {
    l.items.push_back(item);  // never the front: the lane's node stays valid
    ++lane_pending_;
    return;
  }
  heap_push(item);
}

void Simulator::laneheap_push(HeapItem node) {
  // Hole-based sift-up over lane nodes.
  std::size_t i = lane_heap_.size();
  lane_heap_.push_back(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(node, lane_heap_[parent])) break;
    lane_heap_[i] = lane_heap_[parent];
    i = parent;
  }
  lane_heap_[i] = node;
}

void Simulator::laneheap_sift_down(HeapItem node) noexcept {
  // Place `node` in the root hole. A level reads only the four adjacent
  // 16-byte child nodes; no compare loads through a lane.
  const std::size_t n = lane_heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t best = least_child(lane_heap_, first);
    if (!before(lane_heap_[best], node)) break;
    lane_heap_[i] = lane_heap_[best];
    i = best;
  }
  lane_heap_[i] = node;
}

Simulator::HeapItem Simulator::lane_pop_min() noexcept {
  // Take the front of the minimum lane (the root) and advance the lane. Its
  // new front (or its removal, when drained) re-sifts only the root —
  // appends elsewhere never disturb the heap because they cannot change a
  // lane's front.
  const std::uint32_t lid = node_lane(lane_heap_[0]);
  Lane& l = lanes_[lid];
  const HeapItem top = l.items[l.head];
  ++l.head;
  --lane_pending_;
  if (l.head == l.items.size()) {
    l.items.clear();
    l.head = 0;
    const HeapItem tail = lane_heap_.back();
    lane_heap_.pop_back();
    if (!lane_heap_.empty()) laneheap_sift_down(tail);
  } else {
    laneheap_sift_down(lane_node(l.items[l.head], lid));
  }
  return top;
}

void Simulator::heap_push(HeapItem item) {
  // Hole-based sift-up: slide parents down until `item`'s position opens.
  std::size_t i = heap_.size();
  heap_.push_back(item);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
}

Simulator::HeapItem Simulator::heap_pop_min() noexcept {
  // Bottom-up deletion: the root hole walks down the min-child chain to a
  // leaf on child-only comparisons, then the detached tail element sifts up
  // from there. The tail is almost always leaf-worthy (recently scheduled,
  // far-future time), so the sift-up exits immediately — cheaper than the
  // classic sift-down, which compares the tail against the best child at
  // every level of a deep heap.
  const HeapItem min = heap_.front();
  const HeapItem item = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return min;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t best = least_child(heap_, first);
    heap_[i] = heap_[best];
    i = best;
  }
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(item, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = item;
  return min;
}

void Simulator::schedule_at(SimTime at, Handler fn) {
  SDM_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  SDM_CHECK(fn != nullptr);
  const std::uint32_t idx = acquire_slot(cb_pool_, cb_free_, "callback");
  cb_pool_[idx].fn = std::move(fn);
  calendar_push(HeapItem{at, next_key(idx)}, /*lane=*/0);
}

std::shared_ptr<Simulator::Periodic> Simulator::schedule_every(SimTime period, Handler fn) {
  // A zero / negative period would spin the calendar forever at `now`; an
  // infinite or NaN period would silently never fire again. Both are caller
  // bugs — reject them loudly.
  SDM_CHECK_MSG(std::isfinite(period) && period > 0, "periodic events need a positive period");
  SDM_CHECK(fn != nullptr);
  auto handle = std::make_shared<Periodic>();
  // Each firing owns the chain state and re-enqueues a copy of itself, so a
  // cancelled chain simply stops being rescheduled and frees with the last
  // pending event — no shared self-reference to leak. The caller may drop
  // the handle without stopping the chain.
  struct Chain {
    Simulator* sim;
    SimTime period;
    std::shared_ptr<Periodic> handle;
    Handler fn;
    void operator()() {
      if (!handle->active) return;
      fn();
      if (handle->active) sim->schedule_in(period, Chain{*this});
    }
  };
  schedule_in(period, Chain{this, period, handle, std::move(fn)});
  return handle;
}

void Simulator::schedule_packet_at(SimTime at, const packet::Packet& pkt, net::NodeId node,
                                   net::NodeId from, net::NodeId dest_hint, SimTime injected_at,
                                   std::uint32_t lane) {
  SDM_CHECK_MSG(at >= now_, "cannot schedule an event in the past");
  SDM_CHECK_MSG(sink_ != nullptr, "packet event scheduled without a sink");
  const std::uint32_t idx = acquire_slot(pkt_pool_, pkt_free_, "packet");
  std::construct_at(&pkt_pool_[idx].ev, PacketEvent{pkt, node, from, dest_hint, injected_at});
  calendar_push(HeapItem{at, next_key(idx | kPacketFlag)}, lane);
}

void Simulator::run(SimTime until) {
  for (;;) {
    const bool have_heap = !heap_.empty();
    const bool have_lane = !lane_heap_.empty();
    if (!have_heap && !have_lane) break;
    // Each lane is sorted by construction and the lane heap's root is the
    // minimum lane front, so the next event overall is the smaller of the
    // overflow-heap top and that root by (at, seq). A lane node differs
    // from its front only in the slot bits, which never decide the order.
    const bool from_lane =
        have_lane && (!have_heap || before(lane_heap_.front(), heap_.front()));
    if ((from_lane ? lane_heap_.front().at : heap_.front().at) > until) break;
    const HeapItem top = from_lane ? lane_pop_min() : heap_pop_min();
    now_ = top.at;
    ++processed_;
    // Prefetch the packet slot of the event that pops next — the same
    // choice as above, made on the root lane's front item — so its first
    // touch overlaps this event's handler. The guess misses only when the
    // handler schedules something earlier still. It stays inline: moved to
    // a const helper of its own, the call has no effect GCC 12 can see, and
    // -O3 deletes it (objdump -d must show a prefetcht0 in run).
    const HeapItem* next = nullptr;
    if (!lane_heap_.empty()) {
      const Lane& nl = lanes_[node_lane(lane_heap_.front())];
      next = &nl.items[nl.head];
    }
    if (!heap_.empty() && (next == nullptr || before(heap_.front(), *next))) next = &heap_.front();
    if (next != nullptr && (static_cast<std::uint32_t>(next->key) & kPacketFlag) != 0) {
      __builtin_prefetch(&pkt_pool_[static_cast<std::uint32_t>(next->key) & kIndexMask]);
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(top.key) & kSlotMask;
    const std::uint32_t idx = slot & kIndexMask;
    // Take the payload out and free its slot before dispatch: the handler
    // may schedule more events, and growing a pool moves every slot. The
    // handler's first schedule then reuses this slot, still in cache.
    if (slot & kPacketFlag) {
      const PacketEvent ev = pkt_pool_[idx].ev;
      pkt_pool_[idx].next_free = pkt_free_;
      pkt_free_ = idx;
      sink_->on_packet_event(ev);
    } else {
      Handler fn = std::move(cb_pool_[idx].fn);
      cb_pool_[idx].next_free = cb_free_;
      cb_free_ = idx;
      fn();
    }
  }
}

void Simulator::reset() {
  // Drop contents but keep capacity: pools, lanes, and heap storage stay
  // warm so a post-reset run does not re-pay their growth (the perf harness
  // measures steady-state allocations across resets). Clearing the pools
  // still destroys the payloads, so no packet or closure outlives a reset.
  heap_.clear();
  for (Lane& l : lanes_) {
    l.items.clear();
    l.head = 0;
  }
  lane_heap_.clear();
  lane_pending_ = 0;
  cb_pool_.clear();
  pkt_pool_.clear();
  cb_free_ = kNil;
  pkt_free_ = kNil;
  now_ = 0;
  seq_ = 0;
  processed_ = 0;
}

void Simulator::attach_log_clock() {
  util::set_log_time_source([this] { return now_; });
}

void Simulator::detach_log_clock() { util::set_log_time_source(nullptr); }

}  // namespace sdmbox::sim
