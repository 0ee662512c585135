// Discrete-event simulation engine.
//
// A single-threaded event calendar with two typed event kinds:
//
//  * callback events — arbitrary closures (timers, control-plane work,
//    fault/repair schedules, a policy wave's stagger slots). These still
//    allocate when the closure outgrows std::function's inline buffer,
//    which is fine off the hot path.
//  * packet events — the per-hop datapath. A PacketEvent is the Packet plus
//    its arrival context: trivially copyable, 64 bytes, one cache line. It
//    is copied into a pooled slot when scheduled and out of it when it pops,
//    and dispatched to the network's PacketSink, so a forwarded packet costs
//    zero heap allocations per hop.
//
// Both kinds share one calendar ordered by (time, sequence number) over
// 16-byte entries — the key is packed so comparing keys compares sequence
// numbers and sifts never touch the payload pools — with the payloads in
// free-listed per-kind slot pools (callback slots are small; packet slots
// are one aligned cache line each). Entries live in monotone lanes (sorted
// runs for naturally FIFO streams such as per-link arrivals) merged through
// a heap that keys each live lane by a copy of its front entry, with a 4-ary
// overflow heap for anything scheduled out of order. Events at equal times
// fire in scheduling order: the monotone sequence number breaks ties, which
// keeps runs bit-for-bit deterministic, a requirement for reproducing the
// paper's figures from fixed seeds. The pop order is exactly what the
// previous std::priority_queue<Event> produced; only the storage changed.
//
// Two things keep a pop cheap. Every compare is one unsigned 128-bit compare
// (the time's bit pattern above the key), and a full set of four children is
// reduced with conditional selects, so sifts take no data-dependent branch.
// And before run() dispatches an event it prefetches the packet slot of the
// event that will pop next, so that slot's first touch (usually a miss: the
// live slots of a large run outgrow L2) overlaps the handler's work.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/topology.hpp"
#include "packet/packet.hpp"
#include "util/check.hpp"

namespace sdmbox::sim {

/// Simulation time in seconds.
using SimTime = double;

/// Typed payload of a per-hop packet event: the packet plus the arrival
/// context SimNetwork needs to resume handling without a closure. A locally
/// generated (injected) packet is the one without an ingress neighbor.
struct PacketEvent {
  packet::Packet pkt;
  net::NodeId node;         // node the packet arrives at
  net::NodeId from;         // ingress neighbor (invalid for injections)
  net::NodeId dest_hint;    // pre-resolved routing destination, if known
  SimTime injected_at = 0;  // original injection time (latency)
};
// One cache line, copied with plain moves: the calendar's packet slot.
static_assert(std::is_trivially_copyable_v<PacketEvent>);
static_assert(sizeof(PacketEvent) == 64);

/// Dispatch target for packet events. SimNetwork implements this; the
/// indirection keeps the Simulator free of network knowledge while the
/// calendar stores packets by value. `ev` is the run loop's copy of the
/// event: its slot is already free when the sink runs.
class PacketSink {
public:
  virtual void on_packet_event(const PacketEvent& ev) = 0;

protected:
  ~PacketSink() = default;
};

class Simulator {
public:
  using Handler = std::function<void()>;

  SimTime now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }
  std::size_t pending() const noexcept { return heap_.size() + lane_pending_; }

  /// Schedule `fn` at absolute time `at` (>= now).
  void schedule_at(SimTime at, Handler fn);

  /// Schedule `fn` after a non-negative delay from now.
  void schedule_in(SimTime delay, Handler fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Cancellation handle for schedule_every(). cancel() takes effect before
  /// the next firing; the periodic chain then drops out of the calendar.
  struct Periodic {
    void cancel() noexcept { active = false; }
    bool active = true;
  };

  /// Run `fn` every `period` (> 0), first at now + period, until the
  /// returned handle is cancelled or the simulation ends. The epoch-style
  /// self-rescheduling loop (EpochRecorder, HealthMonitor, ReoptimizePolicy)
  /// as a calendar primitive: each firing is an ordinary callback event, so
  /// periodic work interleaves deterministically with packet events.
  std::shared_ptr<Periodic> schedule_every(SimTime period, Handler fn);

  /// Schedule a packet event at absolute time `at` (>= now), dispatched to
  /// the sink registered via set_packet_sink(). The event is written
  /// directly into a pooled slot — no allocation once the pool has warmed
  /// up.
  ///
  /// `lane` is an ordering hint: events scheduled on one lane in
  /// nondecreasing time order bypass the heap entirely (see the lane comment
  /// below). Callers with naturally FIFO event streams — SimNetwork uses one
  /// lane per link, since a link's serialization horizon makes arrivals
  /// monotone — pick distinct lane ids; anything else is correct on lane 0.
  void schedule_packet_at(SimTime at, const packet::Packet& pkt, net::NodeId node,
                          net::NodeId from, net::NodeId dest_hint, SimTime injected_at,
                          std::uint32_t lane = 0);

  /// Register the packet-event dispatch target (required before the first
  /// schedule_packet_at). The sink must outlive all pending packet events.
  void set_packet_sink(PacketSink* sink) noexcept { sink_ = sink; }

  /// Run until the calendar empties or time exceeds `until`.
  void run(SimTime until = kForever);

  /// Drop all pending events and restore the just-constructed clock state
  /// (used between benchmark repetitions). Pending payloads are destroyed
  /// but pool/heap capacity is retained, so repeated runs stay
  /// allocation-free once warmed.
  void reset();

  /// Stamp every log line with this simulator's clock (t=<now>). The
  /// simulator must outlive the attachment; detach_log_clock() (or attaching
  /// another simulator) releases it.
  void attach_log_clock();
  static void detach_log_clock();

  static constexpr SimTime kForever = 1e100;

private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // HeapItem::key packs (seq << 24) | slot. The slot field's top bit selects
  // the payload pool (packet vs callback); the low 23 bits index into it.
  // seq gets the remaining 40 bits — checked at schedule time; at ten
  // million events per second that is over a day of continuous simulation.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kPacketFlag = 1u << 23;
  static constexpr std::uint32_t kIndexMask = kPacketFlag - 1;
  static constexpr std::uint64_t kMaxSeq = (std::uint64_t{1} << (64 - kSlotBits)) - 1;

  /// Heap entry: the timestamp plus seq and payload-slot id packed into one
  /// word. seq sits above the slot bits, so comparing keys compares seq —
  /// and seq is unique, so the slot bits never influence the order.
  struct HeapItem {
    SimTime at;
    std::uint64_t key;
  };

  /// Payload slots, one pool per event kind so the calendar-heavy callback
  /// workloads are not dragged through packet-sized slots. `next_free`
  /// chains the pool's LIFO free list; a packet slot holds either its event
  /// or that link, so it stays one cache line.
  struct CallbackSlot {
    Handler fn;
    std::uint32_t next_free = kNil;
  };
  union alignas(64) PacketSlot {
    PacketSlot() noexcept : next_free(kNil) {}
    PacketEvent ev;
    std::uint32_t next_free;
  };

  /// The (at, seq) order as one unsigned 128-bit value: the time's bit
  /// pattern above the key. A non-negative double's bit pattern orders like
  /// its value; calendar_push turns −0.0 into +0.0, and NaN and negative
  /// times are refused at schedule time.
  __extension__ typedef unsigned __int128 Order;
  static Order order(const HeapItem& x) noexcept {
    return (Order{std::bit_cast<std::uint64_t>(x.at)} << 64) | x.key;
  }
  static bool before(const HeapItem& a, const HeapItem& b) noexcept {
    return order(a) < order(b);
  }

  /// Monotone lane: a sorted run of events consumed front to back. Events
  /// scheduled on a lane in nondecreasing time order append in O(1); an
  /// out-of-order event falls back to the overflow heap. Per-link FIFO
  /// arrivals (a link's serialization horizon makes each link's arrival
  /// times monotone, lane 1+link) are the dominant shape, so steady
  /// forwarding never churns the overflow heap. Every lane is sorted by
  /// (at, seq) by construction and equal-time appends are FIFO = seq order,
  /// so the exact global minimum is min(overflow-heap top, lane fronts).
  struct Lane {
    std::vector<HeapItem> items;
    std::size_t head = 0;
  };

  /// The lane fronts are tracked by a 4-ary heap with one node per
  /// non-empty lane. A node is a copy of the lane's front item with the
  /// lane id in place of the slot bits: sifts compare nodes in place,
  /// without a load through the lane, and seq — unique and above the slot
  /// bits — still decides the (at, seq) order. Only a pop changes a lane's
  /// front, so only the root's copy is ever refreshed.
  static HeapItem lane_node(const HeapItem& front, std::uint32_t lane) noexcept {
    return HeapItem{front.at, (front.key & ~std::uint64_t{kSlotMask}) | lane};
  }
  static std::uint32_t node_lane(const HeapItem& node) noexcept {
    return static_cast<std::uint32_t>(node.key) & kSlotMask;
  }

  std::uint64_t next_key(std::uint32_t slot);
  /// Pop a free slot of `pool` (LIFO through `free`), or grow the pool;
  /// `what` names the pool in the exhaustion check.
  template <class Slot>
  static std::uint32_t acquire_slot(std::vector<Slot>& pool, std::uint32_t& free, const char* what);
  /// Index of the least of the children that start at `first` (< size).
  static std::size_t least_child(const std::vector<HeapItem>& heap, std::size_t first) noexcept;
  void calendar_push(HeapItem item, std::uint32_t lane);
  void heap_push(HeapItem item);
  HeapItem heap_pop_min() noexcept;
  void laneheap_push(HeapItem node);
  void laneheap_sift_down(HeapItem node) noexcept;
  HeapItem lane_pop_min() noexcept;

  SimTime now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::vector<CallbackSlot> cb_pool_;
  std::vector<PacketSlot> pkt_pool_;
  std::uint32_t cb_free_ = kNil;
  std::uint32_t pkt_free_ = kNil;
  std::vector<HeapItem> heap_;       // overflow 4-ary min-heap keyed by (at, seq)
  std::vector<Lane> lanes_;          // grown on demand by lane id
  std::vector<HeapItem> lane_heap_;  // one lane_node per non-empty lane, min-heap
  std::size_t lane_pending_ = 0;     // events currently queued across lanes
  PacketSink* sink_ = nullptr;
};

}  // namespace sdmbox::sim
