// Seeded chaos-schedule generator: many fault timelines from one knob.
//
// The hand-written kChaos script exercises ONE failure interleaving. The
// generator derives a randomized crash/restart + link-flap + transient-loss
// schedule from a single seed, so a suite can sweep dozens of distinct
// fault interleavings (one derived seed each) and the invariant oracle can
// assert enforcement holds under all of them — same seed, same schedule,
// byte-identical runs.
//
// Construction rules keep every schedule recoverable: crash/restart pairs
// and link outages are confined to disjoint time slices of [start, horizon]
// (no compounding outages of the same element), victims are deployed
// middleboxes (local failover's job), and flapped links join two routers
// and are no bridge (a redundant path exists; a downed stub link or a
// single-homed edge router's uplink would just silence a subnet, testing
// nothing).
#pragma once

#include <cstdint>

#include "core/deployment.hpp"
#include "net/topologies.hpp"
#include "sim/faults.hpp"

namespace sdmbox::verify {

/// Derive a deterministic fault schedule from `seed`: two middlebox
/// crash/restart pairs, two redundant router-link flaps and one loss episode,
/// all inside [1.5 s, 12 s]. Same inputs, same schedule — the generator is a
/// pure function, so generated-fault runs keep the simulator's
/// byte-identical replay property.
sim::FaultSchedule generate_chaos(const net::GeneratedNetwork& network,
                                  const core::Deployment& deployment, std::uint64_t seed);

}  // namespace sdmbox::verify
