// Enforcement-plan audit.
//
// "Dependable" enforcement means a misconfigured plan must be caught before
// it is distributed, not discovered as blackholed traffic. validate_plan
// replays every chain-continuation obligation a device could face under the
// plan and reports anything that would strand a packet:
//  * a proxy or middlebox without a config,
//  * a device that may need function e next but has neither the function
//    itself nor any candidate for it,
//  * candidates that do not implement the function, are failed, or are not
//    middleboxes at all,
//  * split-ratio shares, aggregate or per-(s, d), pointing outside the
//    device's candidate set for their function.
// Returns human-readable violations; empty means the plan is sound.
#pragma once

#include <string>
#include <vector>

#include "core/plan.hpp"
#include "net/topologies.hpp"

namespace sdmbox::core {

std::vector<std::string> validate_plan(const EnforcementPlan& plan,
                                       const net::GeneratedNetwork& network,
                                       const Deployment& deployment,
                                       const policy::PolicyList& policies);

}  // namespace sdmbox::core
