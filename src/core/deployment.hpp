// Middlebox deployment: which software-defined middleboxes exist, what
// network functions each implements, where each attaches, and its processing
// capacity C(x).
//
// The paper's evaluation attaches each middlebox to a randomly chosen core
// router (§IV.A) with counts FW=7, IDS=7, WP=4, TM=4; deploy_middleboxes
// reproduces that and more general mixes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topologies.hpp"
#include "policy/function.hpp"
#include "util/rng.hpp"

namespace sdmbox::core {

struct MiddleboxInfo {
  net::NodeId node;
  policy::FunctionSet functions;
  double capacity = 1.0;  // C(x), in packets per measurement period
  std::string name;
  bool failed = false;    // operational state, toggled via Deployment::set_failed
};

/// The set M of deployed middleboxes plus per-function indices (M^e).
class Deployment {
public:
  void add(MiddleboxInfo info);

  const std::vector<MiddleboxInfo>& middleboxes() const noexcept { return middleboxes_; }
  std::size_t size() const noexcept { return middleboxes_.size(); }

  /// M^e: nodes of all middleboxes implementing `e`, in deployment order
  /// (including failed ones).
  const std::vector<net::NodeId>& implementers(policy::FunctionId e) const;

  /// M^e restricted to middleboxes currently marked up. The controller
  /// computes assignments over this set, so a recompute after a failure
  /// steers traffic around the dead box (the paper's dependability story:
  /// middleboxes are software-defined, the controller re-configures).
  std::vector<net::NodeId> active_implementers(policy::FunctionId e) const;

  /// Mark a middlebox failed/repaired. Returns false if `node` is not a
  /// deployed middlebox.
  bool set_failed(net::NodeId node, bool failed);
  bool is_failed(net::NodeId node) const noexcept;
  std::size_t failed_count() const noexcept;

  /// Info for a middlebox node; nullptr if the node is not a middlebox.
  const MiddleboxInfo* find(net::NodeId node) const noexcept;

  /// The set of functions offered by at least one middlebox (Π).
  policy::FunctionSet all_functions() const noexcept { return all_functions_; }

  /// Set every middlebox capacity to `capacity` (benches normalize C(x) to
  /// the offered load so the LP's λ <= 1 bound stays feasible).
  void set_uniform_capacity(double capacity);

private:
  std::vector<MiddleboxInfo> middleboxes_;
  std::vector<std::vector<net::NodeId>> by_function_ =
      std::vector<std::vector<net::NodeId>>(policy::kMaxFunctions);
  policy::FunctionSet all_functions_;
};

struct DeploymentParams {
  /// count per function id; the paper's mix is FW=7, IDS=7, WP=4, TM=4.
  std::vector<std::pair<policy::FunctionId, std::size_t>> counts = {
      {policy::kFirewall, 7},
      {policy::kIntrusionDetection, 7},
      {policy::kWebProxy, 4},
      {policy::kTrafficMeasure, 4},
  };
  /// Multi-function appliances ("consolidated middleboxes"): each entry
  /// deploys `count` boxes implementing the whole set. A box implementing
  /// two consecutive chain functions processes both locally — the paper's
  /// Π_x excludes a box's own functions from needing any assignment.
  std::vector<std::pair<policy::FunctionSet, std::size_t>> combos;
};

/// Add one middlebox node per requested count (single-function `counts`
/// plus multi-function `combos`), each attached to a randomly chosen core
/// router of `network` (with replacement, as the paper does), and return
/// the deployment inventory. Every box starts at MiddleboxInfo's default
/// capacity; callers normalize with Deployment::set_uniform_capacity.
Deployment deploy_middleboxes(net::GeneratedNetwork& network, const policy::FunctionCatalog& catalog,
                              const DeploymentParams& params, util::Rng& rng);

}  // namespace sdmbox::core
