#include "core/deployment.hpp"

namespace sdmbox::core {

void Deployment::add(MiddleboxInfo info) {
  SDM_CHECK_MSG(info.node.valid(), "middlebox must reference a topology node");
  SDM_CHECK_MSG(!info.functions.empty(), "middlebox must implement at least one function");
  SDM_CHECK_MSG(info.capacity > 0, "middlebox capacity must be positive");
  SDM_CHECK_MSG(find(info.node) == nullptr, "duplicate middlebox node");
  for (policy::FunctionId e : info.functions.to_vector()) {
    by_function_[e.v].push_back(info.node);
    all_functions_.insert(e);
  }
  middleboxes_.push_back(std::move(info));
}

const std::vector<net::NodeId>& Deployment::implementers(policy::FunctionId e) const {
  SDM_CHECK(e.valid() && e.v < policy::kMaxFunctions);
  return by_function_[e.v];
}

std::vector<net::NodeId> Deployment::active_implementers(policy::FunctionId e) const {
  std::vector<net::NodeId> out;
  for (const net::NodeId node : implementers(e)) {
    if (!is_failed(node)) out.push_back(node);
  }
  return out;
}

bool Deployment::set_failed(net::NodeId node, bool failed) {
  for (MiddleboxInfo& m : middleboxes_) {
    if (m.node == node) {
      m.failed = failed;
      return true;
    }
  }
  return false;
}

bool Deployment::is_failed(net::NodeId node) const noexcept {
  const MiddleboxInfo* m = find(node);
  return m != nullptr && m->failed;
}

std::size_t Deployment::failed_count() const noexcept {
  std::size_t n = 0;
  for (const MiddleboxInfo& m : middleboxes_) n += m.failed;
  return n;
}

const MiddleboxInfo* Deployment::find(net::NodeId node) const noexcept {
  for (const MiddleboxInfo& m : middleboxes_) {
    if (m.node == node) return &m;
  }
  return nullptr;
}

void Deployment::set_uniform_capacity(double capacity) {
  SDM_CHECK(capacity > 0);
  for (MiddleboxInfo& m : middleboxes_) m.capacity = capacity;
}

Deployment deploy_middleboxes(net::GeneratedNetwork& network,
                              const policy::FunctionCatalog& catalog,
                              const DeploymentParams& params, util::Rng& rng) {
  SDM_CHECK_MSG(!network.core_routers.empty(), "deployment needs core routers");
  Deployment dep;
  // Allocate middlebox addresses from 172.31.0.0/16 — disjoint from the
  // topology generator's sequential 172.16.0.x device range.
  std::uint32_t next_addr = (172u << 24) | (31u << 16) | 1u;
  const auto place_box = [&](policy::FunctionSet functions, const std::string& name) {
    const net::NodeId core = network.core_routers[rng.pick_index(network.core_routers.size())];
    const net::NodeId node =
        network.topo.add_node(net::NodeKind::kMiddlebox, name, net::IpAddress(next_addr++));
    network.topo.add_link(core, node, net::LinkParams{});
    MiddleboxInfo info;
    info.node = node;
    info.functions = functions;
    info.name = name;
    dep.add(std::move(info));
  };
  for (const auto& [function, count] : params.counts) {
    for (std::size_t i = 0; i < count; ++i) {
      place_box(policy::FunctionSet::of({function}), catalog.name(function) + std::to_string(i));
    }
  }
  for (const auto& [functions, count] : params.combos) {
    std::string label;
    for (const policy::FunctionId e : functions.to_vector()) {
      if (!label.empty()) label += "+";
      label += catalog.name(e);
    }
    for (std::size_t i = 0; i < count; ++i) {
      place_box(functions, label + std::to_string(i));
    }
  }
  return dep;
}

}  // namespace sdmbox::core
