// Destination nodes carry the policies whose (src, dst) prefixes end exactly
// there, sorted by list order. A lookup walks the source trie along the
// packet's source address (visiting every matching source prefix), walks
// each anchored destination trie along the destination address, and
// linearly checks ports/protocol on the small candidate lists, keeping the
// lowest-numbered match.
#include "policy/classifier.hpp"

namespace sdmbox::policy {

Classifier::Classifier(const std::vector<const Policy*>& view) {
  src_nodes_.push_back(SrcNode{});
  for (const Policy* p : view) insert(*p);
}

const Policy* Classifier::first_match(const packet::FlowId& f) const {
  const Policy* best = nullptr;
  std::uint32_t s = 0;
  for (std::uint8_t depth = 0;; ++depth) {
    const SrcNode& sn = src_nodes_[s];
    if (sn.dst_root != kNoNode) scan_dst(sn.dst_root, f, best);
    if (depth == 32) break;
    const std::uint32_t bit = (f.src.value() >> (31 - depth)) & 1;
    if (sn.child[bit] == kNoNode) break;
    s = sn.child[bit];
  }
  return best;
}

void Classifier::insert(const Policy& p) {
  std::uint32_t s = 0;
  const net::Prefix& sp = p.descriptor.src;
  for (std::uint8_t depth = 0; depth < sp.length(); ++depth) {
    const std::uint32_t bit = (sp.base().value() >> (31 - depth)) & 1;
    if (src_nodes_[s].child[bit] == kNoNode) {
      src_nodes_[s].child[bit] = static_cast<std::uint32_t>(src_nodes_.size());
      src_nodes_.push_back(SrcNode{});
    }
    s = src_nodes_[s].child[bit];
  }
  if (src_nodes_[s].dst_root == kNoNode) {
    src_nodes_[s].dst_root = static_cast<std::uint32_t>(dst_nodes_.size());
    dst_nodes_.push_back(DstNode{});
  }
  std::uint32_t d = src_nodes_[s].dst_root;
  const net::Prefix& dp = p.descriptor.dst;
  for (std::uint8_t depth = 0; depth < dp.length(); ++depth) {
    const std::uint32_t bit = (dp.base().value() >> (31 - depth)) & 1;
    if (dst_nodes_[d].child[bit] == kNoNode) {
      dst_nodes_[d].child[bit] = static_cast<std::uint32_t>(dst_nodes_.size());
      dst_nodes_.push_back(DstNode{});
    }
    d = dst_nodes_[d].child[bit];
  }
  // Policies are inserted in ascending-id order, so rules stay sorted.
  SDM_DCHECK(dst_nodes_[d].rules.empty() || dst_nodes_[d].rules.back()->id < p.id);
  dst_nodes_[d].rules.push_back(&p);
}

void Classifier::scan_dst(std::uint32_t root, const packet::FlowId& f,
                          const Policy*& best) const {
  std::uint32_t d = root;
  for (std::uint8_t depth = 0;; ++depth) {
    for (const Policy* p : dst_nodes_[d].rules) {
      if (best && best->id < p->id) break;  // rules sorted; no better match here
      const TrafficDescriptor& td = p->descriptor;
      if (td.src_port.contains(f.src_port) && td.dst_port.contains(f.dst_port) &&
          (!td.protocol || *td.protocol == f.protocol)) {
        best = p;
        break;
      }
    }
    if (depth == 32) break;
    const std::uint32_t bit = (f.dst.value() >> (31 - depth)) & 1;
    if (dst_nodes_[d].child[bit] == kNoNode) break;
    d = dst_nodes_[d].child[bit];
  }
}

std::unique_ptr<Classifier> make_trie_classifier(std::vector<const Policy*> view) {
  return std::make_unique<Classifier>(view);
}

}  // namespace sdmbox::policy
