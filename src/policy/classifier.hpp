// Multi-field packet classification (§III.D references [8]-[11]).
//
// The classifier is a hierarchical trie: a binary trie on the source prefix
// whose nodes each anchor a binary trie on the destination prefix, with a
// per-leaf priority list for the port/protocol fields — the "trie-based
// data structures" software lookup the paper mentions as the TCAM
// alternative. It returns the FIRST matching policy in list order. The
// linear scan first_match_in (policy.hpp) is the reference: property tests
// sweep random rule sets and flows asserting the two agree.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "packet/packet.hpp"
#include "policy/policy.hpp"

namespace sdmbox::policy {

class Classifier {
public:
  /// Built over an id-ordered policy view (the whole list or a device's P_x
  /// slice); the pointed-to policies must outlive the classifier.
  explicit Classifier(const std::vector<const Policy*>& view);

  /// First matching policy in list order; nullptr if none.
  const Policy* first_match(const packet::FlowId& f) const;

private:
  static constexpr std::uint32_t kNoNode = ~std::uint32_t{0};

  struct DstNode {
    std::array<std::uint32_t, 2> child{kNoNode, kNoNode};
    std::vector<const Policy*> rules;  // sorted by PolicyId (list order)
  };

  struct SrcNode {
    std::array<std::uint32_t, 2> child{kNoNode, kNoNode};
    std::uint32_t dst_root = kNoNode;
  };

  void insert(const Policy& p);
  void scan_dst(std::uint32_t root, const packet::FlowId& f, const Policy*& best) const;

  std::vector<SrcNode> src_nodes_;
  std::vector<DstNode> dst_nodes_;
};

std::unique_ptr<Classifier> make_trie_classifier(std::vector<const Policy*> view);

inline std::unique_ptr<Classifier> make_trie_classifier(const PolicyList& policies) {
  return make_trie_classifier(policies.all_pointers());
}

}  // namespace sdmbox::policy
