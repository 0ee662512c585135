// Multi-field packet classification (§III.D references [8]-[11]).
//
// Two interchangeable engines behind one interface:
//  * LinearClassifier — scan the ordered policy list; exact reference
//    implementation, O(n) per lookup.
//  * TrieClassifier — hierarchical source-trie -> destination-trie with a
//    per-leaf priority list for the port/protocol fields; the "trie-based
//    data structures" software lookup the paper mentions as the TCAM
//    alternative.
//
// Both return the FIRST matching policy in list order. A property-based test
// sweeps random rule sets and flows asserting the two agree.
#pragma once

#include <cstddef>
#include <memory>

#include "packet/packet.hpp"
#include "policy/policy.hpp"

namespace sdmbox::policy {

class Classifier {
public:
  virtual ~Classifier() = default;

  /// First matching policy in list order; nullptr if none.
  virtual const Policy* first_match(const packet::FlowId& f) const = 0;

  /// Approximate resident bytes (for the classifier ablation bench).
  virtual std::size_t memory_bytes() const = 0;

  virtual const char* name() const = 0;
};

/// Classifiers are built over an id-ordered policy view (the whole list or a
/// device's P_x slice); the pointed-to policies must outlive the classifier.
std::unique_ptr<Classifier> make_linear_classifier(std::vector<const Policy*> view);
std::unique_ptr<Classifier> make_trie_classifier(std::vector<const Policy*> view);

inline std::unique_ptr<Classifier> make_linear_classifier(const PolicyList& policies) {
  return make_linear_classifier(policies.all_pointers());
}
inline std::unique_ptr<Classifier> make_trie_classifier(const PolicyList& policies) {
  return make_trie_classifier(policies.all_pointers());
}

}  // namespace sdmbox::policy
