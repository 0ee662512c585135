// Seeded text mutation for parser robustness loops: plain gtest, no fuzzing
// engine, so the same seed replays the same mutants everywhere, sanitizers
// included.
#pragma once

#include <string>
#include <string_view>

#include "util/rng.hpp"

namespace sdmbox::testing {

/// One to four character replacements, insertions or deletions at random
/// positions of `text`. Nine in ten new characters come from `alphabet` (the
/// format's own digits and punctuation, so mutants stay close to valid);
/// the rest are arbitrary non-NUL bytes.
inline std::string mutate_text(std::string text, std::string_view alphabet, util::Rng& rng) {
  const std::size_t edits = 1 + rng.next_below(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const char c = rng.next_bool(0.9) ? alphabet[rng.pick_index(alphabet.size())]
                                      : static_cast<char>(1 + rng.next_below(255));
    const std::size_t at = rng.pick_index(text.size() + 1);
    switch (rng.next_below(3)) {
      case 0:
        if (at < text.size()) text[at] = c;
        break;
      case 1:
        text.insert(at, 1, c);
        break;
      default:
        if (at < text.size()) text.erase(at, 1);
        break;
    }
  }
  return text;
}

}  // namespace sdmbox::testing
