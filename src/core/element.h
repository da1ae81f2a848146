#ifndef KJOIN_CORE_ELEMENT_H_
#define KJOIN_CORE_ELEMENT_H_

// The element model.
//
// An object (record) is a multiset of elements; each element is a token
// that maps onto zero or more knowledge-hierarchy nodes (paper §2.1.1).
// K-Join uses a single exact mapping; K-Join+ attaches several mappings,
// each with a confidence φ (1 for exact matches and synonyms, the
// normalized edit similarity for typo matches). Tokens that match no node
// keep an empty mapping list and can only be similar to an identical
// token.

#include <cstdint>
#include <string>
#include <vector>

#include "hierarchy/hierarchy.h"

namespace kjoin {

// Token ids at or above this are ephemeral: ObjectBuilder::BuildQuery
// numbers the query tokens its dictionary does not hold from here, per
// query. Interned ids stay below it, so the two never collide, and an
// ephemeral id means nothing outside the one query object carrying it.
inline constexpr int32_t kFirstEphemeralTokenId = int32_t{1} << 30;

// True for ids the ObjectBuilder interned (stable across objects).
inline bool IsInternedTokenId(int32_t id) { return id >= 0 && id < kFirstEphemeralTokenId; }

// One (node, confidence) mapping of an element.
struct ElementMapping {
  NodeId node = kInvalidNode;
  double phi = 0.0;

  friend bool operator==(const ElementMapping&, const ElementMapping&) = default;
};

struct Element {
  // Normalized surface form.
  std::string token;
  // Dense id of `token` from the ObjectBuilder's interner; identical
  // tokens (across both join sides) share an id. Query objects built
  // read-only carry ephemeral ids (kFirstEphemeralTokenId and up) for
  // tokens the builder never interned.
  int32_t token_id = -1;
  // Candidate nodes, sorted by phi descending. Empty when unmatched.
  std::vector<ElementMapping> mappings;

  bool has_node() const { return !mappings.empty(); }

  // Largest mapping confidence (0 when unmatched).
  double max_phi() const;
};

}  // namespace kjoin

#endif  // KJOIN_CORE_ELEMENT_H_
