#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The answers every workload is checked against, computed apart from the
// index: exact SIMδ by ObjectSimilarity (full bigraph + Hungarian) over
// every object, with its own LCA tables and no filter, prefix or bound.

#include <cstdint>
#include <string>
#include <vector>

#include "core/element_similarity.h"
#include "core/kjoin_index.h"
#include "core/object.h"
#include "core/object_similarity.h"
#include "hierarchy/hierarchy.h"
#include "hierarchy/lca.h"

namespace perfbench {

// Similarities closer than this to the floor or to the k-th cut may fall
// either way; reported similarities must match the oracle within it.
inline constexpr double kSimilarityTolerance = 1e-9;

class Oracle {
 public:
  Oracle(const kjoin::Hierarchy& hierarchy, double delta);

  double Similarity(const kjoin::Object& x, const kjoin::Object& y) const {
    return similarity_.Similarity(x, y);
  }

  // Every object of `collection` (null entries are deleted and skipped)
  // scored against `query`, keeping those at or above `floor` minus the
  // tolerance, in HitBefore order. Positions are object indexes.
  std::vector<kjoin::SearchHit> ScoreAll(const kjoin::Object& query,
                                         const std::vector<const kjoin::Object*>& collection,
                                         double floor) const;

 private:
  kjoin::LcaIndex lca_;
  kjoin::ElementSimilarity element_;
  kjoin::ObjectSimilarity similarity_;
};

// Checks a reported answer against the oracle's scored list (ScoreAll at
// the same floor). k > 0 is a top-k query, k == 0 a threshold query.
// Returns "" when the answer is right, else what is wrong.
std::string CompareWithOracle(const std::vector<kjoin::SearchHit>& got,
                              const std::vector<kjoin::SearchHit>& scored, int k,
                              double floor);

// Order, floor and size properties every answer must have, whatever the
// collection was when it was computed.
std::string CheckAnswerShape(const std::vector<kjoin::SearchHit>& got, int k, double floor);

// Renders a query's tokens for failure messages.
std::string JoinTokens(const std::vector<std::string>& tokens);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
