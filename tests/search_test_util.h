#ifndef KJOIN_TESTS_SEARCH_TEST_UTIL_H_
#define KJOIN_TESTS_SEARCH_TEST_UTIL_H_

// Search helpers the test suites share: one KJoinIndex::Search call that
// must succeed, and a brute-force oracle to check any search answer
// against.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/kjoin_index.h"
#include "core/object_similarity.h"

namespace kjoin {

// index.Search's hits for `k` (<= 0 = every hit) at `min_similarity`
// (< 0 = the index's τ); a non-OK status fails the calling test.
inline std::vector<SearchHit> SearchHits(const KJoinIndex& index, const Object& query,
                                         int32_t k = 0, double min_similarity = -1.0) {
  SearchOptions options;
  options.k = k;
  options.min_similarity = min_similarity;
  std::vector<SearchHit> hits;
  const Status status = index.Search(query, options, &hits);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return hits;
}

// Brute force: SIMδ(query, objects[i]) for every object (every one `live`
// marks, when given), in HitBefore order. Object indexes are positions in
// `objects`.
inline std::vector<SearchHit> ScoreAll(const ObjectSimilarity& similarity, const Object& query,
                                       const std::vector<Object>& objects,
                                       const std::vector<bool>* live = nullptr) {
  std::vector<SearchHit> scored;
  for (size_t i = 0; i < objects.size(); ++i) {
    if (live != nullptr && !(*live)[i]) continue;
    scored.push_back({static_cast<int32_t>(i), similarity.Similarity(query, objects[i])});
  }
  std::sort(scored.begin(), scored.end(), HitBefore);
  return scored;
}

// Checks a search answer (the best `k` hits, k <= 0 = all, at or above
// `floor`) against ScoreAll's output; returns "" when it holds, else
// what is wrong. Always: the tolerance rules of perfbench/src/oracle.cc —
// shape, every hit real and at its oracle similarity, nothing certain
// missing, exactly k when k are certain. When no similarity lies within
// the search's float slack of the floor, the answer must also count and
// enumerate exactly the oracle's: the same hits in the same order, the
// top-k cut through exact ties included.
inline std::string CheckAgainstOracle(const std::vector<SearchHit>& got,
                                      const std::vector<SearchHit>& scored, int32_t k,
                                      double floor) {
  constexpr double kTolerance = 1e-9;  // perfbench/src/oracle.h
  if (k > 0 && static_cast<int32_t>(got.size()) > k) return "more than k hits";
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].similarity < floor - kTolerance) return "hit below the floor";
    if (i > 0 && !HitBefore(got[i - 1], got[i])) return "hits out of HitBefore order";
  }
  std::vector<SearchHit> above;
  bool boundary = false;
  for (const SearchHit& hit : scored) {
    if (std::abs(hit.similarity - floor) <= 1e-7) boundary = true;
    if (hit.similarity >= floor - kTolerance) above.push_back(hit);
  }
  double cut = -std::numeric_limits<double>::infinity();
  if (k > 0 && static_cast<int32_t>(above.size()) >= k) cut = above[k - 1].similarity;
  std::unordered_map<int32_t, double> oracle;
  for (const SearchHit& hit : above) oracle[hit.object_index] = hit.similarity;
  std::unordered_set<int32_t> reported;
  for (const SearchHit& hit : got) {
    const auto it = oracle.find(hit.object_index);
    if (it == oracle.end()) return "hit " + std::to_string(hit.object_index) + " not in oracle";
    if (std::abs(it->second - hit.similarity) > kTolerance) {
      return "hit " + std::to_string(hit.object_index) + " similarity differs from oracle";
    }
    if (it->second < cut - kTolerance) return "hit below the k-th cut";
    reported.insert(hit.object_index);
  }
  int64_t certain = 0;
  for (const SearchHit& hit : above) {
    if (hit.similarity <= floor + kTolerance) continue;
    ++certain;
    if (hit.similarity > cut + kTolerance && reported.count(hit.object_index) == 0) {
      return "missing hit " + std::to_string(hit.object_index);
    }
  }
  if (k > 0 && certain >= k && static_cast<int32_t>(got.size()) != k) return "not k hits";
  if (boundary) return "";
  if (k > 0 && static_cast<int32_t>(above.size()) > k) above.resize(static_cast<size_t>(k));
  if (got.size() != above.size()) {
    return "count " + std::to_string(got.size()) + " != oracle " + std::to_string(above.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].object_index != above[i].object_index) {
      return "position " + std::to_string(i) + " holds " + std::to_string(got[i].object_index) +
             ", oracle " + std::to_string(above[i].object_index);
    }
  }
  return "";
}

}  // namespace kjoin

#endif  // KJOIN_TESTS_SEARCH_TEST_UTIL_H_
