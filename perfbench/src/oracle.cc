#include "oracle.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_map>

namespace perfbench {

using kjoin::Object;
using kjoin::SearchHit;

Oracle::Oracle(const kjoin::Hierarchy& hierarchy, double delta)
    : lca_(hierarchy), element_(lca_), similarity_(element_, delta) {}

std::vector<SearchHit> Oracle::ScoreAll(const Object& query,
                                        const std::vector<const Object*>& collection,
                                        double floor) const {
  std::vector<SearchHit> scored;
  for (size_t i = 0; i < collection.size(); ++i) {
    if (collection[i] == nullptr) continue;
    const double sim = similarity_.Similarity(query, *collection[i]);
    if (sim >= floor - kSimilarityTolerance) {
      scored.push_back(SearchHit{static_cast<int32_t>(i), sim});
    }
  }
  std::sort(scored.begin(), scored.end(), kjoin::HitBefore);
  return scored;
}

std::string CheckAnswerShape(const std::vector<SearchHit>& got, int k, double floor) {
  if (k > 0 && static_cast<int>(got.size()) > k) {
    return "more than k=" + std::to_string(k) + " hits: " + std::to_string(got.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].similarity < floor - kSimilarityTolerance) {
      return "hit " + std::to_string(got[i].object_index) + " below the floor";
    }
    if (i > 0 && !kjoin::HitBefore(got[i - 1], got[i])) {
      return "hits out of order at position " + std::to_string(i);
    }
  }
  return "";
}

std::string CompareWithOracle(const std::vector<SearchHit>& got,
                              const std::vector<SearchHit>& scored, int k, double floor) {
  const std::string shape = CheckAnswerShape(got, k, floor);
  if (!shape.empty()) return shape;
  constexpr double eps = kSimilarityTolerance;
  // The k-th cut; with fewer than k scored objects every one qualifies.
  double cut = -std::numeric_limits<double>::infinity();
  if (k > 0 && static_cast<int>(scored.size()) >= k) cut = scored[k - 1].similarity;
  std::unordered_map<int32_t, double> oracle_sim;
  for (const SearchHit& hit : scored) oracle_sim[hit.object_index] = hit.similarity;

  for (const SearchHit& hit : got) {
    auto it = oracle_sim.find(hit.object_index);
    if (it == oracle_sim.end()) {
      return "hit " + std::to_string(hit.object_index) + " is below the floor by the oracle";
    }
    if (std::abs(it->second - hit.similarity) > eps) {
      std::ostringstream why;
      why.precision(17);
      why << "hit " << hit.object_index << " similarity " << hit.similarity
          << " != oracle " << it->second;
      return why.str();
    }
    if (it->second < cut - eps) {
      return "hit " + std::to_string(hit.object_index) + " is below the k-th cut";
    }
  }
  std::unordered_map<int32_t, bool> reported;
  for (const SearchHit& hit : got) reported[hit.object_index] = true;
  int64_t certain = 0;  // clearly above the floor
  for (const SearchHit& hit : scored) {
    if (hit.similarity > floor + eps) ++certain;
    const bool must = hit.similarity > floor + eps && hit.similarity > cut + eps;
    if (must && reported.find(hit.object_index) == reported.end()) {
      std::ostringstream why;
      why.precision(17);
      why << "missing hit " << hit.object_index << " (oracle similarity " << hit.similarity
          << ")";
      return why.str();
    }
  }
  if (k > 0 && certain >= k && static_cast<int>(got.size()) != k) {
    return "expected " + std::to_string(k) + " hits, got " + std::to_string(got.size());
  }
  return "";
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string out = "[";
  for (size_t i = 0; i < tokens.size(); ++i) out += (i ? " " : "") + tokens[i];
  return out + "]";
}

}  // namespace perfbench
