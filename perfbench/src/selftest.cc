// The benchmark's test of its own checks: right answers pass, planted
// wrong answers (a dropped hit, a perturbed similarity, hits out of
// order, a missing join pair) fail and count as failed, and the inputs
// follow the seed.

#include <iostream>

#include "core/kjoin.h"
#include "oracle.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

bool SameRecords(const std::vector<kjoin::Record>& a, const std::vector<kjoin::Record>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tokens != b[i].tokens) return false;
  }
  return true;
}

bool SameInputs(const Inputs& a, const Inputs& b) {
  return SameRecords(a.indexed.records, b.indexed.records) &&
         SameRecords(a.queries, b.queries) && SameRecords(a.inserts, b.inserts);
}

}  // namespace

int RunSelfTest(const Args& args) {
  int64_t attempted = 0;
  int64_t caught = 0;
  std::vector<std::string> problems;
  const auto expect_pass = [&](const std::string& what, const std::string& verdict) {
    ++attempted;
    if (!verdict.empty()) problems.push_back(what + " was rejected: " + verdict);
  };
  const auto expect_fail = [&](const std::string& what, const std::string& verdict) {
    ++attempted;
    if (verdict.empty()) {
      problems.push_back(what + " was not caught");
    } else {
      ++caught;
      std::cerr << "perfbench selftest: planted " << what << " caught: " << verdict << "\n";
    }
  };

  const uint64_t seed = args.seed;
  const Inputs inputs = MakeInputs(seed, 400, 40, 20);
  ++attempted;
  if (!SameInputs(inputs, MakeInputs(seed, 400, 40, 20))) {
    problems.push_back("the same seed gave other inputs");
  }
  ++attempted;
  if (SameInputs(inputs, MakeInputs(seed + 1, 400, 40, 20))) {
    problems.push_back("another seed gave the same inputs");
  }

  // Search checks, on K-Join+ objects and a query with several hits.
  constexpr double kDelta = 0.8;
  constexpr double kTau = 0.6;
  constexpr int kTopK = 3;
  kjoin::PreparedObjects prepared =
      kjoin::BuildObjects(*inputs.hierarchy, inputs.indexed, /*multi_mapping=*/true, kDelta);
  const Oracle oracle(*inputs.hierarchy, kDelta);
  std::vector<const kjoin::Object*> collection;
  for (const kjoin::Object& object : prepared.objects) collection.push_back(&object);
  std::vector<kjoin::SearchHit> scored;
  for (const kjoin::Record& query : inputs.queries) {
    scored = oracle.ScoreAll(prepared.builder->Build(0, query.tokens), collection, kTau);
    if (scored.size() >= 2) break;
  }
  if (scored.size() < 2) {
    problems.push_back("no query with two hits to plant faults in");
  } else {
    std::vector<kjoin::SearchHit> right(
        scored.begin(), scored.begin() + std::min<size_t>(scored.size(), kTopK));
    expect_pass("right top-k answer", CompareWithOracle(right, scored, kTopK, kTau));
    expect_pass("right threshold answer", CompareWithOracle(scored, scored, 0, kTau));

    std::vector<kjoin::SearchHit> dropped(right.begin() + 1, right.end());
    expect_fail("dropped hit", CompareWithOracle(dropped, scored, kTopK, kTau));
    std::vector<kjoin::SearchHit> perturbed = right;
    perturbed.back().similarity += 1e-6;
    expect_fail("perturbed similarity", CompareWithOracle(perturbed, scored, kTopK, kTau));
    std::vector<kjoin::SearchHit> reordered = right;
    std::swap(reordered.front(), reordered.back());
    expect_fail("hits out of order", CompareWithOracle(reordered, scored, kTopK, kTau));
    std::vector<kjoin::SearchHit> below = right;
    below.push_back(kjoin::SearchHit{static_cast<int32_t>(collection.size()), kTau / 2});
    expect_fail("hit below the floor", CheckAnswerShape(below, 0, kTau));
  }

  // Join checks: the real self-join passes, the same output with one
  // pair dropped fails completeness.
  kjoin::KJoinOptions options;
  options.delta = kDelta;
  options.tau = 0.7;
  options.plus_mode = true;
  const kjoin::KJoin join(*inputs.hierarchy, options);
  const kjoin::JoinResult result = join.SelfJoin(prepared.objects);
  if (result.pairs.empty()) {
    problems.push_back("the self-join found no pair to drop");
  } else {
    const auto [x, y] = result.pairs.front();
    Outcome right;
    CheckJoinAnswer(oracle, prepared.objects, result.pairs, {x, y}, options.tau, &right);
    expect_pass("right join answer", right.correct() ? "" : right.check_failures.front());
    std::vector<std::pair<int32_t, int32_t>> missing(result.pairs.begin() + 1,
                                                     result.pairs.end());
    Outcome wrong;
    CheckJoinAnswer(oracle, prepared.objects, missing, {x}, options.tau, &wrong);
    expect_fail("missing join pair", wrong.correct() ? "" : wrong.check_failures.front());
  }

  for (const std::string& problem : problems) {
    std::cerr << "perfbench selftest: FAILED: " << problem << "\n";
  }
  std::cout << "{\"correct\": " << (problems.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << caught
            << ", \"metrics\": {}}" << std::endl;
  return problems.empty() ? 0 : 1;
}

}  // namespace perfbench
