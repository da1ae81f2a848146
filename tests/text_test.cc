// Tests for src/text: edit distance, tokenizer, q-gram index, entity
// matcher.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "hierarchy/dag.h"
#include "hierarchy/hierarchy_builder.h"
#include "text/edit_distance.h"
#include "text/entity_matcher.h"
#include "text/qgram_index.h"
#include "text/tokenizer.h"

namespace kjoin {

// Readable failure output for match lists.
void PrintTo(const EntityMatch& match, std::ostream* os) {
  *os << "{node " << match.node << ", phi " << match.phi << "}";
}

namespace {

TEST(EditDistanceTest, BasicCases) {
  EXPECT_EQ(EditDistance("", ""), 0);
  EXPECT_EQ(EditDistance("abc", ""), 3);
  EXPECT_EQ(EditDistance("", "abc"), 3);
  EXPECT_EQ(EditDistance("abc", "abc"), 0);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3);
  EXPECT_EQ(EditDistance("pizzahut", "pizzahat"), 1);  // paper §2.1.1
  EXPECT_EQ(EditDistance("abc", "acb"), 2);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("sunday", "saturday"), EditDistance("saturday", "sunday"));
}

TEST(EditDistanceBoundedTest, AgreesWithExactWithinBudget) {
  Rng rng(4);
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 500; ++trial) {
    std::string x, y;
    const int nx = static_cast<int>(rng.NextUint64(10));
    const int ny = static_cast<int>(rng.NextUint64(10));
    for (int i = 0; i < nx; ++i) x += alphabet[rng.NextUint64(alphabet.size())];
    for (int i = 0; i < ny; ++i) y += alphabet[rng.NextUint64(alphabet.size())];
    const int exact = EditDistance(x, y);
    for (int budget = 0; budget <= 6; ++budget) {
      const int bounded = EditDistanceBounded(x, y, budget);
      if (exact <= budget) {
        ASSERT_EQ(bounded, exact) << x << " vs " << y << " budget " << budget;
      } else {
        ASSERT_GT(bounded, budget) << x << " vs " << y << " budget " << budget;
      }
    }
  }
}

TEST(EditSimilarityTest, PaperExample) {
  // ED(PizzaHut, PizzaHat) = 1, |both| = 8, similarity = 7/8.
  EXPECT_DOUBLE_EQ(EditSimilarity("pizzahut", "pizzahat"), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("a", ""), 0.0);
}

TEST(EditSimilarityAtLeastTest, MatchesDirectComputation) {
  Rng rng(6);
  const std::string alphabet = "abc";
  for (int trial = 0; trial < 400; ++trial) {
    std::string x, y;
    const int nx = 1 + static_cast<int>(rng.NextUint64(8));
    const int ny = 1 + static_cast<int>(rng.NextUint64(8));
    for (int i = 0; i < nx; ++i) x += alphabet[rng.NextUint64(alphabet.size())];
    for (int i = 0; i < ny; ++i) y += alphabet[rng.NextUint64(alphabet.size())];
    for (double threshold : {0.3, 0.5, 0.75, 0.9}) {
      ASSERT_EQ(EditSimilarityAtLeast(x, y, threshold),
                EditSimilarity(x, y) >= threshold - 1e-12)
          << x << " vs " << y << " @ " << threshold;
    }
  }
}

TEST(MaxEditErrorsTest, Values) {
  EXPECT_EQ(MaxEditErrors(8, 0.8), 1);   // (1-0.8)*8 = 1.6 -> 1
  EXPECT_EQ(MaxEditErrors(10, 0.8), 2);  // exactly 2.0
  EXPECT_EQ(MaxEditErrors(5, 1.0), 0);
  EXPECT_EQ(MaxEditErrors(5, 0.0), 5);
}

TEST(TokenizerTest, SplitsAndNormalizes) {
  const Tokenizer tokenizer;
  const auto tokens = tokenizer.Tokenize("Californian food, at Fillmore St.!");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "californian");
  EXPECT_EQ(tokens[3], "fillmore");
  EXPECT_EQ(tokens[4], "st");
}

TEST(TokenizerTest, KeepsDuplicates) {
  const Tokenizer tokenizer;
  const auto tokens = tokenizer.Tokenize("pizza pizza");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], tokens[1]);
}

TEST(TokenizerTest, MinTokenLengthDropsShortTokens) {
  TokenizerOptions options;
  options.min_token_length = 3;
  const Tokenizer tokenizer(options);
  const auto tokens = tokenizer.Tokenize("a bb ccc dddd");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "ccc");
}

TEST(TokenizerTest, NormalizeStripsPunctuation) {
  const Tokenizer tokenizer;
  EXPECT_EQ(tokenizer.Normalize("Burger-King!"), "burgerking");
  EXPECT_EQ(tokenizer.Normalize("...."), "");
}

TEST(QGramIndexTest, PaddedGramCount) {
  const auto grams = QGramIndex::PaddedQGrams("abc", 2);
  EXPECT_EQ(grams.size(), 4u);  // |s| + q - 1
  const auto single = QGramIndex::PaddedQGrams("a", 3);
  EXPECT_EQ(single.size(), 3u);
}

TEST(QGramIndexTest, FindsExactString) {
  QGramIndex index({"pizza", "burger", "pasta"}, 2);
  const auto hits = index.SearchWithinDistance("pizza", 0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(index.string_at(hits[0]), "pizza");
}

TEST(QGramIndexTest, FindsTypoNeighbors) {
  QGramIndex index({"pizzahut", "burgerking", "dominos"}, 2);
  const auto hits = index.SearchWithinDistance("pizzahat", 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(index.string_at(hits[0]), "pizzahut");
  EXPECT_TRUE(index.SearchWithinDistance("zzzz", 1).empty());
}

TEST(QGramIndexTest, RepeatedCharacterStrings) {
  // Multiset gram semantics must not reject identical strings.
  QGramIndex index({"aaaa", "aaab"}, 2);
  const auto exact = index.SearchWithinDistance("aaaa", 0);
  ASSERT_EQ(exact.size(), 1u);
  const auto close = index.SearchWithinDistance("aaaa", 1);
  EXPECT_EQ(close.size(), 2u);
}

TEST(QGramIndexTest, NeverMissesWithinBudget) {
  // Property: SearchWithinDistance returns exactly the strings whose edit
  // distance is within budget (candidates are a superset; verification
  // trims them).
  Rng rng(77);
  const std::string alphabet = "abcde";
  std::vector<std::string> dictionary;
  for (int i = 0; i < 200; ++i) {
    std::string word;
    const int len = 1 + static_cast<int>(rng.NextUint64(8));
    for (int k = 0; k < len; ++k) word += alphabet[rng.NextUint64(alphabet.size())];
    dictionary.push_back(word);
  }
  QGramIndex index(dictionary, 2);
  for (int trial = 0; trial < 100; ++trial) {
    std::string query;
    const int len = 1 + static_cast<int>(rng.NextUint64(8));
    for (int k = 0; k < len; ++k) query += alphabet[rng.NextUint64(alphabet.size())];
    for (int budget = 0; budget <= 2; ++budget) {
      std::vector<int32_t> expected;
      for (int32_t id = 0; id < static_cast<int32_t>(dictionary.size()); ++id) {
        if (EditDistance(query, dictionary[id]) <= budget) expected.push_back(id);
      }
      ASSERT_EQ(index.SearchWithinDistance(query, budget), expected)
          << "query " << query << " budget " << budget;
    }
  }
}

// A seeded random string over `alphabet`; small alphabets make repeated
// grams common.
std::string RandomString(Rng* rng, int min_len, int max_len, std::string_view alphabet) {
  const int len = min_len + static_cast<int>(rng->NextUint64(max_len - min_len + 1));
  std::string out;
  for (int k = 0; k < len; ++k) out += alphabet[rng->NextUint64(alphabet.size())];
  return out;
}

TEST(QGramIndexTest, CandidatesAndSearchMatchEditDistanceScan) {
  // Differential: Candidates must contain every string within the budget
  // (ascending), and SearchWithinDistance must equal a plain EditDistance
  // scan. Dictionaries of different sizes share the thread-local counter
  // scratch, so a counter left dirty by one lookup would surface here.
  Rng rng(2024);
  int vacuous = 0, counted = 0;
  for (int q = 1; q <= 3; ++q) {
    std::vector<std::string> dictionary;
    for (int i = 0; i < 60 + 50 * q; ++i) dictionary.push_back(RandomString(&rng, 0, 9, "abc"));
    const QGramIndex index(dictionary, q);
    for (int trial = 0; trial < 80; ++trial) {
      const std::string query = RandomString(&rng, 0, 10, "abc");
      for (int budget = 0; budget <= 3; ++budget) {
        const int bound = static_cast<int>(query.size()) + q - 1 - q * budget;
        ++(bound <= 0 ? vacuous : counted);
        std::vector<int32_t> within;
        for (int32_t id = 0; id < static_cast<int32_t>(dictionary.size()); ++id) {
          if (EditDistance(query, dictionary[id]) <= budget) within.push_back(id);
        }
        const std::vector<int32_t> candidates = index.Candidates(query, budget);
        ASSERT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
        ASSERT_TRUE(
            std::includes(candidates.begin(), candidates.end(), within.begin(), within.end()))
            << "q=" << q << " query '" << query << "' budget " << budget;
        ASSERT_EQ(index.SearchWithinDistance(query, budget), within)
            << "q=" << q << " query '" << query << "' budget " << budget;
      }
    }
  }
  // Both the vacuous-count-bound fallback and the counting path ran.
  EXPECT_GT(vacuous, 0);
  EXPECT_GT(counted, 0);
}

class EntityMatcherTest : public testing::Test {
 protected:
  EntityMatcherTest() : tree_(MakeFigure1Hierarchy()) {}
  Hierarchy tree_;
};

TEST_F(EntityMatcherTest, ExactMatch) {
  const EntityMatcher matcher(tree_);
  auto match = matcher.MatchOne("BurgerKing");
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->node, *tree_.FindByLabel("BurgerKing"));
  EXPECT_DOUBLE_EQ(match->phi, 1.0);
  // Case and punctuation insensitive.
  EXPECT_TRUE(matcher.MatchOne("burger-king").has_value());
}

TEST_F(EntityMatcherTest, UnmatchedTokenReturnsNothing) {
  const EntityMatcher matcher(tree_);
  EXPECT_FALSE(matcher.MatchOne("qwertyuiop").has_value());
  EXPECT_TRUE(matcher.MatchAll("qwertyuiop").empty());
}

TEST_F(EntityMatcherTest, SynonymMapsWithPhiOne) {
  EntityMatcher matcher(tree_);
  ASSERT_EQ(matcher.AddSynonym("thecolonel", "KFC"), 1);
  auto match = matcher.MatchOne("thecolonel");
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->node, *tree_.FindByLabel("KFC"));
  EXPECT_DOUBLE_EQ(match->phi, 1.0);
}

TEST_F(EntityMatcherTest, SynonymForUnknownLabelIsIgnored) {
  EntityMatcher matcher(tree_);
  EXPECT_EQ(matcher.AddSynonym("alias", "NoSuchNode"), 0);
  EXPECT_FALSE(matcher.MatchOne("alias").has_value());
}

TEST_F(EntityMatcherTest, ApproximateMatchGetsEditSimilarityPhi) {
  EntityMatcherOptions options;
  options.min_phi = 0.7;
  const EntityMatcher matcher(tree_, options);
  const auto matches = matcher.MatchAll("pizzahat");  // typo of PizzaHut
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].node, *tree_.FindByLabel("PizzaHut"));
  EXPECT_DOUBLE_EQ(matches[0].phi, 7.0 / 8.0);  // paper's example value
}

TEST_F(EntityMatcherTest, ApproximateBelowMinPhiIsDropped) {
  EntityMatcherOptions options;
  options.min_phi = 0.95;
  const EntityMatcher matcher(tree_, options);
  EXPECT_TRUE(matcher.MatchAll("pizzahat").empty());
}

TEST_F(EntityMatcherTest, MatchOneIgnoresApproximate) {
  // The paper's plain K-Join maps elements by exact label only.
  const EntityMatcher matcher(tree_);
  EXPECT_FALSE(matcher.MatchOne("pizzahat").has_value());
}

TEST_F(EntityMatcherTest, MatchAllSortsByPhi) {
  EntityMatcher matcher(tree_);
  matcher.AddSynonym("mcfastfood", "Fastfood");
  const auto matches = matcher.MatchAll("fastfood");
  ASSERT_FALSE(matches.empty());
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].phi, matches[i].phi);
  }
  EXPECT_EQ(matches[0].node, *tree_.FindByLabel("Fastfood"));
}

TEST_F(EntityMatcherTest, AmbiguousLabelReturnsAllNodes) {
  // Build a small DAG-unfolded tree where "C" occurs twice.
  Dag dag;
  const int32_t a = dag.AddNode("A");
  const int32_t b = dag.AddNode("B");
  const int32_t c = dag.AddNode("C");
  dag.AddEdge(0, a);
  dag.AddEdge(0, b);
  dag.AddEdge(a, c);
  dag.AddEdge(b, c);
  auto tree = ConvertDagToTree(dag);
  ASSERT_TRUE(tree.has_value());
  EntityMatcherOptions options;
  options.enable_approximate = false;
  const EntityMatcher matcher(*tree, options);
  EXPECT_EQ(matcher.MatchAll("c").size(), 2u);
}

TEST_F(EntityMatcherTest, MaxMatchesCapRespected) {
  EntityMatcherOptions options;
  options.min_phi = 0.2;
  options.max_matches = 2;
  const EntityMatcher matcher(tree_, options);
  EXPECT_LE(matcher.MatchAll("pizza").size(), 2u);
}

// The K-Join+ mapping by definition: every node whose label equals the
// token or is a registered alias of it (φ = 1), and every node whose label
// has EditSimilarity φ >= min_phi to it; φ descending, then node id,
// cut at max_matches. Labels and tokens here are already normalized.
std::vector<EntityMatch> MatchAllByScan(
    const Hierarchy& tree, const std::vector<std::pair<std::string, std::string>>& synonyms,
    const std::string& token, const EntityMatcherOptions& options) {
  std::vector<EntityMatch> matches;
  auto add = [&](NodeId node, double phi) {
    for (EntityMatch& existing : matches) {
      if (existing.node == node) {
        existing.phi = std::max(existing.phi, phi);
        return;
      }
    }
    matches.push_back({node, phi});
  };
  for (NodeId v = 1; v < tree.num_nodes(); ++v) {
    const std::string& label = tree.label(v);
    if (label == token) {
      add(v, 1.0);
    } else if (options.enable_approximate) {
      const double phi = EditSimilarity(token, label);
      if (phi >= options.min_phi) add(v, phi);
    }
    for (const auto& [alias, target] : synonyms) {
      if (alias == token && target == label) add(v, 1.0);
    }
  }
  std::sort(matches.begin(), matches.end(), [](const EntityMatch& a, const EntityMatch& b) {
    if (a.phi != b.phi) return a.phi > b.phi;
    return a.node < b.node;
  });
  if (static_cast<int>(matches.size()) > options.max_matches) {
    matches.resize(options.max_matches);
  }
  return matches;
}

TEST(EntityMatcherScanTest, MatchAllEqualsLabelScan) {
  // Random trees whose labels repeat (ambiguous nodes) and differ by
  // few edits, queried with labels, near-labels and aliases, across the
  // φ floors and match caps the pipelines use.
  Rng rng(4242);
  for (int tree_index = 0; tree_index < 6; ++tree_index) {
    std::vector<NodeId> parents = {kInvalidNode};
    std::vector<std::string> labels = {"root"};
    for (int v = 1; v < 120; ++v) {
      parents.push_back(static_cast<NodeId>(rng.NextUint64(static_cast<uint64_t>(v))));
      labels.push_back(RandomString(&rng, 1, 10, "abcd"));
    }
    const Hierarchy tree(parents, labels);
    std::vector<std::pair<std::string, std::string>> synonyms;
    for (int k = 0; k < 5; ++k) {
      synonyms.emplace_back(RandomString(&rng, 3, 8, "abcd"), labels[1 + rng.NextUint64(119)]);
    }
    for (const double min_phi : {0.5, 0.6, 0.75, 0.8, 0.9}) {
      for (const int max_matches : {2, 8}) {
        EntityMatcherOptions options;
        options.min_phi = min_phi;
        options.max_matches = max_matches;
        EntityMatcher matcher(tree, options);
        for (const auto& [alias, label] : synonyms) matcher.AddSynonym(alias, label);
        for (int trial = 0; trial < 40; ++trial) {
          std::string token = trial % 4 == 0   ? labels[1 + rng.NextUint64(119)]
                              : trial % 4 == 1 ? synonyms[rng.NextUint64(synonyms.size())].first
                                               : RandomString(&rng, 1, 11, "abcd");
          if (trial % 4 == 3 && !token.empty()) token.pop_back();  // a near-label
          ASSERT_EQ(matcher.MatchAll(token), MatchAllByScan(tree, synonyms, token, options))
              << "token '" << token << "' min_phi " << min_phi << " max_matches "
              << max_matches;
        }
      }
    }
  }
}

}  // namespace
}  // namespace kjoin
