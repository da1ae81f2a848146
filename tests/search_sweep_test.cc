// Randomized brute-force differential sweep over KJoinIndex::Search, the
// one search kernel behind every serving path.
//
// Each configuration is one seeded SweepConfig: filter scheme, verify
// mode, K-Join vs K-Join+, set metric, shard count (1/2/8, always through
// ShardRouter), delta depth (0, or 4 WAL'd mutation batches with
// tombstones) and whether the answering stack was recovered from that
// WAL. The configurations are sampled from the cross product with every
// axis value balanced, not enumerated. Every answer — threshold at τ,
// threshold at a raised floor, top-k with k in {1, 3, 10} through exact
// ties — is checked against a brute-force ObjectSimilarity scan of every
// live object: counted and enumerated when no similarity sits at the
// floor, and under perfbench's tolerance rules always. The ISA level is
// swept by re-running this binary with KJOIN_FORCE_SCALAR=1
// (scripts/check.sh --no-simd).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "data/benchmark_suite.h"
#include "search_test_util.h"
#include "serve/shard_router.h"
#include "serve/sharded_index_manager.h"

namespace kjoin {
namespace {

constexpr int64_t kRecords = 110;
constexpr double kTau = 0.6;
constexpr double kRaisedFloor = 0.8;
constexpr int kQueries = 10;
constexpr int kInsertBatches = 3;  // + one delete batch = delta depth 4
constexpr int kObjectsPerBatch = 5;
constexpr int kSampledConfigs = 36;

enum class FilterScheme { kNode, kDeepPath, kDeepPathWeighted };

struct SweepConfig {
  FilterScheme scheme = FilterScheme::kDeepPathWeighted;
  VerifyMode verify_mode = VerifyMode::kAdaptive;
  bool plus_mode = false;
  SetMetric metric = SetMetric::kJaccard;
  int shards = 1;
  int delta_depth = 0;  // 0, or 4 mutation batches
  bool wal_recovered = false;

  KJoinOptions Options() const {
    KJoinOptions options;
    options.delta = 0.8;
    options.tau = kTau;
    options.scheme =
        scheme == FilterScheme::kNode ? SignatureScheme::kNode : SignatureScheme::kDeepPath;
    options.weighted_prefix = scheme == FilterScheme::kDeepPathWeighted;
    options.verify_mode = verify_mode;
    options.plus_mode = plus_mode;
    options.set_metric = metric;
    return options;
  }

  std::string Name() const {
    static const char* kSchemes[] = {"node", "deep", "deepweighted"};
    static const char* kModes[] = {"basic", "subgraph", "adaptive"};
    static const char* kMetrics[] = {"jaccard", "dice", "cosine"};
    return std::string(kSchemes[static_cast<int>(scheme)]) + "_" +
           kModes[static_cast<int>(verify_mode)] + "_" + (plus_mode ? "plus" : "pure") + "_" +
           kMetrics[static_cast<int>(metric)] + "_" + std::to_string(shards) + "shards_depth" +
           std::to_string(delta_depth) + (wal_recovered ? "_recovered" : "_live");
  }
};

// Balanced sample of the cross product: every axis cycles through its
// values kSampledConfigs / |axis| times, in an independently shuffled
// order per axis, so each value is covered and the combinations vary.
std::vector<SweepConfig> SampleConfigs(uint64_t seed) {
  Rng rng(seed);
  auto axis = [&](int values) {
    std::vector<int> column(kSampledConfigs);
    for (int i = 0; i < kSampledConfigs; ++i) column[i] = i % values;
    for (int i = kSampledConfigs - 1; i > 0; --i) {
      std::swap(column[i], column[rng.NextUint64(static_cast<uint64_t>(i) + 1)]);
    }
    return column;
  };
  const std::vector<int> scheme = axis(3), mode = axis(3), plus = axis(2), metric = axis(3),
                         shards = axis(3), depth = axis(2), recovered = axis(2);
  std::vector<SweepConfig> configs(kSampledConfigs);
  for (int i = 0; i < kSampledConfigs; ++i) {
    SweepConfig& c = configs[i];
    c.scheme = static_cast<FilterScheme>(scheme[i]);
    c.verify_mode = static_cast<VerifyMode>(mode[i]);
    c.plus_mode = plus[i] == 1;
    c.metric = static_cast<SetMetric>(metric[i]);
    c.shards = std::vector<int>{1, 2, 8}[shards[i]];
    c.delta_depth = depth[i] == 1 ? 4 : 0;
    c.wal_recovered = recovered[i] == 1;
  }
  return configs;
}

// The collection every configuration indexes (built once per mode):
// POI records plus exact copies of the first objects, so similarities
// tie exactly and the top-k cut has to break ties by object index.
struct Corpus {
  Dataset dataset;
  std::shared_ptr<const Hierarchy> hierarchy;
  PreparedObjects prepared;
  std::vector<Object> objects;  // global index order
  std::vector<Object> queries;
};

const Corpus& CorpusFor(bool plus_mode) {
  static Corpus* corpora[2] = {nullptr, nullptr};
  Corpus*& corpus = corpora[plus_mode ? 1 : 0];
  if (corpus == nullptr) {
    corpus = new Corpus();
    BenchmarkData data = MakePoiBenchmark(kRecords, /*seed=*/91);
    corpus->dataset = std::move(data.dataset);
    corpus->hierarchy = std::make_shared<const Hierarchy>(std::move(data.hierarchy));
    corpus->prepared = BuildObjects(*corpus->hierarchy, corpus->dataset, plus_mode, 0.8);
    corpus->objects = corpus->prepared.objects;
    for (int copy = 0; copy < 3; ++copy) {
      for (int i = 0; i < 2; ++i) corpus->objects.push_back(corpus->prepared.objects[i]);
    }
    // Indexed objects (exact and tied matches) and records with a token
    // dropped (near matches).
    for (int q = 0; q < kQueries; ++q) {
      const int32_t record = (q * 37) % static_cast<int32_t>(corpus->dataset.records.size());
      std::vector<std::string> tokens = corpus->dataset.records[record].tokens;
      if (q % 2 == 1 && tokens.size() > 1) tokens.pop_back();
      corpus->queries.push_back(q < 2 ? corpus->prepared.objects[q]
                                      : corpus->prepared.builder->Build(-1, tokens));
    }
  }
  return *corpus;
}

struct SearchKind {
  int32_t k = 0;
  double floor = -1.0;  // as requested; < 0 = τ

  double Floor() const { return floor < 0.0 ? kTau : floor; }
  std::string Name() const {
    return (k > 0 ? "top-" + std::to_string(k) : std::string("threshold")) + " at " +
           std::to_string(Floor());
  }
};

const std::vector<SearchKind>& Kinds() {
  static const std::vector<SearchKind> kinds = {
      {0, -1.0}, {0, kRaisedFloor}, {1, -1.0}, {3, -1.0}, {10, -1.0}, {3, kRaisedFloor}};
  return kinds;
}

std::unique_ptr<serve::ShardedIndexManager> MakeManager(const SweepConfig& config,
                                                        const Corpus& corpus,
                                                        const std::vector<Object>& initial) {
  serve::IndexManagerOptions manager_options;
  manager_options.max_delta_layers = 1 << 20;  // keep the chain deep
  return std::make_unique<serve::ShardedIndexManager>(
      corpus.hierarchy, config.Options(), initial, corpus.prepared.builder->TokenTable(),
      corpus.dataset.synonyms, config.shards, /*pool=*/nullptr, /*metrics=*/nullptr,
      manager_options);
}

void RemoveWal(const std::string& prefix, int shards) {
  for (int s = 0; s < shards; ++s) std::remove((prefix + ".shard-" + std::to_string(s)).c_str());
}

class SearchSweepTest : public testing::TestWithParam<SweepConfig> {};

TEST_P(SearchSweepTest, EveryAnswerMatchesBruteForce) {
  const SweepConfig& config = GetParam();
  const Corpus& corpus = CorpusFor(config.plus_mode);
  const int64_t held_back =
      config.delta_depth > 0 ? int64_t{kInsertBatches} * kObjectsPerBatch : 0;
  const std::vector<Object> initial(corpus.objects.begin(),
                                    corpus.objects.end() - held_back);
  std::vector<bool> live(corpus.objects.size(), true);
  const std::string wal = testing::TempDir() + "/search_sweep_" + config.Name() + ".wal";
  RemoveWal(wal, config.shards);

  std::unique_ptr<serve::ShardedIndexManager> manager = MakeManager(config, corpus, initial);
  ASSERT_TRUE(manager->AttachWal(wal, /*fsync=*/false).ok());
  if (config.delta_depth > 0) {
    for (int b = 0; b < kInsertBatches; ++b) {
      const auto first = corpus.objects.end() - held_back + int64_t{b} * kObjectsPerBatch;
      ASSERT_TRUE(manager->InsertBatch({first, first + kObjectsPerBatch}).ok());
    }
    // Tombstones: an original, one of a tied copy group, and an insert.
    const std::vector<int32_t> doomed = {3, static_cast<int32_t>(kRecords) + 2,
                                         static_cast<int32_t>(corpus.objects.size()) - 1};
    ASSERT_TRUE(manager->DeleteObjects(doomed).ok());
    for (const int32_t g : doomed) live[static_cast<size_t>(g)] = false;
  }
  manager->Flush();
  ASSERT_EQ(manager->num_objects(), static_cast<int64_t>(corpus.objects.size()));
  if (config.wal_recovered) {
    manager = MakeManager(config, corpus, initial);
    ASSERT_TRUE(manager->AttachWal(wal, /*fsync=*/false).ok());
    ASSERT_EQ(manager->num_objects(), static_cast<int64_t>(corpus.objects.size()));
  }
  std::vector<std::unique_ptr<serve::LocalShard>> backends;
  std::vector<serve::ShardBackend*> shards;
  for (int s = 0; s < config.shards; ++s) {
    backends.push_back(std::make_unique<serve::LocalShard>(manager.get(), s));
    shards.push_back(backends.back().get());
  }
  ThreadPool pool(2);
  serve::ShardRouter router(shards, &pool);

  const LcaIndex lca(*corpus.hierarchy);
  const ElementSimilarity element(lca);
  const ObjectSimilarity similarity(element, config.Options().delta, config.metric);
  std::vector<serve::QueryRequest> batch;
  std::vector<std::vector<SearchHit>> expected_scores;
  std::vector<const SearchKind*> batch_kinds;
  int64_t answers_with_hits = 0;
  for (size_t q = 0; q < corpus.queries.size(); ++q) {
    const std::vector<SearchHit> scored =
        ScoreAll(similarity, corpus.queries[q], corpus.objects, &live);
    for (const SearchKind& kind : Kinds()) {
      const std::string where = "query " + std::to_string(q) + ", " + kind.Name();
      serve::QueryRequest request;
      request.query = corpus.queries[q];
      request.top_k = kind.k;
      request.min_similarity = kind.floor;
      const serve::QueryResponse response = router.Search(request);
      ASSERT_TRUE(response.status.ok()) << where << ": " << response.status.ToString();
      EXPECT_EQ(CheckAgainstOracle(response.hits, scored, kind.k, kind.Floor()), "")
          << where << " (router)";
      EXPECT_LE(response.stats.candidates, static_cast<int64_t>(corpus.objects.size())) << where;
      answers_with_hits += response.hits.empty() ? 0 : 1;
      if (config.shards == 1) {
        // One shard numbers its objects globally: the bare index answers
        // the same, through the same single entry point.
        const auto epoch = manager->shard(0)->Acquire();
        EXPECT_EQ(SearchHits(*epoch->index, corpus.queries[q], kind.k, kind.floor),
                  response.hits)
            << where << " (direct)";
      }
      batch.push_back(std::move(request));
      expected_scores.push_back(scored);
      batch_kinds.push_back(&kind);
    }
  }
  // The Submit dispatcher shares one bound per query across a batch.
  const std::vector<serve::QueryResponse> batched = router.SearchBatch(batch);
  for (size_t i = 0; i < batched.size(); ++i) {
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    EXPECT_EQ(CheckAgainstOracle(batched[i].hits, expected_scores[i], batch_kinds[i]->k,
                                 batch_kinds[i]->Floor()), "")
        << "batched request " << i << ", " << batch_kinds[i]->Name();
  }
  EXPECT_GT(answers_with_hits, 0);
  RemoveWal(wal, config.shards);
}

INSTANTIATE_TEST_SUITE_P(Sampled, SearchSweepTest,
                         testing::ValuesIn(SampleConfigs(/*seed=*/20260419)),
                         [](const testing::TestParamInfo<SweepConfig>& info) {
                           return std::to_string(info.index) + "_" + info.param.Name();
                         });

}  // namespace
}  // namespace kjoin
