// search_plus: K-Join+ top-3 search through the KJNP server.
//
// A K-Join+ POI collection, sharded, behind an in-process KJoinServer.
// One closed-loop connection sends TOPK (k=3, floor τ) queries that are
// held-out records of the same generator. Building a K-Join+ query object
// (entity matching under the server's builder lock) is most of each
// request, so the text and net layers dominate and the shard probe comes
// second.

#include <algorithm>
#include <map>
#include <random>
#include <thread>

#include "oracle.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int64_t kIndexed = 2000;
constexpr int64_t kQueries = 1500;
constexpr int kTopK = 3;
constexpr int kWarmupReads = 32;
constexpr int kCheckedQueries = 48;

StackConfig Config() {
  StackConfig config;
  config.plus_mode = true;
  config.delta = 0.8;
  config.tau = 0.6;
  return config;
}

}  // namespace

double RunSearchPlus(const Args& args, bool traced, int setups, Outcome* out) {
  const StackConfig config = Config();
  Tracer tracer(traced, Clock::now());
  Inputs inputs;
  std::vector<std::vector<std::string>> query_tokens;
  const auto choose = [&](int connection, int64_t seq) {
    const int64_t n = static_cast<int64_t>(query_tokens.size());
    ReadChoice choice;
    choice.query = static_cast<int>((connection * n / kReadConnections + seq) % n);
    choice.top_k = kTopK;
    return choice;
  };
  SetupSummary setup;
  std::unique_ptr<ServingStack> stack = SetUpRepeatedly(
      setups, [&]() { return MakeInputs(args.seed, kIndexed, kQueries, 0); },
      [&](int) { return config; }, &tracer,
      [&](ServingStack& s, const Inputs& in) {
        query_tokens.clear();
        for (const kjoin::Record& record : in.queries) query_tokens.push_back(record.tokens);
        kjoin::net::KJoinClient client;
        if (!client.Connect("127.0.0.1", s.port()).ok()) return;
        for (int i = 0; i < kWarmupReads; ++i) {
          ReadOnce(&client, query_tokens[static_cast<size_t>(i) % query_tokens.size()],
                   choose(0, i), config.tau, tracer);
        }
      },
      &inputs, &setup);

  // The server's builder as the timed phase finds it: read replays run on
  // this copy, so what they intern is what reads intern.
  kjoin::ObjectBuilder replay_builder = *stack->builder();
  std::vector<double> queue_delay_s;
  std::atomic<bool> sampling{traced};
  std::thread sampler([&]() {
    while (sampling.load()) {
      queue_delay_s.push_back(stack->router()->queue_delay_ewma_seconds());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const Clock::time_point start = Clock::now();
  const double start_s = tracer.At(start);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<ReadRecord> reads = RunClosedLoopReaders(
      stack->port(), kReadConnections, query_tokens, choose, config.tau, tracer, end);
  sampling.store(false);
  sampler.join();
  const double peak_rss_mb = PeakRssMb();
  double end_s = start_s;
  const std::vector<double> latency_ms = CountReads(reads, out, &end_s);
  const std::string metrics_json = traced ? ScrapeMetrics(stack->port()) : "";
  stack->Shutdown();

  // Checks, outside the timed phase: every answer's shape, and a seeded
  // sample of distinct queries against the brute-force top-k.
  Oracle oracle(*inputs.hierarchy, config.delta);
  std::vector<const kjoin::Object*> collection;
  for (const kjoin::Object& object : stack->prepared().objects) collection.push_back(&object);
  std::map<int, std::vector<const ReadRecord*>> by_query;
  for (const ReadRecord& read : reads) {
    if (!read.ok) continue;
    by_query[read.query].push_back(&read);
    const std::string shape = CheckAnswerShape(read.hits, kTopK, read.floor);
    if (!shape.empty()) {
      out->CheckFailed("search_plus query " +
                       JoinTokens(query_tokens[static_cast<size_t>(read.query)]) + ": " + shape);
    }
  }
  std::vector<int> distinct;
  for (const auto& [query, unused] : by_query) distinct.push_back(query);
  std::mt19937_64 rng(args.seed + 101);
  std::shuffle(distinct.begin(), distinct.end(), rng);
  distinct.resize(std::min<size_t>(distinct.size(), kCheckedQueries));
  for (int query : distinct) {
    const std::vector<std::string>& tokens = query_tokens[static_cast<size_t>(query)];
    const kjoin::Object object = stack->builder()->Build(0, tokens);
    const std::vector<kjoin::SearchHit> scored =
        oracle.ScoreAll(object, collection, config.tau);
    for (const ReadRecord* read : by_query[query]) {
      const std::string wrong = CompareWithOracle(read->hits, scored, kTopK, config.tau);
      if (!wrong.empty()) {
        out->CheckFailed("search_plus query " + JoinTokens(tokens) + ": " + wrong);
        break;
      }
    }
  }

  const double p50_ms = Median(latency_ms);
  if (!traced) {
    ReportEndToEnd(setup.total_s, peak_rss_mb, static_cast<double>(latency_ms.size()),
                   end_s - start_s, latency_ms, out);
    return p50_ms;
  }
  out->Metric("setup.build_objects_s", Median(setup.build_objects_s), "s");
  out->Metric("setup.index_s", Median(setup.index_s), "s");
  ReadLayerInputs layers;
  layers.reads = &reads;
  layers.query_tokens = &query_tokens;
  layers.replay_builder = &replay_builder;
  layers.metrics_json = metrics_json;
  layers.probes = stack->probe_totals();
  layers.probe_events = stack->probe_events();
  layers.queue_delay_mean_s = Mean(queue_delay_s);
  ReportReadLayers(layers, &tracer, out);
  ReportTrace(tracer, "request", args.run_dir + "/trace-search_plus.jsonl", out);
  return p50_ms;
}

}  // namespace perfbench
