#include "serving.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <random>
#include <thread>

#include "data/generator.h"
#include "hierarchy/hierarchy_generator.h"
#include "net/protocol.h"

namespace perfbench {

using kjoin::Object;
using kjoin::SearchHit;
namespace net = kjoin::net;
namespace serve = kjoin::serve;

namespace {
constexpr uint64_t kHierarchySeed = 103;
}  // namespace

Inputs MakeInputs(uint64_t seed, int64_t num_indexed, int64_t num_queries,
                  int64_t num_inserts) {
  const int64_t total = num_indexed + num_queries + num_inserts;
  // The knowledge hierarchy (Table 2 shape) is the same for every seed;
  // the seed draws the records and which of them are held out. A seeded
  // hierarchy would move hub fan-outs, and with them every cost, from
  // seed to seed.
  kjoin::HierarchyGenParams tree_params;
  tree_params.seed = kHierarchySeed;
  kjoin::BenchmarkData data{kjoin::GenerateHierarchy(tree_params), {}};
  data.dataset =
      kjoin::DatasetGenerator(data.hierarchy, kjoin::PoiParams(total, seed)).Generate("POI");
  std::vector<kjoin::Record>& records = data.dataset.records;
  // Seeded Fisher-Yates over record positions: the first num_queries go
  // to reads, the next num_inserts to writes, the rest stay indexed in
  // generation order.
  std::vector<size_t> order(records.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng() % i)]);
  }
  const size_t queries_end = std::min(order.size(), static_cast<size_t>(num_queries));
  const size_t inserts_end =
      std::min(order.size(), queries_end + static_cast<size_t>(num_inserts));
  Inputs inputs;
  inputs.indexed.name = data.dataset.name;
  inputs.indexed.synonyms = data.dataset.synonyms;
  for (size_t i = 0; i < queries_end; ++i) inputs.queries.push_back(records[order[i]]);
  for (size_t i = queries_end; i < inserts_end; ++i) inputs.inserts.push_back(records[order[i]]);
  std::sort(order.begin() + static_cast<std::ptrdiff_t>(inserts_end), order.end());
  for (size_t i = inserts_end; i < order.size(); ++i) {
    inputs.indexed.records.push_back(std::move(records[order[i]]));
  }
  inputs.hierarchy = std::make_shared<const kjoin::Hierarchy>(std::move(data.hierarchy));
  return inputs;
}

namespace {

// FNV-1a over a token list; equal inputs give equal values.
uint64_t HashTokens(const std::vector<std::string>& tokens) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& token : tokens) {
    for (unsigned char c : token) h = (h ^ c) * 1099511628211ULL;
    h = (h ^ 0xff) * 1099511628211ULL;  // token separator
  }
  return h;
}

}  // namespace

uint64_t HashObject(const Object& object) {
  std::vector<std::string> tokens;
  tokens.reserve(object.elements.size());
  for (const kjoin::Element& element : object.elements) tokens.push_back(element.token);
  return HashTokens(tokens);
}

void ProbeTotals::Add(const ProbeTotals& other) {
  seconds += other.seconds;
  queries += other.queries;
  hits += other.hits;
  candidates += other.candidates;
  pruned_lists += other.pruned_lists;
  pruned_blocks += other.pruned_blocks;
  skipped_verifies += other.skipped_verifies;
  topk_queries += other.topk_queries;
  verify.Add(other.verify);
}

TimedShard::TimedShard(const serve::ShardedIndexManager* manager, int shard,
                       const Tracer* tracer)
    : inner_(manager, shard), tracer_(tracer) {}

void TimedShard::ProbeBatch(const serve::ShardQuery* queries, serve::ShardReply* replies,
                            int count) {
  const double start = tracer_->Now();
  inner_.ProbeBatch(queries, replies, count);
  const double end = tracer_->Now();
  ProbeTotals batch;
  batch.seconds = end - start;
  batch.queries = count;
  for (int i = 0; i < count; ++i) {
    const kjoin::SearchStats& stats = replies[i].stats;
    batch.hits += static_cast<int64_t>(replies[i].hits.size());
    batch.candidates += stats.candidates;
    batch.pruned_lists += stats.bound_pruned_lists;
    batch.pruned_blocks += stats.bound_pruned_blocks;
    batch.skipped_verifies += stats.bound_skipped_verifies;
    batch.topk_queries += queries[i].top_k > 0 ? 1 : 0;
    batch.verify.Add(stats.verify);
  }
  std::vector<ProbeEvent> events;
  if (tracer_->enabled()) {
    for (int i = 0; i < count; ++i) {
      events.push_back(ProbeEvent{HashObject(*queries[i].query), start, end});
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  totals_.Add(batch);
  events_.insert(events_.end(), events.begin(), events.end());
}

ProbeTotals TimedShard::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<ProbeEvent> TimedShard::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

kjoin::KJoinOptions IndexOptions(const StackConfig& config) {
  kjoin::KJoinOptions options;
  options.delta = config.delta;
  options.tau = config.tau;
  options.plus_mode = config.plus_mode;
  return options;
}

ServingStack::ServingStack(const Inputs& inputs, const StackConfig& config,
                           const Tracer* tracer, SetupTimes* times)
    : hierarchy_(inputs.hierarchy) {
  Clock::time_point start = Clock::now();
  prepared_ = kjoin::BuildObjects(*inputs.hierarchy, inputs.indexed, config.plus_mode,
                                  /*min_phi=*/config.delta);
  times->build_objects_s = SecondsSince(start);
  base_tokens_ = prepared_.builder->TokenTable();

  probe_pool_ = std::make_unique<kjoin::ThreadPool>(1);
  rebuild_pool_ = std::make_unique<kjoin::ThreadPool>(kRebuildPoolThreads);
  start = Clock::now();
  manager_ = std::make_unique<serve::ShardedIndexManager>(
      inputs.hierarchy, IndexOptions(config), prepared_.objects, base_tokens_,
      inputs.indexed.synonyms, config.num_shards, rebuild_pool_.get(), &metrics_);
  times->index_s = SecondsSince(start);
  start = Clock::now();
  if (!config.wal_prefix.empty()) {
    const kjoin::Status attached = manager_->AttachWal(config.wal_prefix, /*fsync=*/true);
    if (!attached.ok()) {
      std::fprintf(stderr, "perfbench: AttachWal failed: %s\n", attached.ToString().c_str());
      std::exit(3);
    }
  }
  times->wal_s = SecondsSince(start);
  std::vector<serve::ShardBackend*> backends;
  for (int s = 0; s < config.num_shards; ++s) {
    shards_.push_back(std::make_unique<TimedShard>(manager_.get(), s, tracer));
    backends.push_back(shards_.back().get());
  }
  router_ = std::make_unique<serve::ShardRouter>(std::move(backends), probe_pool_.get(),
                                                 serve::ShardRouterOptions{}, &metrics_);
  server_ = std::make_unique<net::KJoinServer>(router_.get(), manager_.get(),
                                               prepared_.builder.get(), &metrics_);
  const kjoin::Status started = server_->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n", started.ToString().c_str());
    std::exit(3);
  }
}

ServingStack::~ServingStack() {
  Shutdown();
  server_.reset();
  router_.reset();  // the dispatcher probes shards: router before manager
  shards_.clear();
  manager_.reset();
}

void ServingStack::Shutdown() {
  if (stopped_ || server_ == nullptr) return;
  stopped_ = true;
  server_->Shutdown();
}

ProbeTotals ServingStack::probe_totals() const {
  ProbeTotals sum;
  for (const auto& shard : shards_) sum.Add(shard->totals());
  return sum;
}

std::vector<ProbeEvent> ServingStack::probe_events() const {
  std::vector<ProbeEvent> all;
  for (const auto& shard : shards_) {
    std::vector<ProbeEvent> events = shard->events();
    all.insert(all.end(), events.begin(), events.end());
  }
  return all;
}

ReadRecord ReadOnce(net::KJoinClient* client, const std::vector<std::string>& tokens,
                    const ReadChoice& choice, double tau, const Tracer& clock) {
  ReadRecord record;
  record.query = choice.query;
  record.top_k = choice.top_k;
  record.floor = choice.min_similarity < 0.0 ? tau : choice.min_similarity;
  record.sent_s = clock.Now();
  kjoin::StatusOr<net::NetResponse> response =
      choice.top_k > 0 ? client->TopK(tokens, choice.top_k, choice.min_similarity)
                       : client->Search(tokens, choice.min_similarity);
  record.done_s = clock.Now();
  if (!response.ok()) {
    record.error = response.status().ToString();
  } else if (response.value().code != 0) {
    record.error = "server code " + std::to_string(response.value().code) + ": " +
                   response.value().message;
  } else {
    record.ok = true;
    record.hits = std::move(response.value().hits);
  }
  return record;
}

std::vector<ReadRecord> RunClosedLoopReaders(
    int port, int connections, const std::vector<std::vector<std::string>>& query_tokens,
    const std::function<ReadChoice(int, int64_t)>& next, double tau, const Tracer& clock,
    Clock::time_point end) {
  std::vector<std::vector<ReadRecord>> per_thread(static_cast<size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c]() {
      net::KJoinClient client;
      std::vector<ReadRecord>& records = per_thread[static_cast<size_t>(c)];
      const kjoin::Status connected = client.Connect("127.0.0.1", port);
      if (!connected.ok()) {
        ReadRecord failed;
        failed.error = connected.ToString();
        records.push_back(failed);
        return;
      }
      for (int64_t seq = 0; Clock::now() < end; ++seq) {
        const ReadChoice choice = next(c, seq);
        records.push_back(ReadOnce(&client, query_tokens[static_cast<size_t>(choice.query)],
                                   choice, tau, clock));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<ReadRecord> all;
  for (auto& records : per_thread) {
    for (ReadRecord& record : records) all.push_back(std::move(record));
  }
  return all;
}

std::unique_ptr<ServingStack> SetUpRepeatedly(
    int setups, const std::function<Inputs()>& make_inputs,
    const std::function<StackConfig(int)>& config_for_setup, const Tracer* tracer,
    const std::function<void(ServingStack&, const Inputs&)>& warm_up, Inputs* inputs,
    SetupSummary* summary) {
  std::unique_ptr<ServingStack> stack;
  for (int i = 0; i < setups; ++i) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    *inputs = make_inputs();
    SetupTimes times;
    stack = std::make_unique<ServingStack>(*inputs, config_for_setup(i), tracer, &times);
    const Clock::time_point warm_start = Clock::now();
    warm_up(*stack, *inputs);
    const double warm_s = SecondsSince(warm_start);
    summary->total_s.push_back(SecondsSince(start));
    summary->build_objects_s.push_back(times.build_objects_s);
    summary->index_s.push_back(times.index_s);
    std::fprintf(stderr,
                 "perfbench: setup %d: %.3f s (build objects %.3f s, index %.3f s, wal %.3f s, "
                 "warm-up %.3f s; peak RSS %.0f MB)\n",
                 i, summary->total_s.back(), times.build_objects_s, times.index_s, times.wal_s,
                 warm_s, PeakRssMb());
  }
  return stack;
}

std::vector<double> CountReads(const std::vector<ReadRecord>& reads, Outcome* out,
                               double* end_s) {
  std::vector<double> latency_ms;
  for (const ReadRecord& read : reads) {
    ++out->attempted;
    if (!read.ok) {
      ++out->failed;
      std::fprintf(stderr, "perfbench: read failed: %s\n", read.error.c_str());
      continue;
    }
    latency_ms.push_back((read.done_s - read.sent_s) * 1e3);
    *end_s = std::max(*end_s, read.done_s);
  }
  return latency_ms;
}

std::string ScrapeMetrics(int port) {
  net::KJoinClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return "";
  kjoin::StatusOr<net::NetResponse> scraped = client.Metrics();
  return scraped.ok() ? scraped.value().text : "";
}

void ReportTrace(const Tracer& tracer, const std::string& root, const std::string& path,
                 Outcome* out) {
  if (!tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
  const std::map<std::string, double> self = tracer.MedianSelfSeconds();
  auto it = self.find(root);
  out->Metric("trace.request_self_ms", it == self.end() ? 0.0 : it->second * 1e3, "ms");
  out->Metric("trace.spans", static_cast<double>(tracer.spans().size()), "count");
}

double HistogramField(const std::string& json, const std::string& histogram,
                      const std::string& field) {
  const size_t at = json.find("\"" + histogram + "\":{");
  if (at == std::string::npos) return 0.0;
  const size_t close = json.find('}', at);
  const size_t key = json.find("\"" + field + "\":", at);
  if (key == std::string::npos || key > close) return 0.0;
  return std::strtod(json.c_str() + key + field.size() + 3, nullptr);
}

void ReportReadLayers(const ReadLayerInputs& in, Tracer* tracer, Outcome* out) {
  const std::vector<ReadRecord>& reads = *in.reads;
  const auto& tokens = *in.query_tokens;

  // Replayed query builds, one per distinct query, weighted by how often
  // the run sent it. Interning growth over these read-only builds is the
  // read path's write into the token table.
  std::map<int, int64_t> sent;
  for (const ReadRecord& read : reads) ++sent[read.query];
  std::map<int, double> build_s;
  std::map<int, uint64_t> object_hash;
  const int64_t tokens_before = in.replay_builder->num_distinct_tokens();
  int64_t elements = 0;
  int64_t mappings = 0;
  for (const auto& [query, count] : sent) {
    const Clock::time_point start = Clock::now();
    const Object object = in.replay_builder->Build(0, tokens[static_cast<size_t>(query)]);
    build_s[query] = SecondsSince(start);
    object_hash[query] = HashObject(object);
    for (const kjoin::Element& element : object.elements) {
      ++elements;
      mappings += static_cast<int64_t>(element.mappings.size());
    }
  }
  const int64_t interned = in.replay_builder->num_distinct_tokens() - tokens_before;

  // Codec: each read's request frame encoded, framed, reassembled and
  // decoded, and the same for its response.
  double codec_s = 0.0;
  int64_t codec_reads = 0;
  std::vector<double> codec_per_read;
  for (const ReadRecord& read : reads) {
    if (codec_reads >= 2000) break;
    const Clock::time_point start = Clock::now();
    net::NetRequest request;
    request.id = static_cast<uint64_t>(codec_reads + 1);
    request.kind = read.top_k > 0 ? net::RequestKind::kTopK : net::RequestKind::kSearch;
    request.top_k = read.top_k;
    request.min_similarity = read.floor;
    request.query_tokens = tokens[static_cast<size_t>(read.query)];
    net::NetResponse response;
    response.id = request.id;
    response.hits = read.hits;
    net::FrameDecoder decoder;
    const std::string frames = net::WrapFrame(net::EncodeRequestPayload(request)) +
                               net::WrapFrame(net::EncodeResponsePayload(response));
    decoder.Append(frames.data(), frames.size());
    std::string payload;
    net::NetRequest decoded_request;
    net::NetResponse decoded_response;
    bool decoded = decoder.Next(&payload).ok() &&
                   net::DecodeRequestPayload(payload, &decoded_request).ok();
    decoded = decoded && decoder.Next(&payload).ok() &&
              net::DecodeResponsePayload(payload, &decoded_response).ok();
    const double seconds = SecondsSince(start);
    if (!decoded || decoded_response.hits != read.hits) {
      out->CheckFailed("codec round trip changed a read's frames");
    }
    codec_s += seconds;
    codec_per_read.push_back(seconds);
    ++codec_reads;
  }

  // Spans: a root per read, the shard probes that ran it (matched by the
  // query's element tokens and by falling inside the read's interval),
  // and its replayed build and codec calls.
  std::map<uint64_t, std::vector<const ProbeEvent*>> probes_by_hash;
  for (const ProbeEvent& event : in.probe_events) {
    probes_by_hash[event.query_hash].push_back(&event);
  }
  double build_weighted_s = 0.0;
  std::vector<double> latency_ms;
  for (size_t r = 0; r < reads.size(); ++r) {
    const ReadRecord& read = reads[r];
    build_weighted_s += build_s[read.query];
    if (read.ok) latency_ms.push_back((read.done_s - read.sent_s) * 1e3);
    const uint64_t trace_id = r + 1;
    const uint64_t root = tracer->Record(trace_id, 0, "request", read.sent_s, read.done_s);
    auto it = probes_by_hash.find(object_hash[read.query]);
    if (it != probes_by_hash.end()) {
      for (const ProbeEvent* probe : it->second) {
        if (probe->start_s >= read.sent_s && probe->end_s <= read.done_s) {
          tracer->Record(trace_id, root, "probe", probe->start_s, probe->end_s);
        }
      }
    }
    const double build = build_s[read.query];
    tracer->Record(trace_id, root, "build.replay", read.done_s, read.done_s + build);
    if (r < codec_per_read.size()) {
      tracer->Record(trace_id, root, "codec.replay", read.done_s + build,
                     read.done_s + build + codec_per_read[r]);
    }
  }

  const double n_reads = std::max<double>(1.0, static_cast<double>(reads.size()));
  const double build_us = build_weighted_s / n_reads * 1e6;
  const double router_p50_ms =
      HistogramField(in.metrics_json, "router.latency_seconds", "p50") * 1e3;
  const double batch_count = HistogramField(in.metrics_json, "router.batch_size", "count");
  const double batch_sum = HistogramField(in.metrics_json, "router.batch_size", "sum");
  const double client_p50_ms = Median(latency_ms);
  const ProbeTotals& p = in.probes;
  const double probes = std::max<double>(1.0, static_cast<double>(p.queries));
  const double topk = std::max<double>(1.0, static_cast<double>(p.topk_queries));
  const int64_t decided = p.verify.pruned_by_count + p.verify.pruned_by_weighted_count +
                          p.verify.accepted_by_lower_bound + p.verify.rejected_by_upper_bound;

  out->Metric("build.us_per_query", build_us, "us");
  out->Metric("build.mappings_per_token",
              elements > 0 ? static_cast<double>(mappings) / static_cast<double>(elements) : 0.0,
              "count");
  out->Metric("build.tokens_interned_by_reads", static_cast<double>(interned), "count");
  out->Metric("net.codec_us", codec_reads > 0 ? codec_s / codec_reads * 1e6 : 0.0, "us");
  out->Metric("net.residual_ms", client_p50_ms - router_p50_ms - build_us / 1e3, "ms");
  out->Metric("router.latency_p50_ms", router_p50_ms, "ms");
  out->Metric("router.queue_delay_ms", in.queue_delay_mean_s * 1e3, "ms");
  out->Metric("router.batch_size_mean", batch_count > 0 ? batch_sum / batch_count : 0.0,
              "count");
  // Each shard probes every query, so per shard-query is per probe.
  out->Metric("probe.ms_per_shard_query", p.seconds / probes * 1e3, "ms");
  out->Metric("probe.candidates_per_query", static_cast<double>(p.candidates) / probes,
              "count");
  out->Metric("probe.hit_ratio",
              p.candidates > 0 ? static_cast<double>(p.hits) / static_cast<double>(p.candidates)
                               : 0.0,
              "ratio");
  out->Metric("probe.pruned_lists_per_query", static_cast<double>(p.pruned_lists) / topk,
              "count");
  out->Metric("probe.pruned_blocks_per_query", static_cast<double>(p.pruned_blocks) / topk,
              "count");
  out->Metric("probe.skipped_verifies_per_query",
              static_cast<double>(p.skipped_verifies) / topk, "count");
  out->Metric("verify.pairs_per_query", static_cast<double>(p.verify.pairs_verified) / probes,
              "count");
  out->Metric("verify.hungarian_per_query",
              static_cast<double>(p.verify.hungarian_runs) / probes, "count");
  out->Metric("verify.bound_decided_ratio",
              p.verify.pairs_verified > 0 ? static_cast<double>(decided) /
                                                static_cast<double>(p.verify.pairs_verified)
                                          : 0.0,
              "ratio");
  std::fprintf(stderr,
               "perfbench: read p50 %.3f ms = build %.3f ms + router %.3f ms + net residual "
               "%.3f ms\n",
               client_p50_ms, build_us / 1e3, router_p50_ms,
               client_p50_ms - router_p50_ms - build_us / 1e3);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup.build_objects_s", "s"},
      {"setup.index_s", "s"},
      {"build.us_per_query", "us"},
      {"build.mappings_per_token", "count"},
      {"build.tokens_interned_by_reads", "count"},
      {"net.codec_us", "us"},
      {"net.residual_ms", "ms"},
      {"router.latency_p50_ms", "ms"},
      {"router.queue_delay_ms", "ms"},
      {"router.batch_size_mean", "count"},
      {"probe.ms_per_shard_query", "ms"},
      {"probe.candidates_per_query", "count"},
      {"probe.hit_ratio", "ratio"},
      {"probe.pruned_lists_per_query", "count"},
      {"probe.pruned_blocks_per_query", "count"},
      {"probe.skipped_verifies_per_query", "count"},
      {"verify.pairs_per_query", "count"},
      {"verify.hungarian_per_query", "count"},
      {"verify.bound_decided_ratio", "ratio"},
      {"write.p50_ms", "ms"},
      {"write.p90_ms", "ms"},
      {"write.lateness_ms", "ms"},
      {"write.build_ms", "ms"},
      {"write.token_table_tokens", "count"},
      {"write.apply_ms", "ms"},
      {"write.delete_apply_ms", "ms"},
      {"wal.bytes_per_object", "B"},
      {"delta.depth_mean", "count"},
      {"join.signature_s", "s"},
      {"join.filter_s", "s"},
      {"join.verify_s", "s"},
      {"join.candidates", "count"},
      {"join.results_per_candidate", "ratio"},
      {"join.hungarian_runs", "count"},
      {"join.bound_decided_ratio", "ratio"},
      {"join.sim_cache_hit_rate", "ratio"},
      {"join.pool_utilization", "ratio"},
      {"trace.op_p50_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.request_self_ms", "ms"},
      {"trace.spans", "count"},
  };
  return metrics;
}

}  // namespace perfbench
