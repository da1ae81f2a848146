// mixed_rw: K-Join reads next to a fixed schedule of durable writes.
//
// A K-Join (single-mapping) POI collection, sharded, with a WAL that
// fsyncs before every ack. One closed-loop connection alternates
// threshold SEARCH and TOPK (k=1, floor τ) reads of held-out records; one
// writer connection sends, open loop on a fixed 50 ms schedule, INSERT
// batches of held-out records and DELETEs of earlier inserts. Query build
// costs microseconds here, so reads measure the router and the probe,
// while writes go through the WAL, delta publish, compaction and the
// token table. The schedule depends only on --seconds, so every run
// applies the same writes and grows the index by the same amount.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <unistd.h>

#include "oracle.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

using kjoin::Object;
using kjoin::SearchHit;
namespace net = kjoin::net;
namespace serve = kjoin::serve;

constexpr int64_t kIndexed = 6000;
constexpr int64_t kQueries = 2000;
// Held-out records the write schedule draws from (cycled if a run is
// long enough to use them all).
constexpr int64_t kInsertPool = 1200;
constexpr double kWritePeriodS = 0.05;
constexpr int kInsertBatch = 4;
// Every kDeleteEvery-th tick deletes the first object inserted
// kDeleteLag ticks earlier.
constexpr int kDeleteEvery = 5;
constexpr int kDeleteLag = 3;
constexpr int kWarmupReads = 256;
constexpr int kCheckedQueries = 32;

StackConfig Config(const std::string& wal_prefix) {
  StackConfig config;
  config.plus_mode = false;
  config.delta = 0.8;
  config.tau = 0.6;
  config.wal_prefix = wal_prefix;
  return config;
}

struct WriteOp {
  bool insert = true;
  std::vector<int> records;        // insert: indexes into Inputs::inserts
  int32_t delete_global = -1;      // delete: the global object index
  int64_t expected_objects = 0;    // num_objects() after the op
};

std::vector<WriteOp> Schedule(double seconds, int64_t base_objects) {
  const int ticks = static_cast<int>(seconds / kWritePeriodS);
  std::vector<WriteOp> ops;
  std::vector<int32_t> first_of_tick(static_cast<size_t>(ticks), -1);
  int64_t objects = base_objects;
  int next_record = 0;
  for (int i = 0; i < ticks; ++i) {
    WriteOp op;
    if (i % kDeleteEvery == kDeleteEvery - 1) {
      op.insert = false;
      op.delete_global = first_of_tick[static_cast<size_t>(i - kDeleteLag)];
    } else {
      first_of_tick[static_cast<size_t>(i)] = static_cast<int32_t>(objects);
      for (int b = 0; b < kInsertBatch; ++b) {
        op.records.push_back(next_record);
        next_record = static_cast<int>((next_record + 1) % kInsertPool);
      }
      objects += kInsertBatch;
    }
    op.expected_objects = objects;
    ops.push_back(std::move(op));
  }
  return ops;
}

struct WriteRecord {
  double due_s = 0.0;
  double sent_s = 0.0;
  double acked_s = 0.0;
  bool acked = false;
  bool ok = false;
  std::string error;
  int64_t objects_after = 0;
};

net::NetRequest ToRequest(const WriteOp& op, const Inputs& inputs) {
  net::NetRequest request;
  if (op.insert) {
    request.kind = net::RequestKind::kInsert;
    for (int r : op.records) {
      const kjoin::Record& record = inputs.inserts[static_cast<size_t>(r)];
      request.inserts.push_back(net::InsertRecord{record.id, record.tokens});
    }
  } else {
    request.kind = net::RequestKind::kDelete;
    request.delete_indexes = {op.delete_global};
  }
  return request;
}

// Open loop: each op is sent when due, whether or not earlier ones were
// acknowledged (the connection pipelines them).
std::vector<WriteRecord> RunWriter(int port, const std::vector<WriteOp>& ops,
                                   const Inputs& inputs, const Tracer& clock,
                                   Clock::time_point start) {
  std::vector<WriteRecord> records(ops.size());
  net::KJoinClient client;
  const kjoin::Status connected = client.Connect("127.0.0.1", port);
  if (!connected.ok()) {
    for (WriteRecord& record : records) record.error = connected.ToString();
    return records;
  }
  std::mutex mu;
  std::condition_variable cv;
  size_t acked = 0;  // guarded by mu
  for (size_t i = 0; i < ops.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kWritePeriodS * static_cast<double>(i)));
    std::this_thread::sleep_until(due);
    WriteRecord& record = records[i];
    record.due_s = clock.At(due);
    record.sent_s = clock.Now();
    client.CallAsync(ToRequest(ops[i], inputs),
                     [&, i](kjoin::StatusOr<net::NetResponse> response) {
                       WriteRecord& done = records[i];
                       done.acked_s = clock.Now();
                       if (!response.ok()) {
                         done.error = response.status().ToString();
                       } else if (response.value().code != 0) {
                         done.error = "server code " + std::to_string(response.value().code) +
                                      ": " + response.value().message;
                       } else {
                         done.ok = true;
                         done.objects_after = response.value().objects_after_insert;
                       }
                       std::lock_guard<std::mutex> lock(mu);
                       done.acked = true;
                       ++acked;
                       cv.notify_all();
                     });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(60), [&]() { return acked == ops.size(); });
  if (acked != ops.size()) {
    lock.unlock();
    client.Disconnect();  // fails what is still in flight
    lock.lock();
    cv.wait(lock, [&]() { return acked == ops.size(); });
  }
  return records;
}

}  // namespace

double RunMixedRw(const Args& args, bool traced, int setups, Outcome* out) {
  Tracer tracer(traced, Clock::now());
  const std::string wal_dir =
      args.run_dir + "/mixed_rw-" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::remove_all(wal_dir);
  std::filesystem::create_directories(wal_dir);
  const auto wal_prefix = [&](int setup) {
    return wal_dir + "/wal-" + std::to_string(setup) + (traced ? "-traced" : "");
  };
  const StackConfig config = Config("");
  Inputs inputs;
  std::vector<std::vector<std::string>> query_tokens;
  const int readers = kReadConnections;
  const auto choose = [&](int connection, int64_t seq) {
    const int64_t n = static_cast<int64_t>(query_tokens.size());
    ReadChoice choice;
    choice.query = static_cast<int>((connection * n / readers + seq) % n);
    if (seq % 2 == 1) {
      choice.top_k = 1;
      choice.min_similarity = config.tau;
    }
    return choice;
  };
  SetupSummary setup;
  int last_setup = 0;
  std::unique_ptr<ServingStack> stack = SetUpRepeatedly(
      setups, [&]() { return MakeInputs(args.seed, kIndexed, kQueries, kInsertPool); },
      [&](int i) {
        last_setup = i;
        return Config(wal_prefix(i));
      },
      &tracer,
      [&](ServingStack& s, const Inputs& in) {
        query_tokens.clear();
        for (const kjoin::Record& record : in.queries) query_tokens.push_back(record.tokens);
        net::KJoinClient client;
        if (!client.Connect("127.0.0.1", s.port()).ok()) return;
        for (int i = 0; i < kWarmupReads; ++i) {
          ReadOnce(&client, query_tokens[static_cast<size_t>(i) % query_tokens.size()],
                   choose(0, i), config.tau, tracer);
        }
      },
      &inputs, &setup);
  const int64_t base_objects = static_cast<int64_t>(stack->prepared().objects.size());
  const std::vector<WriteOp> ops = Schedule(args.seconds, base_objects);

  kjoin::ObjectBuilder replay_builder = *stack->builder();
  std::vector<double> queue_delay_s;
  std::vector<double> delta_depths;
  std::atomic<bool> sampling{traced};
  std::thread sampler([&]() {
    while (sampling.load()) {
      queue_delay_s.push_back(stack->router()->queue_delay_ewma_seconds());
      for (int s = 0; s < stack->manager()->num_shards(); ++s) {
        delta_depths.push_back(stack->manager()->shard(s)->Acquire()->index->delta_depth());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const Clock::time_point start = Clock::now();
  const double start_s = tracer.At(start);
  std::vector<WriteRecord> writes;
  std::thread writer(
      [&]() { writes = RunWriter(stack->port(), ops, inputs, tracer, start); });
  std::vector<ReadRecord> reads =
      RunClosedLoopReaders(stack->port(), readers, query_tokens, choose, config.tau, tracer,
                           start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(args.seconds)));
  writer.join();
  sampling.store(false);
  sampler.join();
  const double peak_rss_mb = PeakRssMb();

  double end_s = start_s;
  const std::vector<double> latency_ms = CountReads(reads, out, &end_s);
  std::vector<double> write_ms;
  std::vector<double> lateness_ms;
  int64_t acked_inserts = 0;
  for (size_t i = 0; i < writes.size(); ++i) {
    const WriteRecord& write = writes[i];
    ++out->attempted;
    if (!write.ok) {
      ++out->failed;
      std::fprintf(stderr, "perfbench: write failed: %s\n", write.error.c_str());
      continue;
    }
    write_ms.push_back((write.acked_s - write.due_s) * 1e3);
    lateness_ms.push_back((write.sent_s - write.due_s) * 1e3);
    if (ops[i].insert) acked_inserts += static_cast<int64_t>(ops[i].records.size());
    if (write.objects_after != ops[i].expected_objects) {
      out->CheckFailed("mixed_rw write " + std::to_string(i) + " left " +
                       std::to_string(write.objects_after) + " objects, expected " +
                       std::to_string(ops[i].expected_objects));
    }
  }

  // After the writer stopped: a seeded sample of distinct queries, both
  // kinds, answered by the live server over the final collection. Acked
  // writes become searchable when their epoch is published; Flush() waits
  // for that, so "final" means every acked write.
  stack->manager()->Flush();
  std::mt19937_64 rng(args.seed + 202);
  std::vector<int> sample(query_tokens.size());
  for (size_t i = 0; i < sample.size(); ++i) sample[i] = static_cast<int>(i);
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min<size_t>(sample.size(), kCheckedQueries));
  std::vector<ReadRecord> final_answers;
  const std::string metrics_json = traced ? ScrapeMetrics(stack->port()) : "";
  {
    net::KJoinClient client;
    if (client.Connect("127.0.0.1", stack->port()).ok()) {
      for (size_t i = 0; i < sample.size(); ++i) {
        ReadChoice choice;
        choice.query = sample[i];
        if (i % 2 == 1) {
          choice.top_k = 1;
          choice.min_similarity = config.tau;
        }
        final_answers.push_back(ReadOnce(
            &client, query_tokens[static_cast<size_t>(sample[i])], choice, config.tau, tracer));
      }
    }
  }
  int64_t wal_bytes = 0;
  for (int s = 0; s < stack->manager()->num_shards(); ++s) {
    wal_bytes += stack->manager()->shard(s)->wal_size_bytes();
  }
  stack->Shutdown();

  // The collection as the oracle sees it: base objects, then every
  // scheduled insert in order (rebuilt with the server's builder, which
  // interned their tokens in this order), with acked deletes' times.
  kjoin::ObjectBuilder* builder = stack->builder();
  std::vector<Object> inserted;
  for (const WriteOp& op : ops) {
    for (int r : op.records) {
      const kjoin::Record& record = inputs.inserts[static_cast<size_t>(r)];
      inserted.push_back(builder->Build(record.id, record.tokens));
    }
  }
  std::vector<const Object*> all;
  for (const Object& object : stack->prepared().objects) all.push_back(&object);
  for (const Object& object : inserted) all.push_back(&object);
  std::map<int32_t, double> deleted_at_s;  // global index -> delete ack time
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].insert && writes[i].ok) deleted_at_s[ops[i].delete_global] = writes[i].acked_s;
  }
  Oracle oracle(*inputs.hierarchy, config.delta);
  std::map<int, Object> query_objects;
  const auto query_object = [&](int query) -> const Object& {
    auto it = query_objects.find(query);
    if (it == query_objects.end()) {
      it = query_objects
               .emplace(query, builder->Build(0, query_tokens[static_cast<size_t>(query)]))
               .first;
    }
    return it->second;
  };

  // Every timed answer: recomputed similarity, floor, order, size, and no
  // object whose delete was acked before the read was sent.
  int64_t hits_on_deleted = 0;
  for (const ReadRecord& read : reads) {
    if (!read.ok) continue;
    const std::string where = "mixed_rw query " +
                              JoinTokens(query_tokens[static_cast<size_t>(read.query)]) + ": ";
    std::string wrong = CheckAnswerShape(read.hits, read.top_k, read.floor);
    for (const SearchHit& hit : read.hits) {
      if (!wrong.empty()) break;
      if (hit.object_index < 0 || hit.object_index >= static_cast<int32_t>(all.size())) {
        wrong = "hit " + std::to_string(hit.object_index) + " was never inserted";
        break;
      }
      const double sim = oracle.Similarity(query_object(read.query), *all[hit.object_index]);
      if (std::abs(sim - hit.similarity) > kSimilarityTolerance) {
        wrong = "hit " + std::to_string(hit.object_index) + " similarity differs from oracle";
      }
      auto del = deleted_at_s.find(hit.object_index);
      if (del != deleted_at_s.end()) ++hits_on_deleted;
      if (del != deleted_at_s.end() && del->second < read.sent_s) {
        wrong = "hit " + std::to_string(hit.object_index) + " was deleted before the read";
      }
    }
    if (!wrong.empty()) out->CheckFailed(where + wrong);
  }
  // Shows whether the deleted-object property had anything to check.
  std::fprintf(stderr, "perfbench: %lld read hits on objects deleted during the run\n",
               static_cast<long long>(hits_on_deleted));
  std::vector<const Object*> live = all;
  for (const auto& [global, unused] : deleted_at_s) live[static_cast<size_t>(global)] = nullptr;
  for (const ReadRecord& answer : final_answers) {
    const std::string where = "mixed_rw final query " +
                              JoinTokens(query_tokens[static_cast<size_t>(answer.query)]) + ": ";
    if (!answer.ok) {
      out->CheckFailed(where + answer.error);
      continue;
    }
    const std::vector<SearchHit> scored =
        oracle.ScoreAll(query_object(answer.query), live, answer.floor);
    const std::string wrong = CompareWithOracle(answer.hits, scored, answer.top_k, answer.floor);
    if (!wrong.empty()) out->CheckFailed(where + wrong);
  }

  // Durability: a manager rebuilt from the same base collection recovers
  // every acked insert from the run's WAL set and answers the sample as
  // the live server did.
  {
    kjoin::ThreadPool pool(kRebuildPoolThreads);
    serve::ShardedIndexManager recovered(inputs.hierarchy, IndexOptions(config),
                                         stack->prepared().objects, stack->base_tokens(),
                                         inputs.indexed.synonyms, config.num_shards, &pool);
    const kjoin::Status attached = recovered.AttachWal(wal_prefix(last_setup));
    if (!attached.ok()) {
      out->CheckFailed("mixed_rw WAL recovery failed: " + attached.ToString());
    } else if (recovered.num_objects() != base_objects + acked_inserts) {
      out->CheckFailed("mixed_rw WAL recovery found " + std::to_string(recovered.num_objects()) +
                       " objects, expected " + std::to_string(base_objects + acked_inserts));
    } else {
      recovered.Flush();
      std::vector<std::unique_ptr<serve::LocalShard>> locals;
      std::vector<serve::ShardBackend*> backends;
      for (int s = 0; s < recovered.num_shards(); ++s) {
        locals.push_back(std::make_unique<serve::LocalShard>(&recovered, s));
        backends.push_back(locals.back().get());
      }
      serve::ShardRouter router(std::move(backends), &pool);
      for (const ReadRecord& answer : final_answers) {
        if (!answer.ok) continue;
        serve::QueryRequest request;
        request.query = query_object(answer.query);
        request.top_k = answer.top_k;
        request.min_similarity = answer.top_k > 0 ? answer.floor : -1.0;
        const serve::QueryResponse response = router.Search(request);
        if (!response.status.ok() || response.hits != answer.hits) {
          out->CheckFailed("mixed_rw recovered index answers query " +
                           JoinTokens(query_tokens[static_cast<size_t>(answer.query)]) +
                           " differently from the live server");
        }
      }
    }
  }

  const double p50_ms = Median(latency_ms);
  if (!traced) {
    ReportEndToEnd(setup.total_s, peak_rss_mb, static_cast<double>(latency_ms.size()),
                   end_s - start_s, latency_ms, out);
    std::filesystem::remove_all(wal_dir);
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
  for (size_t i = 0; i < writes.size(); ++i) {
    const uint64_t trace_id = reads.size() + 1 + i;
    tracer.Record(trace_id, 0, ops[i].insert ? "write.insert" : "write.delete",
                  writes[i].due_s, writes[i].acked_s);
  }

  // Replay of the write schedule, one call at a time, into a fresh
  // manager with its own WAL: the write path's layers timed from outside.
  std::vector<double> build_ms;
  std::vector<double> apply_ms;
  std::vector<double> delete_ms;
  {
    kjoin::ThreadPool pool(kRebuildPoolThreads);
    serve::ShardedIndexManager replay(inputs.hierarchy, IndexOptions(config),
                                      stack->prepared().objects, stack->base_tokens(),
                                      inputs.indexed.synonyms, config.num_shards, &pool);
    const kjoin::Status attached = replay.AttachWal(wal_dir + "/replay");
    if (!attached.ok()) out->CheckFailed("mixed_rw replay WAL: " + attached.ToString());
    for (const WriteOp& op : ops) {
      if (op.insert) {
        Clock::time_point t = Clock::now();
        std::vector<Object> objects;
        for (int r : op.records) {
          const kjoin::Record& record = inputs.inserts[static_cast<size_t>(r)];
          objects.push_back(builder->Build(record.id, record.tokens));
        }
        std::vector<std::string> table = builder->TokenTable();
        build_ms.push_back(SecondsSince(t) * 1e3);
        t = Clock::now();
        const kjoin::Status inserted_ok = replay.InsertBatch(std::move(objects), std::move(table));
        apply_ms.push_back(SecondsSince(t) * 1e3);
        if (!inserted_ok.ok()) {
          out->CheckFailed("mixed_rw replay insert: " + inserted_ok.ToString());
        }
      } else {
        const Clock::time_point t = Clock::now();
        const kjoin::Status deleted_ok = replay.DeleteObjects({op.delete_global});
        delete_ms.push_back(SecondsSince(t) * 1e3);
        if (!deleted_ok.ok()) {
          out->CheckFailed("mixed_rw replay delete: " + deleted_ok.ToString());
        }
      }
    }
    replay.Flush();
  }
  out->Metric("write.p50_ms", Median(write_ms), "ms");
  out->Metric("write.p90_ms", Percentile(write_ms, 0.9), "ms");
  out->Metric("write.lateness_ms", Median(lateness_ms), "ms");
  out->Metric("write.build_ms", Median(build_ms), "ms");
  out->Metric("write.token_table_tokens", static_cast<double>(builder->num_distinct_tokens()),
              "count");
  out->Metric("write.apply_ms", Median(apply_ms), "ms");
  out->Metric("write.delete_apply_ms", Median(delete_ms), "ms");
  out->Metric("wal.bytes_per_object",
              acked_inserts > 0 ? static_cast<double>(wal_bytes) / acked_inserts : 0.0, "B");
  out->Metric("delta.depth_mean", Mean(delta_depths), "count");
  ReportTrace(tracer, "request", args.run_dir + "/trace-mixed_rw.jsonl", out);
  std::filesystem::remove_all(wal_dir);
  return p50_ms;
}

}  // namespace perfbench
