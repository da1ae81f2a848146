#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

// The serving stack the two read workloads drive — KJNP server over
// ShardRouter over ShardedIndexManager, each shard behind a timing
// ShardBackend — plus the generated inputs and the closed-loop readers.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "core/kjoin.h"
#include "core/kjoin_index.h"
#include "data/benchmark_suite.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/shard_router.h"
#include "serve/sharded_index_manager.h"

namespace perfbench {

// One generated POI collection split by a seeded shuffle into the records
// indexed at start, held-out read queries, and held-out records for the
// write schedule. Held-out records come from the same generator, so they
// carry its typos, synonyms and unseen tokens, and many have duplicates
// in the indexed part.
struct Inputs {
  std::shared_ptr<const kjoin::Hierarchy> hierarchy;
  kjoin::Dataset indexed;
  std::vector<kjoin::Record> queries;
  std::vector<kjoin::Record> inserts;
};
Inputs MakeInputs(uint64_t seed, int64_t num_indexed, int64_t num_queries,
                  int64_t num_inserts);

// Order-sensitive hash of an object's element tokens: what a shard probe
// can see of the query it runs, used to attach probe spans to requests.
uint64_t HashObject(const kjoin::Object& object);

// Work counters summed over the probes of one shard.
struct ProbeTotals {
  double seconds = 0.0;
  int64_t queries = 0;
  int64_t hits = 0;
  int64_t candidates = 0;
  int64_t pruned_lists = 0;
  int64_t pruned_blocks = 0;
  int64_t skipped_verifies = 0;
  int64_t topk_queries = 0;
  kjoin::VerifyStats verify;

  void Add(const ProbeTotals& other);
};

// One shard-probe interval as seen around LocalShard::ProbeBatch.
struct ProbeEvent {
  uint64_t query_hash = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

// A ShardBackend that times and counts the LocalShard it wraps. Events
// for span matching are kept only when the tracer is on.
class TimedShard : public kjoin::serve::ShardBackend {
 public:
  TimedShard(const kjoin::serve::ShardedIndexManager* manager, int shard, const Tracer* tracer);

  void ProbeBatch(const kjoin::serve::ShardQuery* queries, kjoin::serve::ShardReply* replies,
                  int count) override;
  double tau() const override { return inner_.tau(); }

  ProbeTotals totals() const;
  std::vector<ProbeEvent> events() const;

 private:
  kjoin::serve::LocalShard inner_;
  const Tracer* tracer_;
  mutable std::mutex mu_;
  ProbeTotals totals_;              // guarded by mu_
  std::vector<ProbeEvent> events_;  // guarded by mu_
};

// The load is one closed-loop connection and the router probes on a
// lane-less pool (shard probes cascade on the dispatcher thread), so a
// read occupies about one core at a time.
// This machine's vCPUs deliver between one and four cores of capacity
// from minute to minute; a load wider than one core would measure that,
// not the program (see README, "Why one connection").
inline constexpr int kReadConnections = 1;
inline constexpr int kRebuildPoolThreads = 2;
inline constexpr int kShards = 4;

struct StackConfig {
  bool plus_mode = false;
  double delta = 0.8;
  double tau = 0.6;
  int num_shards = kShards;
  // "<run dir>/wal" style prefix; empty = no WAL.
  std::string wal_prefix;
};

// Seconds spent in each set-up step of one stack.
struct SetupTimes {
  double build_objects_s = 0.0;
  double index_s = 0.0;
  double wal_s = 0.0;
};

// The KJNP server stack over a fresh index of `inputs.indexed`. Members
// are destroyed server first, then router, then manager.
class ServingStack {
 public:
  ServingStack(const Inputs& inputs, const StackConfig& config, const Tracer* tracer,
               SetupTimes* times);
  ~ServingStack();

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  int port() const { return server_->port(); }
  // Stops the server (drains what it read); idempotent.
  void Shutdown();

  const kjoin::PreparedObjects& prepared() const { return prepared_; }
  kjoin::ObjectBuilder* builder() { return prepared_.builder.get(); }
  const std::vector<std::string>& base_tokens() const { return base_tokens_; }
  kjoin::serve::ShardedIndexManager* manager() { return manager_.get(); }
  kjoin::serve::ShardRouter* router() { return router_.get(); }
  ProbeTotals probe_totals() const;
  std::vector<ProbeEvent> probe_events() const;

 private:
  std::shared_ptr<const kjoin::Hierarchy> hierarchy_;  // the matcher points into it
  kjoin::PreparedObjects prepared_;
  std::vector<std::string> base_tokens_;  // token table the index was built with
  kjoin::MetricsRegistry metrics_;
  // Lane-less pool the router probes on; the manager's pool has one
  // worker, so epoch rebuilds run in the background as in a deployment.
  std::unique_ptr<kjoin::ThreadPool> probe_pool_;
  std::unique_ptr<kjoin::ThreadPool> rebuild_pool_;
  std::unique_ptr<kjoin::serve::ShardedIndexManager> manager_;
  std::vector<std::unique_ptr<TimedShard>> shards_;
  std::unique_ptr<kjoin::serve::ShardRouter> router_;
  std::unique_ptr<kjoin::net::KJoinServer> server_;
  bool stopped_ = false;
};

kjoin::KJoinOptions IndexOptions(const StackConfig& config);

// One read a client sends, and what came back.
struct ReadRecord {
  int query = 0;         // index into the workload's query list
  int top_k = 0;         // 0 = threshold SEARCH
  double floor = 0.0;    // resolved similarity floor
  double sent_s = 0.0;   // tracer-origin seconds
  double done_s = 0.0;
  bool ok = false;       // transport and server status both OK
  std::string error;
  std::vector<kjoin::SearchHit> hits;
};

// What a reader sends next: a query index, k (0 = SEARCH) and the floor
// sent on the wire (-1 = the index's τ).
struct ReadChoice {
  int query = 0;
  int top_k = 0;
  double min_similarity = -1.0;
};

// Closed loop: `connections` client threads, each with its own
// connection, send the read `next(connection, sequence)` and wait for its
// answer, until `end`. Records of every thread, in no fixed order.
std::vector<ReadRecord> RunClosedLoopReaders(
    int port, int connections, const std::vector<std::vector<std::string>>& query_tokens,
    const std::function<ReadChoice(int, int64_t)>& next, double tau, const Tracer& clock,
    Clock::time_point end);

// One synchronous read on an open client, recorded like a timed one.
ReadRecord ReadOnce(kjoin::net::KJoinClient* client, const std::vector<std::string>& tokens,
                    const ReadChoice& choice, double tau, const Tracer& clock);

// Set-up repeated `setups` times, each from freshly generated inputs and
// ending with a warm-up; the last stack (and its inputs) is kept for the
// timed phase. Per-setup step times go to the vectors.
struct SetupSummary {
  std::vector<double> total_s;
  std::vector<double> build_objects_s;
  std::vector<double> index_s;
};
std::unique_ptr<ServingStack> SetUpRepeatedly(
    int setups, const std::function<Inputs()>& make_inputs,
    const std::function<StackConfig(int)>& config_for_setup, const Tracer* tracer,
    const std::function<void(ServingStack&, const Inputs&)>& warm_up, Inputs* inputs,
    SetupSummary* summary);

// Finds `"<histogram>":{...,"<field>":<number>` in a METRICS JSON export.
double HistogramField(const std::string& json, const std::string& histogram,
                      const std::string& field);

// Counts every read as attempted (and the failed ones as failed) and
// returns the completed reads' latencies in ms; `*end_s` becomes the last
// completion time.
std::vector<double> CountReads(const std::vector<ReadRecord>& reads, Outcome* out,
                               double* end_s);

// The server's METRICS export ("" when the scrape fails).
std::string ScrapeMetrics(int port);

// Writes the tracer's spans to `path` and reports the median self time of
// the `root` spans and the span count.
void ReportTrace(const Tracer& tracer, const std::string& root, const std::string& path,
                 Outcome* out);

// Read-path per-layer metrics shared by both read workloads: replayed
// query builds and codec calls, router scrape, probe counters, and the
// p50 breakdown. `replay_builder` is a copy of the server's builder from
// before the timed phase.
struct ReadLayerInputs {
  const std::vector<ReadRecord>* reads = nullptr;
  const std::vector<std::vector<std::string>>* query_tokens = nullptr;
  kjoin::ObjectBuilder* replay_builder = nullptr;
  std::string metrics_json;
  ProbeTotals probes;
  std::vector<ProbeEvent> probe_events;
  double queue_delay_mean_s = 0.0;
};
void ReportReadLayers(const ReadLayerInputs& in, Tracer* tracer, Outcome* out);

// Every per-layer metric and its unit, in the order BENCHMARK.json lists
// them. A traced run prints all of them; a layer the workload's path never
// reaches reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
