#ifndef KJOIN_SERVE_SEARCH_SERVICE_H_
#define KJOIN_SERVE_SEARCH_SERVICE_H_

// Concurrent query execution over the live index, with the server-side
// guard rails: per-query deadlines, cooperative cancellation, admission
// control, and latency/outcome metrics.
//
// Every query acquires the IndexManager's current epoch once and runs
// against that consistent view — a swap mid-query is invisible. Admission
// control bounds the number of queries admitted at once; beyond the cap,
// Submit sheds immediately with kResourceExhausted instead of building an
// unbounded queue (the caller retries or degrades). Deadlines ride the
// index's controlled search path: a tripped query returns the hits proven
// so far with kDeadlineExceeded.
//
// Admission is *adaptive* by default and lives in the shared
// AdmissionController (serve/admission.h, also behind the sharded
// ShardRouter): a queue-delay EWMA sheds deadline-infeasible requests
// before they queue, and an AIMD controller walks an effective in-flight
// cap between min_in_flight and max_in_flight. Shed responses carry the
// load picture (in-flight, effective cap) and a machine-readable
// retry_after_ms= hint; service.shed_total breaks out by reason
// (service.shed_cap / service.shed_deadline_infeasible), and the
// service.effective_cap gauge tracks the controller
// (docs/robustness.md, "Failure modes and degraded operation").
//
//   SearchService service(&manager, &pool, {.max_in_flight = 64,
//                                           .default_deadline_seconds = 0.1},
//                         &metrics);
//   service.Submit(std::move(request), [](QueryResponse r) { ... });
//   auto responses = service.SearchBatch(std::move(requests));  // sync

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/kjoin_index.h"
#include "serve/admission.h"
#include "serve/index_manager.h"

namespace kjoin::serve {

struct SearchServiceOptions {
  // Queries admitted (queued + executing) at once; above the cap Submit /
  // SearchBatch shed with kResourceExhausted. <= 0 means unbounded (and
  // disables the adaptive controller — there is no cap to adapt).
  int max_in_flight = 64;
  // Deadline applied when a request does not set its own; <= 0 = none.
  double default_deadline_seconds = 0.0;
  // Adaptive admission (see the header comment). Off = the fixed
  // max_in_flight cap and no early deadline-infeasible shedding.
  bool adaptive = true;
  // AIMD floor: the effective cap never drops below this, so a miss
  // storm cannot shed the service to zero.
  int min_in_flight = 4;
  // Weight of the newest queue-delay sample in the EWMA (0..1].
  double queue_delay_ewma_alpha = 0.2;
  // Queries per AIMD adjustment window.
  int aimd_window = 32;
  // Window deadline-miss fraction at or above which the cap is halved.
  double aimd_miss_threshold = 0.5;
};

struct QueryRequest {
  // Must be built by a builder token-id-compatible with the indexed
  // collection (MakeQueryPipeline for snapshot-loaded stacks).
  Object query;
  // > 0 = top-k search; 0 = every object at or above min_similarity.
  int32_t top_k = 0;
  // Similarity floor for both kinds of search; < 0 (the default) uses
  // the index's configured tau. An explicit value — including 0.0 — is
  // forwarded to the index, which validates it (values below tau return
  // kInvalidArgument). The sentinel mirrors deadline_seconds below.
  double min_similarity = -1.0;
  // Per-request deadline; < 0 = service default, 0 = explicitly none.
  double deadline_seconds = -1.0;
  // Optional external cancel signal; not owned, must outlive the query.
  const CancelToken* cancel_token = nullptr;
};

struct QueryResponse {
  // OK, or why the query stopped (kResourceExhausted = shed before
  // execution, kDeadlineExceeded / kCancelled = partial hits inside).
  Status status;
  std::vector<SearchHit> hits;
  SearchStats stats;
  // Epoch the query ran against (0 when shed).
  int64_t epoch_version = 0;
  double seconds = 0.0;
};

class SearchService {
 public:
  // `manager`, `pool` and `metrics` are borrowed and must outlive the
  // service; `metrics` may be null. Metrics reported: service.queries,
  // service.shed (legacy total, kept for dashboards), service.shed_total
  // and its per-reason breakdown service.shed_cap /
  // service.shed_deadline_infeasible, service.deadline_exceeded,
  // service.cancelled, service.errors, service.hits (counters),
  // service.effective_cap (gauge), service.latency_seconds and
  // service.queue_delay_seconds (histograms).
  SearchService(IndexManager* manager, ThreadPool* pool, SearchServiceOptions options = {},
                MetricsRegistry* metrics = nullptr);

  // Waits for every Submit()ted query to finish.
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  // Asynchronous: runs the query on the pool and invokes `done` with the
  // response from a pool thread. A shed query invokes `done` inline with
  // kResourceExhausted. On a pool with no background lane (num_threads
  // == 1) the query runs inline on the calling thread instead.
  //
  // Callback contract: `done` should not throw. If it does anyway, the
  // exception is caught and logged (service.callback_exceptions counts
  // them) — the admission slot and the destructor's outstanding count
  // are released regardless, so one bad callback can neither leak
  // capacity nor hang ~SearchService.
  void Submit(QueryRequest request, std::function<void(QueryResponse)> done);

  // Synchronous single query on the calling thread (still admission-
  // counted, so a caller storm sheds the same way).
  QueryResponse Search(const QueryRequest& request);

  // Synchronous batch: fans the requests out across the pool with the
  // caller participating, and returns responses in request order.
  std::vector<QueryResponse> SearchBatch(const std::vector<QueryRequest>& requests);

  // Queries currently admitted (approximate, for monitoring).
  int64_t in_flight() const { return admission_.in_flight(); }
  // The AIMD controller's current cap (== max_in_flight when adaptive is
  // off or the controller has not yet backed off).
  int64_t effective_cap() const { return admission_.effective_cap(); }
  // Estimated admit -> execute wait, the deadline-infeasible signal.
  double queue_delay_ewma_seconds() const { return admission_.queue_delay_ewma_seconds(); }
  // Test hook: plants the queue-delay estimate so deadline-infeasible
  // shedding is exercisable without real queue pressure.
  void SetQueueDelayEwmaForTest(double seconds) {
    admission_.SetQueueDelayEwmaForTest(seconds);
  }

 private:
  // The request's effective deadline (service default applied); <= 0 =
  // none.
  double EffectiveDeadline(const QueryRequest& request) const;
  QueryResponse Shed(AdmissionController::Outcome outcome, double deadline_seconds);
  QueryResponse Execute(const QueryRequest& request, double queue_delay_seconds);

  IndexManager* manager_;
  ThreadPool* pool_;
  SearchServiceOptions options_;
  MetricsRegistry* metrics_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  std::condition_variable drained_;  // signalled when an async query finishes
  int64_t async_outstanding_ = 0;    // guarded by mu_
};

}  // namespace kjoin::serve

#endif  // KJOIN_SERVE_SEARCH_SERVICE_H_
