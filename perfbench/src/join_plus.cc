// join_plus: batch K-Join+ self-join through KJoin::SelfJoin.
//
// A K-Join+ POI collection self-joined on one thread, again and again for
// the run. Verification (grouping, bounds, Hungarian, the similarity
// cache) is almost all of the time; the network, the serving stack and
// query build are not on the path, so this workload is the control for
// serving-only changes.

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "core/kjoin.h"
#include "oracle.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int64_t kObjects = 1000;
constexpr double kDelta = 0.8;
constexpr double kTau = 0.7;
constexpr int kCheckedObjects = 64;

kjoin::KJoinOptions JoinOptions() {
  kjoin::KJoinOptions options;
  options.delta = kDelta;
  options.tau = kTau;
  options.plus_mode = true;
  // One thread, for the reason the serving workloads use one connection
  // (serving.h): wider work would measure the host's varying core count.
  options.num_threads = 1;
  return options;
}

}  // namespace

void CheckJoinAnswer(const Oracle& oracle, const std::vector<kjoin::Object>& objects,
                     const std::vector<std::pair<int32_t, int32_t>>& pairs,
                     const std::vector<int32_t>& sample, double tau, Outcome* out) {
  for (const auto& [x, y] : pairs) {
    const double sim = oracle.Similarity(objects[static_cast<size_t>(x)],
                                         objects[static_cast<size_t>(y)]);
    if (sim < tau - kSimilarityTolerance) {
      out->CheckFailed("join pair (" + std::to_string(x) + ", " + std::to_string(y) +
                       ") has similarity " + std::to_string(sim) + " below tau");
    }
  }
  const std::set<std::pair<int32_t, int32_t>> output(pairs.begin(), pairs.end());
  for (int32_t x : sample) {
    for (int32_t y = 0; y < static_cast<int32_t>(objects.size()); ++y) {
      if (y == x) continue;
      const double sim = oracle.Similarity(objects[static_cast<size_t>(x)],
                                           objects[static_cast<size_t>(y)]);
      const auto pair = std::minmax(x, y);
      if (sim > tau + kSimilarityTolerance && output.count({pair.first, pair.second}) == 0) {
        out->CheckFailed("join misses pair (" + std::to_string(pair.first) + ", " +
                         std::to_string(pair.second) + ") with similarity " +
                         std::to_string(sim));
      }
    }
  }
}

double RunJoinPlus(const Args& args, bool traced, int setups, Outcome* out) {
  Tracer tracer(traced, Clock::now());
  Inputs inputs;
  kjoin::PreparedObjects prepared;
  std::unique_ptr<kjoin::KJoin> join;
  std::vector<double> setup_s;
  std::vector<double> build_objects_s;
  std::vector<double> index_s;
  for (int i = 0; i < setups; ++i) {
    join.reset();
    prepared = kjoin::PreparedObjects{};
    const Clock::time_point start = Clock::now();
    inputs = MakeInputs(args.seed, kObjects, 0, 0);
    Clock::time_point step = Clock::now();
    prepared = kjoin::BuildObjects(*inputs.hierarchy, inputs.indexed, /*multi_mapping=*/true,
                                   /*min_phi=*/kDelta);
    build_objects_s.push_back(SecondsSince(step));
    step = Clock::now();
    join = std::make_unique<kjoin::KJoin>(*inputs.hierarchy, JoinOptions());
    index_s.push_back(SecondsSince(step));
    kjoin::JoinResult warm;
    const kjoin::Status warmed = join->SelfJoin(prepared.objects, kjoin::JoinControl{}, &warm);
    if (!warmed.ok()) out->CheckFailed("join_plus warm-up join: " + warmed.ToString());
    setup_s.push_back(SecondsSince(start));
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<double> join_ms;
  std::vector<kjoin::JoinStats> stats;
  kjoin::JoinResult first;
  bool have_first = false;
  int64_t differing = 0;
  while (Clock::now() < end) {
    const double began = tracer.Now();
    kjoin::JoinResult result;
    const kjoin::Status status = join->SelfJoin(prepared.objects, kjoin::JoinControl{}, &result);
    const double ended = tracer.Now();
    ++out->attempted;
    if (!status.ok()) {
      ++out->failed;
      std::fprintf(stderr, "perfbench: self-join failed: %s\n", status.ToString().c_str());
      continue;
    }
    join_ms.push_back((ended - began) * 1e3);
    const kjoin::JoinStats& s = result.stats;
    const uint64_t trace_id = join_ms.size();
    const uint64_t root = tracer.Record(trace_id, 0, "join", began, ended);
    double at = began;
    for (const auto& [name, seconds] :
         {std::pair<const char*, double>{"join.signature", s.signature_seconds},
          {"join.filter", s.filter_seconds},
          {"join.verify", s.verify_seconds}}) {
      tracer.Record(trace_id, root, name, at, at + seconds);
      at += seconds;
    }
    stats.push_back(s);
    if (!have_first) {
      first = std::move(result);
      have_first = true;
    } else if (result.pairs != first.pairs) {
      ++differing;
    }
  }
  const double measured_s = SecondsSince(start);
  const double peak_rss_mb = PeakRssMb();
  std::fprintf(stderr, "perfbench: %zu joins, min %.2f p10 %.2f p50 %.2f p90 %.2f ms\n",
               join_ms.size(), Percentile(join_ms, 0.0), Percentile(join_ms, 0.1),
               Percentile(join_ms, 0.5), Percentile(join_ms, 0.9));
  if (differing > 0) {
    out->CheckFailed("join_plus: " + std::to_string(differing) +
                     " self-joins returned other pairs than the first");
  }

  // Soundness over every output pair, completeness for a seeded sample
  // of objects against all others.
  Oracle oracle(*inputs.hierarchy, kDelta);
  const std::vector<kjoin::Object>& objects = prepared.objects;
  std::vector<int32_t> sample(objects.size());
  for (size_t i = 0; i < sample.size(); ++i) sample[i] = static_cast<int32_t>(i);
  std::mt19937_64 rng(args.seed + 303);
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min<size_t>(sample.size(), kCheckedObjects));
  CheckJoinAnswer(oracle, objects, first.pairs, sample, kTau, out);

  const double p50_ms = Median(join_ms);
  if (!traced) {
    ReportEndToEnd(setup_s, peak_rss_mb, static_cast<double>(join_ms.size()), measured_s,
                   join_ms, out);
    return p50_ms;
  }
  std::vector<double> signature_s, filter_s, verify_s, utilization, hit_rate;
  for (const kjoin::JoinStats& s : stats) {
    signature_s.push_back(s.signature_seconds);
    filter_s.push_back(s.filter_seconds);
    verify_s.push_back(s.verify_seconds);
    utilization.push_back(s.pool_utilization);
    hit_rate.push_back(s.sim_cache_hit_rate);
  }
  const kjoin::JoinStats& s = first.stats;
  const int64_t decided = s.verify.pruned_by_count + s.verify.pruned_by_weighted_count +
                          s.verify.accepted_by_lower_bound + s.verify.rejected_by_upper_bound;
  int64_t elements = 0;
  int64_t mappings = 0;
  for (const kjoin::Object& object : objects) {
    for (const kjoin::Element& element : object.elements) {
      ++elements;
      mappings += static_cast<int64_t>(element.mappings.size());
    }
  }
  out->Metric("setup.build_objects_s", Median(build_objects_s), "s");
  out->Metric("setup.index_s", Median(index_s), "s");
  // The join's query objects are its own records: their build is the
  // set-up's BuildObjects, per record.
  out->Metric("build.us_per_query",
              Median(build_objects_s) / static_cast<double>(objects.size()) * 1e6, "us");
  out->Metric("build.mappings_per_token",
              elements > 0 ? static_cast<double>(mappings) / static_cast<double>(elements) : 0.0,
              "count");
  out->Metric("join.signature_s", Median(signature_s), "s");
  out->Metric("join.filter_s", Median(filter_s), "s");
  out->Metric("join.verify_s", Median(verify_s), "s");
  out->Metric("join.candidates", static_cast<double>(s.candidates), "count");
  out->Metric("join.results_per_candidate",
              s.candidates > 0 ? static_cast<double>(s.results) / static_cast<double>(s.candidates)
                               : 0.0,
              "ratio");
  out->Metric("join.hungarian_runs", static_cast<double>(s.verify.hungarian_runs), "count");
  out->Metric("join.bound_decided_ratio",
              s.verify.pairs_verified > 0 ? static_cast<double>(decided) /
                                                static_cast<double>(s.verify.pairs_verified)
                                          : 0.0,
              "ratio");
  out->Metric("join.sim_cache_hit_rate", Median(hit_rate), "ratio");
  out->Metric("join.pool_utilization", Median(utilization), "ratio");
  ReportTrace(tracer, "join", args.run_dir + "/trace-join_plus.jsonl", out);
  return p50_ms;
}

}  // namespace perfbench
