// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <search_plus|mixed_rw|join_plus> --seed N
//             --seconds S --trace <0|1> [--run_dir DIR]
//   perfbench --selftest
//
// An untraced run sets up three times (set-up time is their median),
// measures for S seconds and prints the end-to-end metrics. A traced run
// makes one untraced pass and one traced pass, each with one set-up, and
// prints the per-layer metrics of the traced pass plus the tracing
// overhead between the two. Both check every answer apart from the index.
// The last line of stdout is the JSON result; a line before it records
// the machine fingerprint.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "harness.h"
#include "serving.h"
#include "workloads.h"

namespace perfbench {

void ReportEndToEnd(const std::vector<double>& setup_s, double peak_rss_mb, double ops,
                    double measured_s, std::vector<double> op_ms, Outcome* out) {
  out->Metric("setup_s", Median(setup_s), "s");
  out->Metric("peak_rss_mb", peak_rss_mb, "MB");
  out->Metric("ops_per_s", measured_s > 0.0 ? ops / measured_s : 0.0, "1/s");
  out->Metric("op_p90_ms", Percentile(op_ms, 0.9), "ms");
}

namespace {

constexpr int kSetupsPerRun = 3;

using WorkloadFn = double (*)(const Args&, bool, int, Outcome*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> workloads = {
      {"search_plus", &RunSearchPlus},
      {"mixed_rw", &RunMixedRw},
      {"join_plus", &RunJoinPlus},
  };
  return workloads;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::ostringstream text;
  text.precision(17);
  text << value;
  return text.str();
}

void PrintResult(const Outcome& out, const std::vector<std::pair<std::string, std::string>>& order,
                 const std::map<std::string, double>& values) {
  std::ostringstream json;
  json << "{\"correct\": " << (out.correct() ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < order.size(); ++i) {
    auto it = values.find(order[i].first);
    json << (i ? ", " : "") << "\"" << order[i].first
         << "\": {\"value\": " << Number(it == values.end() ? 0.0 : it->second)
         << ", \"unit\": \"" << order[i].second << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int Usage() {
  std::cerr << "usage: perfbench --workload <search_plus|mixed_rw|join_plus> --seed N "
               "--seconds S --trace <0|1> [--run_dir DIR] | --selftest\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      selftest = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--run_dir" && has_value) {
      args.run_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (selftest) return RunSelfTest(args);
  auto workload = Workloads().find(args.workload);
  if (workload == Workloads().end() || !(args.seconds > 0.0)) return Usage();

  std::cout << "# fingerprint " << FingerprintJson() << std::endl;
  Outcome out;
  std::map<std::string, double> values;
  std::vector<std::pair<std::string, std::string>> order;
  if (!args.trace) {
    workload->second(args, /*traced=*/false, kSetupsPerRun, &out);
    for (const auto& [name, metric] : out.metrics) {
      values[name] = metric.first;
      order.push_back({name, metric.second});
    }
  } else {
    Outcome untraced;
    const double untraced_p50 = workload->second(args, /*traced=*/false, 1, &untraced);
    const double traced_p50 = workload->second(args, /*traced=*/true, 1, &out);
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    for (const std::string& failure : untraced.check_failures) {
      out.check_failures.push_back(failure);
    }
    for (const auto& [name, metric] : out.metrics) values[name] = metric.first;
    values["trace.op_p50_ms"] = traced_p50;
    values["trace.overhead_pct"] =
        untraced_p50 > 0.0 ? (traced_p50 - untraced_p50) / untraced_p50 * 100.0 : 0.0;
    order = PerLayerMetrics();
  }
  for (const auto& [name, value] : values) {
    std::cerr << "perfbench: " << args.workload << " " << name << " = " << value << "\n";
  }
  PrintResult(out, order, values);
  return 0;
}
