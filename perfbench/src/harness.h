#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared plumbing of the benchmark binary: arguments, the result object
// every workload fills, timing statistics, the machine fingerprint, and
// the in-memory span tracer of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) { return SecondsBetween(a, Clock::now()); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory inside the checkout for the run's files (WAL, trace).
  std::string run_dir = ".bench_run";
};

// Hardware threads, as `nproc` reports them.
int Nproc();

// Median and nearest-rank percentile (q in [0, 1]) of a sample; 0 when
// the sample is empty.
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Percentile(std::vector<double> values, double q);

// VmHWM of this process in MiB (0 when /proc is unreadable).
double PeakRssMb();

// CPU model, ISA level the kernels dispatch to, nproc, and the times of
// two fixed calibration kernels (compute, memory latency), as one JSON
// object. For reading reports only: nothing gates on them.
std::string FingerprintJson();

// Everything a workload hands back to main(): the counts of the result
// line, its metrics (end-to-end or per-layer, chosen by --trace), and the
// check failures that make `correct` false.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> check_failures;
  // name -> (value, unit), printed in insertion order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  bool correct() const { return check_failures.empty(); }
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  // Records a failed correctness check (and prints it to stderr).
  void CheckFailed(const std::string& what);
};

// One traced interval. Spans of one request share `trace_id`; `parent`
// is the causing span's id (0 for a root).
struct Span {
  uint64_t trace_id = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  double start_s = 0.0;  // seconds since the tracer's origin
  double end_s = 0.0;
};

// Spans kept in memory and written out once, when the run ends. Disabled
// tracers record nothing, so the untraced run pays one branch per site.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }
  double Now() const { return SecondsSince(origin_); }
  double At(Clock::time_point t) const { return SecondsBetween(origin_, t); }

  // Records a span and returns its id (0 when disabled).
  uint64_t Record(uint64_t trace_id, uint64_t parent, const std::string& name,
                  double start_s, double end_s);

  std::vector<Span> spans() const;

  // Median self time (duration minus the part covered by child spans)
  // per span name, in seconds.
  std::map<std::string, double> MedianSelfSeconds() const;

  // Writes every span as JSON lines to `path`.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;     // guarded by mu_
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
