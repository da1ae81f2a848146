#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/metrics.h"
#include "core/simd.h"

namespace perfbench {

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return kjoin::PercentileOfSorted(values, q);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

// Two fixed single-thread kernels: integer hashing with a square root per
// step, whose time tracks the core's speed, and a dependent walk over a
// 16 MiB random cycle, whose time tracks memory latency (which a
// neighbour thrashing the shared cache moves while the first kernel
// holds still).
double ComputeCalibrationSeconds() {
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += std::sqrt(static_cast<double>(x & 0xffff));
  }
  const double seconds = SecondsSince(start);
  if (acc < 0.0) std::fprintf(stderr, "%f\n", acc);  // keeps the loop alive
  return seconds;
}

double MemoryCalibrationSeconds() {
  constexpr uint32_t kSlots = 1u << 22;  // 16 MiB of uint32
  std::vector<uint32_t> next(kSlots);
  for (uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  // Sattolo's shuffle: one cycle through every slot.
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (uint32_t i = kSlots - 1; i > 0; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(next[i], next[static_cast<uint32_t>((x >> 33) % i)]);
  }
  const Clock::time_point start = Clock::now();
  uint32_t at = 0;
  for (int i = 0; i < 1'000'000; ++i) at = next[at];
  const double seconds = SecondsSince(start);
  if (at == kSlots) std::fprintf(stderr, "%u\n", at);  // keeps the walk alive
  return seconds;
}

}  // namespace

std::string FingerprintJson() {
  std::ostringstream json;
  json << "{\"cpu_model\": \"" << kjoin::JsonEscape(CpuModel()) << "\", \"simd\": \""
       << kjoin::simd::IsaLevelName(kjoin::simd::ActiveLevel()) << "\", \"nproc\": " << Nproc()
       << ", \"calibration_s\": " << ComputeCalibrationSeconds()
       << ", \"memory_calibration_s\": " << MemoryCalibrationSeconds() << "}";
  return json.str();
}

void Outcome::CheckFailed(const std::string& what) {
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  check_failures.push_back(what);
}

uint64_t Tracer::Record(uint64_t trace_id, uint64_t parent, const std::string& name,
                        double start_s, double end_s) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  spans_.push_back(Span{trace_id, id, parent, name, start_s, end_s});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::MedianSelfSeconds() const {
  const std::vector<Span> all = spans();
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : all) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, std::vector<double>> self;
  for (const Span& span : all) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<double, double>> covered;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        const double lo = std::max(child->start_s, span.start_s);
        const double hi = std::min(child->end_s, span.end_s);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double cover = 0.0;
    double reach = span.start_s;
    for (const auto& [lo, hi] : covered) {
      const double from = std::max(lo, reach);
      if (hi > from) cover += hi - from;
      reach = std::max(reach, hi);
    }
    self[span.name].push_back(span.end_s - span.start_s - cover);
  }
  std::map<std::string, double> medians;
  for (auto& [name, values] : self) medians[name] = Median(std::move(values));
  return medians;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed;
  out.precision(9);  // times to the nanosecond
  for (const Span& span : spans()) {
    out << "{\"trace\": " << span.trace_id << ", \"span\": " << span.id
        << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
        << "\", \"start_s\": " << span.start_s << ", \"end_s\": " << span.end_s << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
