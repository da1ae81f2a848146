#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three workloads. Each pass sets up `setups` times, measures for
// args.seconds, checks its answers apart from the index, and returns the
// client-observed median operation time in ms. An untraced pass adds the
// end-to-end metrics to `out`, a traced pass the per-layer ones.

#include <cstdint>
#include <utility>
#include <vector>

#include "core/object.h"
#include "harness.h"
#include "oracle.h"

namespace perfbench {

double RunSearchPlus(const Args& args, bool traced, int setups, Outcome* out);
double RunMixedRw(const Args& args, bool traced, int setups, Outcome* out);
double RunJoinPlus(const Args& args, bool traced, int setups, Outcome* out);

// Plants wrong answers in front of each check and confirms the check
// catches them; confirms the inputs follow the seed. Returns 0 when every
// planted fault was caught.
int RunSelfTest(const Args& args);

// Soundness of every pair (oracle similarity at least tau) and
// completeness for each sampled object against all others.
void CheckJoinAnswer(const Oracle& oracle, const std::vector<kjoin::Object>& objects,
                     const std::vector<std::pair<int32_t, int32_t>>& pairs,
                     const std::vector<int32_t>& sample, double tau, Outcome* out);

// End-to-end metrics common to every workload.
// `peak_rss_mb` is sampled when the timed phase ends, before the checks
// build their own indexes.
void ReportEndToEnd(const std::vector<double>& setup_s, double peak_rss_mb, double ops,
                    double measured_s, std::vector<double> op_ms, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
