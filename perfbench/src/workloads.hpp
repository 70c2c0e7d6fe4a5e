// The four workloads. Each runs closed-loop clients against the library
// for Options::seconds, checks every output, and fills an Outcome with
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vcgra/common/rng.hpp"

namespace perfbench {

Outcome run_hpc_stream(const Options& options);
Outcome run_small_jobs(const Options& options);
Outcome run_toolflow(const Options& options);
Outcome run_vessel(const Options& options);

/// Every per-layer metric the traced runs report, with its unit. A
/// traced run reports all of them; those of layers its workload does not
/// cross read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Fill the per-layer metrics every traced run reports for its own
/// workload: trace overhead (traced against untraced op time) and CPU
/// utilization of the untraced timed phase.
void set_process_layer(Outcome& outcome, const std::string& workload,
                       double untraced_op_s, double traced_op_s,
                       double cpu_util);

/// Per-layer tail of the workload's primary operation (client wall time,
/// untraced): p90 and p99. Tails are reported here, without a bound:
/// on a shared machine their run-to-run spread is too wide to gate on.
void set_op_tails(Outcome& outcome, const std::vector<double>& op_walls);

/// Uniform double in [lo, hi).
inline double uniform(vcgra::common::Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.next_double();
}

/// Seconds the traced run spends on each of its two halves (untraced,
/// then traced), and the untraced run on its one timed phase.
inline double phase_seconds(const Options& options) {
  return options.trace ? options.seconds / 2 : options.seconds;
}

}  // namespace perfbench
