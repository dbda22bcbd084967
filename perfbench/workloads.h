// The four benchmark workloads (fanout, parallel, durable, serve) and the
// harness that runs one of them: input generation, closed-loop rounds,
// the open-loop latency phase, the correctness gate against a serial
// in-process reference, and (traced runs) the per-layer attribution.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for archives and span files (inside the build tree).
  std::string workdir = ".";
  /// Self-test switches.
  bool quick = false;         // Small input, few rounds.
  bool corrupt_ref = false;   // Perturb the reference: the gate must trip.
  double offered_rate = 0.0;  // > 0 overrides the open-loop rate.
  /// Provenance passed in by the launcher.
  std::string commit;
  std::string source_digest;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One JSON object: commit, compiler, build type, nproc, seed, rates,
  /// phase durations and sample counts.
  std::string provenance_json;
  std::string error;  // Set when the run could not be carried out.
};

/// Names of the known workloads, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

RunResult RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
