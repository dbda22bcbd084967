// streamqp end-to-end benchmark binary. Usually launched through run.py,
// which builds it first:
//
//   streamqp_bench --workload parallel --seed 1 --seconds 40 --trace 0
//       [--workdir DIR] [--quick] [--corrupt-ref] [--offered-rate TPS]
//       [--commit SHA] [--source-digest HEX]
//
// Prints a provenance line, then as its last line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "streamqp_bench: %s\nusage: streamqp_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] [--quick] "
               "[--corrupt-ref] [--offered-rate TPS]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--quick") {
      o.quick = true;
    } else if (a == "--corrupt-ref") {
      o.corrupt_ref = true;
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--workdir") {
      o.workdir = argv[++i];
    } else if (a == "--offered-rate") {
      o.offered_rate = std::strtod(argv[++i], nullptr);
    } else if (a == "--commit") {
      o.commit = argv[++i];
    } else if (a == "--source-digest") {
      o.source_digest = argv[++i];
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload.empty()) return Usage("--workload is required");
  if (!(o.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::RunResult r = perfbench::RunWorkload(o);
  if (!r.error.empty()) return Usage(r.error.c_str());

  std::printf("{\"provenance\":%s}\n", r.provenance_json.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : r.metrics) {
    if (!metrics.empty()) metrics += ",";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += "\"" + m.name + "\":{\"value\":" + value + ",\"unit\":\"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
