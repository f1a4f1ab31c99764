#ifndef PERFBENCH_RESULT_H_
#define PERFBENCH_RESULT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one benchmark run reports on its last line of standard output.
struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The result as one line of JSON:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,
/// "unit":..}}}. Values keep every significant digit (%.17g); a
/// non-finite value is written as null.
std::string ResultLine(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_RESULT_H_
