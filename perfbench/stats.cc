#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t MinSamplesForQuantile(double q) {
  // n * (1 - q) >= 10; the epsilon absorbs 1 - 0.95 != 0.05 in binary.
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

std::optional<double> Quantile(std::vector<double> samples, double q) {
  if (samples.empty() || samples.size() < MinSamplesForQuantile(q)) {
    return std::nullopt;
  }
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size()) - 1e-9));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                  : (samples[mid - 1] + samples[mid]) / 2;
}

double InterquartileMean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t drop = samples.size() / 4;
  double sum = 0;
  for (size_t i = drop; i < samples.size() - drop; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double value : values) {
    if (!(value > 0)) return 0;
    log_sum += std::log(value);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
