#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Fewest samples for which the `q` quantile (0 < q < 1) leaves at least
/// ten samples beyond it: 20 for the median, 200 for p95.
size_t MinSamplesForQuantile(double q);

/// Nearest-rank `q` quantile of `samples`, or nullopt when there are fewer
/// than MinSamplesForQuantile(q) of them — a tail percentile read off a
/// handful of samples is one sample, not a percentile.
std::optional<double> Quantile(std::vector<double> samples, double q);

/// Median of `samples` without the sample-count floor (used for repeated
/// set-up timings and per-layer medians); 0 when empty.
double Median(std::vector<double> samples);

/// Mean of the middle half of `samples`: sorted, with the lowest and the
/// highest n/4 (rounded down) dropped. Robust to a few outliers like a
/// median, but moves smoothly where a median jumps between two modes.
/// 0 when empty.
double InterquartileMean(std::vector<double> samples);

/// Geometric mean of positive `values`; 0 when empty or any value is not
/// positive.
double GeometricMean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
