#ifndef PERFBENCH_SPEED_H_
#define PERFBENCH_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Host speed, measured beside the timed calls.
//
// A vCPU of a shared host runs the same code at speeds that differ by up to
// 3x within seconds, and thread CPU time slows with wall time, so neither
// clock alone repeats from run to run. Each thread therefore runs a fixed
// reference kernel between its timed calls (at most once per
// kSliceIntervalMs) and scales every interval it times by
// kReferenceKernelMs / (median of its last kSpeedWindow kernel times):
// the time the call would have taken on a host where the kernel takes
// kReferenceKernelMs. The kernel is the benchmark's own code, so a change
// to the program moves the scaled times as much as the wall times.

/// The kernel time, in ms, of the speed every scaled time refers to. The
/// kernel's median in this benchmark's runs is 1.0-1.2 ms on a 4-vCPU Xeon
/// at 2.1 GHz (GCC 12, RelWithDebInfo), so scaled times there stay close
/// to wall times.
inline constexpr double kReferenceKernelMs = 1.0;
inline constexpr double kSliceIntervalMs = 25;
inline constexpr size_t kSpeedWindow = 9;
/// An interval at least this long outlasts the speed window it started
/// with; the speed after it is measured as well.
inline constexpr double kLongIntervalMs = 200;

/// The most recent kernel times of one thread.
class SpeedWindow {
 public:
  void Add(double kernel_ms);
  bool empty() const { return recent_.empty(); }
  /// kReferenceKernelMs over the median of the kept kernel times; 1 when
  /// empty.
  double Scale() const;

 private:
  std::vector<double> recent_;  // oldest first, at most kSpeedWindow
};

/// Runs the reference kernel once: it tokenizes a fixed 64 KiB tag text
/// into strings, counts them in a hash map and orders their offsets in a
/// tree, the mix of scanning, allocation and pointer chasing the program's
/// parser and stores do. It allocates from a per-thread buffer of its own,
/// so it leaves the program's heap as it found it. Returns a checksum of
/// the work, which is the same on every call.
uint64_t ReferenceKernel();

/// This thread's current scale. Runs and times the kernel first when the
/// thread has not run it in the last kSliceIntervalMs.
double ReferenceScale();

/// `raw_ms` of wall time scaled to the reference speed, for an interval
/// that this thread started when ReferenceScale() was `before`. A long
/// interval (kLongIntervalMs or more) is scaled by the mean of `before`
/// and the scale of three kernel runs made right after it.
double Scaled(double raw_ms, double before);

/// Median and count of every kernel time measured in the process so far.
struct KernelSummary {
  double median_ms = 0;
  size_t runs = 0;
};
KernelSummary ReferenceKernelSummary();

/// Times consecutive intervals on the steady clock, each Scaled() by the
/// running thread's speed.
class ScaledStopwatch {
 public:
  ScaledStopwatch();
  /// Scaled ms since construction or the previous Lap(); starts the next
  /// interval.
  double Lap();

 private:
  double scale_;
  double start_ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_H_
