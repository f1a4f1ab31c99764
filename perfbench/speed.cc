#include "speed.h"

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

// Enough for every allocation of one kernel run (about 0.6 MiB); running
// out throws std::bad_alloc, which the self-tests would show.
constexpr size_t kKernelArenaBytes = 2 << 20;

// A fixed text of nested-looking tags with random names and contents,
// built once from a fixed xorshift stream.
const std::string& KernelText() {
  static const std::string text = [] {
    uint64_t x = 88172645463325252ull;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::string out;
    while (out.size() < (64u << 10)) {
      std::string name;
      for (uint64_t i = 0, n = 3 + next() % 8; i < n; ++i) {
        name += static_cast<char>('a' + next() % 6);
      }
      out += "<" + name + ">";
      for (uint64_t i = 0, n = next() % 60; i < n; ++i) {
        out += static_cast<char>('a' + next() % 26);
      }
      out += "</" + name + ">\n";
    }
    return out;
  }();
  return text;
}

struct AllKernelTimes {
  std::mutex mu;
  std::vector<double> ms;  // guarded by mu
};

AllKernelTimes& Global() {
  static AllKernelTimes* all = new AllKernelTimes();
  return *all;
}

struct ThreadSpeed {
  SpeedWindow window;
  double last_run_ms = 0;
};

ThreadSpeed& ThisThread() {
  thread_local ThreadSpeed speed;
  return speed;
}

// Runs the kernel once and records its time in the thread's window.
double TimeKernel() {
  // Consumes the kernel's result so the compiler cannot drop the work.
  static std::atomic<uint64_t> checksum{0};
  ThreadSpeed& speed = ThisThread();
  const double start = NowMs();
  checksum.fetch_xor(ReferenceKernel(), std::memory_order_relaxed);
  speed.last_run_ms = NowMs();
  const double ms = speed.last_run_ms - start;
  speed.window.Add(ms);
  AllKernelTimes& all = Global();
  std::lock_guard<std::mutex> lock(all.mu);
  all.ms.push_back(ms);
  return ms;
}

}  // namespace

void SpeedWindow::Add(double kernel_ms) {
  if (recent_.size() == kSpeedWindow) recent_.erase(recent_.begin());
  recent_.push_back(kernel_ms);
}

double SpeedWindow::Scale() const {
  const double median = Median(recent_);
  return median > 0 ? kReferenceKernelMs / median : 1;
}

uint64_t ReferenceKernel() {
  // The kernel allocates from a buffer of its own, never from the heap the
  // program uses: heap churn between the program's calls changed what
  // they cost (after a kernel run, a cold native DC/MD Q5 often took
  // 0.1 ms instead of its usual 6-8 ms).
  thread_local const std::unique_ptr<std::byte[]> arena(
      new std::byte[kKernelArenaBytes]);
  std::pmr::monotonic_buffer_resource memory(
      arena.get(), kKernelArenaBytes, std::pmr::null_memory_resource());
  const std::string_view text = KernelText();
  std::pmr::vector<std::pmr::string> names(&memory);
  std::pmr::unordered_map<std::pmr::string, int> counts(&memory);
  std::pmr::map<uint64_t, size_t> offsets(&memory);
  uint64_t hash = 1469598103934665603ull;
  for (size_t i = 0; i < text.size(); ++i) {
    hash = (hash ^ static_cast<unsigned char>(text[i])) * 1099511628211ull;
    if (text[i] != '<') continue;
    const size_t end = text.find('>', i);
    names.emplace_back(text.substr(i + 1, end - i - 1));
    ++counts[names.back()];
    offsets.emplace(hash, i);
    i = end;
  }
  return hash + names.size() + counts.size() + offsets.size();
}

double ReferenceScale() {
  ThreadSpeed& speed = ThisThread();
  if (speed.window.empty() ||
      NowMs() - speed.last_run_ms >= kSliceIntervalMs) {
    TimeKernel();
  }
  return speed.window.Scale();
}

double Scaled(double raw_ms, double before) {
  if (raw_ms < kLongIntervalMs) return raw_ms * before;
  SpeedWindow after;
  for (int i = 0; i < 3; ++i) after.Add(TimeKernel());
  return raw_ms * (before + after.Scale()) / 2;
}

KernelSummary ReferenceKernelSummary() {
  AllKernelTimes& all = Global();
  std::lock_guard<std::mutex> lock(all.mu);
  return {Median(all.ms), all.ms.size()};
}

ScaledStopwatch::ScaledStopwatch()
    : scale_(ReferenceScale()), start_ms_(NowMs()) {}

double ScaledStopwatch::Lap() {
  const double ms = Scaled(NowMs() - start_ms_, scale_);
  scale_ = ReferenceScale();
  start_ms_ = NowMs();
  return ms;
}

}  // namespace perfbench
