#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady (monotonic, real-time) clock since a fixed
/// process-wide origin. Every benchmark timing and span uses this clock;
/// none uses the simulated disk's virtual clock.
double NowMs();

/// One timed call into a layer.
struct Span {
  std::string name;  // the call, e.g. "workload.Session.Run"
  std::string tag;   // what it ran on, e.g. "native/tcsd Q8"
  double start_ms = 0;
  double end_ms = -1;  // -1 while open
  int64_t parent = -1;
  /// Shared by every span of one statement or update (0 = none).
  uint64_t request = 0;
};

/// In-memory span store shared by every thread of a run. Spans are only
/// recorded while enabled; a disabled log costs one relaxed load per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  int64_t Open(std::string name, std::string tag, int64_t parent,
               uint64_t request, double start_ms);
  void Close(int64_t id, double end_ms);
  uint64_t NextRequest() { return next_request_.fetch_add(1); }

  std::vector<Span> Snapshot() const;
  /// One JSON object {"spans": [...]} with every recorded span.
  std::string ToJson() const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_request_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One thread's open spans: a new scope nests under the innermost open
/// one, or under `root` (possibly a span of another thread) when none is
/// open.
class SpanStack {
 public:
  explicit SpanStack(SpanLog& log, int64_t root = -1)
      : log_(log), root_(root) {}
  SpanStack(const SpanStack&) = delete;
  SpanStack& operator=(const SpanStack&) = delete;

  SpanLog& log() { return log_; }
  /// Id of the innermost open recorded span (or the root).
  int64_t top() const { return open_.empty() ? root_ : open_.back().id; }

 private:
  friend class Scope;
  struct Open {
    int64_t id;
    uint64_t request;
  };
  SpanLog& log_;
  int64_t root_;
  std::vector<Open> open_;
};

/// Times one call on the steady clock and, when the log is enabled,
/// records it as a span. A zero `request` inherits the enclosing scope's.
class Scope {
 public:
  Scope(SpanStack& stack, const char* name, std::string tag = {},
        uint64_t request = 0);
  ~Scope() { Close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Ends the scope (once) and returns its duration in milliseconds.
  double Close();
  int64_t id() const { return id_; }

 private:
  SpanStack& stack_;
  double start_ms_;
  double duration_ms_ = -1;
  int64_t id_ = -1;
};

/// Self time of each span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap one
/// another (sessions on several threads under one window span) and are
/// clipped to their parent's interval.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
