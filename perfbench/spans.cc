#include "spans.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/json.h"

namespace perfbench {

double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int64_t SpanLog::Open(std::string name, std::string tag, int64_t parent,
                      uint64_t request, double start_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{std::move(name), std::move(tag), start_ms, -1, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::Close(int64_t id, double end_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = end_ms;
}

std::vector<Span> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanLog::ToJson() const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<double> self = SelfTimes(spans);
  xbench::obs::JsonWriter writer;
  writer.BeginObject().Key("clock").String("steady_ms").Key("spans");
  writer.BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    writer.BeginObject()
        .Key("id").Uint(i)
        .Key("name").String(spans[i].name)
        .Key("tag").String(spans[i].tag)
        .Key("start_ms").Number(spans[i].start_ms)
        .Key("end_ms").Number(spans[i].end_ms)
        .Key("self_ms").Number(self[i])
        .Key("parent").Int(spans[i].parent)
        .Key("request").Uint(spans[i].request)
        .EndObject();
  }
  writer.EndArray().EndObject();
  return writer.TakeString();
}

Scope::Scope(SpanStack& stack, const char* name, std::string tag,
             uint64_t request)
    : stack_(stack), start_ms_(NowMs()) {
  if (!stack.log_.enabled()) return;
  if (request == 0 && !stack.open_.empty()) {
    request = stack.open_.back().request;
  }
  id_ = stack.log_.Open(name, std::move(tag), stack.top(), request,
                        start_ms_);
  stack.open_.push_back({id_, request});
}

double Scope::Close() {
  if (duration_ms_ >= 0) return duration_ms_;
  const double end = NowMs();
  duration_ms_ = end - start_ms_;
  if (id_ >= 0) {
    stack_.log_.Close(id_, end);
    // Scopes close innermost-first (RAII), so this is the top entry.
    if (!stack_.open_.empty() && stack_.open_.back().id == id_) {
      stack_.open_.pop_back();
    }
  }
  return duration_ms_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size() &&
        static_cast<size_t>(parent) != i) {
      children[static_cast<size_t>(parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0);
  std::vector<std::pair<double, double>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ms < span.start_ms) continue;  // never closed
    covered.clear();
    for (size_t child : children[i]) {
      const double lo = std::max(spans[child].start_ms, span.start_ms);
      const double hi = std::min(spans[child].end_ms, span.end_ms);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    double union_ms = 0;
    for (size_t c = 0; c < covered.size();) {
      double run_hi = covered[c].second;
      const double run_lo = covered[c].first;
      for (++c; c < covered.size() && covered[c].first <= run_hi; ++c) {
        run_hi = std::max(run_hi, covered[c].second);
      }
      union_ms += run_hi - run_lo;
    }
    self[i] = (span.end_ms - span.start_ms) - union_ms;
  }
  return self;
}

}  // namespace perfbench
