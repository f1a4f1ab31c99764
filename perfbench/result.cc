#include "result.h"

#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace perfbench {
namespace {

void AppendString(std::string& out, const std::string& text) {
  out += '"';
  xbench::obs::JsonEscape(text, out);
  out += '"';
}

}  // namespace

std::string ResultLine(const RunResult& result) {
  // obs::JsonWriter rounds numbers to six decimals, which would flatten
  // sub-microsecond latencies; the line is short enough to write by hand.
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) out += ',';
    AppendString(out, metric.name);
    out += ":{\"value\":";
    if (std::isfinite(metric.value)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
      out += buf;
    } else {
      out += "null";
    }
    out += ",\"unit\":";
    AppendString(out, metric.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
