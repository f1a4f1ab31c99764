#include "workload/runner.h"

#include <algorithm>

#include "analysis/analyzer.h"
#include "analysis/class_schemas.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_io.h"
#include "engines/native_engine.h"
#include "engines/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/classes.h"
#include "workload/session.h"
#include "xquery/parser.h"

namespace xbench::workload {

using engines::EngineKind;

const std::vector<EngineKind>& AllEngines() {
  static const auto* kEngines = new std::vector<EngineKind>{
      EngineKind::kClob, EngineKind::kShredDb2, EngineKind::kShredMsSql,
      EngineKind::kNative};
  return *kEngines;
}

std::unique_ptr<engines::XmlDbms> MakeEngine(EngineKind kind) {
  auto created = engines::EngineRegistry::Default().Create(
      engines::EngineKindRegistryName(kind));
  return created.ok() ? std::move(created).value() : nullptr;
}

std::vector<engines::LoadDocument> ToLoadDocuments(
    const datagen::GeneratedDatabase& db) {
  std::vector<engines::LoadDocument> docs;
  docs.reserve(db.documents.size());
  for (const datagen::GeneratedDocument& doc : db.documents) {
    docs.push_back({doc.name, doc.text});
  }
  return docs;
}

IoStats CaptureIoStats(const engines::XmlDbms& engine) {
  const storage::PoolCounters pool = engine.pool().counters();
  const storage::SimulatedDisk& disk = engine.disk();
  IoStats stats;
  stats.pool_hits = pool.hits;
  stats.pool_misses = pool.misses;
  stats.pool_evictions = pool.evictions;
  stats.pool_writebacks = pool.writebacks;
  stats.disk_page_reads = disk.reads();
  stats.disk_page_writes = disk.writes();
  stats.disk_bytes_read = disk.bytes_read();
  stats.disk_bytes_written = disk.bytes_written();
  return stats;
}

IoStats ThreadIoSnapshot() {
  const ThreadIoCounters& mine = ThisThreadIo();
  IoStats stats;
  stats.pool_hits = mine.pool_hits;
  stats.pool_misses = mine.pool_misses;
  stats.pool_evictions = mine.pool_evictions;
  stats.pool_writebacks = mine.pool_writebacks;
  stats.disk_page_reads = mine.disk_page_reads;
  stats.disk_page_writes = mine.disk_page_writes;
  stats.disk_bytes_read = mine.disk_bytes_read;
  stats.disk_bytes_written = mine.disk_bytes_written;
  return stats;
}

double ThreadIoMillis() {
  return static_cast<double>(ThisThreadIo().io_micros) / 1000.0;
}

IoStats IoStatsDelta(const IoStats& before, const IoStats& after) {
  IoStats delta;
  delta.pool_hits = after.pool_hits - before.pool_hits;
  delta.pool_misses = after.pool_misses - before.pool_misses;
  delta.pool_evictions = after.pool_evictions - before.pool_evictions;
  delta.pool_writebacks = after.pool_writebacks - before.pool_writebacks;
  delta.disk_page_reads = after.disk_page_reads - before.disk_page_reads;
  delta.disk_page_writes = after.disk_page_writes - before.disk_page_writes;
  delta.disk_bytes_read = after.disk_bytes_read - before.disk_bytes_read;
  delta.disk_bytes_written =
      after.disk_bytes_written - before.disk_bytes_written;
  return delta;
}

TimedStatus BulkLoad(engines::XmlDbms& engine,
                     const datagen::GeneratedDatabase& db) {
  TimedStatus timed;
  obs::ScopedClockSource clock_scope(engine.disk().clock());
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::ScopedSpan span(
      tracer.enabled()
          ? "bulkload." + std::string(datagen::DbClassName(db.db_class)) +
                "." + engine.name()
          : std::string(),
      tracer);
  // Loads are attributed per-thread like queries, so a load on one session
  // and queries on others keep disjoint, exact deltas.
  const IoStats io_before = ThreadIoSnapshot();
  const double io_millis_before = ThreadIoMillis();
  Stopwatch watch;
  timed.status = engine.BulkLoad(db.db_class, ToLoadDocuments(db));
  timed.wall_millis = watch.ElapsedMillis();
  timed.io_millis = ThreadIoMillis() - io_millis_before;
  timed.io = IoStatsDelta(io_before, ThreadIoSnapshot());
  if (timed.status.ok() && engine.kind() == EngineKind::kNative) {
    // Guided descendant evaluation (Step::expansions) is sound only when
    // the loaded collection conforms to the canonical schema the analyzer
    // resolved the chains from. Benchmark databases are generated with
    // user-configured size/seed, so conformance is checked per load — over
    // the already-materialized DOMs, outside the timed region.
    const Status conforms = analysis::ValidateDatabaseForGuidedEval(db);
    if (!conforms.ok()) {
      obs::MetricsRegistry::Default()
          .GetCounter("xbench.analysis.guided_eval_disabled")
          .Increment();
    }
    static_cast<engines::NativeEngine&>(engine).set_guided_eval_enabled(
        conforms.ok());
  }
  return timed;
}

Status CreateTable3Indexes(engines::XmlDbms& engine,
                           datagen::DbClass db_class) {
  for (const engines::IndexSpec& spec : Table3Indexes(db_class)) {
    Status status = engine.CreateIndex(spec);
    // Some engines cannot index paths outside their side tables; that is
    // a configuration fact, not an error (the paper also only creates
    // indexes "that can be implemented for all systems" best-effort).
    if (!status.ok() && status.code() != StatusCode::kNotFound) {
      return status;
    }
  }
  return Status::Ok();
}

Result<xquery::ExprPtr> AnalyzeForClass(const std::string& xquery,
                                        datagen::DbClass db_class) {
  XBENCH_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                          AnalyzeForClassFull(xquery, db_class));
  return std::move(analyzed.ast);
}

Result<AnalyzedQuery> AnalyzeForClassFull(const std::string& xquery,
                                          datagen::DbClass db_class,
                                          double* parse_millis,
                                          double* analyze_millis) {
  AnalyzedQuery analyzed;
  Stopwatch parse_watch;
  XBENCH_ASSIGN_OR_RETURN(analyzed.ast, xquery::ParseQuery(xquery));
  if (parse_millis != nullptr) *parse_millis = parse_watch.ElapsedMillis();
  const analysis::ClassSchema& schema =
      analysis::CanonicalClassSchema(db_class);
  Stopwatch analyze_watch;
  XBENCH_RETURN_IF_ERROR(analysis::AnalyzeQuery(*analyzed.ast, schema.dtd,
                                                &schema.summary, schema.roots,
                                                &analyzed.report));
  if (analyze_millis != nullptr) {
    *analyze_millis = analyze_watch.ElapsedMillis();
  }
  return analyzed;
}

ExecutionResult RunQuery(engines::XmlDbms& engine, QueryId id,
                         datagen::DbClass db_class, const QueryParams& params,
                         const RunOptions& options) {
  Session session(engine, db_class, params, "one-shot");
  return session.Run(id, options);
}

std::vector<std::string> CanonicalizeAnswer(QueryId id,
                                            std::vector<std::string> lines) {
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (AnswerShapeFor(id) == AnswerShape::kValueSet) {
    std::sort(lines.begin(), lines.end());
  }
  return lines;
}

uint64_t AnswerHash(const std::vector<std::string>& lines) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  auto mix = [&hash](char c) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;  // FNV-1a prime
  };
  for (const std::string& line : lines) {
    for (char c : line) mix(c);
    mix('\n');
  }
  return hash;
}

}  // namespace xbench::workload
