// perfbench: the XBench repository benchmark (README.md in this directory).
//
//   perfbench --workload paper_cold|warm_mpl4|load_update --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// Drives the public APIs directly — datagen::Generate, workload::BulkLoad /
// CreateTable3Indexes, XmlDbms::{ColdRestart, InsertDocument,
// DeleteDocument} and workload::Session::Run — and times every call on the
// steady clock, scaled to a reference host speed (speed.h). No metric is
// taken from harness::Driver tables, ThroughputDriver makespans or the
// simulated disk's virtual clock; the virtual clock appears once, as the
// per-layer counter storage.virtual_io_ms_per_op. obs::Tracer stays
// disabled (the XBENCH_* environment hooks are never installed); --trace 1
// records the benchmark's own spans instead.
//
// Every statement's answer is hashed and compared with an untimed
// reference run of the same (engine, class, query); a mismatch is a failed
// operation and the run exits nonzero. The last line of standard output is
// the result object; the lines before it carry provenance, the cell list
// and the per-cell answer hashes.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "engines/dbms.h"
#include "engines/native_engine.h"
#include "engines/registry.h"
#include "obs/json.h"
#include "result.h"
#include "spans.h"
#include "speed.h"
#include "stats.h"
#include "workload/classes.h"
#include "workload/queries.h"
#include "workload/runner.h"
#include "workload/session.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/plan/cache.h"

namespace perfbench {
namespace {

namespace datagen = xbench::datagen;
namespace engines = xbench::engines;
namespace workload = xbench::workload;
using datagen::DbClass;
using engines::EngineKind;
using engines::LoadDocument;
using workload::ExecutionResult;
using workload::IoStats;
using workload::QueryId;
using workload::Session;
using xbench::Status;
using xbench::StatusCode;

constexpr uint64_t kMiB = 1 << 20;
// paper_cold and warm_mpl4 use the repository's `normal` scale: every
// stored image (170-616 pages) fits the 2048-frame buffer pool.
constexpr uint64_t kPaperBytes = 2 * kMiB;
// load_update: stored images of 1798-6108 pages, most larger than the pool.
constexpr uint64_t kLoadBytes = 20 * kMiB;
// load_update loads every (engine, class) cell this many times and reports
// each at its median load time; the last set of cells is kept.
constexpr int kLoadRepeats = 2;
// Size of the seed+1 generation the inserted documents are taken from.
constexpr uint64_t kInsertPoolBytes = 64 * 1024;
constexpr int kSetupRepeats = 3;
constexpr int kSessions = 4;
constexpr size_t kInsertDocs = 2;
// Update phases cycle round-robin over the MD cells; the native cell, the
// only native one per class, runs several rounds per cycle. load_update
// runs kNativeRoundsPerCycle of them and at least kMinUpdateCycles cycles
// per class, so the native engine reads 2 classes x 5 cycles x 2 rounds x
// 10 statements = 200 times, the fewest samples p95 accepts.
constexpr int kNativeRoundsPerCycle = 2;
constexpr int kMinUpdateCycles = 5;
// The update checks that follow the timed windows of paper_cold and
// warm_mpl4 (they report update metrics on their pool-resident data): this
// many seconds in total, at least kMinProbeCycles cycles per check. A
// native round costs a tenth of a relational one there, so the native cell
// runs kNativeProbeRounds rounds per cycle to match the relational cells'
// sample counts.
constexpr double kProbeSeconds = 4.5;
constexpr int kMinProbeCycles = 2;
constexpr int kNativeProbeRounds = 6;
// Trace-only side measurements (MPL scaling, cold-minus-warm repeats).
constexpr double kMplProbeSeconds = 2.0;
constexpr int kColdWarmRepeats = 3;
constexpr double kMB = 1e6;

workload::RunOptions WarmOptions() {
  workload::RunOptions options;
  options.cold = false;
  return options;
}
const workload::RunOptions kWarm = WarmOptions();

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_out;
};

const char* ClassTag(DbClass cls) {
  switch (cls) {
    case DbClass::kTcSd:
      return "tcsd";
    case DbClass::kTcMd:
      return "tcmd";
    case DbClass::kDcSd:
      return "dcsd";
    case DbClass::kDcMd:
      return "dcmd";
  }
  return "?";
}

bool IsMultiDocument(DbClass cls) {
  return cls == DbClass::kTcMd || cls == DbClass::kDcMd;
}

std::string Hex(uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, value);
  return buf;
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / kMB;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- accounting ------------------------------------------------------------

/// Checked operations and the reasons any of them failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Ok() { ++attempted; }
  void Fail(std::string what) {
    ++attempted;
    ++failed;
    Error(std::move(what));
  }
  /// A failed run-level check (cell coverage, sample floors, cross-engine
  /// agreement): no operation, but the run is not correct.
  void Error(std::string what) {
    if (errors.size() < 50) errors.push_back(std::move(what));
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) Error(e);
  }
};

/// Everything one thread measures over the calls it times.
struct Counters {
  Tally tally;
  // Statement latencies by statement tag ("native/tcsd Q8").
  std::map<std::string, std::vector<double>> statement_ms;
  // Timed operations (statements, inserts, deletes) and their summed wall
  // time.
  uint64_t ops = 0;
  double busy_ms = 0;
  // Per-layer counters over those operations.
  uint64_t native_statements = 0;
  uint64_t relational_statements = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t rows_out = 0;
  uint64_t native_page_reads = 0;
  uint64_t relational_page_reads = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t evictions = 0;
  double virtual_io_ms = 0;
  std::vector<double> cold_restart_ms;
  // Update latencies by cell and document ("native/tcmd bench_new_a.xml").
  std::map<std::string, std::vector<double>> insert_ms;
  std::map<std::string, std::vector<double>> delete_ms;

  void Merge(const Counters& o) {
    tally.Merge(o.tally);
    for (const auto& [k, v] : o.statement_ms) {
      statement_ms[k].insert(statement_ms[k].end(), v.begin(), v.end());
    }
    ops += o.ops;
    busy_ms += o.busy_ms;
    native_statements += o.native_statements;
    relational_statements += o.relational_statements;
    plan_cache_hits += o.plan_cache_hits;
    rows_out += o.rows_out;
    native_page_reads += o.native_page_reads;
    relational_page_reads += o.relational_page_reads;
    pool_hits += o.pool_hits;
    pool_misses += o.pool_misses;
    evictions += o.evictions;
    virtual_io_ms += o.virtual_io_ms;
    cold_restart_ms.insert(cold_restart_ms.end(), o.cold_restart_ms.begin(),
                           o.cold_restart_ms.end());
    for (const auto& [k, v] : o.insert_ms) {
      insert_ms[k].insert(insert_ms[k].end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : o.delete_ms) {
      delete_ms[k].insert(delete_ms[k].end(), v.begin(), v.end());
    }
  }
};

/// Every generation and load of the run, over all of its set-ups.
struct LoadTally {
  struct CellLoads {
    std::string engine;       // registry name
    double bytes = 0;         // input bytes of one load
    double stored_bytes = 0;  // stored image after one load
    std::vector<double> load_ms;
    std::vector<double> index_ms;
  };
  std::map<std::string, CellLoads> cells;  // by cell name ("native/tcsd")
  uint64_t page_writes = 0;
  double input_bytes = 0;
  double gen_bytes = 0;
  double gen_ms = 0;

  /// Input MB loaded per second by the cells whose engine `select`
  /// accepts, each at its median time over the set-ups, so one disturbed
  /// set-up does not move the rate.
  template <typename Select>
  double MbPerS(Select select, bool with_index) const {
    double bytes = 0;
    double ms = 0;
    for (const auto& [name, cell] : cells) {
      if (!select(cell.engine)) continue;
      bytes += cell.bytes;
      ms += Median(cell.load_ms) + (with_index ? Median(cell.index_ms) : 0);
    }
    return Ratio(bytes / kMB, ms / 1000);
  }
  /// One set-up's index build time on `engine` (all classes it hosts).
  double IndexMs(const std::string& engine) const {
    double ms = 0;
    for (const auto& [name, cell] : cells) {
      if (cell.engine == engine) ms += Median(cell.index_ms);
    }
    return ms;
  }
  double StoredPerInputByte(const std::string& engine) const {
    double stored = 0;
    double bytes = 0;
    for (const auto& [name, cell] : cells) {
      if (cell.engine != engine) continue;
      stored += cell.stored_bytes;
      bytes += cell.bytes;
    }
    return Ratio(stored, bytes);
  }
};

/// Inserts plus deletes per second on one engine family: one insert and
/// one delete of each document on each cell, each at its interquartile
/// mean. Cells differ in cost by several times, and the first document of
/// a round costs about three times the second, so a pooled median would
/// sit between modes and jump with the share of samples each got.
double UpdateOpsPerS(const Counters& counters, bool native) {
  double ms = 0;
  int ops = 0;
  for (const auto* times : {&counters.insert_ms, &counters.delete_ms}) {
    for (const auto& [key, samples] : *times) {
      if ((key.rfind("native/", 0) == 0) != native) continue;
      ms += InterquartileMean(samples);
      ++ops;
    }
  }
  return 1000 * Ratio(ops, ms);
}

/// Every sample of `engine`'s cells.
std::vector<double> EngineSamples(
    const std::map<std::string, std::vector<double>>& by_cell,
    const std::string& engine) {
  std::vector<double> samples;
  for (const auto& [cell, values] : by_cell) {
    if (cell.rfind(engine + "/", 0) != 0) continue;
    samples.insert(samples.end(), values.begin(), values.end());
  }
  return samples;
}

/// Trace-only layer measurements.
struct LayerProbes {
  double parse_bytes = 0;
  double parse_ms = 0;
  double serialize_bytes = 0;
  double serialize_ms = 0;
  std::map<std::string, std::vector<double>> cold_minus_warm_ms;  // by class
  std::map<std::string, std::vector<double>> compile_ms;          // by class
  double mpl_scaling = 0;
  double untraced_ops_per_ms = 0;
  double traced_ops_per_ms = 0;
};

// --- cells -----------------------------------------------------------------

/// One statement of a cell: its query, the reference answer hash from the
/// untimed setup run, and (after the first update round) the answer hash
/// with the fresh documents inserted.
struct Query {
  QueryId id;
  uint64_t reference = 0;
  size_t reference_lines = 0;
  std::optional<uint64_t> after_insert;
  std::string tag;
};

/// One (engine, class) pair that loaded.
struct Cell {
  EngineKind kind;
  DbClass cls;
  std::unique_ptr<engines::XmlDbms> engine;
  workload::QueryParams params;
  std::vector<Query> queries;
  const std::vector<LoadDocument>* inserts = nullptr;  // MD classes
  uint64_t executed = 0;  // timed statements in the measured window(s)

  bool native() const { return kind == EngineKind::kNative; }
  std::string name() const {
    return std::string(engines::EngineKindRegistryName(kind)) + "/" +
           ClassTag(cls);
  }
};

/// Generated input of one class.
struct ClassInput {
  DbClass cls;
  datagen::GeneratedDatabase db;
  workload::QueryParams params;
  std::vector<LoadDocument> inserts;
};

struct StatementRef {
  Cell* cell;
  size_t slot;
};

// --- the run ---------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options options)
      : opt_(std::move(options)), log_(opt_.trace), stack_(log_) {}

  int Run();

 private:
  // Set-up.
  ClassInput GenerateInput(DbClass cls, uint64_t bytes);
  std::vector<std::unique_ptr<Cell>> LoadCells(ClassInput& input);
  void FreeDoms(ClassInput& input);
  void PrepareStatements(Cell& cell, bool all_native_queries, bool cold);
  void CrossCheck(const std::vector<std::unique_ptr<Cell>>& cells);
  void BuildPaperSetup(bool all_native_queries, bool cold_reference);
  void RecordHash(const std::string& key, uint64_t hash);

  // Timed calls.
  std::optional<uint64_t> TimedStatement(Cell& cell, Session& session,
                                         const Query& query,
                                         std::optional<uint64_t> expected,
                                         Counters& sink, SpanStack& stack);
  void TimedColdRestart(Cell& cell, Counters& sink, SpanStack& stack);
  bool TimedUpdate(Cell& cell, bool insert, const LoadDocument& doc,
                   Counters& sink, SpanStack& stack);
  void UpdateRound(Cell& cell, Session& session, Counters& sink);

  // Loops. `busy_ms` is the scaled time one client spent in timed calls:
  // the clients' summed call time over their number, so that ops / busy_ms
  // is the loop's throughput (Little's law for a closed loop). The cold
  // loop's ColdRestart calls are kept out.
  struct LoopResult {
    uint64_t ops = 0;
    double busy_ms = 0;
  };
  LoopResult ColdWindow(double seconds);
  LoopResult ClosedLoop(const std::vector<StatementRef>& statements,
                        int sessions, double seconds, Counters& sink,
                        bool count_cells);
  double UpdatePhase(const std::vector<Cell*>& cells, double seconds,
                     int min_cycles, int native_rounds, Counters& sink);
  std::vector<StatementRef> Statements() const;
  std::vector<Cell*> MultiDocumentCells() const;

  // Trace-only layer probes.
  void ParseSerializeProbe(const ClassInput& input);
  void CompileProbe(Cell& cell);
  void ColdWarmProbe(Cell& cell);
  void MplProbe(double four_session_ops_per_ms);

  // Workloads.
  void Paper(bool warm);
  void LoadUpdate();

  void SampleRss() { peak_rss_mb_ = std::max(peak_rss_mb_, RssMb()); }
  void CheckCoverage(const std::vector<Cell*>& cells);
  RunResult Finish();
  void PrintCells() const;

  Options opt_;
  SpanLog log_;
  SpanStack stack_;

  std::vector<ClassInput> inputs_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::vector<std::string> excluded_;
  std::map<std::string, uint64_t> class_bytes_;
  std::map<std::string, uint64_t> hashes_;
  std::vector<std::string> hash_lines_;

  Counters window_;   // the measured window(s): end-to-end samples
  Counters side_;     // set-up, probes and update checks
  LoadTally loads_;
  std::vector<double> setup_ms_;
  double peak_rss_mb_ = 0;
  LayerProbes layers_;
};

ClassInput Bench::GenerateInput(DbClass cls, uint64_t bytes) {
  ClassInput input;
  input.cls = cls;
  datagen::GenConfig config;
  config.target_bytes = bytes;
  config.seed = opt_.seed;
  {
    Scope span(stack_, "datagen.Generate", ClassTag(cls));
    input.db = datagen::Generate(cls, config);
    loads_.gen_ms += span.Close();
  }
  loads_.gen_bytes += static_cast<double>(input.db.total_bytes);
  input.params = workload::DeriveParams(cls, input.db.seeds);
  class_bytes_[ClassTag(cls)] = input.db.total_bytes;
  if (!IsMultiDocument(cls)) return input;

  // Fresh documents for the update rounds: the class's repeated document
  // kind, generated from seed + 1 and renamed so no name collides.
  config.target_bytes = kInsertPoolBytes;
  config.seed = opt_.seed + 1;
  datagen::GeneratedDatabase extra;
  {
    Scope span(stack_, "datagen.Generate", std::string(ClassTag(cls)) + "+1");
    extra = datagen::Generate(cls, config);
    loads_.gen_ms += span.Close();
  }
  loads_.gen_bytes += static_cast<double>(extra.total_bytes);
  const std::string prefix = cls == DbClass::kDcMd ? "order" : "article";
  for (datagen::GeneratedDocument& doc : extra.documents) {
    if (input.inserts.size() == kInsertDocs) break;
    if (doc.name.rfind(prefix, 0) != 0) continue;
    input.inserts.push_back({"bench_new_" + doc.name, std::move(doc.text)});
  }
  if (input.inserts.size() < kInsertDocs) {
    side_.tally.Error(std::string(ClassTag(cls)) +
                      ": too few fresh documents to insert");
  }
  return input;
}

std::vector<std::unique_ptr<Cell>> Bench::LoadCells(ClassInput& input) {
  std::vector<std::unique_ptr<Cell>> cells;
  for (EngineKind kind : workload::AllEngines()) {
    auto cell = std::make_unique<Cell>();
    cell->kind = kind;
    cell->cls = input.cls;
    cell->engine = workload::MakeEngine(kind);
    cell->params = input.params;
    if (IsMultiDocument(input.cls)) cell->inserts = &input.inserts;
    const std::string name = cell->name();
    const std::string engine = engines::EngineKindRegistryName(kind);

    const IoStats io_before = workload::ThreadIoSnapshot();
    const double load_scale = ReferenceScale();
    Scope load_span(stack_, "workload.BulkLoad", name);
    const workload::TimedStatus loaded =
        workload::BulkLoad(*cell->engine, input.db);
    const double load_ms = Scaled(load_span.Close(), load_scale);
    if (loaded.status.code() == StatusCode::kUnsupported) {
      // The paper's "-" cells: listed, not run, not failures. Any other
      // refusal would silently shrink the workload, so it fails the run.
      excluded_.push_back(name + ": " + loaded.status.message());
      const bool paper_dash =
          (kind == EngineKind::kClob || kind == EngineKind::kShredDb2) &&
          !IsMultiDocument(input.cls);
      if (!paper_dash) side_.tally.Error(name + ": unexpectedly unsupported");
      continue;
    }
    if (!loaded.status.ok()) {
      side_.tally.Fail(name + " BulkLoad: " + loaded.status.ToString());
      continue;
    }
    const double index_scale = ReferenceScale();
    Scope index_span(stack_, "workload.CreateTable3Indexes", name);
    const Status indexed =
        workload::CreateTable3Indexes(*cell->engine, input.cls);
    const double index_ms = Scaled(index_span.Close(), index_scale);
    if (!indexed.ok()) {
      side_.tally.Fail(name + " CreateTable3Indexes: " + indexed.ToString());
      continue;
    }
    side_.tally.Ok();
    const IoStats io =
        workload::IoStatsDelta(io_before, workload::ThreadIoSnapshot());
    loads_.page_writes += io.disk_page_writes;
    loads_.input_bytes += static_cast<double>(input.db.total_bytes);
    LoadTally::CellLoads& tally = loads_.cells[name];
    tally.engine = engine;
    tally.bytes = static_cast<double>(input.db.total_bytes);
    tally.stored_bytes = static_cast<double>(cell->engine->disk().SizeBytes());
    tally.load_ms.push_back(load_ms);
    tally.index_ms.push_back(index_ms);
    cells.push_back(std::move(cell));
  }
  return cells;
}

void Bench::FreeDoms(ClassInput& input) {
  // The engines hold their own copies now; dropping the generated trees
  // keeps peak_rss_mb about the engines, not the generator.
  for (datagen::GeneratedDocument& doc : input.db.documents) {
    doc.dom = xbench::xml::Document();
  }
  malloc_trim(0);
}

void Bench::PrepareStatements(Cell& cell, bool all_native_queries,
                              bool cold) {
  std::vector<QueryId> candidates = workload::BenchmarkSubset();
  if (all_native_queries && cell.native()) {
    candidates.clear();
    for (int i = 0; i < 20; ++i) candidates.push_back(static_cast<QueryId>(i));
  } else if (all_native_queries) {
    excluded_.push_back(cell.name() +
                        " outside Q5/Q8/Q12/Q14/Q17: relational plans "
                        "serve the paper's subset only");
  }
  Session session(*cell.engine, cell.cls, cell.params, "reference");
  for (QueryId id : candidates) {
    const std::string tag = cell.name() + " " + workload::QueryName(id);
    if (workload::XQueryFor(id, cell.cls, cell.params).empty()) {
      excluded_.push_back(tag + ": not defined for the class");
      continue;
    }
    if (cold) cell.engine->ColdRestart();
    Scope span(stack_, "workload.Session.Run", tag + " reference");
    ExecutionResult result = session.Run(id, kWarm);
    span.Close();
    if (!result.status.ok()) {
      side_.tally.Fail(tag + " reference: " + result.status.ToString());
      continue;
    }
    side_.tally.Ok();
    const std::vector<std::string> answer =
        workload::CanonicalizeAnswer(id, std::move(result.lines));
    Query query{id, workload::AnswerHash(answer), answer.size(), {}, tag};
    RecordHash(tag, query.reference);
    cell.queries.push_back(std::move(query));
  }
  if (cell.queries.empty()) {
    side_.tally.Error(cell.name() + ": no statement to run");
  }
}

// The rule tests/cross_engine_test.cc states for the paper's subset: the
// native engine is the reference; Xcolumn keeps documents intact and must
// agree exactly; shredded engines must agree on value-shaped answers and
// on the presence of fragment-shaped ones; SQL Server's TC/SD answers that
// depend on mixed content are the paper's documented incorrect results.
void Bench::CrossCheck(const std::vector<std::unique_ptr<Cell>>& cells) {
  for (const auto& native : cells) {
    if (!native->native()) continue;
    for (const auto& other : cells) {
      if (other->native() || other->cls != native->cls) continue;
      for (const Query& mine : other->queries) {
        const auto ref = std::find_if(
            native->queries.begin(), native->queries.end(),
            [&](const Query& q) { return q.id == mine.id; });
        if (ref == native->queries.end()) continue;
        const bool fragment = workload::AnswerShapeFor(mine.id) ==
                              workload::AnswerShape::kOrderedFragment;
        const bool mixed_content =
            other->kind == EngineKind::kShredMsSql &&
            other->cls == DbClass::kTcSd &&
            (mine.id == QueryId::kQ5 || mine.id == QueryId::kQ8 ||
             mine.id == QueryId::kQ12 || mine.id == QueryId::kQ17);
        bool agree = true;
        if (other->kind == EngineKind::kClob || (!fragment && !mixed_content)) {
          agree = mine.reference == ref->reference;
        } else if (fragment) {
          agree = (mine.reference_lines == 0) == (ref->reference_lines == 0);
        }
        if (!agree) {
          side_.tally.Error(mine.tag + ": disagrees with the native answer " +
                            Hex(ref->reference));
        }
      }
    }
  }
}

// Builds the whole set-up from scratch, dropping the previous one first so
// only one set is resident.
void Bench::BuildPaperSetup(bool all_native_queries, bool cold_reference) {
  cells_.clear();
  inputs_.clear();
  excluded_.clear();
  malloc_trim(0);
  Scope setup(stack_, "bench.setup");
  // Scaled step by step, so each step is scaled by the speed it ran at.
  ScaledStopwatch clock;
  double setup_ms = 0;
  inputs_.reserve(workload::AllClasses().size());
  for (DbClass cls : workload::AllClasses()) {
    inputs_.push_back(GenerateInput(cls, kPaperBytes));
    setup_ms += clock.Lap();
  }
  for (ClassInput& input : inputs_) {
    for (auto& cell : LoadCells(input)) cells_.push_back(std::move(cell));
    FreeDoms(input);
    setup_ms += clock.Lap();
  }
  for (auto& cell : cells_) {
    PrepareStatements(*cell, all_native_queries, cold_reference);
    setup_ms += clock.Lap();
  }
  CrossCheck(cells_);
  setup_ms_.push_back(setup_ms + clock.Lap());
}

void Bench::RecordHash(const std::string& key, uint64_t hash) {
  const auto [it, inserted] = hashes_.emplace(key, hash);
  if (inserted) {
    hash_lines_.push_back(key + " " + Hex(hash));
  } else if (it->second != hash) {
    // Every set-up of a run generates the same data from the same seed.
    side_.tally.Error(key + ": answer " + Hex(hash) + " differs from " +
                      Hex(it->second) + " in an earlier set-up");
  }
}

// --- timed calls -----------------------------------------------------------

std::optional<uint64_t> Bench::TimedStatement(
    Cell& cell, Session& session, const Query& query,
    std::optional<uint64_t> expected, Counters& sink, SpanStack& stack) {
  const double scale = ReferenceScale();
  Scope span(stack, "workload.Session.Run",
             stack.log().enabled() ? query.tag : std::string());
  ExecutionResult result = session.Run(query.id, kWarm);
  const double ms = Scaled(span.Close(), scale);
  if (!result.status.ok()) {
    sink.tally.Fail(query.tag + ": " + result.status.ToString());
    return std::nullopt;
  }
  const uint64_t hash = workload::AnswerHash(
      workload::CanonicalizeAnswer(query.id, std::move(result.lines)));
  if (expected && hash != *expected) {
    sink.tally.Fail(query.tag + ": answer " + Hex(hash) + " != expected " +
                    Hex(*expected));
    return std::nullopt;
  }
  sink.tally.Ok();
  ++sink.ops;
  sink.busy_ms += ms;
  sink.statement_ms[query.tag].push_back(ms);
  if (cell.native()) {
    ++sink.native_statements;
    sink.plan_cache_hits += result.plan_cache_hit ? 1 : 0;
    for (const auto& op : result.plan_stats.operators) {
      sink.rows_out += op.rows_out;
    }
    sink.native_page_reads += result.io.disk_page_reads;
  } else {
    ++sink.relational_statements;
    sink.relational_page_reads += result.io.disk_page_reads;
  }
  sink.pool_hits += result.io.pool_hits;
  sink.pool_misses += result.io.pool_misses;
  sink.evictions += result.io.pool_evictions;
  sink.virtual_io_ms += result.io_millis;
  return hash;
}

void Bench::TimedColdRestart(Cell& cell, Counters& sink, SpanStack& stack) {
  Scope span(stack, "engines.ColdRestart",
             stack.log().enabled() ? cell.name() : std::string());
  cell.engine->ColdRestart();
  sink.cold_restart_ms.push_back(span.Close());
}

bool Bench::TimedUpdate(Cell& cell, bool insert, const LoadDocument& doc,
                        Counters& sink, SpanStack& stack) {
  const IoStats io_before = workload::ThreadIoSnapshot();
  const double virtual_before = workload::ThreadIoMillis();
  const double scale = ReferenceScale();
  Scope span(stack,
             insert ? "engines.InsertDocument" : "engines.DeleteDocument",
             stack.log().enabled() ? cell.name() + " " + doc.name
                                   : std::string());
  const Status status = insert ? cell.engine->InsertDocument(doc)
                               : cell.engine->DeleteDocument(doc.name);
  const double ms = Scaled(span.Close(), scale);
  if (!status.ok()) {
    sink.tally.Fail(cell.name() + (insert ? " insert " : " delete ") +
                    doc.name + ": " + status.ToString());
    return false;
  }
  sink.tally.Ok();
  const IoStats io =
      workload::IoStatsDelta(io_before, workload::ThreadIoSnapshot());
  (insert ? sink.insert_ms : sink.delete_ms)[cell.name() + " " + doc.name]
      .push_back(ms);
  ++sink.ops;
  sink.busy_ms += ms;
  sink.pool_hits += io.pool_hits;
  sink.pool_misses += io.pool_misses;
  sink.evictions += io.pool_evictions;
  sink.virtual_io_ms += workload::ThreadIoMillis() - virtual_before;
  return true;
}

// Insert the class's fresh documents, read every statement, delete them,
// read again. Post-insert answers must repeat the first round's; post-delete
// answers must repeat the set-up references.
void Bench::UpdateRound(Cell& cell, Session& session, Counters& sink) {
  Scope round(stack_, "bench.update_round",
              log_.enabled() ? cell.name() : std::string(),
              log_.enabled() ? log_.NextRequest() : 0);
  for (const LoadDocument& doc : *cell.inserts) {
    TimedUpdate(cell, /*insert=*/true, doc, sink, stack_);
  }
  for (Query& query : cell.queries) {
    const std::optional<uint64_t> hash = TimedStatement(
        cell, session, query, query.after_insert, sink, stack_);
    if (hash && !query.after_insert) {
      query.after_insert = hash;
      RecordHash(query.tag + " after-insert", *hash);
    }
  }
  for (const LoadDocument& doc : *cell.inserts) {
    TimedUpdate(cell, /*insert=*/false, doc, sink, stack_);
  }
  for (const Query& query : cell.queries) {
    TimedStatement(cell, session, query, query.reference, sink, stack_);
  }
}

// --- loops -----------------------------------------------------------------

std::vector<StatementRef> Bench::Statements() const {
  std::vector<StatementRef> statements;
  for (const auto& cell : cells_) {
    for (size_t slot = 0; slot < cell->queries.size(); ++slot) {
      statements.push_back({cell.get(), slot});
    }
  }
  return statements;
}

std::vector<Cell*> Bench::MultiDocumentCells() const {
  std::vector<Cell*> cells;
  for (const auto& cell : cells_) {
    if (IsMultiDocument(cell->cls)) cells.push_back(cell.get());
  }
  return cells;
}

// The paper's cold methodology: every statement runs right after a
// ColdRestart, which is timed on its own and kept out of the latency.
// Whole rounds run until `seconds` have passed and both engine families
// have the samples p95 needs.
Bench::LoopResult Bench::ColdWindow(double seconds) {
  const size_t floor = MinSamplesForQuantile(0.95);
  const double start = NowMs();
  const double cap_ms = std::max(3 * seconds, seconds + 30) * 1000;
  Counters counters;
  std::vector<Session> sessions;
  for (const auto& cell : cells_) {
    sessions.emplace_back(*cell->engine, cell->cls, cell->params, "cold");
  }
  Scope window(stack_, "bench.window", "cold");
  while (NowMs() - start < seconds * 1000 ||
         window_.native_statements + counters.native_statements < floor ||
         window_.relational_statements + counters.relational_statements <
             floor) {
    if (NowMs() - start > cap_ms) break;
    for (size_t c = 0; c < cells_.size(); ++c) {
      Cell& cell = *cells_[c];
      for (const Query& query : cell.queries) {
        Scope statement(stack_, "bench.statement",
                        log_.enabled() ? query.tag : std::string(),
                        log_.enabled() ? log_.NextRequest() : 0);
        // The reference kernel, when due, runs before the restart, not
        // between it and the cold statement.
        ReferenceScale();
        TimedColdRestart(cell, counters, stack_);
        if (TimedStatement(cell, sessions[c], query, query.reference,
                           counters, stack_)) {
          ++cell.executed;
        }
      }
    }
    SampleRss();
  }
  window.Close();
  window_.Merge(counters);
  return {counters.ops, counters.busy_ms};
}

// A closed loop of `sessions` clients on one thread each. Client i walks
// the statement list from offset i * n / sessions, each statement warm, in
// whole passes until `seconds` have passed. Whole passes run every
// statement equally often: one statement (native TC/SD Q3, ~0.4 s) takes
// most of a pass, so a pass cut at the deadline would move the mean
// latency, and with it ops_per_s, by whether it reached that statement.
Bench::LoopResult Bench::ClosedLoop(const std::vector<StatementRef>& statements,
                                    int sessions, double seconds,
                                    Counters& sink, bool count_cells) {
  LoopResult result;
  if (statements.empty()) return result;
  std::vector<Counters> counters(static_cast<size_t>(sessions));
  std::vector<std::vector<uint64_t>> executed(
      static_cast<size_t>(sessions),
      std::vector<uint64_t>(cells_.size(), 0));
  Scope window(stack_, "bench.window",
               log_.enabled() ? "mpl" + std::to_string(sessions)
                              : std::string());
  const int64_t parent = window.id();
  const double deadline = NowMs() + seconds * 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < sessions; ++t) {
    threads.emplace_back([&, t] {
      SpanStack stack(log_, parent);
      Scope session_span(stack, "bench.session",
                         log_.enabled() ? "session" + std::to_string(t)
                                        : std::string());
      std::vector<Session> own;
      std::map<const Cell*, size_t> index;
      for (size_t c = 0; c < cells_.size(); ++c) {
        own.emplace_back(*cells_[c]->engine, cells_[c]->cls,
                         cells_[c]->params, "mpl");
        index[cells_[c].get()] = c;
      }
      Counters& mine = counters[static_cast<size_t>(t)];
      const size_t first = statements.size() * static_cast<size_t>(t) /
                           static_cast<size_t>(sessions);
      // Every client completes at least one pass, so every cell runs.
      do {
        for (size_t k = 0; k < statements.size(); ++k) {
          const StatementRef& ref = statements[(first + k) % statements.size()];
          const size_t c = index[ref.cell];
          const Query& query = ref.cell->queries[ref.slot];
          if (TimedStatement(*ref.cell, own[c], query, query.reference, mine,
                             stack)) {
            ++executed[static_cast<size_t>(t)][c];
          }
        }
      } while (NowMs() < deadline);
    });
  }
  for (std::thread& thread : threads) thread.join();
  window.Close();
  for (size_t t = 0; t < counters.size(); ++t) {
    result.ops += counters[t].ops;
    result.busy_ms += counters[t].busy_ms / static_cast<double>(sessions);
    sink.Merge(counters[t]);
    if (!count_cells) continue;
    for (size_t c = 0; c < cells_.size(); ++c) {
      cells_[c]->executed += executed[t][c];
    }
  }
  return result;
}

// Update cycles over `cells` until `seconds` have passed and `min_cycles`
// cycles ran; a cycle is one round per relational cell and `native_rounds`
// on the native cell. Returns the timed operations per ms.
double Bench::UpdatePhase(const std::vector<Cell*>& cells, double seconds,
                          int min_cycles, int native_rounds, Counters& sink) {
  std::vector<Session> sessions;
  for (Cell* cell : cells) {
    sessions.emplace_back(*cell->engine, cell->cls, cell->params, "update");
  }
  const uint64_t ops_before = sink.ops;
  const double busy_before = sink.busy_ms;
  const double start = NowMs();
  const double cap_ms = std::max(4 * seconds, seconds + 30) * 1000;
  Scope window(stack_, "bench.window", "update");
  for (int cycle = 0;
       cycle < min_cycles || NowMs() - start < seconds * 1000; ++cycle) {
    if (NowMs() - start > cap_ms) break;
    for (size_t c = 0; c < cells.size(); ++c) {
      const uint64_t before = sink.native_statements +
                              sink.relational_statements;
      const int rounds = cells[c]->native() ? native_rounds : 1;
      for (int round = 0; round < rounds; ++round) {
        UpdateRound(*cells[c], sessions[c], sink);
      }
      cells[c]->executed +=
          sink.native_statements + sink.relational_statements - before;
    }
    SampleRss();
  }
  return Ratio(static_cast<double>(sink.ops - ops_before),
               sink.busy_ms - busy_before);
}

// --- trace-only probes -----------------------------------------------------

// Re-parses the stored document texts (the work a native cold access
// repeats) and serializes the parsed trees; the round trip must reproduce
// the stored text.
void Bench::ParseSerializeProbe(const ClassInput& input) {
  for (const datagen::GeneratedDocument& doc : input.db.documents) {
    Scope parse_span(stack_, "xml.Parse", doc.name);
    auto parsed = xbench::xml::Parse(doc.text, doc.name);
    layers_.parse_ms += parse_span.Close();
    layers_.parse_bytes += static_cast<double>(doc.text.size());
    if (!parsed.ok()) {
      side_.tally.Fail(doc.name + " parse: " + parsed.status().ToString());
      continue;
    }
    Scope serialize_span(stack_, "xml.Serialize", doc.name);
    const std::string text = xbench::xml::Serialize(*parsed);
    layers_.serialize_ms += serialize_span.Close();
    layers_.serialize_bytes += static_cast<double>(text.size());
    if (text != doc.text) {
      side_.tally.Fail(doc.name + ": parse/serialize round trip differs");
    } else {
      side_.tally.Ok();
    }
  }
}

// Statement preparation as Session::Run does it on a plan-cache miss:
// schema analysis, then planning against the engine's index catalog.
void Bench::CompileProbe(Cell& cell) {
  auto& native = static_cast<engines::NativeEngine&>(*cell.engine);
  const xbench::xquery::plan::IndexCatalog catalog =
      native.IndexCatalogSnapshot();
  xbench::xquery::plan::CompilationOptions options;
  options.access_path.allow_guided = native.guided_eval_enabled();
  for (const Query& query : cell.queries) {
    Scope span(stack_, "xquery.compile", query.tag);
    auto analyzed = workload::AnalyzeForClassFull(
        workload::XQueryFor(query.id, cell.cls, cell.params), cell.cls);
    if (!analyzed.ok()) {
      side_.tally.Fail(query.tag + " analyze: " +
                       analyzed.status().ToString());
      continue;
    }
    auto compiled = xbench::xquery::plan::Compile(
        std::move(analyzed->ast), &analyzed->report.annotations, options,
        &catalog);
    const double ms = span.Close();
    if (!compiled.ok()) {
      side_.tally.Fail(query.tag + " compile: " +
                       compiled.status().ToString());
      continue;
    }
    side_.tally.Ok();
    layers_.compile_ms[ClassTag(cell.cls)].push_back(ms);
  }
}

void Bench::ColdWarmProbe(Cell& cell) {
  Session session(*cell.engine, cell.cls, cell.params, "coldwarm");
  for (int rep = 0; rep < kColdWarmRepeats; ++rep) {
    for (const Query& query : cell.queries) {
      TimedColdRestart(cell, side_, stack_);
      Counters cold;
      Counters warm;
      if (!TimedStatement(cell, session, query, query.reference, cold,
                          stack_) ||
          !TimedStatement(cell, session, query, query.reference, warm,
                          stack_)) {
        side_.tally.Merge(cold.tally);
        side_.tally.Merge(warm.tally);
        continue;
      }
      side_.tally.Merge(cold.tally);
      side_.tally.Merge(warm.tally);
      layers_.cold_minus_warm_ms[ClassTag(cell.cls)].push_back(
          cold.busy_ms - warm.busy_ms);
    }
  }
}

// workload.mpl_scaling: throughput at four sessions over four times the
// throughput of one, on the resident cells' warm statements.
void Bench::MplProbe(double four_session_ops_per_ms) {
  const std::vector<StatementRef> statements = Statements();
  Counters sink;
  if (four_session_ops_per_ms <= 0) {
    const LoopResult four =
        ClosedLoop(statements, kSessions, kMplProbeSeconds, sink, false);
    four_session_ops_per_ms =
        Ratio(static_cast<double>(four.ops), four.busy_ms);
  }
  const LoopResult one =
      ClosedLoop(statements, 1, kMplProbeSeconds, sink, false);
  side_.tally.Merge(sink.tally);
  layers_.mpl_scaling =
      Ratio(four_session_ops_per_ms,
            kSessions * Ratio(static_cast<double>(one.ops), one.busy_ms));
}

// --- workloads -------------------------------------------------------------

void Bench::CheckCoverage(const std::vector<Cell*>& cells) {
  for (const Cell* cell : cells) {
    if (cell->executed == 0) {
      side_.tally.Error(cell->name() + ": listed but never executed");
    }
  }
  if (window_.native_statements == 0 || window_.relational_statements == 0) {
    side_.tally.Error(
        "a measured window ran no statement of one engine family");
  }
}

// paper_cold and warm_mpl4. The run is kSetupRepeats segments, each a fresh
// set-up, its share of the measured window and an update check on its MD
// cells: spreading set-ups, windows and update checks over the whole run
// lets each of them see the same mix of machine states. With --trace 1 each
// window share runs half with the span log off and half with it on; the
// difference is the trace overhead.
void Bench::Paper(bool warm) {
  const double seconds = static_cast<double>(opt_.seconds) / kSetupRepeats;
  LoopResult untraced;
  LoopResult traced;
  for (int segment = 0; segment < kSetupRepeats; ++segment) {
    // warm_mpl4's reference pass is its untimed warm-up: it fills the plan
    // cache, the native document cache and the buffer pools.
    BuildPaperSetup(/*all_native_queries=*/warm, /*cold_reference=*/!warm);
    SampleRss();
    for (int half = 0; half < (opt_.trace ? 2 : 1); ++half) {
      const bool on = opt_.trace && half == 1;
      log_.set_enabled(on);
      const double share = opt_.trace ? seconds / 2 : seconds;
      const LoopResult r =
          warm ? ClosedLoop(Statements(), kSessions, share, window_, true)
               : ColdWindow(share);
      LoopResult& sum = on ? traced : untraced;
      sum.ops += r.ops;
      sum.busy_ms += r.busy_ms;
    }
    log_.set_enabled(opt_.trace);
    SampleRss();
    std::vector<Cell*> all;
    for (auto& cell : cells_) all.push_back(cell.get());
    CheckCoverage(all);

    if (opt_.trace && segment + 1 == kSetupRepeats) {
      MplProbe(warm ? Ratio(static_cast<double>(traced.ops), traced.busy_ms)
                    : 0);
      for (const ClassInput& input : inputs_) ParseSerializeProbe(input);
      for (auto& cell : cells_) {
        if (!cell->native()) continue;
        CompileProbe(*cell);
        ColdWarmProbe(*cell);
      }
    }
    // Last: the update rounds mutate the cells, which the next segment
    // rebuilds anyway.
    UpdatePhase(MultiDocumentCells(), kProbeSeconds / kSetupRepeats,
                kMinProbeCycles, kNativeProbeRounds, side_);
  }
  layers_.untraced_ops_per_ms =
      Ratio(static_cast<double>(untraced.ops), untraced.busy_ms);
  layers_.traced_ops_per_ms =
      Ratio(static_cast<double>(traced.ops), traced.busy_ms);
}

// One class resident at a time. Phase 1 (timed): bulk load plus Table 3
// indexes for every engine. Phase 2 (timed, MD classes): update rounds.
void Bench::LoadUpdate() {
  std::vector<double> generate_ms(kSetupRepeats, 0);
  double reference_ms = 0;
  const double class_seconds = opt_.seconds / 2.0;
  for (DbClass cls : workload::AllClasses()) {
    cells_.clear();
    inputs_.clear();
    malloc_trim(0);
    // Set-up: generation, repeated; the last repetition is loaded.
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      inputs_.clear();
      ScaledStopwatch clock;
      inputs_.push_back(GenerateInput(cls, kLoadBytes));
      generate_ms[static_cast<size_t>(rep)] += clock.Lap();
    }
    ClassInput& input = inputs_.back();
    for (int rep = 0; rep < kLoadRepeats; ++rep) {
      cells_.clear();
      malloc_trim(0);
      Scope phase(stack_, "bench.load", ClassTag(cls));
      cells_ = LoadCells(input);
    }
    FreeDoms(input);
    SampleRss();
    if (IsMultiDocument(cls)) {
      ScaledStopwatch clock;
      for (auto& cell : cells_) {
        PrepareStatements(*cell, false, false);
        reference_ms += clock.Lap();
      }
      CrossCheck(cells_);
      reference_ms += clock.Lap();
      std::vector<Cell*> cells;
      for (auto& cell : cells_) cells.push_back(cell.get());
      if (opt_.trace) {
        log_.set_enabled(false);
        const double a =
            UpdatePhase(cells, class_seconds / 2, (kMinUpdateCycles + 1) / 2,
                        kNativeRoundsPerCycle, window_);
        log_.set_enabled(true);
        const double b =
            UpdatePhase(cells, class_seconds / 2, (kMinUpdateCycles + 1) / 2,
                        kNativeRoundsPerCycle, window_);
        layers_.untraced_ops_per_ms += a / 2;
        layers_.traced_ops_per_ms += b / 2;
      } else {
        UpdatePhase(cells, class_seconds, kMinUpdateCycles,
                    kNativeRoundsPerCycle, window_);
      }
      CheckCoverage(cells);
    } else if (opt_.trace) {
      for (auto& cell : cells_) {
        if (cell->native()) PrepareStatements(*cell, false, true);
      }
    }
    if (opt_.trace) {
      ParseSerializeProbe(input);
      for (auto& cell : cells_) {
        if (!cell->native()) continue;
        CompileProbe(*cell);
        ColdWarmProbe(*cell);
      }
      if (cls == workload::AllClasses().back()) MplProbe(0);
    }
  }
  setup_ms_.push_back(Median(generate_ms) + reference_ms);
}

// --- output ----------------------------------------------------------------

void Bench::PrintCells() const {
  // load_update loads each cell more than once; list each exclusion once.
  std::set<std::string> printed;
  for (const std::string& line : excluded_) {
    if (!printed.insert(line).second) continue;
    std::printf("perfbench excluded %s\n", line.c_str());
  }
  for (const std::string& line : hash_lines_) {
    std::printf("perfbench hash %s\n", line.c_str());
  }
}

RunResult Bench::Finish() {
  RunResult result;
  Tally tally = side_.tally;
  tally.Merge(window_.tally);
  std::vector<Metric>& m = result.metrics;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const LoadTally& loads = loads_;

  if (!opt_.trace) {
    add("setup_s", Median(setup_ms_) / 1000, "s");
    // Every timed operation at the interquartile mean of its kind (its
    // statement, or its update of one document on one cell), over the
    // clients' time: sessions / mean latency, the closed loop's throughput.
    double typical_ms = 0;
    uint64_t ops = 0;
    for (const auto* by_kind :
         {&window_.statement_ms, &window_.insert_ms, &window_.delete_ms}) {
      for (const auto& [kind, samples] : *by_kind) {
        typical_ms += static_cast<double>(samples.size()) *
                      InterquartileMean(samples);
        ops += samples.size();
      }
    }
    const int sessions = opt_.workload == "warm_mpl4" ? kSessions : 1;
    add("ops_per_s",
        1000 * sessions * Ratio(static_cast<double>(ops), typical_ms), "1/s");
    for (const std::string family : {"native", "relational"}) {
      // The family's statements are a handful of (class, query) cells whose
      // latencies differ by orders of magnitude, so a pooled median lands
      // in the gap between two cells and jumps between them from run to
      // run. The typical latency is therefore the geometric mean over
      // cells of each cell's interquartile mean; the tail is the pooled
      // p95. Some cells are bimodal (a cold native DC/MD Q5 takes 0.2 or
      // 7 ms, as the allocator's state happens to be), and the
      // interquartile mean moves smoothly with the share of each mode where
      // a median jumps between them.
      std::vector<double> pooled;
      std::vector<double> cell_means;
      for (const auto& [tag, samples] : window_.statement_ms) {
        if ((tag.rfind("native/", 0) == 0) != (family == "native")) continue;
        pooled.insert(pooled.end(), samples.begin(), samples.end());
        cell_means.push_back(InterquartileMean(samples));
      }
      add(family + "_cell_gmean_ms", GeometricMean(cell_means), "ms");
      const std::optional<double> p95 = Quantile(pooled, 0.95);
      if (!p95) {
        tally.Error(family + " p95 needs " +
                    std::to_string(MinSamplesForQuantile(0.95)) +
                    " samples, got " + std::to_string(pooled.size()));
      }
      add(family + "_p95_ms", p95.value_or(0), "ms");
    }
    auto native = [](const std::string& e) { return e == "native"; };
    auto relational = [](const std::string& e) { return e != "native"; };
    add("native_load_mb_per_s", loads.MbPerS(native, true), "MB/s");
    add("relational_load_mb_per_s", loads.MbPerS(relational, true), "MB/s");
    const Counters& updates = opt_.workload == "load_update" ? window_ : side_;
    add("native_update_ops_per_s", UpdateOpsPerS(updates, true), "1/s");
    add("relational_update_ops_per_s", UpdateOpsPerS(updates, false), "1/s");
    add("peak_rss_mb", peak_rss_mb_, "MB");
  } else {
    const Counters& updates = opt_.workload == "load_update" ? window_ : side_;
    add("datagen.mb_per_s",
        Ratio(loads.gen_bytes / kMB, loads.gen_ms / 1000), "MB/s");
    add("xml.parse_mb_per_s",
        Ratio(layers_.parse_bytes / kMB, layers_.parse_ms / 1000), "MB/s");
    add("xml.serialize_mb_per_s",
        Ratio(layers_.serialize_bytes / kMB, layers_.serialize_ms / 1000),
        "MB/s");
    for (DbClass cls : workload::AllClasses()) {
      add(std::string("engines.native.cold_minus_warm_ms.") + ClassTag(cls),
          Median(layers_.cold_minus_warm_ms[ClassTag(cls)]), "ms");
    }
    for (EngineKind kind : workload::AllEngines()) {
      const std::string e = engines::EngineKindRegistryName(kind);
      add("engines." + e + ".load_mb_per_s",
          loads.MbPerS([&e](const std::string& x) { return x == e; }, false),
          "MB/s");
      add("engines." + e + ".index_build_ms", loads.IndexMs(e), "ms");
      add("engines." + e + ".insert_p50_ms",
          Median(EngineSamples(updates.insert_ms, e)), "ms");
      add("engines." + e + ".delete_p50_ms",
          Median(EngineSamples(updates.delete_ms, e)), "ms");
    }
    std::vector<double> restarts = window_.cold_restart_ms;
    restarts.insert(restarts.end(), side_.cold_restart_ms.begin(),
                    side_.cold_restart_ms.end());
    add("engines.cold_restart_ms", Median(restarts), "ms");
    for (DbClass cls : workload::AllClasses()) {
      add(std::string("xquery.compile_ms.") + ClassTag(cls),
          Median(layers_.compile_ms[ClassTag(cls)]), "ms");
    }
    const Counters& w = window_;
    add("xquery.plan_cache_hit_ratio",
        Ratio(static_cast<double>(w.plan_cache_hits),
              static_cast<double>(w.native_statements)),
        "ratio");
    add("xquery.rows_out_per_op",
        Ratio(static_cast<double>(w.rows_out),
              static_cast<double>(w.native_statements)),
        "count");
    add("storage.native.page_reads_per_op",
        Ratio(static_cast<double>(w.native_page_reads),
              static_cast<double>(w.native_statements)),
        "count");
    add("storage.relational.page_reads_per_op",
        Ratio(static_cast<double>(w.relational_page_reads),
              static_cast<double>(w.relational_statements)),
        "count");
    add("storage.pool_hit_ratio",
        Ratio(static_cast<double>(w.pool_hits),
              static_cast<double>(w.pool_hits + w.pool_misses)),
        "ratio");
    add("storage.evictions_per_op",
        Ratio(static_cast<double>(w.evictions), static_cast<double>(w.ops)),
        "count");
    add("storage.page_writes_per_input_mb",
        Ratio(static_cast<double>(loads.page_writes), loads.input_bytes / kMB),
        "count");
    for (EngineKind kind : workload::AllEngines()) {
      const std::string e = engines::EngineKindRegistryName(kind);
      add("storage.stored_bytes_per_input_byte." + e,
          loads.StoredPerInputByte(e),
          "ratio");
    }
    // Modelled, not measured: the simulated disk's virtual clock.
    add("storage.virtual_io_ms_per_op",
        Ratio(w.virtual_io_ms, static_cast<double>(w.ops)), "virtual-ms");
    add("workload.mpl_scaling", layers_.mpl_scaling, "ratio");
    add("bench.trace_overhead_pct",
        100 * (Ratio(layers_.untraced_ops_per_ms, layers_.traced_ops_per_ms) -
               1),
        "%");
    // Share of the traced windows' time no timed call covers.
    const std::vector<Span> spans = log_.Snapshot();
    const std::vector<double> self = SelfTimes(spans);
    double window_ms = 0;
    double window_self_ms = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != "bench.window") continue;
      window_ms += spans[i].end_ms - spans[i].start_ms;
      window_self_ms += self[i];
    }
    add("bench.window_self_pct", 100 * Ratio(window_self_ms, window_ms), "%");
  }
  for (const Metric& metric : m) {
    if (!std::isfinite(metric.value)) {
      tally.Error(metric.name + " is not finite");
    }
  }
  result.attempted = tally.attempted;
  result.failed = tally.failed;
  result.correct = tally.failed == 0 && tally.errors.empty();
  for (const std::string& error : tally.errors) {
    std::printf("perfbench error %s\n", error.c_str());
  }
  return result;
}

int Bench::Run() {
  if (opt_.workload == "paper_cold") {
    Paper(/*warm=*/false);
  } else if (opt_.workload == "warm_mpl4") {
    Paper(/*warm=*/true);
  } else {
    LoadUpdate();
  }
  PrintCells();

  const KernelSummary kernel = ReferenceKernelSummary();
  xbench::obs::JsonWriter provenance;
  provenance.BeginObject()
      .Key("workload").String(opt_.workload)
      .Key("seed").Uint(opt_.seed)
      .Key("seconds").Int(opt_.seconds)
      .Key("trace").Bool(opt_.trace)
      .Key("class_bytes").BeginObject();
  for (const auto& [cls, bytes] : class_bytes_) provenance.Key(cls).Uint(bytes);
  provenance.EndObject()
      .Key("build_type").String(PERFBENCH_BUILD_TYPE)
      .Key("compiler").String(PERFBENCH_COMPILER)
      .Key("nproc").Uint(std::thread::hardware_concurrency())
      .Key("reference_kernel_ms").Number(kernel.median_ms)
      .Key("reference_kernel_runs").Uint(kernel.runs)
      .EndObject();
  std::printf("perfbench provenance %s\n", provenance.str().c_str());

  RunResult result = Finish();
  if (opt_.trace && !opt_.trace_out.empty()) {
    const Status written =
        xbench::obs::WriteFile(opt_.trace_out, log_.ToJson());
    if (!written.ok()) {
      std::printf("perfbench error trace: %s\n", written.ToString().c_str());
      result.correct = false;
    }
  }
  std::printf("%s\n", ResultLine(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_cold|warm_mpl4|load_update "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      const long seconds = std::strtol(value.c_str(), &end, 10);
      const bool valid = end != value.c_str() && *end == '\0' &&
                         seconds >= 1 && seconds <= 3600;
      options.seconds = valid ? static_cast<int>(seconds) : 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return perfbench::Usage();
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || options.seconds < 1 ||
      (options.workload != "paper_cold" && options.workload != "warm_mpl4" &&
       options.workload != "load_update")) {
    return perfbench::Usage();
  }
  return perfbench::Bench(std::move(options)).Run();
}
