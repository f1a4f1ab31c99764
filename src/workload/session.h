#ifndef XBENCH_WORKLOAD_SESSION_H_
#define XBENCH_WORKLOAD_SESSION_H_

#include <cstdint>
#include <string>

#include "datagen/generator.h"
#include "engines/dbms.h"
#include "workload/queries.h"
#include "workload/runner.h"

namespace xbench::workload {

/// Running totals over one session's statements.
struct SessionStats {
  uint64_t queries_run = 0;
  uint64_t failures = 0;
  double wall_millis = 0;
  double io_millis = 0;
  IoStats io;
};

/// One client's handle onto a shared engine — the unit of concurrency for
/// multi-programming-level runs. A Session owns its query parameters, its
/// per-operator plan statistics and its I/O attribution; any number of
/// sessions may call Run() on the same engine from different threads
/// concurrently and each still reports exact per-statement wall/io splits
/// (per-thread virtual-I/O attribution, see common/thread_io.h).
///
/// Locking: the native engine takes the collection lock shared inside its
/// query entry points; for the CLOB/shred engines — whose statements span
/// several engine calls — the Session holds the lock shared around the
/// whole statement. Either way mutations (BulkLoad etc.) serialize
/// against in-flight statements, never interleave with them.
///
/// A Session must not migrate between threads mid-statement (per-thread
/// attribution would tear); using one Session from one thread at a time
/// is the intended pattern.
class Session {
 public:
  /// `engine` must outlive the session. `params` become the session's
  /// default parameter set; `name` labels throughput reports.
  Session(engines::XmlDbms& engine, datagen::DbClass db_class,
          QueryParams params, std::string name = "session");

  /// Executes query `id` with the session's parameters.
  ExecutionResult Run(QueryId id, const RunOptions& options = {});

  /// Executes query `id` with one-off parameters.
  ExecutionResult Run(QueryId id, const QueryParams& params,
                      const RunOptions& options = {});

  /// Index DDL, statement-style: delegates to the session's engine, which
  /// serializes DDL against in-flight statements on the collection lock.
  /// Engines reject kinds they cannot host with kUnsupported (only the
  /// native engine serves kPath/kText); the native engine invalidates its
  /// plan cache and bumps its catalog epoch, so statements compiled before
  /// the DDL never run with a stale access-path choice.
  Status CreateIndex(const engines::IndexSpec& spec) {
    return engine_->CreateIndex(spec);
  }
  Status DropIndex(const std::string& name) {
    return engine_->DropIndex(name);
  }
  std::vector<engines::IndexInfo> ListIndexes() const {
    return engine_->ListIndexes();
  }

  engines::XmlDbms& engine() { return *engine_; }
  datagen::DbClass db_class() const { return db_class_; }
  const QueryParams& params() const { return params_; }
  const std::string& name() const { return name_; }

  /// Totals across every Run() so far.
  const SessionStats& stats() const { return stats_; }

 private:
  engines::XmlDbms* engine_;
  datagen::DbClass db_class_;
  QueryParams params_;
  std::string name_;
  SessionStats stats_;
};

}  // namespace xbench::workload

#endif  // XBENCH_WORKLOAD_SESSION_H_
