// Catalog search (DC/SD scenario): the e-commerce catalog workload from
// the paper's motivation — generate catalog.xml from the TPC-W-like
// substrate, load it into both a shredding engine and the native engine,
// and answer the same product queries on each, printing answers and
// simulated cost side by side.
#include <cstdio>

#include "datagen/generator.h"
#include "engines/native_engine.h"
#include "engines/shred_engine.h"
#include "workload/classes.h"
#include "workload/queries.h"
#include "workload/runner.h"

int main() {
  using namespace xbench;

  datagen::GenConfig config;
  config.target_bytes = 128 * 1024;
  config.seed = 21;
  datagen::GeneratedDatabase db =
      datagen::Generate(datagen::DbClass::kDcSd, config);
  std::printf("catalog.xml with %lld items (%llu bytes)\n",
              static_cast<long long>(db.seeds.item_count),
              static_cast<unsigned long long>(db.total_bytes));

  engines::NativeEngine native;
  engines::ShredEngine shredded(engines::EngineKind::kShredDb2);
  for (engines::XmlDbms* engine :
       {static_cast<engines::XmlDbms*>(&native),
        static_cast<engines::XmlDbms*>(&shredded)}) {
    Status status =
        engine->BulkLoad(db.db_class, workload::ToLoadDocuments(db));
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", engine->name().c_str(),
                   status.ToString().c_str());
      return 1;
    }
    (void)workload::CreateTable3Indexes(*engine, db.db_class);
  }

  const workload::QueryParams params =
      workload::DeriveParams(db.db_class, db.seeds);
  std::printf("\nlooking up item %s, searching for '%s'\n\n",
              params.item_id.c_str(), params.search_word.c_str());

  for (workload::QueryId id :
       {workload::QueryId::kQ5, workload::QueryId::kQ8,
        workload::QueryId::kQ14, workload::QueryId::kQ17}) {
    std::printf("-- %s (%s)\n", workload::QueryName(id),
                workload::QueryCategory(id));
    for (engines::XmlDbms* engine :
         {static_cast<engines::XmlDbms*>(&shredded),
          static_cast<engines::XmlDbms*>(&native)}) {
      workload::ExecutionResult result =
          workload::RunQuery(*engine, id, db.db_class, params);
      if (!result.status.ok()) {
        std::printf("  %-18s %s\n", engine->name().c_str(),
                    result.status.ToString().c_str());
        continue;
      }
      std::printf("  %-18s %4zu results in %6.1f ms "
                  "(%.1f wall + %.1f virtual I/O)\n",
                  engine->name().c_str(), result.lines.size(),
                  result.TotalMillis(), result.wall_millis, result.io_millis);
      if (!result.lines.empty()) {
        std::printf("    first: %.70s\n", result.lines[0].c_str());
      }
    }
  }
  return 0;
}
