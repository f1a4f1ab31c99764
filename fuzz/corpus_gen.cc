// Generates the checked-in seed corpus under fuzz/corpus/ from the same
// deterministic sources the benchmark itself uses: datagen sample
// documents per class (xml/), their stored node images (image/), the
// canonical class DTDs (dtd/), the 20 canned queries instantiated per
// class (xquery/), and representative observability JSON documents
// (json/).
//
//   corpus_gen <corpus-root>
//
// Output is a pure function of the datagen seed, so re-running over a
// clean tree is a no-op diff; the corpus only changes when the generators
// or the canned queries change, which is exactly when it should.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/class_schemas.h"
#include "datagen/generator.h"
#include "workload/queries.h"
#include "xml/node_image.h"
#include "xml/parser.h"

namespace {

namespace fs = std::filesystem;
using xbench::datagen::DbClass;
using xbench::workload::QueryId;

constexpr DbClass kClasses[] = {DbClass::kTcSd, DbClass::kTcMd,
                                DbClass::kDcSd, DbClass::kDcMd};

// Filename-safe class tags ("TC/SD" has a path separator).
const char* Tag(DbClass cls) {
  switch (cls) {
    case DbClass::kTcSd: return "tcsd";
    case DbClass::kTcMd: return "tcmd";
    case DbClass::kDcSd: return "dcsd";
    case DbClass::kDcMd: return "dcmd";
  }
  return "unknown";
}

bool WriteFile(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) {
    std::fprintf(stderr, "corpus_gen: cannot write %s\n",
                 path.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root(argv[1]);
  std::error_code ec;
  for (const char* kind : {"xml", "image", "dtd", "xquery", "json"}) {
    fs::create_directories(root / kind, ec);
    if (ec) {
      std::fprintf(stderr, "corpus_gen: cannot create %s/%s: %s\n",
                   root.string().c_str(), kind, ec.message().c_str());
      return 2;
    }
  }
  size_t files = 0;

  // xml/: a small deterministic sample database per class; keep only the
  // first two documents so the checked-in corpus stays compact (the
  // mutation loop explores from these seeds).
  xbench::datagen::GenConfig config;
  config.seed = 42;
  config.target_bytes = 16 << 10;
  for (DbClass cls : kClasses) {
    const auto db = xbench::datagen::Generate(cls, config);
    size_t kept = 0;
    for (const auto& doc : db.documents) {
      if (kept == 2) break;
      char name[64];
      std::snprintf(name, sizeof(name), "%s_%zu.xml", Tag(cls), kept);
      if (!WriteFile(root / "xml" / name, doc.text)) return 1;
      // image/: the same document as the native engine stores it.
      auto parsed = xbench::xml::Parse(doc.text, doc.name);
      if (!parsed.ok()) {
        std::fprintf(stderr, "corpus_gen: %s: %s\n", doc.name.c_str(),
                     parsed.status().ToString().c_str());
        return 1;
      }
      std::snprintf(name, sizeof(name), "%s_%zu.img", Tag(cls), kept);
      if (!WriteFile(root / "image" / name,
                     xbench::xml::EncodeImage(*parsed->root()))) {
        return 1;
      }
      files += 2;
      ++kept;
    }
  }

  // dtd/: the canonical inferred DTD of each class.
  for (DbClass cls : kClasses) {
    const auto& schema = xbench::analysis::CanonicalClassSchema(cls);
    if (!WriteFile(root / "dtd" / (std::string(Tag(cls)) + ".dtd"),
                   schema.dtd_text)) {
      return 1;
    }
    ++files;
  }

  // xquery/: every canned query defined for each class, with parameters
  // bound from the canonical sample's workload seeds.
  for (DbClass cls : kClasses) {
    const auto& schema = xbench::analysis::CanonicalClassSchema(cls);
    const auto params = xbench::workload::DeriveParams(cls, schema.seeds);
    for (int q = 0; q < 20; ++q) {
      const auto id = static_cast<QueryId>(q);
      const std::string text = xbench::workload::XQueryFor(id, cls, params);
      if (text.empty()) continue;  // query not defined for this class
      char name[64];
      std::snprintf(name, sizeof(name), "q%02d_%s.xq", q + 1, Tag(cls));
      if (!WriteFile(root / "xquery" / name, text)) return 1;
      ++files;
    }
  }

  // json/: documents shaped like the observability outputs (metrics
  // export, trace spans) plus literal-edge cases the parser must keep
  // rejecting consistently with ValidateJson.
  const std::vector<std::pair<const char*, const char*>> json_samples = {
      {"metrics.json",
       "{\"metrics\":[{\"name\":\"xbench_query_latency_seconds\","
       "\"labels\":{\"query\":\"Q5\",\"class\":\"DC/SD\"},"
       "\"quantiles\":[0.5,0.95,0.99],\"values\":[0.0012,0.0034,0.0051]}],"
       "\"dropped\":0}"},
      {"trace.json",
       "{\"spans\":[{\"id\":1,\"parent\":null,\"op\":\"parse\","
       "\"dur_us\":812},{\"id\":2,\"parent\":1,\"op\":\"plan\","
       "\"dur_us\":94,\"tags\":{\"guided\":true}}]}"},
      {"scalars.json", "[true,false,null,-0.5,1234567890,\"\\u0041\\n\"]"},
      {"nested.json", "{\"a\":[[[{\"b\":[{}]}]]],\"c\":\"\"}"},
  };
  for (const auto& [name, text] : json_samples) {
    if (!WriteFile(root / "json" / name, text)) return 1;
    ++files;
  }

  std::printf("corpus_gen: wrote %zu files under %s\n", files,
              root.string().c_str());
  return 0;
}
