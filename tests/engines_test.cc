#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "engines/clob_engine.h"
#include "engines/native_engine.h"
#include "engines/shred_engine.h"
#include "engines/shredder.h"
#include "datagen/article_generator.h"
#include "storage/page.h"
#include "workload/classes.h"
#include "workload/runner.h"
#include "xml/node_image.h"
#include "xml/parser.h"

namespace xbench::engines {
namespace {

using datagen::DbClass;

datagen::GeneratedDatabase SmallDb(DbClass cls, uint64_t bytes = 64 * 1024) {
  datagen::GenConfig config;
  config.target_bytes = bytes;
  config.seed = 42;
  return datagen::Generate(cls, config);
}

// --- NativeEngine --------------------------------------------------------------

TEST(NativeEngineTest, LoadsAndCountsDocuments) {
  NativeEngine engine;
  auto db = SmallDb(DbClass::kTcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  EXPECT_EQ(engine.document_count(), db.documents.size());
  EXPECT_GT(engine.stored_bytes(), 0u);
}

TEST(NativeEngineTest, RejectsMalformedDocument) {
  NativeEngine engine;
  std::vector<LoadDocument> docs{{"bad.xml", "<a><b></a>"}};
  EXPECT_FALSE(engine.BulkLoad(DbClass::kTcMd, docs).ok());
}

TEST(NativeEngineTest, QueryOverCollection) {
  NativeEngine engine;
  auto db = SmallDb(DbClass::kTcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  auto result = engine.Query("count($input)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToText(), std::to_string(db.documents.size()) + "\n");
}

TEST(NativeEngineTest, IndexNarrowsCandidates) {
  NativeEngine engine;
  auto db = SmallDb(DbClass::kTcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  ASSERT_TRUE(engine.CreateIndex({"article/@id", "article/@id"}).ok());

  const std::string target = datagen::ArticleId(3);
  auto with_index = engine.QueryWithIndex("article/@id", target,
                                          "for $a in $input return $a/@id");
  ASSERT_TRUE(with_index.ok());
  EXPECT_EQ(with_index->ToText(), target + "\n");
}

TEST(NativeEngineTest, IndexLookupChargesLessIoThanScan) {
  NativeEngine engine;
  auto db = SmallDb(DbClass::kTcMd, 256 * 1024);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  ASSERT_TRUE(engine.CreateIndex({"article/@id", "article/@id"}).ok());
  const std::string query = "for $a in $input return $a/@id";
  const std::string target = datagen::ArticleId(3);

  engine.ColdRestart();
  double io0 = engine.IoMillis();
  ASSERT_TRUE(engine.QueryWithIndex("article/@id", target, query).ok());
  const double indexed_io = engine.IoMillis() - io0;

  engine.ColdRestart();
  io0 = engine.IoMillis();
  ASSERT_TRUE(engine.Query(query).ok());
  const double scan_io = engine.IoMillis() - io0;

  EXPECT_LT(indexed_io, scan_io / 2) << "indexed=" << indexed_io
                                     << " scan=" << scan_io;
}

TEST(NativeEngineTest, MissingIndexFallsBackToScan) {
  NativeEngine engine;
  auto db = SmallDb(DbClass::kTcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  auto result =
      engine.QueryWithIndex("no-such-index", "x", "count($input)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ToText(), std::to_string(db.documents.size()) + "\n");
}

TEST(NativeEngineTest, ExtractIndexValues) {
  auto doc = xml::Parse(
      R"(<r><item id="I1"><hw>w1</hw></item><item id="I2"/><hw>w2</hw></r>)",
      "t.xml");
  ASSERT_TRUE(doc.ok());
  auto ids = ExtractIndexValues(*doc->root(), "item/@id");
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], "I1");
  auto hws = ExtractIndexValues(*doc->root(), "hw");
  ASSERT_EQ(hws.size(), 2u);
  EXPECT_EQ(hws[1], "w2");
}

TEST(NativeEngineTest, IndexDdlListsDropsAndSurvivesColdRestart) {
  NativeEngine engine;
  auto db = SmallDb(DbClass::kTcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  IndexSpec value{"article/@id", "article/@id"};
  IndexSpec path;
  path.name = "paths";
  path.kind = IndexKind::kPath;
  IndexSpec text;
  text.name = "words";
  text.kind = IndexKind::kText;
  ASSERT_TRUE(engine.CreateIndex(value).ok());
  ASSERT_TRUE(engine.CreateIndex(path).ok());
  ASSERT_TRUE(engine.CreateIndex(text).ok());
  EXPECT_EQ(engine.CreateIndex(value).code(), StatusCode::kAlreadyExists);

  std::vector<IndexInfo> infos = engine.ListIndexes();
  ASSERT_EQ(infos.size(), 3u);  // creation order
  EXPECT_EQ(infos[0].name, "article/@id");
  EXPECT_EQ(infos[0].kind, IndexKind::kValue);
  EXPECT_EQ(infos[1].name, "paths");
  EXPECT_EQ(infos[1].kind, IndexKind::kPath);
  EXPECT_EQ(infos[2].name, "words");
  EXPECT_EQ(infos[2].kind, IndexKind::kText);
  for (const IndexInfo& info : infos) {
    EXPECT_GT(info.entries, 0u) << info.name;
  }

  ASSERT_TRUE(engine.DropIndex("paths").ok());
  EXPECT_EQ(engine.DropIndex("paths").code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.ListIndexes().size(), 2u);

  // Indexes are part of the collection, not the caches: a cold restart
  // drops pool/document warmth but the catalog and postings remain.
  engine.ColdRestart();
  infos = engine.ListIndexes();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].name, "article/@id");
  EXPECT_EQ(infos[1].name, "words");
  for (const IndexInfo& info : infos) {
    EXPECT_GT(info.entries, 0u) << info.name;
  }
}

TEST(NativeEngineTest, EveryPostingResolvesToItsNodeAcrossColdRestart) {
  for (DbClass cls : {DbClass::kTcSd, DbClass::kTcMd, DbClass::kDcSd,
                      DbClass::kDcMd}) {
    NativeEngine engine;
    auto db = SmallDb(cls, 48 * 1024);
    ASSERT_TRUE(
        engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
    std::vector<IndexSpec> specs = workload::Table3Indexes(cls);
    IndexSpec path;
    path.name = "paths";
    path.kind = IndexKind::kPath;
    IndexSpec text;
    text.name = "words";
    text.kind = IndexKind::kText;
    specs.push_back(path);
    specs.push_back(text);
    for (const IndexSpec& spec : specs) {
      ASSERT_TRUE(engine.CreateIndex(spec).ok()) << spec.name;
    }
    uint64_t entries = 0;
    for (const IndexInfo& info : engine.ListIndexes()) entries += info.entries;

    // Reference trees parsed straight from the generated text; posting
    // ordinals are load positions.
    std::vector<xml::Document> reference;
    std::vector<std::vector<const xml::Node*>> by_order(db.documents.size());
    for (size_t i = 0; i < db.documents.size(); ++i) {
      auto doc = xml::Parse(db.documents[i].text, db.documents[i].name);
      ASSERT_TRUE(doc.ok());
      reference.push_back(std::move(doc).value());
      by_order[i].assign(reference[i].NodeCount() + 1, nullptr);
      reference[i].root()->Visit(
          [&](const xml::Node& node) { by_order[i][node.order()] = &node; });
    }
    // CreateIndex ends in a cold restart, so the first pass materializes
    // every document from its image, the second pass again after one more.
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) engine.ColdRestart();
      uint64_t visited = 0;
      engine.ForEachPosting([&](uint64_t rid, const xml::Node* node) {
        ++visited;
        const size_t ordinal = RidOrdinal(rid);
        const uint32_t order = RidOrder(rid);
        ASSERT_NE(node, nullptr) << "unresolved posting " << rid;
        ASSERT_LT(ordinal, by_order.size());
        ASSERT_LT(order, by_order[ordinal].size());
        EXPECT_EQ(node->order(), order);
        EXPECT_TRUE(node->StructurallyEquals(*by_order[ordinal][order]))
            << datagen::DbClassName(cls) << " posting " << rid;
      });
      EXPECT_EQ(visited, entries) << datagen::DbClassName(cls);
      EXPECT_GT(visited, 0u);
    }
  }
}

TEST(NativeEngineTest, CorruptStoredImageFailsQueriesWithCorruption) {
  enum class Damage { kTruncate, kFlipVersion, kFlipNodeCount };
  for (Damage damage :
       {Damage::kTruncate, Damage::kFlipVersion, Damage::kFlipNodeCount}) {
    NativeEngine engine;
    auto db = SmallDb(DbClass::kTcMd);
    ASSERT_TRUE(
        engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
    ASSERT_TRUE(engine.Query("count($input)").ok());
    engine.ColdRestart();
    // The first document's record opens the heap file's first page:
    // [u32 length][image].
    storage::Page page;
    engine.disk().ReadPage(0, page);
    uint32_t length = 0;
    page.Read(0, &length, sizeof(length));
    auto first = xml::Parse(db.documents[0].text, db.documents[0].name);
    ASSERT_TRUE(first.ok());
    const std::string image = xml::EncodeImage(*first->root());
    ASSERT_EQ(length, image.size());
    ASSERT_EQ(page.bytes[sizeof(length)], xml::kNodeImageVersion);
    switch (damage) {
      case Damage::kTruncate:
        length /= 2;
        page.Write(0, &length, sizeof(length));
        break;
      case Damage::kFlipVersion:
        page.bytes[sizeof(length)] ^= 0x10;
        break;
      case Damage::kFlipNodeCount:
        // Any other count disagrees with the records that follow.
        page.bytes[sizeof(length) + 1] ^= 0x01;
        break;
    }
    engine.disk().WritePage(0, page);
    auto result = engine.Query("count($input)");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption)
        << result.status().ToString();
  }
}

// --- ClobEngine -----------------------------------------------------------------

TEST(ClobEngineTest, RefusesSdClasses) {
  for (DbClass cls : {DbClass::kTcSd, DbClass::kDcSd}) {
    ClobEngine engine;
    auto db = SmallDb(cls);
    Status status = engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db));
    EXPECT_EQ(status.code(), StatusCode::kUnsupported)
        << datagen::DbClassName(cls);
  }
}

TEST(ClobEngineTest, RefusesOversizedDocument) {
  ClobEngine engine(/*max_document_bytes=*/1024);
  std::string big = "<order id=\"O1\">" + std::string(4000, 'x') + "</order>";
  std::vector<LoadDocument> docs{{"order1.xml", big}};
  EXPECT_EQ(engine.BulkLoad(DbClass::kDcMd, docs).code(),
            StatusCode::kUnsupported);
}

TEST(ClobEngineTest, LoadsMdAndFetchesIntactDocuments) {
  ClobEngine engine;
  auto db = SmallDb(DbClass::kDcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());

  // The fetched document equals the original, byte for byte semantics.
  const auto& original = db.documents[0];
  auto fetched = engine.FetchDocument(original.name);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_TRUE((*fetched)->root()->StructurallyEquals(*original.dom.root()));
}

TEST(ClobEngineTest, SideTablesPopulatedWithSeqno) {
  ClobEngine engine;
  auto db = SmallDb(DbClass::kDcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  relational::Table* side = engine.side_tables().FindTable("side_order");
  ASSERT_NE(side, nullptr);
  EXPECT_EQ(side->row_count(),
            static_cast<uint64_t>(db.seeds.order_count));
  // dxx_seqno is kept.
  bool has_seq = false;
  side->Scan([&](storage::RecordId, const relational::Row& row) {
    has_seq = !row[kColSeq].is_null();
    return false;
  });
  EXPECT_TRUE(has_seq);
}

TEST(ClobEngineTest, CreateIndexOnSideTable) {
  ClobEngine engine;
  auto db = SmallDb(DbClass::kDcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  ASSERT_TRUE(engine.CreateIndex({"order/@id", "order/@id"}).ok());
  relational::Table* side = engine.side_tables().FindTable("side_order");
  EXPECT_NE(side->FindIndex("order/@id"), nullptr);
}

// --- ShredEngine -----------------------------------------------------------------

TEST(RelationalEngines, TextAndPathIndexKindsAreNativeOnly) {
  IndexSpec text;
  text.name = "words";
  text.kind = IndexKind::kText;
  IndexSpec path;
  path.name = "paths";
  path.kind = IndexKind::kPath;
  ClobEngine clob;
  ShredEngine shred(EngineKind::kShredMsSql);
  for (XmlDbms* engine : std::initializer_list<XmlDbms*>{&clob, &shred}) {
    EXPECT_EQ(engine->CreateIndex(text).code(), StatusCode::kUnsupported)
        << engine->name();
    EXPECT_EQ(engine->CreateIndex(path).code(), StatusCode::kUnsupported)
        << engine->name();
  }
}

TEST(ShredEngineTest, LoadsAllClassesAtTinyScale) {
  for (DbClass cls : {DbClass::kTcSd, DbClass::kTcMd, DbClass::kDcSd,
                      DbClass::kDcMd}) {
    for (EngineKind kind : {EngineKind::kShredDb2, EngineKind::kShredMsSql}) {
      ShredEngine engine(kind);
      auto db = SmallDb(cls);
      Status status =
          engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db));
      EXPECT_TRUE(status.ok()) << datagen::DbClassName(cls) << " "
                               << EngineKindName(kind) << ": "
                               << status.ToString();
    }
  }
}

TEST(ShredEngineTest, Db2RowLimitRejectsBigSingleDocuments) {
  ShredEngine engine(EngineKind::kShredDb2);
  // A dictionary big enough to decompose into > 2 * 1024 rows per table.
  auto db = SmallDb(DbClass::kTcSd, 3 * 1024 * 1024);
  Status status = engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db));
  EXPECT_EQ(status.code(), StatusCode::kUnsupported) << status.ToString();
}

TEST(ShredEngineTest, MsSqlHasNoRowLimit) {
  ShredEngine engine(EngineKind::kShredMsSql);
  auto db = SmallDb(DbClass::kTcSd, 3 * 1024 * 1024);
  EXPECT_TRUE(
      engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
}

TEST(ShredEngineTest, PkFkIndexesAutoCreated) {
  ShredEngine engine(EngineKind::kShredDb2);
  auto db = SmallDb(DbClass::kDcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  relational::Table* orders = engine.tables().FindTable("order_tab");
  ASSERT_NE(orders, nullptr);
  EXPECT_NE(orders->FindIndex("order_tab_pk"), nullptr);
  EXPECT_NE(orders->FindIndex("order_tab_fk"), nullptr);
}

TEST(ShredEngineTest, RowCountsMatchGeneratedData) {
  ShredEngine engine(EngineKind::kShredDb2);
  auto db = SmallDb(DbClass::kDcMd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  EXPECT_EQ(engine.tables().FindTable("order_tab")->row_count(),
            static_cast<uint64_t>(db.seeds.order_count));
  EXPECT_EQ(engine.tables().FindTable("customer_tab")->row_count(),
            static_cast<uint64_t>(db.seeds.customer_count));
}

TEST(ShredEngineTest, Table3IndexCreation) {
  ShredEngine engine(EngineKind::kShredMsSql);
  auto db = SmallDb(DbClass::kDcSd);
  ASSERT_TRUE(engine.BulkLoad(db.db_class, workload::ToLoadDocuments(db)).ok());
  ASSERT_TRUE(workload::CreateTable3Indexes(engine, DbClass::kDcSd).ok());
  relational::Table* items = engine.tables().FindTable("item_tab");
  EXPECT_NE(items->FindIndex("item/@id"), nullptr);
  EXPECT_NE(items->FindIndex("date_of_release"), nullptr);
}

TEST(EngineFactoryTest, MakesAllKinds) {
  for (EngineKind kind : workload::AllEngines()) {
    auto engine = workload::MakeEngine(kind);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_FALSE(engine->name().empty());
  }
}

}  // namespace
}  // namespace xbench::engines
