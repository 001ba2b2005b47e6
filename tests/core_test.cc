#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "bench/baselines/delta_fti.h"
#include "src/core/database.h"
#include "src/xml/parser.h"
#include "src/workload/restaurant.h"
#include "src/workload/tdocgen.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

void LoadFigure1(TemporalXmlDatabase* db) {
  for (const Figure1Version& version : Figure1History()) {
    auto put = db->PutDocumentAt(kGuideUrl, version.xml, version.ts);
    ASSERT_TRUE(put.ok()) << put.status().ToString();
  }
}

TEST(DatabaseTest, PutAssignsCommitTimestamps) {
  TemporalXmlDatabase db;
  auto r1 = db.PutDocument("u", "<d><x>1</x></d>");
  ASSERT_TRUE(r1.ok());
  auto r2 = db.PutDocument("u", "<d><x>2</x></d>");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->version, 1u);
  EXPECT_EQ(r2->version, 2u);
  EXPECT_LT(r1->commit_ts, r2->commit_ts);
  EXPECT_TRUE(db.DeleteDocument("u").ok());
  EXPECT_TRUE(db.store().FindByUrl("u")->deleted());
}

TEST(DatabaseTest, ParseErrorsSurface) {
  TemporalXmlDatabase db;
  EXPECT_TRUE(db.PutDocument("u", "<broken").status().IsParseError());
  EXPECT_TRUE(db.Query("SELECT").status().IsParseError());
}

TEST(DatabaseTest, ExplicitTimestampsMustIncrease) {
  TemporalXmlDatabase db;
  ASSERT_TRUE(db.PutDocumentAt("u", "<d/>", Day(10)).ok());
  EXPECT_TRUE(db.PutDocumentAt("u", "<d><a>1</a></d>", Day(5))
                  .status().IsInvalidArgument());
  // The commit clock advanced past the explicit timestamp.
  auto r = db.PutDocument("u", "<d><a>2</a></d>");
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->commit_ts, Day(10));
}

TEST(DatabaseTest, SnapshotAndHistory) {
  TemporalXmlDatabase db;
  LoadFigure1(&db);
  auto snap = db.Snapshot(kGuideUrl, Day(26));
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->root()->child_count(), 2u);
  EXPECT_TRUE(db.Snapshot("nope", Day(26)).status().IsNotFound());

  auto history = db.History(kGuideUrl, Day(1), Timestamp::Infinity());
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history->size(), 3u);
}

TEST(DatabaseTest, SaveAndOpenPreservesEverything) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "txml_db_test").string();
  std::filesystem::remove_all(dir);
  {
    TemporalXmlDatabase db(DatabaseOptions{.snapshot_every = 2});
    LoadFigure1(&db);
    ASSERT_TRUE(db.DeleteDocumentAt(kGuideUrl,
                                    Timestamp::FromDate(2001, 2, 10)).ok());
    ASSERT_TRUE(db.PutDocumentAt("http://other.com", "<m><x>q</x></m>",
                                 Timestamp::FromDate(2001, 2, 20)).ok());
    ASSERT_TRUE(db.Save(dir).ok());
  }
  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  TemporalXmlDatabase& db = **reopened;
  // Snapshot queries work after reopen (index rebuilt).
  auto result = db.QueryToString(
      "SELECT R/name FROM doc(\"" + std::string(kGuideUrl) +
      "\")[26/01/2001]/restaurant R", /*pretty=*/false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->find("Napoli"), std::string::npos);
  EXPECT_NE(result->find("Akropolis"), std::string::npos);
  // Commit clock resumes after the last persisted event.
  auto put = db.PutDocument("http://other.com", "<m><x>r</x></m>");
  ASSERT_TRUE(put.ok());
  EXPECT_GT(put->commit_ts, Timestamp::FromDate(2001, 2, 20));
  std::filesystem::remove_all(dir);
}

TEST(DatabaseTest, DeltaContentIndexOption) {
  DeltaContentIndex delta_index;
  TemporalXmlDatabase db;
  db.AddStoreObserver(&delta_index);
  LoadFigure1(&db);
  EXPECT_EQ(delta_index.LookupEvents(TermKind::kWord, "akropolis").size(),
            2u);
}

TEST(DatabaseTest, LifetimeIndexCanBeDisabled) {
  TemporalXmlDatabase db;
  LoadFigure1(&db);
  ASSERT_NE(db.lifetime_index(), nullptr);
  // Without the lifetime index in the context, CREATE TIME still works via
  // delta traversal.
  QueryContext bare = db.Context();
  bare.lifetime = nullptr;
  ExecOptions options;
  options.now = db.latest_commit();
  QueryExecutor executor(bare, options);
  ExecStats stats;
  auto result = executor.Execute(
      "SELECT CREATE TIME(R) FROM doc(\"" + std::string(kGuideUrl) +
          "\")[26/01/2001]/restaurant R WHERE R/name = \"Akropolis\"",
      &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = result->ToString();
  EXPECT_NE(text.find("15/01/2001"), std::string::npos) << text;
  EXPECT_GT(stats.lifetime_traversals, 0u);
  EXPECT_EQ(stats.lifetime_index_lookups, 0u);
}

/// The database's full persistent image: store plus both indexes.
std::string EncodedImage(const TemporalXmlDatabase& db) {
  std::string image;
  db.store().EncodeTo(&image);
  db.fti().EncodeTo(&image);
  db.lifetime_index()->EncodeTo(&image);
  return image;
}

// A prepared put writes nothing: it may be dropped without a trace, other
// documents may publish while it waits, and publishing it afterwards
// leaves the same image as the plain sequential puts.
TEST(DatabaseTest, PreparedPutChangesNothingUntilPublished) {
  const std::string next_xml =
      "<guide><restaurant><name>Akropolis</name><price>9</price>"
      "</restaurant><restaurant><name>Napoli</name></restaurant></guide>";
  // Both after the Figure-1 history, "other" first.
  const Timestamp other_ts = Timestamp::FromDate(2001, 2, 9);
  const Timestamp next_ts = Timestamp::FromDate(2001, 2, 10);
  auto parse = [](const std::string& xml) {
    auto doc = ParseXml(xml);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    return doc->ReleaseRoot();
  };

  TemporalXmlDatabase db;
  LoadFigure1(&db);
  const std::string before = EncodedImage(db);

  TemporalXmlDatabase::PreparedPut stale = db.ResolvePut(kGuideUrl);
  EXPECT_TRUE(db.PreparePut(&stale, parse(next_xml), Day(2))
                  .IsInvalidArgument());
  TemporalXmlDatabase::PreparedPut dropped = db.ResolvePut(kGuideUrl);
  ASSERT_TRUE(db.PreparePut(&dropped, parse(next_xml), next_ts).ok());
  EXPECT_EQ(EncodedImage(db), before);

  TemporalXmlDatabase::PreparedPut put = db.ResolvePut(kGuideUrl);
  ASSERT_TRUE(db.PreparePut(&put, parse(next_xml), next_ts).ok());
  ASSERT_TRUE(db.PutDocumentAt("other", "<d><x>1</x></d>", other_ts).ok());
  TemporalXmlDatabase::PutResult published = db.PublishPut(std::move(put));
  EXPECT_EQ(published.commit_ts, next_ts);

  TemporalXmlDatabase reference;
  LoadFigure1(&reference);
  ASSERT_TRUE(
      reference.PutDocumentAt("other", "<d><x>1</x></d>", other_ts).ok());
  auto expected = reference.PutDocumentAt(kGuideUrl, next_xml, next_ts);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(published.version, expected->version);
  EXPECT_EQ(EncodedImage(db), EncodedImage(reference));
}

TEST(WorkloadTest, TDocGenShapes) {
  TDocGenOptions options;
  options.initial_items = 20;
  options.seed = 3;
  TDocGen gen(options);
  auto v1 = gen.InitialDocument();
  EXPECT_EQ(v1->name(), "collection");
  EXPECT_EQ(v1->child_count(), 20u);
  auto v2 = gen.NextVersion(*v1);
  // Deterministic but different.
  EXPECT_FALSE(v2->ContentEquals(*v1));
  TDocGen gen2(options);
  auto v1b = gen2.InitialDocument();
  EXPECT_TRUE(v1b->ContentEquals(*v1));
}

TEST(WorkloadTest, TDocGenHistoriesStoreCleanly) {
  TDocGenOptions options;
  options.initial_items = 15;
  options.mutations_per_version = 3;
  TDocGen gen(options);
  TemporalXmlDatabase db;
  auto current = gen.InitialDocument();
  ASSERT_TRUE(db.PutDocumentTree("u", current->Clone(), Day(1)).ok());
  for (int v = 2; v <= 12; ++v) {
    auto next = gen.NextVersion(*db.store().FindByUrl("u")->current());
    ASSERT_TRUE(db.PutDocumentTree("u", std::move(next), Day(v)).ok());
  }
  EXPECT_EQ(db.store().FindByUrl("u")->version_count(), 12u);
  // Every version reconstructs.
  for (VersionNum v = 1; v <= 12; ++v) {
    EXPECT_TRUE(db.store().FindByUrl("u")->ReconstructVersion(v).ok());
  }
}

TEST(WorkloadTest, RestaurantWorkloadEvolves) {
  RestaurantWorkload workload({.restaurants = 10, .seed = 1});
  auto v1 = workload.CurrentVersion();
  EXPECT_EQ(v1->child_count(), 10u);
  for (int i = 0; i < 20; ++i) workload.Step();
  auto v2 = workload.CurrentVersion();
  EXPECT_FALSE(v1->ContentEquals(*v2));
}

TEST(WorkloadTest, Figure1MatchesThePaper) {
  auto history = Figure1History();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].ts, Day(1));
  EXPECT_EQ(history[1].ts, Day(15));
  EXPECT_EQ(history[2].ts, Day(31));
  EXPECT_NE(history[1].xml.find("Akropolis"), std::string::npos);
}

}  // namespace
}  // namespace txml
