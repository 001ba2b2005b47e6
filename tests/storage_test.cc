#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/baselines/stratum_store.h"
#include "src/storage/delta_index.h"
#include "src/storage/store.h"
#include "src/storage/versioned_document.h"
#include "src/util/random.h"
#include "src/xml/parser.h"
#include "tests/testutil.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::unique_ptr<XmlNode> Parse(const std::string& text) {
  auto doc = ParseXml(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc->ReleaseRoot();
}

TEST(DeltaIndexTest, VersionAtAndValidity) {
  DeltaIndex index;
  index.Append(Day(1));
  index.Append(Day(15));
  index.Append(Day(31));
  EXPECT_EQ(index.version_count(), 3u);
  EXPECT_FALSE(index.VersionAt(Timestamp::FromDate(2000, 12, 31)).has_value());
  EXPECT_EQ(*index.VersionAt(Day(1)), 1u);
  EXPECT_EQ(*index.VersionAt(Day(14)), 1u);
  EXPECT_EQ(*index.VersionAt(Day(15)), 2u);
  EXPECT_EQ(*index.VersionAt(Day(26)), 2u);
  EXPECT_EQ(*index.VersionAt(Timestamp::FromDate(2005, 1, 1)), 3u);

  EXPECT_EQ(index.ValidityOf(1), (TimeInterval{Day(1), Day(15)}));
  EXPECT_EQ(index.ValidityOf(3), (TimeInterval{Day(31)}));
}

TEST(DeltaIndexTest, PreviousNextCurrentTS) {
  DeltaIndex index;
  index.Append(Day(1));
  index.Append(Day(15));
  index.Append(Day(31));
  // At day 26 the valid version is 2 (of day 15).
  EXPECT_EQ(*index.PreviousTS(Day(26)), Day(1));
  EXPECT_EQ(*index.NextTS(Day(26)), Day(31));
  EXPECT_EQ(*index.CurrentTS(), Day(31));
  // Boundaries.
  EXPECT_FALSE(index.PreviousTS(Day(14)).has_value());
  EXPECT_FALSE(index.NextTS(Day(31)).has_value());
  EXPECT_EQ(*index.NextTS(Timestamp::FromDate(2000, 1, 1)), Day(1));
}

TEST(DeltaIndexTest, EncodeDecodeRoundTrip) {
  DeltaIndex index;
  index.Append(Day(1));
  index.Append(Day(15).AddSeconds(42));
  index.Append(Day(31));
  std::string buf;
  index.EncodeTo(&buf);
  Decoder decoder(buf);
  auto decoded = DeltaIndex::Decode(&decoder);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version_count(), 3u);
  EXPECT_EQ(decoded->TimestampOf(2), Day(15).AddSeconds(42));
}

class VersionedDocumentTest : public ::testing::Test {
 protected:
  /// The paper's Figure 1 history.
  std::unique_ptr<VersionedDocument> MakeRestaurantDoc(
      uint32_t snapshot_every = 0) {
    auto doc = std::make_unique<VersionedDocument>(1, "http://guide.com/rest",
                                                   snapshot_every);
    EXPECT_TRUE(doc->AppendVersion(
        Parse("<guide><restaurant><name>Napoli</name>"
              "<price>15</price></restaurant></guide>"), Day(1)).ok());
    EXPECT_TRUE(doc->AppendVersion(
        Parse("<guide><restaurant><name>Napoli</name>"
              "<price>15</price></restaurant>"
              "<restaurant><name>Akropolis</name>"
              "<price>13</price></restaurant></guide>"), Day(15)).ok());
    EXPECT_TRUE(doc->AppendVersion(
        Parse("<guide><restaurant><name>Napoli</name>"
              "<price>18</price></restaurant></guide>"), Day(31)).ok());
    return doc;
  }
};

TEST_F(VersionedDocumentTest, AppendTracksVersions) {
  auto doc = MakeRestaurantDoc();
  EXPECT_EQ(doc->version_count(), 3u);
  EXPECT_FALSE(doc->deleted());
  EXPECT_EQ(doc->delta_index().TimestampOf(2), Day(15));
  // Current version is complete and holds the latest content.
  EXPECT_EQ(doc->current()
                ->FindChildElement("restaurant")
                ->FindChildElement("price")
                ->TextContent(),
            "18");
}

TEST_F(VersionedDocumentTest, ReconstructEveryVersion) {
  auto doc = MakeRestaurantDoc();
  auto v1 = doc->ReconstructVersion(1);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ((*v1)->child_count(), 1u);
  EXPECT_EQ((*v1)->child(0)->FindChildElement("price")->TextContent(), "15");

  auto v2 = doc->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ((*v2)->child_count(), 2u);
  EXPECT_EQ((*v2)->child(1)->FindChildElement("name")->TextContent(),
            "Akropolis");

  VersionedDocument::ReconstructStats stats;
  auto v3 = doc->ReconstructVersion(3, &stats);
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_TRUE((*v3)->ContentEquals(*doc->current()));

  EXPECT_TRUE(doc->ReconstructVersion(0).status().IsOutOfRange());
  EXPECT_TRUE(doc->ReconstructVersion(4).status().IsOutOfRange());
}

TEST_F(VersionedDocumentTest, ReconstructAtTimestamp) {
  auto doc = MakeRestaurantDoc();
  // 26/01: version 2 (two restaurants) is valid — paper query Q1.
  auto at = doc->ReconstructAt(Day(26));
  ASSERT_TRUE(at.ok());
  EXPECT_EQ((*at)->child_count(), 2u);
  // Before creation: NotFound.
  EXPECT_TRUE(doc->ReconstructAt(Timestamp::FromDate(2000, 12, 1))
                  .status().IsNotFound());
}

TEST_F(VersionedDocumentTest, ReconstructedVersionsCarryOldTimestamps) {
  auto doc = MakeRestaurantDoc();
  auto v2 = doc->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  // Napoli's subtree was untouched at v2 (created at day 1).
  EXPECT_EQ((*v2)->child(0)->timestamp(), Day(1));
  // Akropolis was inserted at day 15.
  EXPECT_EQ((*v2)->child(1)->timestamp(), Day(15));
  EXPECT_EQ((*v2)->timestamp(), Day(15));
}

TEST_F(VersionedDocumentTest, XidsStableAcrossReconstruction) {
  auto doc = MakeRestaurantDoc();
  Xid napoli_current = doc->current()->child(0)->xid();
  auto v1 = doc->ReconstructVersion(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->child(0)->xid(), napoli_current);
}

TEST_F(VersionedDocumentTest, MonotoneTimestampEnforced) {
  auto doc = MakeRestaurantDoc();
  auto bad = doc->AppendVersion(Parse("<guide/>"), Day(10));
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST_F(VersionedDocumentTest, DeleteIsTerminal) {
  // Deleting at (or before) the last version's timestamp is rejected.
  auto doc2 = MakeRestaurantDoc();
  EXPECT_TRUE(doc2->MarkDeleted(Day(31)).IsInvalidArgument());
  ASSERT_TRUE(doc2->MarkDeleted(Timestamp::FromDate(2001, 2, 5)).ok());
  EXPECT_TRUE(doc2->deleted());
  EXPECT_TRUE(doc2->ExistsAt(Day(26)));
  EXPECT_FALSE(doc2->ExistsAt(Timestamp::FromDate(2001, 2, 5)));
  // No appends after deletion (EIDs are never reused).
  EXPECT_TRUE(doc2->AppendVersion(Parse("<guide/>"),
                                  Timestamp::FromDate(2001, 3, 1))
                  .status().IsInvalidArgument());
  // Validity of the last version is capped by the delete time.
  EXPECT_EQ(doc2->VersionValidity(3).end, Timestamp::FromDate(2001, 2, 5));
}

TEST_F(VersionedDocumentTest, SnapshotsBoundReconstructionWork) {
  auto doc = std::make_unique<VersionedDocument>(1, "u", /*snapshot_every=*/4);
  for (int v = 1; v <= 20; ++v) {
    ASSERT_TRUE(doc->AppendVersion(
        Parse("<d><counter>" + std::to_string(v) + "</counter></d>"),
        Day(1).AddDays(v)).ok());
  }
  EXPECT_EQ(doc->SnapshotVersions(),
            (std::vector<VersionNum>{4, 8, 12, 16, 20}));
  VersionedDocument::ReconstructStats stats;
  auto v5 = doc->ReconstructVersion(5, &stats);
  ASSERT_TRUE(v5.ok());
  EXPECT_EQ((*v5)->TextContent(), "5");
  EXPECT_TRUE(stats.used_snapshot);
  EXPECT_EQ(stats.base_version, 8u);
  EXPECT_EQ(stats.deltas_applied, 3u);

  // Without snapshots the same reconstruction applies 15 deltas.
  auto plain = std::make_unique<VersionedDocument>(2, "u2", 0);
  for (int v = 1; v <= 20; ++v) {
    ASSERT_TRUE(plain->AppendVersion(
        Parse("<d><counter>" + std::to_string(v) + "</counter></d>"),
        Day(1).AddDays(v)).ok());
  }
  VersionedDocument::ReconstructStats plain_stats;
  ASSERT_TRUE(plain->ReconstructVersion(5, &plain_stats).ok());
  EXPECT_FALSE(plain_stats.used_snapshot);
  EXPECT_EQ(plain_stats.deltas_applied, 15u);
}

TEST_F(VersionedDocumentTest, PersistenceRoundTrip) {
  auto doc = MakeRestaurantDoc(/*snapshot_every=*/2);
  std::string buf;
  doc->EncodeTo(&buf);
  auto loaded = VersionedDocument::Decode(buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->version_count(), 3u);
  EXPECT_EQ((*loaded)->url(), "http://guide.com/rest");
  EXPECT_TRUE((*loaded)->current()->ContentEquals(*doc->current()));
  // Reconstruction works identically after reload.
  auto v1 = (*loaded)->ReconstructVersion(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->child_count(), 1u);
  // XID allocation continues where it left off.
  EXPECT_EQ((*loaded)->xid_allocator()->next(), doc->xid_allocator()->next());
  // Corruption detected.
  std::string bad = buf;
  bad.resize(bad.size() / 2);
  EXPECT_FALSE(VersionedDocument::Decode(bad).ok());
}

class RecordingObserver : public StoreObserver {
 public:
  void OnVersionStored(DocId doc_id, VersionNum version, Timestamp ts,
                       const XmlNode& current,
                       const EditScript* delta) override {
    events.push_back("put doc=" + std::to_string(doc_id) +
                     " v=" + std::to_string(version) + " ts=" + ts.ToString() +
                     " delta=" + (delta != nullptr ? "yes" : "no"));
    last_current_nodes = current.CountNodes();
  }
  void OnDocumentDeleted(DocId doc_id, VersionNum last,
                         Timestamp ts) override {
    events.push_back("del doc=" + std::to_string(doc_id) +
                     " last=" + std::to_string(last) + " ts=" + ts.ToString());
  }
  std::vector<std::string> events;
  size_t last_current_nodes = 0;
};

TEST(StoreTest, PutCreatesAndVersions) {
  VersionedDocumentStore store;
  RecordingObserver observer;
  store.AddObserver(&observer);

  auto r1 = store.Put("http://a", Parse("<d><x>1</x></d>"), Day(1));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->doc_id, 1u);
  EXPECT_EQ(r1->version, 1u);
  auto r2 = store.Put("http://a", Parse("<d><x>2</x></d>"), Day(2));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->version, 2u);
  auto r3 = store.Put("http://b", Parse("<d/>"), Day(3));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->doc_id, 2u);

  ASSERT_TRUE(store.Delete("http://a", Day(9)).ok());
  EXPECT_TRUE(store.Delete("http://zzz", Day(9)).IsNotFound());

  ASSERT_EQ(observer.events.size(), 4u);
  EXPECT_EQ(observer.events[0], "put doc=1 v=1 ts=01/01/2001 delta=no");
  EXPECT_EQ(observer.events[1], "put doc=1 v=2 ts=02/01/2001 delta=yes");
  EXPECT_EQ(observer.events[3], "del doc=1 last=2 ts=09/01/2001");

  EXPECT_EQ(store.document_count(), 2u);
  EXPECT_EQ(store.FindByUrl("http://a")->doc_id(), 1u);
  EXPECT_EQ(store.FindById(2)->url(), "http://b");
  EXPECT_EQ(store.FindByUrl("http://nope"), nullptr);
  EXPECT_EQ(store.AllDocuments().size(), 2u);
}

TEST(StoreTest, SaveLoadRoundTrip) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "txml_store_test").string();
  std::filesystem::remove_all(dir);

  VersionedDocumentStore store(StoreOptions{.snapshot_every = 2});
  ASSERT_TRUE(store.Put("http://a", Parse("<d><x>1</x></d>"), Day(1)).ok());
  ASSERT_TRUE(store.Put("http://a", Parse("<d><x>2</x></d>"), Day(2)).ok());
  ASSERT_TRUE(store.Put("http://b", Parse("<d><y>q</y></d>"), Day(3)).ok());
  ASSERT_TRUE(store.Delete("http://b", Day(4)).ok());
  ASSERT_TRUE(store.Save(dir).ok());

  auto loaded = VersionedDocumentStore::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->document_count(), 2u);
  EXPECT_TRUE((*loaded)->FindByUrl("http://b")->deleted());
  auto v1 = (*loaded)->FindByUrl("http://a")->ReconstructVersion(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ((*v1)->TextContent(), "1");
  // New versions continue with unique doc ids after reload.
  auto r = (*loaded)->Put("http://c", Parse("<d/>"), Day(9));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->doc_id, 3u);
  std::filesystem::remove_all(dir);
}

TEST(StoreTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(VersionedDocumentStore::Load("/nonexistent/txml").ok());
}

TEST(StratumStoreTest, SnapshotAndScan) {
  StratumStore store;
  ASSERT_TRUE(store.Put("http://g",
                        Parse("<g><r><name>Napoli</name></r></g>"),
                        Day(1)).ok());
  ASSERT_TRUE(store.Put("http://g",
                        Parse("<g><r><name>Napoli</name></r>"
                              "<r><name>Akropolis</name></r></g>"),
                        Day(15)).ok());
  auto snap = store.SnapshotAt("http://g", Day(20));
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ((*snap)->child_count(), 2u);
  EXPECT_TRUE(store.SnapshotAt("http://g", Timestamp::FromDate(2000, 1, 1))
                  .status().IsNotFound());

  auto path = PathExpr::Parse("r/name");
  ASSERT_TRUE(path.ok());
  auto pattern = Pattern::FromPath(*path);
  ASSERT_TRUE(pattern.ok());
  EXPECT_EQ(store.ScanSnapshot(*pattern, Day(2)).size(), 1u);
  EXPECT_EQ(store.ScanSnapshot(*pattern, Day(20)).size(), 2u);
  EXPECT_EQ(store.ScanAllVersions(*pattern).size(), 3u);
  EXPECT_GT(store.StorageBytes(), 0u);
}

/// Property sweep: random histories reconstruct exactly, with and without
/// snapshots, directly and after a persistence round trip.
class StoragePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StoragePropertyTest, RandomHistoryReconstructs) {
  auto [seed, snapshot_every] = GetParam();
  Random rng(static_cast<uint64_t>(seed));
  VersionedDocument doc(1, "u", static_cast<uint32_t>(snapshot_every));

  // Keep reference copies of every version (content-only oracle).
  std::vector<std::unique_ptr<XmlNode>> reference;
  auto tree = testing::RandomTree(&rng, 40);
  ASSERT_TRUE(doc.AppendVersion(tree->Clone(), Day(1)).ok());
  reference.push_back(doc.current()->Clone());

  const int kVersions = 24;
  for (int v = 2; v <= kVersions; ++v) {
    auto next = doc.current()->Clone();
    // Strip XIDs: new versions arrive as plain parsed documents.
    std::vector<XmlNode*> stack = {next.get()};
    while (!stack.empty()) {
      XmlNode* n = stack.back();
      stack.pop_back();
      n->set_xid(kInvalidXid);
      for (size_t i = 0; i < n->child_count(); ++i) {
        stack.push_back(n->child(i));
      }
    }
    testing::MutateTree(&rng, next.get(), 3);
    ASSERT_TRUE(doc.AppendVersion(std::move(next), Day(v)).ok());
    reference.push_back(doc.current()->Clone());
  }

  std::string buf;
  doc.EncodeTo(&buf);
  auto reloaded = VersionedDocument::Decode(buf);
  ASSERT_TRUE(reloaded.ok());

  for (int v = 1; v <= kVersions; ++v) {
    auto got = doc.ReconstructVersion(static_cast<VersionNum>(v));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE((*got)->ContentEquals(*reference[static_cast<size_t>(v - 1)]))
        << "version " << v;
    auto got2 = (*reloaded)->ReconstructVersion(static_cast<VersionNum>(v));
    ASSERT_TRUE(got2.ok());
    EXPECT_TRUE(
        (*got2)->ContentEquals(*reference[static_cast<size_t>(v - 1)]))
        << "reloaded version " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StoragePropertyTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                                            ::testing::Values(0, 1, 4, 7)));

}  // namespace
}  // namespace txml
