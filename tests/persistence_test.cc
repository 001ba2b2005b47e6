// Index persistence: FTI and lifetime-index round trips, fingerprint
// validation against the store, and rebuild fallbacks.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/index/fti.h"
#include "src/index/lifetime_index.h"
#include "src/util/coding.h"
#include "src/util/env.h"
#include "src/workload/tdocgen.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::string TempDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// A database with a non-trivial mixed history.
std::unique_ptr<TemporalXmlDatabase> BuildDb() {
  auto db = std::make_unique<TemporalXmlDatabase>(
      DatabaseOptions{.snapshot_every = 4});
  TDocGenOptions options;
  options.initial_items = 12;
  options.mutations_per_version = 3;
  TDocGen gen(options);
  EXPECT_TRUE(db->PutDocumentTree("a", gen.InitialDocument(), Day(1)).ok());
  for (int v = 2; v <= 10; ++v) {
    auto next = gen.NextVersion(*db->store().FindByUrl("a")->current());
    EXPECT_TRUE(db->PutDocumentTree("a", std::move(next), Day(v)).ok());
  }
  EXPECT_TRUE(db->PutDocumentAt("b", "<m><x>gone soon</x></m>", Day(3)).ok());
  EXPECT_TRUE(db->DeleteDocumentAt("b", Day(5)).ok());
  return db;
}

bool SameLookups(const TemporalFullTextIndex& a,
                 const TemporalFullTextIndex& b) {
  if (a.posting_count() != b.posting_count()) return false;
  if (a.term_count() != b.term_count()) return false;
  for (const char* term : {"item", "name", "price", "m", "x"}) {
    if (a.LookupH(TermKind::kElementName, term).size() !=
        b.LookupH(TermKind::kElementName, term).size()) {
      return false;
    }
    if (a.LookupT(TermKind::kElementName, term, Day(6)).size() !=
        b.LookupT(TermKind::kElementName, term, Day(6)).size()) {
      return false;
    }
    if (a.LookupCurrent(TermKind::kElementName, term).size() !=
        b.LookupCurrent(TermKind::kElementName, term).size()) {
      return false;
    }
  }
  return true;
}

TEST(FtiPersistenceTest, EncodeDecodeRoundTrip) {
  auto db = BuildDb();
  std::string blob;
  db->fti().EncodeTo(&blob);
  auto decoded = TemporalFullTextIndex::Decode(blob, &db->store());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(SameLookups(db->fti(), **decoded));
  // Corruption is detected.
  EXPECT_FALSE(TemporalFullTextIndex::Decode(blob.substr(0, blob.size() / 2),
                                             &db->store()).ok());
  EXPECT_FALSE(TemporalFullTextIndex::Decode(blob + "x", &db->store()).ok());
}

TEST(FtiPersistenceTest, DecodedIndexKeepsAcceptingWrites) {
  auto db = BuildDb();
  std::string blob;
  db->fti().EncodeTo(&blob);
  auto decoded = TemporalFullTextIndex::Decode(blob, &db->store());
  ASSERT_TRUE(decoded.ok());
  // Feed one more version into both the live and the decoded index; they
  // must stay identical (the open-occurrence map was restored).
  TDocGenOptions options;
  options.initial_items = 12;
  options.mutations_per_version = 3;
  options.seed = 42;
  TDocGen gen(options);
  for (int i = 0; i < 9; ++i) gen.InitialDocument();  // advance the stream
  auto next = gen.NextVersion(*db->store().FindByUrl("a")->current());
  const VersionedDocument* doc = db->store().FindByUrl("a");
  (*decoded)->OnVersionStored(doc->doc_id(), doc->version_count() + 1,
                              Day(11), *next, nullptr);
  // The live index sees it through the store.
  ASSERT_TRUE(db->PutDocumentTree("a", next->Clone(), Day(11)).ok());
  // Note: XIDs differ (decoded index saw the unassigned clone), so compare
  // only coarse totals here — the real equivalence check is the
  // OpenAfterSave test below.
  EXPECT_EQ((*decoded)->term_count(), db->fti().term_count());
}

TEST(LifetimePersistenceTest, EncodeDecodeRoundTrip) {
  auto db = BuildDb();
  ASSERT_NE(db->lifetime_index(), nullptr);
  std::string blob;
  db->lifetime_index()->EncodeTo(&blob);
  auto decoded = LifetimeIndex::Decode(blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->entry_count(), db->lifetime_index()->entry_count());
  // Spot-check an entry: root of document a.
  Eid root{db->store().FindByUrl("a")->doc_id(),
           db->store().FindByUrl("a")->current()->xid()};
  EXPECT_EQ((*decoded)->CreTime(root), db->lifetime_index()->CreTime(root));
  EXPECT_EQ((*decoded)->IsAlive(root), db->lifetime_index()->IsAlive(root));
  EXPECT_FALSE(LifetimeIndex::Decode(blob.substr(1)).ok());
}

TEST(DatabasePersistenceTest, OpenUsesPersistedIndexes) {
  std::string dir = TempDir("txml_persist_indexes");
  size_t postings;
  {
    auto db = BuildDb();
    postings = db->fti().posting_count();
    ASSERT_TRUE(db->Save(dir).ok());
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/indexes.txml"));
  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->fti().posting_count(), postings);
  auto out = (*reopened)->QueryToString(
      "SELECT COUNT(I) FROM doc(\"a\")[06/01/2001]/item I", false);
  ASSERT_TRUE(out.ok());
  std::filesystem::remove_all(dir);
}

TEST(DatabasePersistenceTest, MissingIndexFileTriggersRebuild) {
  std::string dir = TempDir("txml_persist_noindex");
  size_t postings;
  {
    auto db = BuildDb();
    postings = db->fti().posting_count();
    ASSERT_TRUE(db->Save(dir).ok());
  }
  std::filesystem::remove(dir + "/indexes.txml");
  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->fti().posting_count(), postings);
  std::filesystem::remove_all(dir);
}

TEST(DatabasePersistenceTest, StaleIndexFileTriggersRebuild) {
  std::string dir = TempDir("txml_persist_stale");
  {
    auto db = BuildDb();
    ASSERT_TRUE(db->Save(dir).ok());
  }
  // Replace the store behind the index file's back: the fingerprint no
  // longer matches, so Open must rebuild instead of trusting the index.
  {
    TemporalXmlDatabase other;
    ASSERT_TRUE(other.PutDocumentAt("z", "<z><only>doc</only></z>",
                                    Day(1)).ok());
    ASSERT_TRUE(other.store().Save(dir).ok());  // store.txml only
  }
  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The rebuilt index reflects the new store, not the stale index file.
  EXPECT_EQ((*reopened)->fti()
                .LookupCurrent(TermKind::kElementName, "only").size(), 1u);
  EXPECT_TRUE((*reopened)->fti()
                  .LookupCurrent(TermKind::kElementName, "item").empty());
  std::filesystem::remove_all(dir);
}

TEST(DatabasePersistenceTest, CorruptIndexFileTriggersRebuild) {
  std::string dir = TempDir("txml_persist_corrupt");
  size_t postings;
  {
    auto db = BuildDb();
    postings = db->fti().posting_count();
    ASSERT_TRUE(db->Save(dir).ok());
  }
  {
    std::ofstream f(dir + "/indexes.txml",
                    std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->fti().posting_count(), postings);
  std::filesystem::remove_all(dir);
}

// An index file whose lifetime flag is 0 (no lifetime section) is a
// mismatch: Open rebuilds both indexes from the store, and the lifetime
// operators answer exactly as before the save.
TEST(DatabasePersistenceTest, IndexFileWithoutLifetimeSectionRebuilds) {
  std::string dir = TempDir("txml_persist_nolifetime");
  const std::vector<std::string> queries = {
      "SELECT CREATE TIME(I) FROM doc(\"a\")[06/01/2001]/item I",
      "SELECT DELETE TIME(I) FROM doc(\"a\")[06/01/2001]/item I",
      "SELECT CREATE TIME(X) FROM doc(\"b\")[04/01/2001]/x X",
      "SELECT DELETE TIME(X) FROM doc(\"b\")[04/01/2001]/x X",
  };
  std::vector<std::string> expected;
  size_t postings;
  size_t lifetime_entries;
  {
    auto db = BuildDb();
    for (const std::string& q : queries) {
      auto out = db->QueryToString(q, false);
      ASSERT_TRUE(out.ok()) << q << ": " << out.status().ToString();
      expected.push_back(*out);
    }
    postings = db->fti().posting_count();
    lifetime_entries = db->lifetime_index()->entry_count();
    ASSERT_TRUE(db->Save(dir).ok());
  }
  EXPECT_NE(expected[0].find("01/01/2001"), std::string::npos) << expected[0];
  EXPECT_NE(expected[3].find("05/01/2001"), std::string::npos) << expected[3];

  // Keep magic, fingerprint and FTI section; write flag 0 and no lifetime
  // section after them.
  const std::string path = dir + "/indexes.txml";
  auto blob = ReadFileToString(path);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  Decoder decoder(*blob);
  ASSERT_TRUE(decoder.ReadFixed32().ok());
  ASSERT_TRUE(decoder.ReadFixed32().ok());
  ASSERT_TRUE(decoder.ReadLengthPrefixed().ok());
  auto flag = decoder.ReadVarint32();
  ASSERT_TRUE(flag.ok());
  ASSERT_EQ(*flag, 1u);
  std::string rewritten = blob->substr(0, decoder.position() - 1);
  PutVarint32(&rewritten, 0);
  ASSERT_TRUE(WriteStringToFile(path, rewritten).ok());

  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->fti().posting_count(), postings);
  EXPECT_EQ((*reopened)->lifetime_index()->entry_count(), lifetime_entries);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto out = (*reopened)->QueryToString(queries[i], false);
    ASSERT_TRUE(out.ok()) << queries[i] << ": " << out.status().ToString();
    EXPECT_EQ(*out, expected[i]) << queries[i];
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace txml
