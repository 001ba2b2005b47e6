#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "bench/baselines/delta_fti.h"
#include "src/index/fti.h"
#include "src/index/lifetime_index.h"
#include "src/index/posting.h"
#include "src/storage/store.h"
#include "src/xml/parser.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::unique_ptr<XmlNode> Parse(const std::string& text) {
  auto doc = ParseXml(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc->ReleaseRoot();
}

TEST(OccurrenceTest, ExtractsNamesWordsAndAttributes) {
  auto tree = Parse(R"(<guide lang="en"><r><name>Napoli Pizza</name></r></guide>)");
  // Give everything XIDs so paths are meaningful.
  XidAllocator alloc;
  std::vector<XmlNode*> stack = {tree.get()};
  while (!stack.empty()) {
    XmlNode* n = stack.back();
    stack.pop_back();
    n->set_xid(alloc.Allocate());
    for (size_t i = 0; i < n->child_count(); ++i) stack.push_back(n->child(i));
  }
  auto occs = ExtractOccurrences(*tree);

  auto find = [&](TermKind kind, const std::string& term) -> const Occurrence* {
    for (const auto& occ : occs) {
      if (occ.kind == kind && occ.term == term) return &occ;
    }
    return nullptr;
  };
  ASSERT_NE(find(TermKind::kElementName, "guide"), nullptr);
  ASSERT_NE(find(TermKind::kElementName, "r"), nullptr);
  ASSERT_NE(find(TermKind::kElementName, "name"), nullptr);
  // Attribute name indexed as a *word* on the owning element — it must not
  // satisfy element tag tests.
  const Occurrence* lang = find(TermKind::kWord, "lang");
  ASSERT_NE(lang, nullptr);
  EXPECT_EQ(lang->element, tree->xid());
  EXPECT_EQ(find(TermKind::kElementName, "lang"), nullptr);
  // Attribute value and text words.
  ASSERT_NE(find(TermKind::kWord, "en"), nullptr);
  const Occurrence* napoli = find(TermKind::kWord, "napoli");
  ASSERT_NE(napoli, nullptr);
  EXPECT_NE(find(TermKind::kWord, "pizza"), nullptr);
  // Word attaches to the directly-containing element (name).
  const XmlNode* name_el =
      tree->FindChildElement("r")->FindChildElement("name");
  EXPECT_EQ(napoli->element, name_el->xid());
  // Path is root..element inclusive.
  ASSERT_EQ(napoli->path.size(), 3u);
  EXPECT_EQ(napoli->path.front(), tree->xid());
  EXPECT_EQ(napoli->path.back(), name_el->xid());
}

TEST(OccurrenceTest, PathRelationships) {
  std::vector<Xid> root = {1};
  std::vector<Xid> child = {1, 2};
  std::vector<Xid> grand = {1, 2, 5};
  std::vector<Xid> other = {1, 3};
  EXPECT_TRUE(PathIsParentOf(root, child));
  EXPECT_FALSE(PathIsParentOf(root, grand));
  EXPECT_FALSE(PathIsParentOf(child, other));
  EXPECT_TRUE(PathIsAncestorOf(root, child));
  EXPECT_TRUE(PathIsAncestorOf(root, grand));
  EXPECT_TRUE(PathIsAncestorOf(child, grand));
  EXPECT_FALSE(PathIsAncestorOf(child, child));
  EXPECT_FALSE(PathIsAncestorOf(grand, child));
}

class FtiTest : public ::testing::Test {
 protected:
  FtiTest() : fti_(&store_) { store_.AddObserver(&fti_); }

  /// The Figure-1 restaurant history.
  void LoadRestaurantHistory() {
    ASSERT_TRUE(store_.Put("http://guide.com",
                           Parse("<guide><restaurant><name>Napoli</name>"
                                 "<price>15</price></restaurant></guide>"),
                           Day(1)).ok());
    ASSERT_TRUE(store_.Put("http://guide.com",
                           Parse("<guide><restaurant><name>Napoli</name>"
                                 "<price>15</price></restaurant>"
                                 "<restaurant><name>Akropolis</name>"
                                 "<price>13</price></restaurant></guide>"),
                           Day(15)).ok());
    ASSERT_TRUE(store_.Put("http://guide.com",
                           Parse("<guide><restaurant><name>Napoli</name>"
                                 "<price>18</price></restaurant></guide>"),
                           Day(31)).ok());
  }

  VersionedDocumentStore store_;
  TemporalFullTextIndex fti_;
};

TEST_F(FtiTest, LookupCurrent) {
  LoadRestaurantHistory();
  // Akropolis is gone in the current version.
  EXPECT_TRUE(fti_.LookupCurrent(TermKind::kWord, "akropolis").empty());
  EXPECT_EQ(fti_.LookupCurrent(TermKind::kWord, "napoli").size(), 1u);
  EXPECT_EQ(fti_.LookupCurrent(TermKind::kElementName, "restaurant").size(),
            1u);
  // Case-insensitive lookup.
  EXPECT_EQ(fti_.LookupCurrent(TermKind::kWord, "NAPOLI").size(), 1u);
  EXPECT_TRUE(fti_.LookupCurrent(TermKind::kWord, "nothere").empty());
}

TEST_F(FtiTest, LookupT) {
  LoadRestaurantHistory();
  // At day 26, version 2 (two restaurants) is valid.
  EXPECT_EQ(fti_.LookupT(TermKind::kElementName, "restaurant",
                          Day(26)).size(), 2u);
  EXPECT_EQ(fti_.LookupT(TermKind::kWord, "akropolis", Day(26)).size(), 1u);
  // At day 5, only Napoli.
  EXPECT_EQ(fti_.LookupT(TermKind::kElementName, "restaurant",
                          Day(5)).size(), 1u);
  // Price word 15 valid at day 26 but not at day 31 (price became 18).
  EXPECT_EQ(fti_.LookupT(TermKind::kWord, "15", Day(26)).size(), 1u);
  EXPECT_TRUE(fti_.LookupT(TermKind::kWord, "15", Day(31)).empty());
  EXPECT_EQ(fti_.LookupT(TermKind::kWord, "18", Day(31)).size(), 1u);
  // Before the document existed.
  EXPECT_TRUE(fti_.LookupT(TermKind::kWord, "napoli",
                           Timestamp::FromDate(2000, 1, 1)).empty());
}

TEST_F(FtiTest, LookupH) {
  LoadRestaurantHistory();
  // Napoli's name occurrence survived all versions: one posting.
  auto napoli = fti_.LookupH(TermKind::kWord, "napoli");
  ASSERT_EQ(napoli.size(), 1u);
  EXPECT_EQ(napoli[0]->start, 1u);
  EXPECT_TRUE(napoli[0]->OpenEnded());
  // The price words are distinct occurrences: 15 (closed) and 18 (open).
  auto p15 = fti_.LookupH(TermKind::kWord, "15");
  ASSERT_EQ(p15.size(), 1u);
  EXPECT_EQ(p15[0]->start, 1u);
  EXPECT_EQ(p15[0]->end, 3u);
  auto p18 = fti_.LookupH(TermKind::kWord, "18");
  ASSERT_EQ(p18.size(), 1u);
  EXPECT_EQ(p18[0]->start, 3u);
}

TEST_F(FtiTest, DocumentDeleteClosesPostings) {
  LoadRestaurantHistory();
  ASSERT_TRUE(store_.Delete("http://guide.com", Timestamp::FromDate(2001, 2, 2)).ok());
  EXPECT_TRUE(fti_.LookupCurrent(TermKind::kWord, "napoli").empty());
  // Still visible in snapshots before the delete...
  EXPECT_EQ(fti_.LookupT(TermKind::kWord, "napoli", Day(31)).size(), 1u);
  // ...but not after.
  EXPECT_TRUE(fti_.LookupT(TermKind::kWord, "napoli",
                           Timestamp::FromDate(2001, 2, 3)).empty());
  // History still returns everything.
  EXPECT_EQ(fti_.LookupH(TermKind::kWord, "napoli").size(), 1u);
}

TEST_F(FtiTest, MultipleDocuments) {
  LoadRestaurantHistory();
  ASSERT_TRUE(store_.Put("http://other.com",
                         Parse("<menu><dish>Napoli style</dish></menu>"),
                         Day(20)).ok());
  EXPECT_EQ(fti_.LookupCurrent(TermKind::kWord, "napoli").size(), 2u);
  EXPECT_EQ(fti_.LookupT(TermKind::kWord, "napoli", Day(10)).size(), 1u);
  EXPECT_EQ(fti_.LookupT(TermKind::kWord, "napoli", Day(25)).size(), 2u);
}

TEST_F(FtiTest, SurvivingOccurrenceKeepsOnePosting) {
  // Many versions with an unchanged element: posting count stays flat —
  // the growth-proportional-to-change property of alternative A.
  ASSERT_TRUE(store_.Put("u", Parse("<d><stable>rock</stable>"
                                    "<counter>0</counter></d>"), Day(1)).ok());
  size_t before = fti_.posting_count();
  for (int v = 2; v <= 10; ++v) {
    ASSERT_TRUE(store_.Put("u",
                           Parse("<d><stable>rock</stable><counter>" +
                                 std::to_string(v) + "</counter></d>"),
                           Day(v)).ok());
  }
  auto rock = fti_.LookupH(TermKind::kWord, "rock");
  ASSERT_EQ(rock.size(), 1u);
  EXPECT_TRUE(rock[0]->OpenEnded());
  // Growth only from the counter churn: one closed posting per change.
  EXPECT_EQ(fti_.posting_count(), before + 9u);
}

TEST_F(FtiTest, MoveClosesAndReopensPosting) {
  ASSERT_TRUE(store_.Put("u", Parse("<d><a><x>w</x></a><b/></d>"),
                         Day(1)).ok());
  ASSERT_TRUE(store_.Put("u", Parse("<d><a/><b><x>w</x></b></d>"),
                         Day(2)).ok());
  auto postings = fti_.LookupH(TermKind::kWord, "w");
  ASSERT_EQ(postings.size(), 2u);
  // One posting closed at version 2, one opened at version 2 with the new
  // path (under b).
  const Posting* closed = postings[0]->OpenEnded() ? postings[1] : postings[0];
  const Posting* open = postings[0]->OpenEnded() ? postings[0] : postings[1];
  EXPECT_EQ(closed->end, 2u);
  EXPECT_EQ(open->start, 2u);
  EXPECT_EQ(closed->element, open->element);  // same EID — it moved
  EXPECT_NE(closed->path, open->path);
}

TEST_F(FtiTest, RebuildMatchesIncrementalIndex) {
  LoadRestaurantHistory();
  ASSERT_TRUE(store_.Put("http://other.com", Parse("<m><x>q</x></m>"),
                         Day(20)).ok());
  ASSERT_TRUE(store_.Delete("http://other.com",
                            Timestamp::FromDate(2001, 2, 7)).ok());
  auto rebuilt = TemporalFullTextIndex::Rebuild(store_);
  EXPECT_EQ(rebuilt->posting_count(), fti_.posting_count());
  EXPECT_EQ(rebuilt->term_count(), fti_.term_count());
  for (const char* term : {"napoli", "akropolis", "15", "18", "q"}) {
    EXPECT_EQ(rebuilt->LookupH(TermKind::kWord, term).size(),
              fti_.LookupH(TermKind::kWord, term).size())
        << term;
    EXPECT_EQ(rebuilt->LookupT(TermKind::kWord, term, Day(26)).size(),
              fti_.LookupT(TermKind::kWord, term, Day(26)).size())
        << term;
  }
  EXPECT_GT(fti_.EncodedSizeBytes(), 0u);
}

class DeltaFtiTest : public ::testing::Test {
 protected:
  DeltaFtiTest() { store_.AddObserver(&index_); }
  VersionedDocumentStore store_;
  DeltaContentIndex index_;
};

TEST_F(DeltaFtiTest, RecordsAddAndRemoveEvents) {
  ASSERT_TRUE(store_.Put("u", Parse("<g><r><name>Napoli</name></r></g>"),
                         Day(1)).ok());
  ASSERT_TRUE(store_.Put("u", Parse("<g><r><name>Vesuvio</name></r></g>"),
                         Day(2)).ok());
  auto napoli = index_.LookupEvents(TermKind::kWord, "napoli");
  ASSERT_EQ(napoli.size(), 2u);
  EXPECT_EQ(napoli[0]->event, DeltaContentIndex::Event::kAdded);
  EXPECT_EQ(napoli[0]->version, 1u);
  EXPECT_EQ(napoli[1]->event, DeltaContentIndex::Event::kRemoved);
  EXPECT_EQ(napoli[1]->version, 2u);
  // This answers "when was Napoli deleted" directly — the query shape
  // alternative B is good at.
}

TEST_F(DeltaFtiTest, SnapshotByFolding) {
  ASSERT_TRUE(store_.Put("u", Parse("<g><a>x</a></g>"), Day(1)).ok());
  ASSERT_TRUE(store_.Put("u", Parse("<g><a>x</a><b>x</b></g>"), Day(2)).ok());
  ASSERT_TRUE(store_.Put("u", Parse("<g><b>x</b></g>"), Day(3)).ok());
  std::unordered_map<DocId, VersionNum> at_v2 = {{1, 2}};
  EXPECT_EQ(index_.LookupSnapshot(TermKind::kWord, "x", at_v2).size(), 2u);
  std::unordered_map<DocId, VersionNum> at_v1 = {{1, 1}};
  EXPECT_EQ(index_.LookupSnapshot(TermKind::kWord, "x", at_v1).size(), 1u);
  std::unordered_map<DocId, VersionNum> at_v3 = {{1, 3}};
  auto snap3 = index_.LookupSnapshot(TermKind::kWord, "x", at_v3);
  ASSERT_EQ(snap3.size(), 1u);
  std::unordered_map<DocId, VersionNum> absent = {{1, 0}};
  EXPECT_TRUE(index_.LookupSnapshot(TermKind::kWord, "x", absent).empty());
}

TEST_F(DeltaFtiTest, DeleteEmitsRemoveEvents) {
  ASSERT_TRUE(store_.Put("u", Parse("<g><a>x</a></g>"), Day(1)).ok());
  ASSERT_TRUE(store_.Delete("u", Day(5)).ok());
  auto events = index_.LookupEvents(TermKind::kWord, "x");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1]->event, DeltaContentIndex::Event::kRemoved);
}

class LifetimeTest : public ::testing::Test {
 protected:
  LifetimeTest() { store_.AddObserver(&index_); }
  VersionedDocumentStore store_;
  LifetimeIndex index_;
};

TEST_F(LifetimeTest, CreateAndDeleteTimes) {
  ASSERT_TRUE(store_.Put("u", Parse("<g><r><name>Napoli</name></r></g>"),
                         Day(1)).ok());
  ASSERT_TRUE(store_.Put("u",
                         Parse("<g><r><name>Napoli</name></r>"
                               "<r><name>Akropolis</name></r></g>"),
                         Day(15)).ok());
  ASSERT_TRUE(store_.Put("u", Parse("<g><r><name>Napoli</name></r></g>"),
                         Day(31)).ok());

  const VersionedDocument* doc = store_.FindByUrl("u");
  Xid napoli = doc->current()->child(0)->xid();
  EXPECT_EQ(*index_.CreTime({doc->doc_id(), napoli}), Day(1));
  EXPECT_FALSE(index_.DelTime({doc->doc_id(), napoli}).has_value());
  EXPECT_TRUE(index_.IsAlive({doc->doc_id(), napoli}));

  // Akropolis existed only in version 2: created day 15, deleted day 31.
  auto v2 = doc->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  Xid akropolis = (*v2)->child(1)->xid();
  EXPECT_EQ(*index_.CreTime({doc->doc_id(), akropolis}), Day(15));
  EXPECT_EQ(*index_.DelTime({doc->doc_id(), akropolis}), Day(31));
  EXPECT_FALSE(index_.IsAlive({doc->doc_id(), akropolis}));

  // Unknown EIDs.
  EXPECT_FALSE(index_.CreTime({99, 1}).has_value());
}

TEST_F(LifetimeTest, DocumentDeleteClosesAllElements) {
  ASSERT_TRUE(store_.Put("u", Parse("<g><a>1</a><b>2</b></g>"), Day(1)).ok());
  const VersionedDocument* doc = store_.FindByUrl("u");
  Xid a = doc->current()->child(0)->xid();
  ASSERT_TRUE(store_.Delete("u", Day(9)).ok());
  EXPECT_EQ(*index_.DelTime({doc->doc_id(), a}), Day(9));
  EXPECT_FALSE(index_.IsAlive({doc->doc_id(), a}));
  EXPECT_GT(index_.entry_count(), 0u);
}

}  // namespace
}  // namespace txml
