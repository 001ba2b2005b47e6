// collection("prefix*") FROM sources: warehouse-style queries spanning
// every document whose URL matches — the forest-of-trees input the
// paper's operators are defined over.
#include <gtest/gtest.h>

#include <string>

#include "src/core/database.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

class CollectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.PutDocumentAt(
        "http://news/a", "<article><topic>storm</topic></article>",
        Day(1)).ok());
    ASSERT_TRUE(db_.PutDocumentAt(
        "http://news/b", "<article><topic>flood</topic></article>",
        Day(2)).ok());
    ASSERT_TRUE(db_.PutDocumentAt(
        "http://blog/c", "<article><topic>storm</topic></article>",
        Day(3)).ok());
    // news/a gets a second version; news/b dies.
    ASSERT_TRUE(db_.PutDocumentAt(
        "http://news/a", "<article><topic>cleanup</topic></article>",
        Day(10)).ok());
    ASSERT_TRUE(db_.DeleteDocumentAt("http://news/b", Day(12)).ok());
  }

  size_t Count(const std::string& query) {
    auto result = db_.Query(query);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status().ToString();
    if (!result.ok()) return 0;
    size_t n = 0;
    for (const auto& child : result->root()->children()) {
      if (child->is_element()) ++n;
    }
    return n;
  }

  TemporalXmlDatabase db_;
};

TEST_F(CollectionTest, PrefixSpansMatchingDocuments) {
  EXPECT_EQ(Count("SELECT A FROM collection(\"http://news/*\")/article A"),
            1u);  // only a is still alive currently
  EXPECT_EQ(Count("SELECT A FROM collection(\"http://news/*\")"
                  "[05/01/2001]/article A"),
            2u);  // both news docs existed on the 5th
  EXPECT_EQ(Count("SELECT A FROM collection(\"http://*\")"
                  "[05/01/2001]/article A"),
            3u);
}

TEST_F(CollectionTest, ExactUrlCollection) {
  EXPECT_EQ(Count("SELECT A FROM collection(\"http://blog/c\")/article A"),
            1u);
}

TEST_F(CollectionTest, EmptyCollectionYieldsEmptyResults) {
  // Unlike doc(), an unmatched collection is not an error — the warehouse
  // may simply not have crawled anything there yet.
  EXPECT_EQ(Count("SELECT A FROM collection(\"http://nothing/*\")/article A"),
            0u);
  EXPECT_TRUE(db_.Query("SELECT A FROM doc(\"http://nothing\")/article A")
                  .status().IsNotFound());
}

TEST_F(CollectionTest, EveryAcrossCollection) {
  // Element versions across all news docs: a has 2, b has 1.
  EXPECT_EQ(Count("SELECT TIME(A) FROM collection(\"http://news/*\")"
                  "[EVERY]/article A"),
            3u);
}

TEST_F(CollectionTest, PredicatesAndJoinsAcrossCollections) {
  EXPECT_EQ(Count("SELECT A FROM collection(\"http://*\")"
                  "[05/01/2001]/article A WHERE A/topic = \"storm\""),
            2u);
  // Join: pairs of distinct sources sharing a topic at the same instant.
  EXPECT_EQ(Count("SELECT A1 FROM collection(\"http://news/*\")"
                  "[05/01/2001]/article A1, "
                  "collection(\"http://blog/*\")[05/01/2001]/article A2 "
                  "WHERE A1/topic = A2/topic"),
            1u);
}

TEST_F(CollectionTest, AggregateOverCollection) {
  ExecStats stats;
  auto out = db_.QueryAt(
      "SELECT COUNT(A) FROM collection(\"http://*\")[05/01/2001]/article A",
      db_.latest_commit(), &stats);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->ToString().find(">3<"), std::string::npos) << out->ToString();
  // No reconstruction needed for the collection-wide count either.
  EXPECT_EQ(stats.snapshot_reconstructions, 0u);
}

}  // namespace
}  // namespace txml
