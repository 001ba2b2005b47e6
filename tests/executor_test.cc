// Focused executor semantics: value comparison flavours, aggregates,
// DISTINCT, multi-variable joins, the pushdown and skip-reconstruction
// optimizations, and error paths — beyond the paper-example integration
// tests.
#include <gtest/gtest.h>

#include <string>

#include "src/core/database.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.PutDocumentAt(
        "u",
        "<shop><item sku=\"a1\"><name>Blue Widget</name><price>10</price>"
        "<tags>cheap blue</tags></item>"
        "<item sku=\"b2\"><name>Red Widget</name><price>25.5</price>"
        "<tags>red</tags></item>"
        "<item sku=\"c3\"><name>Gadget</name><price>7</price>"
        "<tags>cheap</tags></item></shop>",
        Day(1)).ok());
    ASSERT_TRUE(db_.PutDocumentAt(
        "u",
        "<shop><item sku=\"a1\"><name>Blue Widget</name><price>12</price>"
        "<tags>cheap blue</tags></item>"
        "<item sku=\"b2\"><name>Red Widget</name><price>25.5</price>"
        "<tags>red</tags></item></shop>",
        Day(10)).ok());
  }

  std::string Run(const std::string& query) {
    auto result = db_.QueryToString(query, /*pretty=*/false);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status().ToString();
    return result.ok() ? *result : "";
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

TEST_F(ExecutorTest, NumericVsStringComparison) {
  // 7 < 10 numerically (string compare would say "10" < "7").
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/price < 10"), 1u);
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/price <= 10"), 2u);
  // Decimal values compare numerically too.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/price > 25"), 1u);
  // Strings compare lexicographically.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/name > \"Gadget\""), 1u);
}

TEST_F(ExecutorTest, ExistentialNodeSetComparison) {
  // tags contains multiple words; '=' on the element compares the whole
  // text, containment needs a word-level test ('~' or equality on text).
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/tags = \"cheap\""), 1u);  // exact text match only
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/tags ~ \"cheap\""), 2u);  // token overlap
}

TEST_F(ExecutorTest, NotEqual) {
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/name != \"Gadget\""), 2u);
}

TEST_F(ExecutorTest, AttributeInSelectAndWhere) {
  std::string out = Run("SELECT I/@sku FROM doc(\"u\")[05/01/2001]/item I "
                        "WHERE I/price = 7");
  EXPECT_NE(out.find("c3"), std::string::npos) << out;
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/@sku = \"b2\""), 1u);
}

TEST_F(ExecutorTest, Aggregates) {
  EXPECT_NE(Run("SELECT SUM(I/price) FROM doc(\"u\")[05/01/2001]/item I")
                .find("42.5"), std::string::npos);
  EXPECT_NE(Run("SELECT MIN(I/price) FROM doc(\"u\")[05/01/2001]/item I")
                .find(">7<"), std::string::npos);
  EXPECT_NE(Run("SELECT MAX(I/price) FROM doc(\"u\")[05/01/2001]/item I")
                .find("25.5"), std::string::npos);
  EXPECT_NE(Run("SELECT COUNT(I) FROM doc(\"u\")[05/01/2001]/item I")
                .find(">3<"), std::string::npos);
  // Aggregate over empty input.
  EXPECT_NE(Run("SELECT COUNT(I) FROM doc(\"u\")[05/01/2001]/item I "
                "WHERE I/price > 999").find(">0<"), std::string::npos);
  EXPECT_NE(Run("SELECT MIN(I/price) FROM doc(\"u\")[05/01/2001]/item I "
                "WHERE I/price > 999").find("<null/>"), std::string::npos);
  // Multiple aggregates in one query.
  std::string both =
      Run("SELECT MIN(I/price), MAX(I/price) "
          "FROM doc(\"u\")[05/01/2001]/item I");
  EXPECT_NE(both.find(">7"), std::string::npos) << both;
  EXPECT_NE(both.find("25.5"), std::string::npos) << both;
  // Mixing aggregates and plain expressions is rejected.
  EXPECT_TRUE(db_.Query("SELECT COUNT(I), I FROM doc(\"u\")/item I")
                  .status().IsInvalidArgument());
}

TEST_F(ExecutorTest, AvgAggregate) {
  std::string out =
      Run("SELECT AVG(I/price) FROM doc(\"u\")[11/01/2001]/item I");
  // (12 + 25.5) / 2 = 18.75
  EXPECT_NE(out.find("18.75"), std::string::npos) << out;
}

TEST_F(ExecutorTest, Distinct) {
  // Two items share the word Widget in their names.
  EXPECT_EQ(Count("SELECT I/tags FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/name ~ \"Widget\""), 2u);
  EXPECT_EQ(Count("SELECT DISTINCT I/name FROM doc(\"u\")[EVERY]/item I"),
            3u);  // Blue Widget, Red Widget, Gadget — despite 5 versions
}

TEST_F(ExecutorTest, MultiWordConstantNotPushedDownButStillCorrect) {
  // "Blue Widget" cannot become a single FTI word test; the filter must
  // still apply post-scan.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/name = \"Blue Widget\""), 1u);
}

TEST_F(ExecutorTest, CrossProductJoin) {
  // Pairs of items with equal tags text across two snapshots.
  EXPECT_EQ(Count("SELECT I1/name FROM doc(\"u\")[05/01/2001]/item I1, "
                  "doc(\"u\")[11/01/2001]/item I2 "
                  "WHERE I1/tags = I2/tags AND I1/@sku = I2/@sku"),
            2u);  // a1 and b2 survive; c3 was deleted
}

TEST_F(ExecutorTest, ContainsPredicate) {
  // Word containment — the FTI's native test (Section 6.1).
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE CONTAINS(I/tags, \"cheap\")"), 2u);
  // Conjunctive over multiple words in the same element.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE CONTAINS(I/tags, \"cheap blue\")"), 1u);
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE CONTAINS(I/tags, \"cheap red\")"), 0u);
  // Bare-variable target: words directly in the item element itself —
  // attribute values count, descendant text does not.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE CONTAINS(I, \"a1\")"), 1u);
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE CONTAINS(I, \"cheap\")"), 0u);
  // Case-insensitive, like the index.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE CONTAINS(I/name, \"WIDGET\")"), 2u);
  // Negation composes.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE NOT CONTAINS(I/tags, \"cheap\")"), 1u);
  // Works over [EVERY] histories too.
  EXPECT_EQ(Count("SELECT TIME(I) FROM doc(\"u\")[EVERY]/item I "
                  "WHERE CONTAINS(I/name, \"Gadget\")"), 1u);
  // Malformed uses are rejected.
  EXPECT_TRUE(db_.Query("SELECT I FROM doc(\"u\")/item I "
                        "WHERE CONTAINS(TIME(I), \"x\")")
                  .status().IsParseError());
  EXPECT_TRUE(db_.Query("SELECT I FROM doc(\"u\")/item I "
                        "WHERE CONTAINS(I/name, 5)")
                  .status().IsParseError());
}

TEST_F(ExecutorTest, NotOperator) {
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE NOT I/name = \"Gadget\""), 2u);
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE NOT (I/price = 7 OR I/price = 10)"), 1u);
  // NOT over a null-producing expression: null is falsy, NOT null is true.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE NOT DELETE TIME(I) < 01/01/2050"), 2u);
}

TEST_F(ExecutorTest, OrShortCircuitAndParens) {
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE I/price = 7 OR I/price = 10"), 2u);
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE (I/price = 7 OR I/price = 10) "
                  "AND I/name ~ \"Widget\""), 1u);
}

TEST_F(ExecutorTest, TimeComparisonsInWhere) {
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[11/01/2001]/item I "
                  "WHERE TIME(I) >= 10/01/2001"), 1u);  // only a1 changed
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[11/01/2001]/item I "
                  "WHERE TIME(I) < 10/01/2001"), 1u);   // b2 untouched
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[11/01/2001]/item I "
                  "WHERE CREATE TIME(I) = 01/01/2001"), 2u);
}

TEST_F(ExecutorTest, EveryBindsElementVersions) {
  // a1 has two versions (price 10 then 12); b2 one; c3 one: 4 rows.
  EXPECT_EQ(Count("SELECT TIME(I) FROM doc(\"u\")[EVERY]/item I"), 4u);
  // Restricting by content hits the right version.
  std::string out = Run("SELECT TIME(I) FROM doc(\"u\")[EVERY]/item I "
                        "WHERE I/price = 12");
  EXPECT_NE(out.find("10/01/2001"), std::string::npos) << out;
  EXPECT_EQ(out.find("01/01/2001"), std::string::npos) << out;
}

TEST_F(ExecutorTest, NavNullHandling) {
  // NEXT of the latest version is null.
  std::string out = Run("SELECT NEXT(I) FROM doc(\"u\")[11/01/2001]/item I "
                        "WHERE I/@sku = \"a1\"");
  EXPECT_NE(out.find("<null/>"), std::string::npos) << out;
  // PREVIOUS of the first version is null.
  std::string prev = Run("SELECT PREVIOUS(I) FROM doc(\"u\")"
                         "[05/01/2001]/item I WHERE I/@sku = \"a1\"");
  EXPECT_NE(prev.find("<null/>"), std::string::npos) << prev;
  // Null comparisons are false, not errors.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[05/01/2001]/item I "
                  "WHERE DELETE TIME(I) < 01/01/2050"), 1u);  // only c3 died
}

TEST_F(ExecutorTest, SnapshotBeforeCreationYieldsNoBindings) {
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[01/01/1999]/item I"), 0u);
}

TEST_F(ExecutorTest, SkipReconstructionStat) {
  ExecStats count_stats;
  ASSERT_TRUE(db_.QueryAt("SELECT COUNT(I) FROM doc(\"u\")"
                          "[05/01/2001]/item I",
                          db_.latest_commit(), &count_stats)
                  .ok());
  EXPECT_EQ(count_stats.snapshot_reconstructions, 0u);
  ExecStats content_stats;
  ASSERT_TRUE(db_.QueryAt("SELECT I FROM doc(\"u\")[05/01/2001]/item I",
                          db_.latest_commit(), &content_stats)
                  .ok());
  EXPECT_GT(content_stats.snapshot_reconstructions, 0u);
}

TEST_F(ExecutorTest, DuplicateVariableRejected) {
  EXPECT_TRUE(db_.Query("SELECT R FROM doc(\"u\")/item R, doc(\"u\")/item R")
                  .status().IsInvalidArgument());
}

TEST_F(ExecutorTest, IdEqRequiresVariables) {
  EXPECT_TRUE(db_.Query("SELECT I FROM doc(\"u\")/item I "
                        "WHERE I/name == \"x\"")
                  .status().IsInvalidArgument());
}

TEST_F(ExecutorTest, WildcardFromPathRejected) {
  Status status = db_.Query("SELECT I FROM doc(\"u\")/*/name I").status();
  EXPECT_TRUE(status.code() == StatusCode::kUnimplemented ||
              status.code() == StatusCode::kInvalidArgument)
      << status.ToString();
}

TEST_F(ExecutorTest, DeletedDocumentSnapshots) {
  ASSERT_TRUE(db_.DeleteDocumentAt("u", Day(20)).ok());
  // Before the delete: still visible.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[15/01/2001]/item I"), 2u);
  // After: gone.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")[25/01/2001]/item I"), 0u);
  // Current snapshot: gone.
  EXPECT_EQ(Count("SELECT I FROM doc(\"u\")/item I"), 0u);
  // History still full.
  EXPECT_EQ(Count("SELECT TIME(I) FROM doc(\"u\")[EVERY]/item I"), 4u);
  // DELETE TIME now reports the document deletion for survivors.
  std::string out = Run("SELECT I/@sku, DELETE TIME(I) "
                        "FROM doc(\"u\")[15/01/2001]/item I");
  EXPECT_NE(out.find("20/01/2001"), std::string::npos) << out;
}

}  // namespace
}  // namespace txml
