// End-to-end reproduction of the paper's worked examples (Sections 5 and
// 6.2) and of the Section 7.4 equality discussion, through the full stack:
// query language -> planner -> temporal operators -> FTI -> delta storage.
#include <gtest/gtest.h>

#include <string>

#include "src/core/database.h"
#include "src/workload/restaurant.h"
#include "src/xml/parser.h"

namespace txml {
namespace {

std::string Url() { return kGuideUrl; }

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const Figure1Version& version : Figure1History()) {
      auto put = db_.PutDocumentAt(Url(), version.xml, version.ts);
      ASSERT_TRUE(put.ok()) << put.status().ToString();
    }
  }

  /// Runs a query and returns the compact <results> serialization.
  std::string Run(const std::string& query) {
    auto result = db_.QueryToString(query, /*pretty=*/false);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status().ToString();
    return result.ok() ? *result : "";
  }

  size_t CountResults(const std::string& query) {
    auto result = db_.Query(query);
    EXPECT_TRUE(result.ok()) << query << " -> " << result.status().ToString();
    if (!result.ok()) return 0;
    size_t count = 0;
    for (const auto& child : result->root()->children()) {
      if (child->is_element() && child->name() == "result") ++count;
    }
    return count;
  }

  TemporalXmlDatabase db_;
};

// Q1 (Section 6.2): list all restaurants as of 26/01/2001 — snapshot query
// executed as TPatternScan followed by Reconstruct.
TEST_F(PaperExamplesTest, Q1SnapshotListing) {
  std::string out = Run("SELECT R FROM doc(\"" + Url() +
                        "\")[26/01/2001]/restaurant R");
  // Version 2 is valid: Napoli (15) and Akropolis (13).
  EXPECT_NE(out.find("<name>Napoli</name>"), std::string::npos) << out;
  EXPECT_NE(out.find("<name>Akropolis</name>"), std::string::npos) << out;
  EXPECT_NE(out.find("<price>15</price>"), std::string::npos) << out;
  EXPECT_NE(out.find("<price>13</price>"), std::string::npos) << out;
  EXPECT_EQ(out.find("<price>18</price>"), std::string::npos) << out;
  EXPECT_EQ(CountResults("SELECT R FROM doc(\"" + Url() +
                         "\")[26/01/2001]/restaurant R"),
            2u);
  // The same query at 05/01 sees only Napoli at 15.
  std::string early = Run("SELECT R FROM doc(\"" + Url() +
                          "\")[05/01/2001]/restaurant R");
  EXPECT_EQ(early.find("Akropolis"), std::string::npos);
  // And at 31/01 the price is 18.
  std::string late = Run("SELECT R FROM doc(\"" + Url() +
                         "\")[31/01/2001]/restaurant R");
  EXPECT_NE(late.find("<price>18</price>"), std::string::npos);
}

// Q2 (Section 6.2): count restaurants at 26/01/2001 — TPatternScan plus an
// aggregate, *without* reconstruction ("this is important, and shows that
// in many cases the storage of only deltas ... does not create performance
// problems").
TEST_F(PaperExamplesTest, Q2AggregateWithoutReconstruction) {
  const std::string sum =
      "SELECT SUM(R) FROM doc(\"" + Url() + "\")[26/01/2001]/restaurant R";
  std::string out = Run(sum);
  EXPECT_NE(out.find(">2<"), std::string::npos) << out;
  // The optimization: no snapshot was materialized.
  ExecStats stats;
  ASSERT_TRUE(db_.QueryAt(sum, db_.latest_commit(), &stats).ok());
  EXPECT_EQ(stats.snapshot_reconstructions, 0u);

  // COUNT agrees.
  std::string count = Run("SELECT COUNT(R) FROM doc(\"" + Url() +
                          "\")[26/01/2001]/restaurant R");
  EXPECT_NE(count.find(">2<"), std::string::npos) << count;
}

// Q3 (Section 6.2): the price history of restaurant Napoli — [EVERY] plus
// a WHERE predicate, executed as TPatternScanAll.
TEST_F(PaperExamplesTest, Q3PriceHistory) {
  std::string out = Run("SELECT TIME(R), R/price FROM doc(\"" + Url() +
                        "\")[EVERY]/guide/restaurant R "
                        "WHERE R/name = \"Napoli\"");
  // Two element versions: price 15 from 01/01, price 18 from 31/01.
  EXPECT_NE(out.find("01/01/2001"), std::string::npos) << out;
  EXPECT_NE(out.find("<price>15</price>"), std::string::npos) << out;
  EXPECT_NE(out.find("31/01/2001"), std::string::npos) << out;
  EXPECT_NE(out.find("<price>18</price>"), std::string::npos) << out;
  // Akropolis never appears.
  EXPECT_EQ(out.find("13"), std::string::npos) << out;
  EXPECT_EQ(CountResults("SELECT TIME(R), R/price FROM doc(\"" + Url() +
                         "\")[EVERY]/guide/restaurant R "
                         "WHERE R/name = \"Napoli\""),
            2u);
}

// Section 5: snapshot with the full absolute path and a price predicate.
TEST_F(PaperExamplesTest, PricePredicate) {
  EXPECT_EQ(CountResults("SELECT R FROM doc(\"" + Url() +
                         "\")[26/01/2001]/guide/restaurant R "
                         "WHERE R/price < 14"),
            1u);
  std::string out = Run("SELECT R/name FROM doc(\"" + Url() +
                        "\")[26/01/2001]/guide/restaurant R "
                        "WHERE R/price < 14");
  EXPECT_NE(out.find("Akropolis"), std::string::npos) << out;
}

// Section 6.1: CREATE TIME(R) >= … predicates.
TEST_F(PaperExamplesTest, CreateTimePredicate) {
  std::string out = Run("SELECT R/name FROM doc(\"" + Url() +
                        "\")[26/01/2001]/restaurant R "
                        "WHERE CREATE TIME(R) >= 11/01/2001");
  EXPECT_NE(out.find("Akropolis"), std::string::npos) << out;
  EXPECT_EQ(out.find("Napoli"), std::string::npos) << out;
  // DELETE TIME: Akropolis was deleted 31/01; Napoli is alive (<null/>).
  std::string del = Run("SELECT R/name, DELETE TIME(R) FROM doc(\"" + Url() +
                        "\")[26/01/2001]/restaurant R");
  EXPECT_NE(del.find("31/01/2001"), std::string::npos) << del;
  EXPECT_NE(del.find("<null/>"), std::string::npos) << del;
}

// Section 5: relative time — NOW - N DAYS. The database clock sits just
// after 31/01/2001 (the last loaded version).
TEST_F(PaperExamplesTest, RelativeTimeArithmetic) {
  // NOW - 10 DAYS is around 21/01: version 2 is valid -> 2 restaurants.
  EXPECT_EQ(CountResults("SELECT R FROM doc(\"" + Url() +
                         "\")[NOW - 10 DAYS]/restaurant R"),
            2u);
  // 01/01/2001 + 2 WEEKS = 15/01: version 2 again.
  EXPECT_EQ(CountResults("SELECT R FROM doc(\"" + Url() +
                         "\")[01/01/2001 + 2 WEEKS]/restaurant R"),
            2u);
}

// Section 6.1: CURRENT/PREVIOUS navigation from a temporal snapshot.
TEST_F(PaperExamplesTest, CurrentAndPreviousNavigation) {
  // From the 26/01 snapshot, CURRENT(R)/price is 18 for Napoli.
  std::string out = Run("SELECT DISTINCT CURRENT(R)/price FROM doc(\"" +
                        Url() + "\")[26/01/2001]/restaurant R "
                        "WHERE R/name = \"Napoli\"");
  EXPECT_NE(out.find("<price>18</price>"), std::string::npos) << out;
  // CURRENT of Akropolis: element gone in the current version -> null.
  std::string gone = Run("SELECT CURRENT(R) FROM doc(\"" + Url() +
                         "\")[26/01/2001]/restaurant R "
                         "WHERE R/name = \"Akropolis\"");
  EXPECT_NE(gone.find("<null/>"), std::string::npos) << gone;
  // PREVIOUS from the 31/01 snapshot is the version of 15/01.
  std::string prev = Run("SELECT PREVIOUS(R) FROM doc(\"" + Url() +
                         "\")[31/01/2001]/restaurant R "
                         "WHERE R/name = \"Napoli\"");
  EXPECT_NE(prev.find("<price>15</price>"), std::string::npos) << prev;
}

// Section 6.1: SELECT DIFF(R1, R2) — the result is an edit script in XML.
TEST_F(PaperExamplesTest, DiffBetweenSnapshots) {
  std::string out = Run(
      "SELECT DIFF(R1, R2) FROM doc(\"" + Url() +
      "\")[26/01/2001]/guide R1, doc(\"" + Url() + "\")[31/01/2001]/guide R2 "
      "WHERE R1 == R2");
  EXPECT_NE(out.find("<delta"), std::string::npos) << out;
  // The delta records the price update and the deleted Akropolis subtree.
  EXPECT_NE(out.find("<update"), std::string::npos) << out;
  EXPECT_NE(out.find("<delete"), std::string::npos) << out;
  EXPECT_NE(out.find("Akropolis"), std::string::npos) << out;
}

// Section 7.4: the price-increase query — join of two snapshots on
// restaurant name.
TEST_F(PaperExamplesTest, PriceIncreaseJoin) {
  std::string out = Run(
      "SELECT R1/name FROM doc(\"" + Url() +
      "\")[10/01/2001]/restaurant R1, doc(\"" + Url() +
      "\")[NOW]/restaurant R2 "
      "WHERE R1/name = R2/name AND R1/price < R2/price");
  EXPECT_NE(out.find("Napoli"), std::string::npos) << out;  // 15 -> 18
  // With EID identity instead of name equality (the '==' flavour):
  std::string by_id = Run(
      "SELECT R1/name FROM doc(\"" + Url() +
      "\")[10/01/2001]/restaurant R1, doc(\"" + Url() +
      "\")[NOW]/restaurant R2 "
      "WHERE R1 == R2 AND R1/price < R2/price");
  EXPECT_NE(by_id.find("Napoli"), std::string::npos) << by_id;
}

// Section 7.4: the similarity operator '~'.
TEST_F(PaperExamplesTest, SimilarityOperator) {
  ASSERT_TRUE(db_.PutDocumentAt(
      "http://other.com",
      "<guide><restaurant><name>Napoli Pizza</name>"
      "<price>20</price></restaurant></guide>",
      Timestamp::FromDate(2001, 2, 5)).ok());
  // Deep equality fails across the two spellings, similarity matches.
  EXPECT_EQ(CountResults(
                "SELECT R1/name FROM doc(\"" + Url() +
                "\")[NOW]/restaurant R1, "
                "doc(\"http://other.com\")/restaurant R2 "
                "WHERE R1/name = R2/name"),
            0u);
  EXPECT_EQ(CountResults(
                "SELECT R1/name FROM doc(\"" + Url() +
                "\")[NOW]/restaurant R1, "
                "doc(\"http://other.com\")/restaurant R2 "
                "WHERE R1/name ~ R2/name"),
            1u);
}

// Section 7.4's identity caveat, end to end: an entry accidentally deleted
// and re-introduced gets a new EID, so '==' fails across the gap while
// name equality still holds.
TEST_F(PaperExamplesTest, ReintroducedEntryHasNewIdentity) {
  ASSERT_TRUE(db_.PutDocumentAt(
      Url(),
      "<guide><restaurant><name>Napoli</name><price>18</price></restaurant>"
      "<restaurant><name>Akropolis</name><price>13</price></restaurant>"
      "</guide>",
      Timestamp::FromDate(2001, 2, 14)).ok());
  // Akropolis of 26/01 vs Akropolis of 14/02: same content, different EID.
  EXPECT_EQ(CountResults(
                "SELECT R1/name FROM doc(\"" + Url() +
                "\")[26/01/2001]/restaurant R1, doc(\"" + Url() +
                "\")[NOW]/restaurant R2 "
                "WHERE R1 == R2 AND R1/name = \"Akropolis\""),
            0u);
  EXPECT_EQ(CountResults(
                "SELECT R1/name FROM doc(\"" + Url() +
                "\")[26/01/2001]/restaurant R1, doc(\"" + Url() +
                "\")[NOW]/restaurant R2 "
                "WHERE R1/name = R2/name AND R1/name = \"Akropolis\""),
            1u);
}

// The results envelope convention of Section 5.
TEST_F(PaperExamplesTest, ResultsEnvelope) {
  auto result = db_.Query("SELECT R/name FROM doc(\"" + Url() +
                          "\")[26/01/2001]/restaurant R");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->root()->name(), "results");
  for (const auto& child : result->root()->children()) {
    EXPECT_EQ(child->name(), "result");
  }
}

// Unknown documents and malformed queries fail cleanly.
TEST_F(PaperExamplesTest, ErrorPaths) {
  EXPECT_TRUE(db_.Query("SELECT R FROM doc(\"http://nope\")/r R")
                  .status().IsNotFound());
  EXPECT_TRUE(db_.Query("SELECT X FROM doc(\"" + Url() + "\")/restaurant R")
                  .status().IsInvalidArgument());
  EXPECT_TRUE(db_.Query("SELECT R FROM doc(\"" + Url() + "\")/restaurant R "
                        "WHERE R + 1 DAYS < 3")
                  .status().IsInvalidArgument());
}

}  // namespace
}  // namespace txml
