// EXPLAIN: the plan rendering must expose the planner's decisions —
// operator selection per time mode, WHERE-constant pushdown into patterns,
// and the materialization analysis.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/lang/executor.h"

namespace txml {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.PutDocumentAt(
        "u", "<g><r><name>Napoli</name><price>15</price></r></g>",
        Timestamp::FromDate(2001, 1, 1)).ok());
  }

  std::string Explain(const std::string& query) {
    auto plan = db_.Explain(query);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : "";
  }

  TemporalXmlDatabase db_;
};

TEST_F(ExplainTest, OperatorSelectionPerTimeMode) {
  EXPECT_NE(Explain("SELECT R FROM doc(\"u\")/r R")
                .find("PatternScan[current]"), std::string::npos);
  EXPECT_NE(Explain("SELECT R FROM doc(\"u\")[26/01/2001]/r R")
                .find("TPatternScan[t=26/01/2001]"), std::string::npos);
  EXPECT_NE(Explain("SELECT R FROM doc(\"u\")[EVERY]/r R")
                .find("TPatternScanAll"), std::string::npos);
}

TEST_F(ExplainTest, SnapshotTimeArithmeticIsFolded) {
  std::string plan =
      Explain("SELECT R FROM doc(\"u\")[26/01/2001 + 2 WEEKS]/r R");
  EXPECT_NE(plan.find("TPatternScan[t=09/02/2001]"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, PushdownVisibleInPattern) {
  std::string plan = Explain(
      "SELECT R FROM doc(\"u\")[EVERY]/r R WHERE R/name = \"Napoli\"");
  // The constant became a word test under name, and the filter remains.
  EXPECT_NE(plan.find("name[.~'napoli']"), std::string::npos) << plan;
  EXPECT_NE(plan.find("filter: (R/name = \"Napoli\")"), std::string::npos)
      << plan;
}

TEST_F(ExplainTest, ContainsPushesEveryWord) {
  std::string plan = Explain(
      "SELECT R FROM doc(\"u\")[EVERY]/r R "
      "WHERE CONTAINS(R/name, \"cheap blue\")");
  EXPECT_NE(plan.find("'cheap'"), std::string::npos) << plan;
  EXPECT_NE(plan.find("'blue'"), std::string::npos) << plan;
  EXPECT_NE(plan.find("filter: CONTAINS(R/name, \"cheap blue\")"),
            std::string::npos) << plan;
}

TEST_F(ExplainTest, MaterializationAnalysis) {
  EXPECT_NE(Explain("SELECT COUNT(R) FROM doc(\"u\")/r R")
                .find("materialize=no"), std::string::npos);
  EXPECT_NE(Explain("SELECT R/price FROM doc(\"u\")/r R")
                .find("materialize=yes"), std::string::npos);
  // TIME-only queries need no content either.
  EXPECT_NE(Explain("SELECT TIME(R), CREATE TIME(R) FROM doc(\"u\")/r R")
                .find("materialize=no"), std::string::npos);
}

TEST_F(ExplainTest, CollectionsAndMultipleVariables) {
  std::string plan = Explain(
      "SELECT R1/name FROM doc(\"u\")[01/01/2001]/r R1, "
      "collection(\"http://*\")/r R2 WHERE R1 == R2");
  EXPECT_NE(plan.find("R1: TPatternScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("R2: PatternScan[current]"), std::string::npos) << plan;
  EXPECT_NE(plan.find("collection=\"http://*\""), std::string::npos) << plan;
  EXPECT_NE(plan.find("output: R1/name"), std::string::npos) << plan;
}

TEST_F(ExplainTest, ErrorsStillSurface) {
  EXPECT_TRUE(db_.Explain("SELECT").status().IsParseError());
  EXPECT_TRUE(db_.Explain("SELECT X FROM doc(\"u\")/r R")
                  .status().IsInvalidArgument());
}

/// The arm an EXPLAIN line names after " strategy=", or "" without one.
std::string StrategyOf(const std::string& plan) {
  const std::string key = " strategy=";
  size_t at = plan.find(key);
  if (at == std::string::npos) return "";
  at += key.size();
  return plan.substr(at, plan.find(' ', at) - at);
}

TEST_F(ExplainTest, PlanMatchesExecutedArm) {
  // EXPLAIN prints the plan Run executes: for every time mode and every
  // pinned or planned strategy, with and without an FTI (the fallback),
  // the arm EXPLAIN names is the arm ExecStats counts for the same query.
  for (int d = 2; d <= 4; ++d) {
    ASSERT_TRUE(db_.PutDocumentAt(
                       "u",
                       "<g><r><name>Napoli</name><price>" +
                           std::to_string(10 + d) + "</price></r><r><name>"
                           "Roma</name></r></g>",
                       Timestamp::FromDate(2001, 1, d))
                    .ok());
  }
  const std::vector<std::string> queries = {
      "SELECT R FROM doc(\"u\")/r R",
      "SELECT COUNT(R) FROM doc(\"u\")/r R WHERE R/name = \"Roma\"",
      "SELECT R/price FROM doc(\"u\")[02/01/2001]/r R",
      "SELECT TIME(R) FROM doc(\"u\")[03/01/2001]/r R",
      "SELECT R FROM doc(\"u\")[EVERY]/r R",
      "SELECT TIME(R) FROM doc(\"u\")[EVERY]/r R WHERE R/name = \"Napoli\"",
  };
  QueryContext with_fti = db_.Context();
  QueryContext without_fti = with_fti;
  without_fti.fti = nullptr;
  for (const QueryContext& ctx : {with_fti, without_fti}) {
    for (ScanStrategy strategy : {ScanStrategy::kAuto, ScanStrategy::kIndex,
                                  ScanStrategy::kTraversal}) {
      ExecOptions options;
      options.now = Timestamp::FromDate(2001, 2, 1);
      options.scan_strategy = strategy;
      QueryExecutor executor(ctx, options);
      for (const std::string& query : queries) {
        SCOPED_TRACE(query + " strategy=" + ScanStrategyName(strategy) +
                     (ctx.fti == nullptr ? " without FTI" : ""));
        auto plan = executor.Explain(query);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        ExecStats stats;
        auto result = executor.Execute(query, &stats);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_EQ(stats.scans_index + stats.scans_traversal, 1u);
        EXPECT_EQ(StrategyOf(*plan),
                  stats.scans_index == 1 ? "index" : "traversal")
            << *plan;
        if (ctx.fti == nullptr) {
          EXPECT_EQ(stats.scans_index, 0u);
        }
      }
    }
  }
}

TEST_F(ExplainTest, ErrorPrecedenceMatchesParent) {
  // Run resolves a FROM item's documents before its pattern: a missing
  // document is NotFound, and a source with no documents binds nothing
  // whatever its pattern. EXPLAIN builds the pattern first and renders a
  // plan, without the planner's decision, for an absent document.
  EXPECT_TRUE(db_.Query("SELECT R FROM doc(\"nope\")/* R")
                  .status()
                  .IsNotFound());
  EXPECT_EQ(db_.Explain("SELECT R FROM doc(\"nope\")/* R").status().code(),
            StatusCode::kUnimplemented);

  auto none = db_.Query("SELECT R FROM collection(\"zz*\")/* R");
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(none->root()->children().empty()) << none->ToString();
  EXPECT_EQ(
      db_.Explain("SELECT R FROM collection(\"zz*\")/* R").status().code(),
      StatusCode::kUnimplemented);

  std::string plan = Explain("SELECT R FROM doc(\"nope\")/r R");
  EXPECT_NE(plan.find("R: PatternScan[current] pattern="), std::string::npos)
      << plan;
  EXPECT_NE(plan.find(" doc=\"nope\" materialize=yes\n"), std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("strategy="), std::string::npos) << plan;
}

TEST_F(ExplainTest, RunStopsAtTheFirstItemsMissingDocument) {
  // Run binds FROM items in order: the first item's missing document wins
  // over the second item's unsupported wildcard step.
  EXPECT_TRUE(db_.Query("SELECT R FROM doc(\"nope\")/r R, doc(\"u\")/* S")
                  .status()
                  .IsNotFound());
}

}  // namespace
}  // namespace txml
