// The cost-based planner (src/query/planner.h): pinned strategies agree
// with each other (traversal is the index's oracle and vice versa), kAuto
// resolves to a real strategy and records its decision in ExecStats, and
// an explicitly requested strategy whose access structure is absent
// degrades gracefully — the kIndex + missing-lifetime-index crash this
// guards against used to abort the process.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/database.h"
#include "src/query/planner.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::string GuideXml(int v) {
  std::string xml = "<guide>";
  for (int i = 1; i <= v; ++i) {
    xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
           std::to_string(10 * i + v) + "</price></item>";
  }
  return xml + "</guide>";
}

void PutHistory(TemporalXmlDatabase* db) {
  for (int v = 1; v <= 5; ++v) {
    ASSERT_TRUE(db->PutDocumentAt("u", GuideXml(v), Day(v)).ok());
  }
  ASSERT_TRUE(db->PutDocumentAt("gone", "<d><x>w</x></d>", Day(2)).ok());
  ASSERT_TRUE(db->DeleteDocumentAt("gone", Day(4)).ok());
}

/// The battery both arms must answer identically — every FROM-item mode
/// (current, snapshot, [EVERY]) plus the lifetime operators.
const char* kQueries[] = {
    "SELECT R/name FROM doc(\"u\")/item R WHERE R/price > 40",
    "SELECT R/price FROM doc(\"u\")[03/01/2001]/item R WHERE R/name = \"n1\"",
    "SELECT COUNT(R) FROM doc(\"u\")[04/01/2001]/item R",
    "SELECT TIME(R), R/price FROM doc(\"u\")[EVERY]/item R "
    "WHERE R/name = \"n2\"",
    "SELECT CREATE TIME(R), DELETE TIME(R) FROM doc(\"u\")[EVERY]/item R "
    "WHERE R/name = \"n4\"",
};

std::vector<std::string> RunAll(const TemporalXmlDatabase& db,
                                ExecOptions options, ExecStats* stats) {
  options.now = Day(30);
  QueryExecutor executor(db.Context(), options);
  std::vector<std::string> outputs;
  for (const char* q : kQueries) {
    auto result = executor.Execute(q, stats);
    EXPECT_TRUE(result.ok()) << q << " -> " << result.status().ToString();
    outputs.push_back(result.ok() ? result->ToString() : "<error>");
  }
  return outputs;
}

TEST(PlannerTest, PinnedArmsAgreeAndAutoMatches) {
  TemporalXmlDatabase db;
  PutHistory(&db);

  ExecOptions index_opts;
  index_opts.scan_strategy = ScanStrategy::kIndex;
  ExecOptions traversal_opts;
  traversal_opts.scan_strategy = ScanStrategy::kTraversal;
  ExecOptions auto_opts;  // defaults: kAuto everywhere

  ExecStats index_stats, traversal_stats, auto_stats;
  const auto via_index = RunAll(db, index_opts, &index_stats);
  const auto via_traversal = RunAll(db, traversal_opts, &traversal_stats);
  const auto via_auto = RunAll(db, auto_opts, &auto_stats);

  EXPECT_EQ(via_index, via_traversal);
  EXPECT_EQ(via_auto, via_index);

  // Pins are obeyed and tallied: every scan goes to the pinned arm.
  EXPECT_GT(index_stats.scans_index, 0u);
  EXPECT_EQ(index_stats.scans_traversal, 0u);
  EXPECT_GT(traversal_stats.scans_traversal, 0u);
  EXPECT_EQ(traversal_stats.scans_index, 0u);
  // Both access structures exist, so nothing fell back.
  EXPECT_EQ(index_stats.strategy_fallbacks, 0u);
  EXPECT_EQ(traversal_stats.strategy_fallbacks, 0u);
  // kAuto resolved every scan to one arm or the other.
  EXPECT_EQ(auto_stats.scans_index + auto_stats.scans_traversal,
            index_stats.scans_index + index_stats.scans_traversal);
}

// The index arm joins only the FROM item's documents; over a store where
// every document holds the queried terms, it must still answer exactly
// like traversal for doc(...) and collection("p*") items in every mode —
// including a deleted document inside the collection.
TEST(PlannerTest, PinnedArmsAgreeOverManyDocuments) {
  TemporalXmlDatabase db;
  for (int d = 0; d < 9; ++d) {
    std::string url = d < 6 ? "p" : "q";
    url += std::to_string(d);
    for (int v = 1; v <= 4; ++v) {
      std::string xml = "<guide>";
      for (int i = 1; i <= v + d % 3; ++i) {
        xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
               std::to_string(10 * i + v + d) + "</price></item>";
      }
      ASSERT_TRUE(db.PutDocumentAt(url, xml + "</guide>", Day(d + 3 * v))
                      .ok());
    }
  }
  ASSERT_TRUE(db.DeleteDocumentAt("p4", Day(20)).ok());

  const std::vector<std::string> queries = {
      "SELECT R/price FROM doc(\"p2\")/item R",
      "SELECT R/price FROM doc(\"p2\")/item R WHERE R/name = \"n2\"",
      "SELECT R/name FROM doc(\"q7\")[12/01/2001]/item R",
      "SELECT COUNT(R) FROM doc(\"p3\")[10/01/2001]/item R",
      "SELECT TIME(R), R/price FROM doc(\"p1\")[EVERY]/item R "
      "WHERE R/name = \"n2\"",
      "SELECT R/price FROM collection(\"p*\")/item R WHERE R/name = \"n1\"",
      "SELECT R/name, R/price FROM collection(\"p*\")[15/01/2001]/item R",
      "SELECT COUNT(R) FROM collection(\"p*\")[18/01/2001]/item R "
      "WHERE R/name = \"n3\"",
      "SELECT TIME(R), R/price FROM collection(\"p*\")[EVERY]/item R "
      "WHERE R/name = \"n2\"",
      "SELECT CREATE TIME(R) FROM collection(\"p*\")[EVERY]/item R",
  };
  for (const std::string& query : queries) {
    std::string answers[2];
    for (int arm = 0; arm < 2; ++arm) {
      ExecOptions options;
      options.now = Day(30);
      options.scan_strategy =
          arm == 0 ? ScanStrategy::kIndex : ScanStrategy::kTraversal;
      ExecStats stats;
      auto result =
          QueryExecutor(db.Context(), options).Execute(query, &stats);
      ASSERT_TRUE(result.ok()) << query << " -> " << result.status().ToString();
      EXPECT_EQ(arm == 0 ? stats.scans_index : stats.scans_traversal, 1u)
          << query;
      answers[arm] = result->ToString();
    }
    EXPECT_NE(answers[0].find("<result"), std::string::npos)
        << query << " answered nothing: " << answers[0];
    EXPECT_EQ(answers[0], answers[1]) << query;
  }
}

// Regression: a pinned kIndex lifetime strategy on a context without the
// lifetime index used to hit a TXML_CHECK on the null index pointer and
// abort. It must degrade to traversal, answer correctly, and count the
// substitution.
TEST(PlannerTest, LifetimeIndexPinWithoutIndexFallsBack) {
  TemporalXmlDatabase db;
  PutHistory(&db);
  QueryContext bare = db.Context();
  bare.lifetime = nullptr;

  ExecOptions options;
  options.now = Day(30);
  options.lifetime_strategy = LifetimeStrategy::kIndex;
  QueryExecutor executor(bare, options);
  ExecStats stats;
  auto result = executor.Execute(
      "SELECT CREATE TIME(R) FROM doc(\"u\")[05/01/2001]/item R "
      "WHERE R/name = \"n3\"",
      &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // n3 first appears in version 3 (day 3).
  EXPECT_NE(result->ToString().find("03/01/2001"), std::string::npos)
      << result->ToString();
  EXPECT_GT(stats.strategy_fallbacks, 0u);
  EXPECT_GT(stats.lifetime_traversals, 0u);
  EXPECT_EQ(stats.lifetime_index_lookups, 0u);

  // And the answer matches the context that has the index.
  ExecOptions indexed_options;
  indexed_options.now = Day(30);
  indexed_options.lifetime_strategy = LifetimeStrategy::kIndex;
  QueryExecutor indexed_executor(db.Context(), indexed_options);
  ExecStats indexed_stats;
  auto indexed_result = indexed_executor.Execute(
      "SELECT CREATE TIME(R) FROM doc(\"u\")[05/01/2001]/item R "
      "WHERE R/name = \"n3\"",
      &indexed_stats);
  ASSERT_TRUE(indexed_result.ok());
  EXPECT_EQ(indexed_result->ToString(), result->ToString());
  EXPECT_GT(indexed_stats.lifetime_index_lookups, 0u);
  EXPECT_EQ(indexed_stats.strategy_fallbacks, 0u);
}

// A pinned kIndex scan without an FTI in the context must likewise
// substitute traversal instead of failing.
TEST(PlannerTest, ScanIndexPinWithoutFtiFallsBack) {
  TemporalXmlDatabase db;
  PutHistory(&db);
  QueryContext bare = db.Context();
  bare.fti = nullptr;

  ExecOptions options;
  options.now = Day(30);
  options.scan_strategy = ScanStrategy::kIndex;
  QueryExecutor executor(bare, options);
  ExecStats stats;
  auto result = executor.Execute(kQueries[3], &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(stats.strategy_fallbacks, 0u);
  EXPECT_EQ(stats.scans_index, 0u);
  EXPECT_GT(stats.scans_traversal, 0u);

  // Same answer as the indexed run.
  ExecOptions indexed_options;
  indexed_options.now = Day(30);
  QueryExecutor indexed(db.Context(), indexed_options);
  ExecStats indexed_stats;
  auto expected = indexed.Execute(kQueries[3], &indexed_stats);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(result->ToString(), expected->ToString());
}

TEST(PlannerTest, PlanScanResolvesAndCosts) {
  TemporalXmlDatabase db;
  PutHistory(&db);
  QueryContext ctx = db.Context();

  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf, "item",
                                /*projected=*/true);
  Pattern pattern(std::move(root));
  std::vector<const VersionedDocument*> docs = {
      ctx.store->FindByUrl("u")};
  ASSERT_NE(docs[0], nullptr);

  ScanPlan plan = PlanScan(ctx, pattern, ScanKind::kAll, docs,
                           ScanStrategy::kAuto);
  EXPECT_NE(plan.strategy, ScanStrategy::kAuto) << "must resolve";
  EXPECT_GT(plan.index_cost, 0.0);
  EXPECT_GT(plan.traversal_cost, 0.0);
  EXPECT_FALSE(plan.fell_back);
  // kAuto picks the cheaper estimate.
  EXPECT_EQ(plan.strategy, plan.index_cost <= plan.traversal_cost
                               ? ScanStrategy::kIndex
                               : ScanStrategy::kTraversal);

  // A [EVERY] scan weighs the whole history; a current scan only the
  // live tree — the traversal estimate must reflect that.
  ScanPlan current = PlanScan(ctx, pattern, ScanKind::kCurrent, docs,
                              ScanStrategy::kAuto);
  EXPECT_LT(current.traversal_cost, plan.traversal_cost);

  // Pins resolve to themselves when the structure exists.
  EXPECT_EQ(PlanScan(ctx, pattern, ScanKind::kAll, docs,
                     ScanStrategy::kTraversal).strategy,
            ScanStrategy::kTraversal);
  EXPECT_EQ(PlanScan(ctx, pattern, ScanKind::kAll, docs,
                     ScanStrategy::kIndex).strategy,
            ScanStrategy::kIndex);

  // No FTI: the index arm is unavailable whatever was requested.
  QueryContext bare = ctx;
  bare.fti = nullptr;
  ScanPlan fallback = PlanScan(bare, pattern, ScanKind::kAll, docs,
                               ScanStrategy::kIndex);
  EXPECT_EQ(fallback.strategy, ScanStrategy::kTraversal);
  EXPECT_TRUE(fallback.fell_back);
}

TEST(PlannerTest, ExplainShowsStrategyAndCosts) {
  TemporalXmlDatabase db;
  PutHistory(&db);
  auto plan = db.Explain(
      "SELECT R/price FROM doc(\"u\")[03/01/2001]/item R "
      "WHERE R/name = \"n1\"");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("strategy="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("index_cost="), std::string::npos) << *plan;
  EXPECT_NE(plan->find("traversal_cost="), std::string::npos) << *plan;
}

}  // namespace
}  // namespace txml
