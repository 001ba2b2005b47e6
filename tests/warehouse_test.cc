// End-to-end warehouse consistency: a randomized multi-document history is
// loaded into (a) the temporal database and (b) the stratum baseline; then
// language-level snapshot counts, history counts, and aggregate results
// must agree between the native engine and the stratum oracle — across
// save/reload and document deletions.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>

#include "bench/baselines/stratum_store.h"
#include "src/core/database.h"
#include "src/util/random.h"
#include "src/workload/tdocgen.h"
#include "src/xml/pattern.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

class WarehouseConsistencyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WarehouseConsistencyTest, LanguageAgreesWithStratumOracle) {
  auto [seed, mutations] = GetParam();
  TemporalXmlDatabase db;
  StratumStore stratum;

  constexpr int kDocs = 3;
  constexpr int kVersions = 12;
  int day = 1;
  for (int d = 0; d < kDocs; ++d) {
    TDocGenOptions options;
    options.initial_items = 12;
    options.mutations_per_version = static_cast<size_t>(mutations);
    options.seed = static_cast<uint64_t>(seed * 1000 + d);
    TDocGen gen(options);
    std::string url = "http://warehouse/doc" + std::to_string(d);
    auto initial = gen.InitialDocument();
    ASSERT_TRUE(stratum.Put(url, initial->Clone(), Day(day)).ok());
    ASSERT_TRUE(db.PutDocumentTree(url, std::move(initial), Day(day)).ok());
    ++day;
    for (int v = 2; v <= kVersions; ++v) {
      auto next = gen.NextVersion(*db.store().FindByUrl(url)->current());
      ASSERT_TRUE(stratum.Put(url, next->Clone(), Day(day)).ok());
      ASSERT_TRUE(db.PutDocumentTree(url, std::move(next), Day(day)).ok());
      ++day;
    }
  }
  // Kill one document partway into the timeline's future.
  ASSERT_TRUE(db.DeleteDocumentAt("http://warehouse/doc0", Day(day)).ok());
  ASSERT_TRUE(stratum.Delete("http://warehouse/doc0", Day(day)).ok());
  ++day;

  // Persist and reload: consistency must survive the round trip.
  // Unique per test parameter: parallel ctest runs the sweep's cases
  // concurrently, and two cases sharing a directory race Save/remove_all.
  std::string dir = (std::filesystem::temp_directory_path() /
                     ("txml_warehouse_consistency" + std::to_string(seed) +
                      "_" + std::to_string(mutations)))
                        .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(db.Save(dir).ok());
  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok());
  std::filesystem::remove_all(dir);

  Pattern item_pattern(PatternNode::Make(
      PatternNode::Test::kElementName, PatternNode::Axis::kDescendantOrSelf,
      "item", /*projected=*/true));

  auto count_results = [](TemporalXmlDatabase* target,
                          const std::string& query) {
    auto result = target->Query(query);
    EXPECT_TRUE(result.ok()) << query << " -> "
                             << result.status().ToString();
    if (!result.ok()) return size_t{0};
    size_t n = 0;
    for (const auto& child : result->root()->children()) {
      if (child->is_element()) ++n;
    }
    return n;
  };

  for (TemporalXmlDatabase* target : {&db, reopened->get()}) {
    // Snapshot counts at several instants, including before creation,
    // mid-history and after the delete.
    for (int probe : {0, 3, 9, 20, day + 5}) {
      Timestamp t = Day(1).AddDays(probe - 1);
      size_t oracle = stratum.ScanSnapshot(item_pattern, t).size();
      std::string ts_text = t.ToString().substr(0, 10);
      size_t native = count_results(
          target, "SELECT I FROM collection(\"http://warehouse/*\")[" +
                      ts_text + "]/item I");
      EXPECT_EQ(native, oracle) << "probe day " << probe;
    }
    // Total element versions across all time: the stratum counts per
    // stored version, the native engine per element version — they agree
    // after expanding runs, which the executor's [EVERY] already does at
    // element granularity. Compare via a content-word count instead:
    // occurrences of the head vocabulary word at one instant.
    Timestamp mid = Day(10);
    auto oracle_runs = stratum.ScanSnapshot(item_pattern, mid).size();
    size_t native_count = count_results(
        target, "SELECT COUNT(I) FROM collection(\"http://warehouse/*\")[" +
                    mid.ToString().substr(0, 10) + "]/item I");
    EXPECT_EQ(native_count, 1u);  // one aggregate row
    auto count_text = target->QueryToString(
        "SELECT COUNT(I) FROM collection(\"http://warehouse/*\")[" +
            mid.ToString().substr(0, 10) + "]/item I",
        false);
    ASSERT_TRUE(count_text.ok());
    std::string count_cell = ">";
    count_cell += std::to_string(oracle_runs);
    count_cell += "<";
    EXPECT_NE(count_text->find(count_cell), std::string::npos)
        << *count_text << " vs oracle " << oracle_runs;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WarehouseConsistencyTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4),
                                            ::testing::Values(2, 6)));

}  // namespace
}  // namespace txml
