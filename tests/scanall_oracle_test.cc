// Property sweep for the temporal multiway join: TPatternScanAll's runs,
// expanded version by version, must agree exactly with the oracle that
// reconstructs every version of every document and runs the direct
// pattern matcher on it — across randomized histories, pattern shapes,
// deletions and multi-document stores. The doc-scoped scans are checked
// against the corpus-wide ones below.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/index/fti.h"
#include "src/query/context.h"
#include "src/query/scan.h"
#include "src/storage/store.h"
#include "src/storage/vacuum.h"
#include "src/util/random.h"
#include "src/workload/tdocgen.h"
#include "src/xml/parser.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

/// (doc, version) -> multiset of projected element XIDs.
using VersionMatches = std::map<std::pair<DocId, VersionNum>,
                                std::multiset<Xid>>;

VersionMatches ExpandRuns(const std::vector<ScanMatch>& matches,
                          const Pattern& pattern,
                          const VersionedDocumentStore& store) {
  VersionMatches expanded;
  for (const ScanMatch& match : matches) {
    const VersionedDocument* doc = store.FindById(match.doc_id);
    VersionNum end = match.end_version == kOpenVersion ||
                             match.end_version > doc->version_count()
                         ? doc->version_count() + 1
                         : match.end_version;
    for (VersionNum v = match.first_version; v < end; ++v) {
      expanded[{match.doc_id, v}].insert(
          match.ProjectedTeid(pattern).eid.xid);
    }
  }
  return expanded;
}

VersionMatches Oracle(const Pattern& pattern,
                      const VersionedDocumentStore& store) {
  VersionMatches expected;
  int projected = pattern.ProjectedId();
  for (const VersionedDocument* doc : store.AllDocuments()) {
    for (VersionNum v = 1; v <= doc->version_count(); ++v) {
      auto tree = doc->ReconstructVersion(v);
      EXPECT_TRUE(tree.ok());
      for (const PatternMatch& match : MatchPattern(**tree, pattern)) {
        expected[{doc->doc_id(), v}].insert(
            match[static_cast<size_t>(projected)]->xid());
      }
    }
  }
  return expected;
}

class ScanAllOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScanAllOracleTest, RunsMatchPerVersionOracle) {
  auto [seed, mutations] = GetParam();
  VersionedDocumentStore store;
  TemporalFullTextIndex fti(&store);
  store.AddObserver(&fti);
  QueryContext ctx{&store, &fti, nullptr};

  constexpr int kDocs = 2;
  constexpr int kVersions = 10;
  for (int d = 0; d < kDocs; ++d) {
    TDocGenOptions options;
    options.initial_items = 15;
    options.mutations_per_version = static_cast<size_t>(mutations);
    options.seed = static_cast<uint64_t>(seed * 100 + d);
    TDocGen gen(options);
    std::string url = "doc" + std::to_string(d);
    ASSERT_TRUE(
        store.Put(url, gen.InitialDocument(), Day(1 + d)).ok());
    for (int v = 2; v <= kVersions; ++v) {
      auto next = gen.NextVersion(*store.FindByUrl(url)->current());
      ASSERT_TRUE(
          store.Put(url, std::move(next), Day(1 + d + 3 * v)).ok());
    }
  }
  // Delete one document mid-test to cover closed-by-deletion postings.
  ASSERT_TRUE(store.Delete("doc0", Day(100)).ok());

  std::vector<Pattern> patterns;
  patterns.push_back(Pattern(PatternNode::Make(
      PatternNode::Test::kElementName, PatternNode::Axis::kDescendantOrSelf,
      "item", true)));
  {
    auto with_child = PatternNode::Make(
        PatternNode::Test::kElementName,
        PatternNode::Axis::kDescendantOrSelf, "item", true);
    with_child->AddChild(PatternNode::Make(PatternNode::Test::kElementName,
                                           PatternNode::Axis::kChild,
                                           "price"));
    patterns.push_back(Pattern(std::move(with_child)));
  }
  {
    auto with_word = PatternNode::Make(
        PatternNode::Test::kElementName,
        PatternNode::Axis::kDescendantOrSelf, "name", true);
    with_word->AddChild(PatternNode::Make(
        PatternNode::Test::kWord, PatternNode::Axis::kSelf, "wa0"));
    patterns.push_back(Pattern(std::move(with_word)));
  }
  {
    auto deep = PatternNode::Make(PatternNode::Test::kElementName,
                                  PatternNode::Axis::kDescendantOrSelf,
                                  "collection", false);
    deep->AddChild(PatternNode::Make(PatternNode::Test::kElementName,
                                     PatternNode::Axis::kDescendant, "info",
                                     true));
    patterns.push_back(Pattern(std::move(deep)));
  }

  for (const Pattern& pattern : patterns) {
    auto runs = TPatternScanAll(ctx, pattern);
    ASSERT_TRUE(runs.ok());
    EXPECT_EQ(ExpandRuns(*runs, pattern, store), Oracle(pattern, store))
        << "pattern " << pattern.ToString() << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScanAllOracleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5,
                                                              6),
                                            ::testing::Values(1, 4, 12)));

// The doc-scoped index scans (the overloads taking `docs`) must return
// exactly the corpus-wide scan's rows whose document is in `docs`, row for
// row and in order — for every subset tried, and across a compaction, a
// vacuum and a deletion.

/// Every column of a row, so a comparison covers the whole ScanMatch.
/// (Built by appends: GCC 12's -O3 reports false -Werror=restrict
/// overlaps on chained `std::to_string(…) + "…"`.)
std::string RowString(const ScanMatch& match) {
  std::string out = std::to_string(match.doc_id);
  out += " v[";
  out += std::to_string(match.first_version);
  out += ",";
  out += std::to_string(match.end_version);
  out += ") t";
  out += match.validity.ToString();
  out += " e";
  for (Xid xid : match.elements) {
    out += " ";
    out += std::to_string(xid);
  }
  out += " p";
  for (const auto& path : match.paths) {
    out += " /";
    for (Xid xid : path) {
      out += std::to_string(xid);
      out += "/";
    }
  }
  return out;
}

std::vector<std::string> Rows(const StatusOr<std::vector<ScanMatch>>& scan) {
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  std::vector<std::string> rows;
  if (scan.ok()) {
    for (const ScanMatch& match : *scan) rows.push_back(RowString(match));
  }
  return rows;
}

std::vector<std::string> RowsOf(const StatusOr<std::vector<ScanMatch>>& scan,
                                const std::vector<const VersionedDocument*>&
                                    docs) {
  std::set<DocId> named;
  for (const VersionedDocument* doc : docs) named.insert(doc->doc_id());
  std::vector<std::string> rows;
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  if (scan.ok()) {
    for (const ScanMatch& match : *scan) {
      if (named.contains(match.doc_id)) rows.push_back(RowString(match));
    }
  }
  return rows;
}

class ScopedScanOracleTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    store_.AddObserver(&fti_);
    // Two "a" and three "b" documents with TDocGen histories, plus one
    // document none of the patterns match.
    const char* urls[] = {"a0", "a1", "b0", "b1", "b2"};
    for (int d = 0; d < 5; ++d) {
      TDocGenOptions options;
      options.initial_items = 12;
      options.mutations_per_version = 4;
      options.seed = static_cast<uint64_t>(GetParam() * 100 + d);
      TDocGen gen(options);
      ASSERT_TRUE(store_.Put(urls[d], gen.InitialDocument(), Day(1 + d)).ok());
      for (int v = 2; v <= 8; ++v) {
        auto next = gen.NextVersion(*store_.FindByUrl(urls[d])->current());
        ASSERT_TRUE(store_.Put(urls[d], std::move(next), Day(1 + d + 3 * v))
                        .ok());
      }
    }
    auto misc = ParseXmlFragment("<misc><x>y</x></misc>");
    ASSERT_TRUE(misc.ok());
    ASSERT_TRUE(store_.Put("none", std::move(*misc), Day(2)).ok());

    patterns_.push_back(Pattern(PatternNode::Make(
        PatternNode::Test::kElementName,
        PatternNode::Axis::kDescendantOrSelf, "item", true)));
    auto with_child = PatternNode::Make(PatternNode::Test::kElementName,
                                        PatternNode::Axis::kDescendantOrSelf,
                                        "item", true);
    with_child->AddChild(PatternNode::Make(PatternNode::Test::kElementName,
                                           PatternNode::Axis::kChild,
                                           "price"));
    patterns_.push_back(Pattern(std::move(with_child)));
    auto with_word = PatternNode::Make(PatternNode::Test::kElementName,
                                       PatternNode::Axis::kDescendantOrSelf,
                                       "name", true);
    with_word->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                          PatternNode::Axis::kSelf, "wa0"));
    patterns_.push_back(Pattern(std::move(with_word)));
  }

  /// The subsets tried: each single document, the "b" prefix set, every
  /// document, and the match-less document alone and beside a matching
  /// one.
  std::vector<std::vector<const VersionedDocument*>> Subsets() const {
    std::vector<std::vector<const VersionedDocument*>> subsets;
    std::vector<const VersionedDocument*> prefix;
    for (const VersionedDocument* doc : store_.AllDocuments()) {
      subsets.push_back({doc});
      if (doc->url().starts_with("b")) prefix.push_back(doc);
    }
    subsets.push_back(prefix);
    subsets.push_back(store_.AllDocuments());
    subsets.push_back(
        {store_.FindByUrl("none"), store_.FindByUrl("a1")});
    return subsets;
  }

  /// Asserts the doc-scoped = filtered-corpus-wide property for all three
  /// index scans, every pattern and every subset.
  void ExpectScopedEqualsFiltered(const std::string& stage) {
    QueryContext ctx{&store_, &fti_, nullptr};
    const Timestamp times[] = {Day(1), Day(9), Day(17), Day(30), Day(60)};
    for (const Pattern& pattern : patterns_) {
      const auto current = PatternScanCurrent(ctx, pattern);
      const auto all = TPatternScanAll(ctx, pattern);
      if (pattern.ToString() == patterns_.front().ToString()) {
        EXPECT_FALSE(Rows(all).empty()) << stage;
        EXPECT_FALSE(Rows(current).empty()) << stage;
      }
      for (const auto& docs : Subsets()) {
        const std::string where = stage + " pattern " + pattern.ToString() +
                                  " docs " + std::to_string(docs.size()) +
                                  " first " + docs.front()->url();
        EXPECT_EQ(Rows(PatternScanCurrent(ctx, pattern, docs)),
                  RowsOf(current, docs))
            << where;
        EXPECT_EQ(Rows(TPatternScanAll(ctx, pattern, docs)),
                  RowsOf(all, docs))
            << where;
        for (Timestamp t : times) {
          EXPECT_EQ(Rows(TPatternScan(ctx, pattern, t, docs)),
                    RowsOf(TPatternScan(ctx, pattern, t), docs))
              << where << " at " << t.ToString();
        }
      }
    }
  }

  VersionedDocumentStore store_;
  TemporalFullTextIndex fti_{&store_};
  std::vector<Pattern> patterns_;
};

TEST_P(ScopedScanOracleTest, ScopedScansEqualFilteredCorpusScans) {
  // The histories left part of the postings in the differential.
  ExpectScopedEqualsFiltered("differential");
  fti_.CompactDifferential();
  ExpectScopedEqualsFiltered("compacted");

  RetentionPolicy policy = RetentionPolicy::DropBefore(Day(8));
  policy.coarsen_older_than = Day(20);
  policy.keep_every = 3;
  auto vacuumed = store_.Vacuum(policy);
  ASSERT_TRUE(vacuumed.ok()) << vacuumed.status().ToString();
  ASSERT_GT(vacuumed->versions_dropped, 0u);
  ExpectScopedEqualsFiltered("vacuumed");

  // A deleted document stays in every subset that names it.
  ASSERT_TRUE(store_.Delete("b1", Day(40)).ok());
  ASSERT_TRUE(store_.FindByUrl("b1")->deleted());
  ExpectScopedEqualsFiltered("deleted");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopedScanOracleTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace txml
