#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>

#include "src/index/fti.h"
#include "src/index/lifetime_index.h"
#include "src/query/context.h"
#include "src/query/diff_op.h"
#include "src/query/history_ops.h"
#include "src/query/scan.h"
#include "src/query/time_ops.h"
#include "src/storage/store.h"
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

/// Builds the restaurant pattern used throughout: //restaurant* with
/// optional name-word and child constraints.
Pattern RestaurantPattern() {
  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf,
                                "restaurant", /*projected=*/true);
  Pattern pattern(std::move(root));
  return pattern;
}

Pattern RestaurantNamedPattern(const std::string& word) {
  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf,
                                "restaurant", /*projected=*/true);
  auto* name = root->AddChild(PatternNode::Make(
      PatternNode::Test::kElementName, PatternNode::Axis::kChild, "name"));
  name->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                   PatternNode::Axis::kSelf, word));
  return Pattern(std::move(root));
}

/// Test harness owning a store with all indexes attached, preloaded with
/// the paper's Figure-1 restaurant history at http://guide.com:
///   v1 (01/01): Napoli 15
///   v2 (15/01): Napoli 15, Akropolis 13
///   v3 (31/01): Napoli 18
class QueryTest : public ::testing::Test {
 protected:
  QueryTest() : fti_(&store_) {
    store_.AddObserver(&fti_);
    store_.AddObserver(&lifetime_);
    ctx_.store = &store_;
    ctx_.fti = &fti_;
    ctx_.lifetime = &lifetime_;
  }

  void LoadFigure1() {
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
    doc_ = store_.FindByUrl("http://guide.com");
  }

  Xid NapoliXid() const { return doc_->current()->child(0)->xid(); }

  VersionedDocumentStore store_;
  TemporalFullTextIndex fti_;
  LifetimeIndex lifetime_;
  QueryContext ctx_;
  const VersionedDocument* doc_ = nullptr;
};

TEST_F(QueryTest, TPatternScanSnapshotCounts) {
  LoadFigure1();
  Pattern pattern = RestaurantPattern();
  // Q1 at 26/01: two restaurants (version 2).
  auto at26 = TPatternScan(ctx_, pattern, Day(26));
  ASSERT_TRUE(at26.ok());
  EXPECT_EQ(at26->size(), 2u);
  // At 05/01: one.
  auto at5 = TPatternScan(ctx_, pattern, Day(5));
  ASSERT_TRUE(at5.ok());
  EXPECT_EQ(at5->size(), 1u);
  // Before creation: none.
  auto before = TPatternScan(ctx_, pattern, Timestamp::FromDate(2000, 6, 1));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->empty());
}

TEST_F(QueryTest, TPatternScanWithValuePredicate) {
  LoadFigure1();
  Pattern pattern = RestaurantNamedPattern("akropolis");
  auto at26 = TPatternScan(ctx_, pattern, Day(26));
  ASSERT_TRUE(at26.ok());
  ASSERT_EQ(at26->size(), 1u);
  // The projected TEID points at the Akropolis restaurant element, which
  // only exists in version 2: validity [15/01, 31/01).
  EXPECT_EQ((*at26)[0].validity, (TimeInterval{Day(15), Day(31)}));
  auto at5 = TPatternScan(ctx_, pattern, Day(5));
  ASSERT_TRUE(at5.ok());
  EXPECT_TRUE(at5->empty());
}

TEST_F(QueryTest, PatternScanCurrentSeesOnlyLiveVersions) {
  LoadFigure1();
  auto now = PatternScanCurrent(ctx_, RestaurantPattern());
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->size(), 1u);
  EXPECT_TRUE((*now)[0].validity.end.IsInfinite());

  ASSERT_TRUE(store_.Delete("http://guide.com",
                            Timestamp::FromDate(2001, 2, 10)).ok());
  auto after_delete = PatternScanCurrent(ctx_, RestaurantPattern());
  ASSERT_TRUE(after_delete.ok());
  EXPECT_TRUE(after_delete->empty());
  // Snapshots before the delete still work.
  auto at26 = TPatternScan(ctx_, RestaurantPattern(), Day(26));
  ASSERT_TRUE(at26.ok());
  EXPECT_EQ(at26->size(), 2u);
}

TEST_F(QueryTest, TPatternScanAllProducesRuns) {
  LoadFigure1();
  // Napoli's element persists the whole time: exactly one run, open-ended.
  auto napoli = TPatternScanAll(ctx_, RestaurantNamedPattern("napoli"));
  ASSERT_TRUE(napoli.ok());
  ASSERT_EQ(napoli->size(), 1u);
  EXPECT_EQ((*napoli)[0].first_version, 1u);
  EXPECT_EQ((*napoli)[0].validity.start, Day(1));
  EXPECT_TRUE((*napoli)[0].validity.end.IsInfinite());

  // Akropolis: one run covering only version 2.
  auto akropolis = TPatternScanAll(ctx_, RestaurantNamedPattern("akropolis"));
  ASSERT_TRUE(akropolis.ok());
  ASSERT_EQ(akropolis->size(), 1u);
  EXPECT_EQ((*akropolis)[0].validity, (TimeInterval{Day(15), Day(31)}));

  // Q3 shape: restaurant[name~napoli] with a price child — the price word
  // changes at v3, so the runs split at the price change.
  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf,
                                "restaurant", true);
  auto* name = root->AddChild(PatternNode::Make(
      PatternNode::Test::kElementName, PatternNode::Axis::kChild, "name"));
  name->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                   PatternNode::Axis::kSelf, "napoli"));
  root->AddChild(PatternNode::Make(PatternNode::Test::kElementName,
                                   PatternNode::Axis::kChild, "price"));
  Pattern with_price(std::move(root));
  auto runs = TPatternScanAll(ctx_, with_price);
  ASSERT_TRUE(runs.ok());
  // The price element survives (same EID), so the pattern holds in one
  // run; the *price word* is not part of this pattern.
  ASSERT_EQ(runs->size(), 1u);
}

TEST_F(QueryTest, TPatternScanAllSplitsOnValueChange) {
  LoadFigure1();
  // price[~'15'] under the Napoli restaurant: valid versions 1-2 only.
  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf,
                                "price", true);
  root->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                   PatternNode::Axis::kSelf, "15"));
  auto runs = TPatternScanAll(ctx_, Pattern(std::move(root)));
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].validity, (TimeInterval{Day(1), Day(31)}));
}

TEST_F(QueryTest, ReconstructElementVersion) {
  LoadFigure1();
  // Napoli at day 26: price 15.
  auto at26 = Reconstruct(ctx_, Teid{{doc_->doc_id(), NapoliXid()}, Day(26)});
  ASSERT_TRUE(at26.ok()) << at26.status().ToString();
  EXPECT_EQ((*at26)->FindChildElement("price")->TextContent(), "15");
  // And at day 31: price 18.
  auto at31 = Reconstruct(ctx_, Teid{{doc_->doc_id(), NapoliXid()}, Day(31)});
  ASSERT_TRUE(at31.ok());
  EXPECT_EQ((*at31)->FindChildElement("price")->TextContent(), "18");
  // Whole document by root EID.
  Xid root_xid = doc_->current()->xid();
  auto whole = Reconstruct(ctx_, Teid{{doc_->doc_id(), root_xid}, Day(26)});
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ((*whole)->child_count(), 2u);
  // Nonexistent element at that time.
  auto v2 = doc_->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  Xid akropolis = (*v2)->child(1)->xid();
  EXPECT_TRUE(Reconstruct(ctx_, Teid{{doc_->doc_id(), akropolis}, Day(5)})
                  .status().IsNotFound());
  EXPECT_TRUE(Reconstruct(ctx_, Teid{{99, 1}, Day(5)}).status().IsNotFound());
}

TEST_F(QueryTest, DocHistoryBackwards) {
  LoadFigure1();
  auto history = DocHistory(ctx_, doc_->doc_id(), Day(1),
                            Timestamp::Infinity());
  ASSERT_TRUE(history.ok());
  ASSERT_EQ(history->size(), 3u);
  // Most recent first (Section 7.3.4 note).
  EXPECT_EQ((*history)[0].validity.start, Day(31));
  EXPECT_EQ((*history)[2].validity.start, Day(1));
  EXPECT_EQ((*history)[0].tree->child(0)
                ->FindChildElement("price")->TextContent(), "18");
  EXPECT_EQ((*history)[2].tree->child(0)
                ->FindChildElement("price")->TextContent(), "15");

  // Restricted interval [15/01, 31/01): only version 2.
  auto middle = DocHistory(ctx_, doc_->doc_id(), Day(15), Day(31));
  ASSERT_TRUE(middle.ok());
  ASSERT_EQ(middle->size(), 1u);
  EXPECT_EQ((*middle)[0].tree->child_count(), 2u);

  // A version valid *into* the interval counts even if created before it.
  auto overlap = DocHistory(ctx_, doc_->doc_id(), Day(10), Day(12));
  ASSERT_TRUE(overlap.ok());
  ASSERT_EQ(overlap->size(), 1u);
  EXPECT_EQ((*overlap)[0].validity.start, Day(1));

  EXPECT_TRUE(DocHistory(ctx_, doc_->doc_id(), Day(10), Day(10))
                  .status().IsInvalidArgument());
  EXPECT_TRUE(DocHistory(ctx_, 99, Day(1), Day(2)).status().IsNotFound());
}

TEST_F(QueryTest, ElementHistoryCollapsesUnchangedRuns) {
  LoadFigure1();
  Eid napoli{doc_->doc_id(), NapoliXid()};
  auto history = ElementHistory(ctx_, napoli, Day(1), Timestamp::Infinity());
  ASSERT_TRUE(history.ok());
  // Napoli unchanged across v1-v2 (price 15), changed at v3 (price 18):
  // two element versions, most recent first.
  ASSERT_EQ(history->size(), 2u);
  EXPECT_EQ((*history)[0].tree->FindChildElement("price")->TextContent(),
            "18");
  EXPECT_EQ((*history)[0].teid.timestamp, Day(31));
  EXPECT_EQ((*history)[1].tree->FindChildElement("price")->TextContent(),
            "15");
  EXPECT_EQ((*history)[1].teid.timestamp, Day(1));
  EXPECT_EQ((*history)[1].validity, (TimeInterval{Day(1), Day(31)}));

  // Akropolis: one element version.
  auto v2 = doc_->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  Eid akropolis{doc_->doc_id(), (*v2)->child(1)->xid()};
  auto ak_history =
      ElementHistory(ctx_, akropolis, Day(1), Timestamp::Infinity());
  ASSERT_TRUE(ak_history.ok());
  ASSERT_EQ(ak_history->size(), 1u);
  EXPECT_EQ((*ak_history)[0].validity, (TimeInterval{Day(15), Day(31)}));
}

TEST_F(QueryTest, CreTimeBothStrategiesAgree) {
  LoadFigure1();
  auto v2 = doc_->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  Eid napoli{doc_->doc_id(), NapoliXid()};
  Eid akropolis{doc_->doc_id(), (*v2)->child(1)->xid()};

  for (auto strategy :
       {LifetimeStrategy::kTraversal, LifetimeStrategy::kIndex}) {
    auto napoli_cre = CreTime(ctx_, Teid{napoli, Day(31)}, strategy);
    ASSERT_TRUE(napoli_cre.ok());
    EXPECT_EQ(*napoli_cre, Day(1));
    auto akropolis_cre = CreTime(ctx_, Teid{akropolis, Day(20)}, strategy);
    ASSERT_TRUE(akropolis_cre.ok());
    EXPECT_EQ(*akropolis_cre, Day(15));
  }
  EXPECT_TRUE(CreTime(ctx_, Teid{{doc_->doc_id(), 9999}, Day(20)},
                      LifetimeStrategy::kTraversal).status().IsNotFound());
}

TEST_F(QueryTest, DelTimeBothStrategiesAgree) {
  LoadFigure1();
  auto v2 = doc_->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  Eid napoli{doc_->doc_id(), NapoliXid()};
  Eid akropolis{doc_->doc_id(), (*v2)->child(1)->xid()};

  for (auto strategy :
       {LifetimeStrategy::kTraversal, LifetimeStrategy::kIndex}) {
    auto napoli_del = DelTime(ctx_, Teid{napoli, Day(31)}, strategy);
    ASSERT_TRUE(napoli_del.ok());
    EXPECT_FALSE(napoli_del->has_value());  // still alive
    auto akropolis_del = DelTime(ctx_, Teid{akropolis, Day(20)}, strategy);
    ASSERT_TRUE(akropolis_del.ok());
    ASSERT_TRUE(akropolis_del->has_value());
    EXPECT_EQ(**akropolis_del, Day(31));
  }
}

TEST_F(QueryTest, DelTimeOfDocumentDeletion) {
  LoadFigure1();
  Timestamp del = Timestamp::FromDate(2001, 2, 10);
  ASSERT_TRUE(store_.Delete("http://guide.com", del).ok());
  Eid napoli{doc_->doc_id(), NapoliXid()};
  for (auto strategy :
       {LifetimeStrategy::kTraversal, LifetimeStrategy::kIndex}) {
    auto napoli_del = DelTime(ctx_, Teid{napoli, Day(31)}, strategy);
    ASSERT_TRUE(napoli_del.ok());
    ASSERT_TRUE(napoli_del->has_value());
    EXPECT_EQ(**napoli_del, del);
  }
}

TEST_F(QueryTest, PreviousNextCurrentTs) {
  LoadFigure1();
  Eid napoli{doc_->doc_id(), NapoliXid()};
  auto prev = PreviousTS(ctx_, Teid{napoli, Day(26)});
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(**prev, Day(1));
  auto next = NextTS(ctx_, Teid{napoli, Day(26)});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(**next, Day(31));
  auto current = CurrentTS(ctx_, napoli);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(**current, Day(31));
  // Previous of the first version / next of the last: none.
  EXPECT_FALSE((*PreviousTS(ctx_, Teid{napoli, Day(5)})).has_value());
  EXPECT_FALSE((*NextTS(ctx_, Teid{napoli, Day(31)})).has_value());
  // The round trip the paper describes: PreviousTS + Reconstruct retrieves
  // the previous version of the element.
  auto previous_version = Reconstruct(ctx_, Teid{napoli, **prev});
  ASSERT_TRUE(previous_version.ok());
  EXPECT_EQ((*previous_version)->FindChildElement("price")->TextContent(),
            "15");
}

TEST_F(QueryTest, DiffOpBetweenElementVersions) {
  LoadFigure1();
  Eid napoli{doc_->doc_id(), NapoliXid()};
  auto delta = DiffOp(ctx_, Teid{napoli, Day(26)}, Teid{napoli, Day(31)});
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  // The edit script is XML (closure) and contains the price update 15->18.
  ASSERT_EQ(delta->root()->name(), "delta");
  bool found_update = false;
  for (const auto& child : delta->root()->children()) {
    if (child->is_element() && child->name() == "update") {
      EXPECT_EQ(child->FindAttribute("old")->value(), "15");
      EXPECT_EQ(child->FindAttribute("new")->value(), "18");
      found_update = true;
    }
  }
  EXPECT_TRUE(found_update) << delta->ToString();
}

TEST_F(QueryTest, DiffOpBetweenDifferentElements) {
  LoadFigure1();
  auto v2 = doc_->ReconstructVersion(2);
  ASSERT_TRUE(v2.ok());
  Eid napoli{doc_->doc_id(), NapoliXid()};
  Eid akropolis{doc_->doc_id(), (*v2)->child(1)->xid()};
  auto delta = DiffOp(ctx_, Teid{napoli, Day(20)}, Teid{akropolis, Day(20)});
  ASSERT_TRUE(delta.ok());
  EXPECT_GT(delta->root()->child_count(), 0u);  // they differ
  // Identical operands produce an (almost) empty script.
  auto same = DiffOp(ctx_, Teid{napoli, Day(20)}, Teid{napoli, Day(26)});
  ASSERT_TRUE(same.ok());
  size_t ops = 0;
  for (const auto& child : same->root()->children()) {
    if (child->is_element()) ++ops;
  }
  EXPECT_EQ(ops, 0u);
}

/// Property sweep: the FTI-join implementation of TPatternScan must agree
/// with the oracle (direct pattern matching on the reconstructed snapshot)
/// on randomized multi-document, multi-version histories.
class ScanOracleTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(ScanOracleTest, TPatternScanMatchesOracle) {
  auto [seed, doc_count] = GetParam();
  Random rng(static_cast<uint64_t>(seed));
  VersionedDocumentStore store;
  TemporalFullTextIndex fti(&store);
  store.AddObserver(&fti);
  QueryContext ctx{&store, &fti, nullptr};

  const int kVersions = 8;
  for (int d = 0; d < doc_count; ++d) {
    std::string url = "http://doc" + std::to_string(d);
    auto tree = testing::RandomTree(&rng, 30);
    ASSERT_TRUE(store.Put(url, tree->Clone(), Day(1).AddDays(d)).ok());
    for (int v = 2; v <= kVersions; ++v) {
      const VersionedDocument* doc = store.FindByUrl(url);
      auto next = doc->current()->Clone();
      std::vector<XmlNode*> stack = {next.get()};
      while (!stack.empty()) {
        XmlNode* n = stack.back();
        stack.pop_back();
        n->set_xid(kInvalidXid);
        for (size_t i = 0; i < n->child_count(); ++i) {
          stack.push_back(n->child(i));
        }
      }
      testing::MutateTree(&rng, next.get(), 2);
      ASSERT_TRUE(
          store.Put(url, std::move(next), Day(1).AddDays(d + 40 * v)).ok());
    }
  }

  // A few pattern shapes over the shared vocabulary.
  std::vector<Pattern> patterns;
  {
    patterns.push_back(Pattern(PatternNode::Make(
        PatternNode::Test::kElementName,
        PatternNode::Axis::kDescendantOrSelf, "restaurant", true)));
    auto with_word = PatternNode::Make(
        PatternNode::Test::kElementName,
        PatternNode::Axis::kDescendantOrSelf, "menu", true);
    with_word->AddChild(PatternNode::Make(
        PatternNode::Test::kWord, PatternNode::Axis::kDescendantOrSelf,
        "pasta"));
    patterns.push_back(Pattern(std::move(with_word)));
    auto nested = PatternNode::Make(PatternNode::Test::kElementName,
                                    PatternNode::Axis::kDescendantOrSelf,
                                    "restaurant", true);
    nested->AddChild(PatternNode::Make(PatternNode::Test::kElementName,
                                       PatternNode::Axis::kDescendant,
                                       "name"));
    patterns.push_back(Pattern(std::move(nested)));
  }

  for (const Pattern& pattern : patterns) {
    for (int day : {1, 50, 150, 500}) {
      Timestamp t = Day(1).AddDays(day);
      auto got = TPatternScan(ctx, pattern, t);
      ASSERT_TRUE(got.ok());
      // Oracle: reconstruct every document's snapshot and run the direct
      // matcher; compare projected EID multisets.
      std::multiset<std::string> expected;
      int projected = pattern.ProjectedId();
      for (const VersionedDocument* doc : store.AllDocuments()) {
        if (!doc->ExistsAt(t)) continue;
        auto tree = doc->ReconstructAt(t);
        ASSERT_TRUE(tree.ok());
        for (const PatternMatch& match : MatchPattern(**tree, pattern)) {
          expected.insert(
              Eid{doc->doc_id(),
                  match[static_cast<size_t>(projected)]->xid()}
                  .ToString());
        }
      }
      std::multiset<std::string> actual;
      for (const ScanMatch& match : *got) {
        actual.insert(match.ProjectedTeid(pattern).eid.ToString());
      }
      EXPECT_EQ(actual, expected)
          << "pattern " << pattern.ToString() << " at day " << day;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScanOracleTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 5,
                                                              6, 7),
                                            ::testing::Values(1, 3)));

}  // namespace
}  // namespace txml
