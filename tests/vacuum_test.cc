// Oracle tests for the vacuum/retention subsystem (src/storage/vacuum.*).
// The central property under test: for any time t at or after the
// retention horizon, every query answer is byte-identical before and
// after a vacuum — snapshots, predicates, CREATE/DELETE TIME, DIFF and
// [EVERY] histories alike. Plus: merged-delta round trips, coarse-zone
// snapping, forward-from-base reconstruction, persistence, appends after
// vacuuming, and FTI consistency against a from-scratch rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/database.h"
#include "src/storage/vacuum.h"
#include "src/storage/versioned_document.h"
#include "src/xml/codec.h"
#include "src/xml/parser.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::string DayStr(int d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d/01/2001", d);
  return buf;
}

// Deterministic guide history: version v commits at Day(v); item i lives
// in versions [i, i + kItemLife) with a price that moves every version.
// Every transition therefore mixes an insert, a delete and several
// updates — the op kinds a merged delta has to splice correctly.
constexpr int kDays = 24;
constexpr int kItemLife = 8;

std::string GuideXml(int v) {
  std::string xml = "<guide>";
  for (int i = 1; i <= kDays; ++i) {
    if (i <= v && v < i + kItemLife) {
      xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
             std::to_string(10 * i + v) + "</price></item>";
    }
  }
  return xml + "</guide>";
}

std::unique_ptr<TemporalXmlDatabase> BuildGuideDb(DatabaseOptions options = {
                                                      .snapshot_every = 4}) {
  auto db = std::make_unique<TemporalXmlDatabase>(options);
  for (int v = 1; v <= kDays; ++v) {
    auto put = db->PutDocumentAt("u", GuideXml(v), Day(v));
    EXPECT_TRUE(put.ok()) << put.status().ToString();
  }
  return db;
}

std::string RunQuery(TemporalXmlDatabase* db, const std::string& query) {
  auto out = db->QueryToString(query);
  EXPECT_TRUE(out.ok()) << query << ": " << out.status().ToString();
  return out.ok() ? *out : "<error/>";
}

/// Queries anchored at Day(d) covering the operator surface: snapshot
/// scan, value predicate, aggregates, and the lifetime operators.
std::vector<std::string> AnchoredQueries(int d) {
  std::string t = DayStr(d);
  return {
      "SELECT R FROM doc(\"u\")[" + t + "]/guide/item R",
      "SELECT R/name FROM doc(\"u\")[" + t +
          "]/guide/item R WHERE R/price < 150",
      "SELECT COUNT(R) FROM doc(\"u\")[" + t + "]/guide/item R",
      "SELECT R/name, CREATE TIME(R) FROM doc(\"u\")[" + t +
          "]/guide/item R",
      "SELECT R/name, DELETE TIME(R) FROM doc(\"u\")[" + t +
          "]/guide/item R",
  };
}

/// The full oracle battery for horizon day h: every anchored query for
/// every day >= h, a DIFF whose both snapshots sit at or above the
/// horizon, and an [EVERY] history restricted (via CREATE TIME) to
/// elements born at or after the horizon.
std::vector<std::string> OracleQueries(int h) {
  std::vector<std::string> queries;
  for (int d = h; d <= kDays; ++d) {
    for (std::string& q : AnchoredQueries(d)) queries.push_back(std::move(q));
  }
  queries.push_back("SELECT DIFF(R1, R2) FROM doc(\"u\")[" + DayStr(h) +
                    "]/guide R1, doc(\"u\")[" + DayStr(kDays) +
                    "]/guide R2 WHERE R1 == R2");
  queries.push_back("SELECT TIME(R), R/price FROM doc(\"u\")[EVERY]"
                    "/guide/item R WHERE CREATE TIME(R) >= " +
                    DayStr(h));
  return queries;
}

/// Runs the battery, vacuums, and checks every answer is byte-identical.
VacuumStats ExpectAnswersPreserved(TemporalXmlDatabase* db,
                                   const RetentionPolicy& policy,
                                   int horizon_day) {
  std::vector<std::string> queries = OracleQueries(horizon_day);
  std::vector<std::string> before;
  before.reserve(queries.size());
  for (const std::string& q : queries) before.push_back(RunQuery(db, q));

  auto stats = db->Vacuum(policy);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  if (!stats.ok()) return VacuumStats{};

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(RunQuery(db, queries[i]), before[i]) << queries[i];
  }
  return *stats;
}

std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RetentionPolicyTest, ValidationRejectsDegeneratePolicies) {
  EXPECT_FALSE(ValidateRetentionPolicy(RetentionPolicy{}).ok());
  RetentionPolicy zero_step = RetentionPolicy::CoarsenOlderThan(Day(5), 0);
  EXPECT_FALSE(ValidateRetentionPolicy(zero_step).ok());
  EXPECT_TRUE(ValidateRetentionPolicy(RetentionPolicy::DropBefore(Day(5))).ok());
  EXPECT_TRUE(
      ValidateRetentionPolicy(RetentionPolicy::CoarsenOlderThan(Day(5), 3))
          .ok());
  EXPECT_FALSE(BuildGuideDb()->Vacuum(RetentionPolicy{}).ok());
}

// A merged delta must be equivalent to its parts applied in order
// (forward) and in reverse (backward), timestamps included.
TEST(MergeEditScriptsTest, ForwardAndBackwardMatchSequentialApplication) {
  VersionedDocument doc(1, "u", /*snapshot_every=*/0);
  for (int v = 1; v <= 6; ++v) {
    auto parsed = ParseXml(GuideXml(v));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_TRUE(doc.AppendVersion(parsed->ReleaseRoot(), Day(v)).ok());
  }
  std::vector<EditScript> parts;
  for (VersionNum from = 1; from < 6; ++from) {
    parts.push_back(doc.TransitionDelta(from).Clone());
  }
  EditScript merged = MergeEditScripts(std::move(parts));

  auto v1 = doc.ReconstructVersion(1);
  ASSERT_TRUE(v1.ok());
  std::string v1_bytes = EncodeNodeToString(**v1);

  // Forward: v1 + merged == stored current (v6).
  auto apply = [&](const EditScript& script, XmlNode* root, bool forward) {
    XidIndex index(doc.next_xid());
    Status indexed = index.Add(root);
    if (!indexed.ok()) return indexed;
    return forward ? script.ApplyForward(root, &index)
                   : script.ApplyBackward(root, &index);
  };
  ASSERT_TRUE(apply(merged, v1->get(), /*forward=*/true).ok());
  EXPECT_EQ(EncodeNodeToString(**v1), EncodeNodeToString(*doc.current()));

  // Backward: v6 - merged == v1, original timestamps restored.
  std::unique_ptr<XmlNode> back = doc.current()->Clone();
  ASSERT_TRUE(apply(merged, back.get(), /*forward=*/false).ok());
  EXPECT_EQ(EncodeNodeToString(*back), v1_bytes);

  // The merged script round-trips through the codec (it is what a
  // vacuumed document persists).
  std::string encoded;
  merged.EncodeTo(&encoded);
  auto decoded = EditScript::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  std::unique_ptr<XmlNode> back2 = doc.current()->Clone();
  ASSERT_TRUE(apply(*decoded, back2.get(), /*forward=*/false).ok());
  EXPECT_EQ(EncodeNodeToString(*back2), v1_bytes);
}

TEST(VacuumTest, DropPreservesEveryAnswerAtOrAfterHorizon) {
  auto db = BuildGuideDb();
  constexpr int kHorizon = 10;
  VacuumStats stats = ExpectAnswersPreserved(
      db.get(), RetentionPolicy::DropBefore(Day(kHorizon)), kHorizon);
  EXPECT_EQ(stats.documents_vacuumed, 1u);
  EXPECT_EQ(stats.versions_dropped, static_cast<uint64_t>(kHorizon - 1));
  EXPECT_GT(stats.ReclaimedBytes(), 0);

  const VersionedDocument* doc = db->store().FindByUrl("u");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->first_retained(), static_cast<VersionNum>(kHorizon));
  EXPECT_TRUE(doc->vacuumed());
}

TEST(VacuumTest, DropRemovesPreHorizonHistoryAndIsIdempotent) {
  auto db = BuildGuideDb();
  RetentionPolicy policy = RetentionPolicy::DropBefore(Day(10));
  ASSERT_TRUE(db->Vacuum(policy).ok());

  // Before the horizon the document no longer exists: snapshot queries
  // answer empty, reconstruction answers NotFound.
  std::string early =
      RunQuery(db.get(), "SELECT R FROM doc(\"u\")[" + DayStr(5) + "]/guide/item R");
  EXPECT_EQ(early.find("<item>"), std::string::npos) << early;
  const VersionedDocument* doc = db->store().FindByUrl("u");
  ASSERT_NE(doc, nullptr);
  EXPECT_FALSE(doc->ReconstructVersion(5).ok());
  EXPECT_FALSE(doc->ReconstructAt(Day(5)).ok());
  EXPECT_TRUE(doc->ReconstructVersion(10).ok());

  // Vacuuming again with the same horizon is a no-op.
  auto again = db->Vacuum(policy);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->documents_vacuumed, 0u);
  EXPECT_EQ(again->versions_dropped, 0u);
}

TEST(VacuumTest, CoarsenPreservesEveryAnswerAtOrAfterHorizon) {
  auto db = BuildGuideDb();
  constexpr int kHorizon = 13;
  VacuumStats stats = ExpectAnswersPreserved(
      db.get(), RetentionPolicy::CoarsenOlderThan(Day(kHorizon), 3), kHorizon);
  EXPECT_EQ(stats.documents_vacuumed, 1u);
  EXPECT_GT(stats.versions_dropped, 0u);
  EXPECT_GT(stats.deltas_merged, 0u);
  EXPECT_GT(stats.ReclaimedBytes(), 0);

  const VersionedDocument* doc = db->store().FindByUrl("u");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->first_retained(), 1u);  // coarsening never drops version 1
  EXPECT_EQ(doc->dense_floor(), static_cast<VersionNum>(kHorizon));
}

// Below a coarsen horizon the answer is the nearest *retained* version at
// or before the requested time — exactly what SnapToRetained reports.
TEST(VacuumTest, CoarsenSnapsBelowHorizonQueriesToRetainedVersions) {
  auto db = BuildGuideDb();
  auto snapshot_query = [](int d) {
    return "SELECT R FROM doc(\"u\")[" + DayStr(d) + "]/guide/item R";
  };
  std::map<int, std::string> before;
  for (int d = 1; d <= kDays; ++d) before[d] = RunQuery(db.get(), snapshot_query(d));

  constexpr int kHorizon = 13;
  ASSERT_TRUE(
      db->Vacuum(RetentionPolicy::CoarsenOlderThan(Day(kHorizon), 3)).ok());

  const VersionedDocument* doc = db->store().FindByUrl("u");
  ASSERT_NE(doc, nullptr);
  for (int d = 1; d <= kDays; ++d) {
    // Version d was valid at Day(d); post-vacuum the query sees the
    // retained version that absorbed it.
    VersionNum snapped = doc->SnapToRetained(static_cast<VersionNum>(d));
    ASSERT_NE(snapped, 0u);
    EXPECT_EQ(RunQuery(db.get(), snapshot_query(d)),
              before[static_cast<int>(snapped)])
        << "day " << d << " should answer as day " << snapped;
    if (d >= kHorizon) {
      EXPECT_EQ(snapped, static_cast<VersionNum>(d));
    }
  }
}

// After coarsening, old versions near the base are rebuilt *forward* from
// the materialized base snapshot instead of walking every delta backward
// from the current version — the bench_vacuum speedup.
TEST(VacuumTest, OldVersionsReconstructForwardFromBase) {
  auto db = BuildGuideDb(DatabaseOptions{.snapshot_every = 0});
  VersionedDocument* doc =
      const_cast<VersionedDocumentStore&>(db->store()).FindByUrl("u");
  ASSERT_NE(doc, nullptr);

  auto v1 = doc->ReconstructVersion(1);
  auto v5 = doc->ReconstructVersion(5);
  ASSERT_TRUE(v1.ok() && v5.ok());
  std::string v1_bytes = EncodeNodeToString(**v1);
  std::string v5_bytes = EncodeNodeToString(**v5);

  ASSERT_TRUE(db->Vacuum(RetentionPolicy::CoarsenOlderThan(Day(20), 4)).ok());

  VersionedDocument::ReconstructStats stats;
  auto base = doc->ReconstructVersion(1, &stats);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(stats.used_base);
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(EncodeNodeToString(**base), v1_bytes);

  stats = {};
  auto kept = doc->ReconstructVersion(5, &stats);
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(stats.used_base);
  EXPECT_EQ(stats.base_version, 1u);
  EXPECT_EQ(EncodeNodeToString(**kept), v5_bytes);
}

TEST(VacuumTest, VacuumedHistoryPersistsAcrossSaveAndOpen) {
  auto db = BuildGuideDb();
  RetentionPolicy policy;
  policy.drop_before = Day(6);
  policy.coarsen_older_than = Day(14);
  policy.keep_every = 2;
  ASSERT_TRUE(db->Vacuum(policy).ok());

  std::vector<std::string> queries = OracleQueries(14);
  std::vector<std::string> expected;
  for (const std::string& q : queries) expected.push_back(RunQuery(db.get(), q));

  std::string dir = TempDir("txml_vacuum_persist");
  ASSERT_TRUE(db->Save(dir).ok());
  auto reopened = TemporalXmlDatabase::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  const VersionedDocument* doc = (*reopened)->store().FindByUrl("u");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->first_retained(), 6u);
  EXPECT_EQ(doc->dense_floor(), 14u);
  EXPECT_TRUE(doc->vacuumed());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(RunQuery(reopened->get(), queries[i]), expected[i]) << queries[i];
  }
  std::filesystem::remove_all(dir);
}

TEST(VacuumTest, HistoryKeepsGrowingAfterVacuum) {
  auto db = BuildGuideDb();
  ASSERT_TRUE(db->Vacuum(RetentionPolicy::DropBefore(Day(10))).ok());

  std::string last_before =
      RunQuery(db.get(), "SELECT R FROM doc(\"u\")[" + DayStr(kDays) +
                        "]/guide/item R");
  ASSERT_TRUE(db->PutDocumentAt("u", GuideXml(kDays + 1), Day(kDays + 1)).ok());

  const VersionedDocument* doc = db->store().FindByUrl("u");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->version_count(), static_cast<VersionNum>(kDays + 1));
  // The old anchor still answers identically; the new version is visible.
  EXPECT_EQ(RunQuery(db.get(), "SELECT R FROM doc(\"u\")[" + DayStr(kDays) +
                              "]/guide/item R"),
            last_before);
  std::string now = RunQuery(db.get(), "SELECT R FROM doc(\"u\")[" +
                                      DayStr(kDays + 1) + "]/guide/item R");
  EXPECT_NE(now.find("n" + std::to_string(kDays)), std::string::npos) << now;

  // And the grown history can be vacuumed again, further up.
  auto again = db->Vacuum(RetentionPolicy::DropBefore(Day(15)));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->documents_vacuumed, 1u);
  EXPECT_EQ(doc->first_retained(), 15u);
}

// Pinned to delta traversal, CREATE/DELETE TIME scan retained deltas
// instead of the lifetime index; for elements born at or after the horizon
// the answers must still be exact (their inserts live in the dense zone).
TEST(VacuumTest, DeltaTraversalTimeOpsSurviveDropForPostHorizonElements) {
  auto db = std::make_unique<TemporalXmlDatabase>(
      DatabaseOptions{.snapshot_every = 4});
  auto run_traversal = [&db](const std::string& query) {
    ExecOptions exec_options;
    exec_options.now = db->latest_commit();
    exec_options.lifetime_strategy = LifetimeStrategy::kTraversal;
    QueryExecutor executor(db->Context(), exec_options);
    ExecStats stats;
    auto out = executor.Execute(query, &stats);
    EXPECT_TRUE(out.ok()) << query << ": " << out.status().ToString();
    EXPECT_GT(stats.lifetime_traversals, 0u) << query;
    EXPECT_EQ(stats.lifetime_index_lookups, 0u) << query;
    return out.ok() ? out->ToString() : "<error/>";
  };

  // The rolling-lifecycle history of BuildGuideDb is unusable here: the
  // differ pairs each transition's deleted item with its inserted item
  // (they are structurally similar), so "new" items inherit old XIDs and
  // pre-horizon creation times. Build a history where "fresh" appears in
  // version 12 with nothing deleted in that transition — a pure insert
  // with a genuinely fresh XID — and disappears in version 20 as a pure
  // delete, so both of its lifetime events sit in the dense zone.
  for (int v = 1; v <= kDays; ++v) {
    std::string xml = "<guide><item><name>base</name><price>" +
                      std::to_string(v) + "</price></item>";
    if (v >= 12 && v < 20) {
      xml += "<item><name>fresh</name><price>" + std::to_string(100 + v) +
             "</price></item>";
    }
    xml += "</guide>";
    ASSERT_TRUE(db->PutDocumentAt("u", xml, Day(v)).ok());
  }

  std::vector<std::string> queries;
  for (int d = 12; d < 20; ++d) {
    queries.push_back("SELECT CREATE TIME(R) FROM doc(\"u\")[" + DayStr(d) +
                      "]/guide/item R WHERE R/name = \"fresh\"");
    queries.push_back("SELECT DELETE TIME(R) FROM doc(\"u\")[" + DayStr(d) +
                      "]/guide/item R WHERE R/name = \"fresh\"");
  }
  std::vector<std::string> before;
  for (const std::string& q : queries) before.push_back(run_traversal(q));
  EXPECT_NE(before[0].find(DayStr(12)), std::string::npos) << before[0];
  EXPECT_NE(before[1].find(DayStr(20)), std::string::npos) << before[1];

  ASSERT_TRUE(db->Vacuum(RetentionPolicy::DropBefore(Day(10))).ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(run_traversal(queries[i]), before[i]) << queries[i];
  }
}

// The incrementally-pruned FTI must answer exactly like an index rebuilt
// from scratch over the vacuumed store.
TEST(VacuumTest, PrunedFtiMatchesRebuiltIndex) {
  auto db = BuildGuideDb();
  RetentionPolicy policy;
  policy.coarsen_older_than = Day(16);
  policy.keep_every = 3;
  ASSERT_TRUE(db->Vacuum(policy).ok());

  std::unique_ptr<TemporalFullTextIndex> rebuilt =
      TemporalFullTextIndex::Rebuild(db->store());

  auto matches = [](const std::vector<const Posting*>& postings) {
    std::vector<std::tuple<DocId, Xid>> keys;
    keys.reserve(postings.size());
    for (const Posting* p : postings) keys.emplace_back(p->doc_id, p->element);
    std::sort(keys.begin(), keys.end());
    return keys;
  };

  std::vector<std::pair<TermKind, std::string>> terms = {
      {TermKind::kElementName, "item"},  {TermKind::kElementName, "price"},
      {TermKind::kWord, "n1"},           {TermKind::kWord, "n8"},
      {TermKind::kWord, "n16"},          {TermKind::kWord, "n24"},
  };
  for (const auto& [kind, term] : terms) {
    EXPECT_EQ(matches(db->fti().LookupCurrent(kind, term)),
              matches(rebuilt->LookupCurrent(kind, term)))
        << "current: " << term;
    for (int d = 1; d <= kDays; ++d) {
      EXPECT_EQ(matches(db->fti().LookupT(kind, term, Day(d))),
                matches(rebuilt->LookupT(kind, term, Day(d))))
          << term << " at day " << d;
    }
  }
}

}  // namespace
}  // namespace txml
