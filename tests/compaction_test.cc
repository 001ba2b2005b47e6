// Correctness of the split FTI (DESIGN.md §13): folding the differential
// into the compacted main index must be invisible to every query operator
// — same answers before and after a fold, across continued commits,
// vacuums, crash recovery, and replication apply with leader and follower
// folding on different schedules. The multi-threaded suites are in the
// sanitizer sweep (scripts/check.sh matches "Compaction").
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/database.h"
#include "src/query/scan.h"
#include "src/service/service.h"
#include "src/storage/vacuum.h"
#include "src/storage/wal.h"
#include "src/util/env.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::string TempDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("txml_cmp_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Version v carries items [1..v]; names and prices move with v so the
// vocabulary keeps growing (every Put appends differential postings).
std::string GuideXml(int v) {
  std::string xml = "<guide>";
  for (int i = 1; i <= v; ++i) {
    xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
           std::to_string(10 * i + v) + "</price></item>";
  }
  return xml + "</guide>";
}

/// The query battery whose answers must be fold-invariant: Q1 snapshot
/// retrieval, Q2-style containment, Q3 history ([EVERY]), DIFF, lifetime
/// operators, and a current-version scan.
std::vector<std::string> OracleQueries() {
  return {
      // Q1: snapshot lookup with a word constraint.
      "SELECT R/price FROM doc(\"u\")[03/01/2001]/item R "
      "WHERE R/name = \"n1\"",
      // Q2 shape: count, no content materialization.
      "SELECT COUNT(R) FROM doc(\"u\")[05/01/2001]/item R",
      // Q3: full history of one element.
      "SELECT TIME(R), R/price FROM doc(\"u\")[EVERY]/item R "
      "WHERE R/name = \"n2\"",
      // DIFF between two snapshots.
      "SELECT DIFF(R1, R2) FROM doc(\"u\")[02/01/2001]/guide R1, "
      "doc(\"u\")[05/01/2001]/guide R2 WHERE R1 == R2",
      // Lifetime operators.
      "SELECT CREATE TIME(R) FROM doc(\"u\")[05/01/2001]/item R "
      "WHERE R/name = \"n3\"",
      // Current-version scan over both documents, incl. the deleted one.
      "SELECT R/name FROM doc(\"u\")/item R WHERE R/price > 40",
      // History of the deleted document: runs must stay closed at the
      // delete time across folds.
      "SELECT TIME(R) FROM doc(\"gone\")[EVERY]/x R",
  };
}

class CompactionOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int v = 1; v <= 6; ++v) {
      ASSERT_TRUE(db_.PutDocumentAt("u", GuideXml(v), Day(v)).ok());
    }
    ASSERT_TRUE(
        db_.PutDocumentAt("gone", "<d><x>alpha beta</x></d>", Day(2)).ok());
    ASSERT_TRUE(
        db_.PutDocumentAt("gone", "<d><x>alpha gamma</x></d>", Day(4)).ok());
    ASSERT_TRUE(db_.DeleteDocumentAt("gone", Day(6)).ok());
  }

  std::vector<std::string> Answers() {
    std::vector<std::string> answers;
    for (const std::string& q : OracleQueries()) {
      auto out = db_.QueryToString(q, /*pretty=*/false);
      EXPECT_TRUE(out.ok()) << q << " -> " << out.status().ToString();
      answers.push_back(out.ok() ? *out : "<error>");
    }
    return answers;
  }

  TemporalXmlDatabase db_;
};

TEST_F(CompactionOracleTest, QueriesUnchangedAcrossFold) {
  const TemporalFullTextIndex& fti = db_.fti();
  ASSERT_GT(fti.differential_posting_count(), 0u)
      << "commits must append to the differential";
  const size_t main_before = fti.main_posting_count();
  const std::vector<std::string> before = Answers();

  db_.CompactFti();
  EXPECT_EQ(fti.differential_posting_count(), 0u);
  EXPECT_GT(fti.main_posting_count(), main_before);
  EXPECT_EQ(fti.compaction_count(), 1u);
  EXPECT_EQ(Answers(), before);

  // The index keeps maintaining correctly after a fold: new commits land
  // in the (now empty) differential, close postings across the halves,
  // and a second fold is again invisible.
  ASSERT_TRUE(db_.PutDocumentAt("u", GuideXml(7), Day(7)).ok());
  ASSERT_TRUE(db_.PutDocumentAt("u", GuideXml(3), Day(8)).ok());
  ASSERT_GT(fti.differential_posting_count(), 0u);
  const std::vector<std::string> after_writes = Answers();
  db_.CompactFti();
  EXPECT_EQ(fti.compaction_count(), 2u);
  EXPECT_EQ(Answers(), after_writes);
}

TEST_F(CompactionOracleTest, RangeScanUnchangedAcrossFold) {
  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf, "item",
                                /*projected=*/true);
  auto* name = root->AddChild(PatternNode::Make(
      PatternNode::Test::kElementName, PatternNode::Axis::kChild, "name"));
  name->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                   PatternNode::Axis::kSelf, "n2"));
  Pattern pattern(std::move(root));

  // The history scan's match runs survive a fold row for row.
  QueryContext ctx = db_.Context();
  auto before = TPatternScanAll(ctx, pattern);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->empty());

  db_.CompactFti();
  auto after = TPatternScanAll(ctx, pattern);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_EQ((*after)[i].doc_id, (*before)[i].doc_id);
    EXPECT_EQ((*after)[i].first_version, (*before)[i].first_version);
    EXPECT_EQ((*after)[i].end_version, (*before)[i].end_version);
    EXPECT_EQ((*after)[i].validity, (*before)[i].validity);
    EXPECT_EQ((*after)[i].elements, (*before)[i].elements);
  }
}

TEST_F(CompactionOracleTest, VacuumForcesFold) {
  ASSERT_GT(db_.fti().differential_posting_count(), 0u);
  auto stats = db_.Vacuum(RetentionPolicy::DropBefore(Day(4)));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The vacuum folded first (it re-anchors main postings in place), so
  // the differential is empty without a post-commit trigger firing.
  EXPECT_EQ(db_.fti().differential_posting_count(), 0u);
  EXPECT_GE(db_.fti().compaction_count(), 1u);
  // Answers at or after the horizon are unchanged by contract.
  auto out = db_.QueryToString(
      "SELECT COUNT(R) FROM doc(\"u\")[05/01/2001]/item R", false);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("5"), std::string::npos) << *out;
}

// Readers race a writer whose commits trip the post-commit fold trigger:
// run under TSan (scripts/check.sh) to pin the quiescence protocol — no
// reader may observe a posting vector mid-splice.
TEST(CompactionStressTest, ReadersVsWriterVsFold) {
  ServiceOptions options;
  options.worker_threads = 2;
  options.fti_compact_min_postings = 8;  // fold on nearly every commit
  TemporalQueryService service(options);
  for (int v = 1; v <= 3; ++v) {
    ASSERT_TRUE(service.PutAt("u", GuideXml(v), Day(v)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> query_failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      QueryRequest request;
      request.query_text =
          "SELECT TIME(R), R/price FROM doc(\"u\")[EVERY]/item R "
          "WHERE R/name = \"n1\"";
      while (!stop.load(std::memory_order_relaxed)) {
        auto response = service.Execute(request);
        if (!response.ok()) query_failures.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (int v = 4; v < 64; ++v) {
      auto put = service.PutAt("u", GuideXml(1 + v % 8), Day(v));
      if (!put.ok()) query_failures.fetch_add(1);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(query_failures.load(), 0);
  ServiceStats stats = service.Stats();
  EXPECT_GT(stats.fti.compactions, 0u) << "threshold never tripped";
  EXPECT_EQ(stats.fti.differential_postings + stats.fti.main_postings,
            service.database().fti().posting_count());
}

// Folds racing vacuums: both are stop-the-world index rewrites; the
// observer protocol (fold-before-vacuum inside OnHistoryVacuumed) plus the
// shard quiescence must keep them serializable.
TEST(CompactionStressTest, FoldVsVacuum) {
  ServiceOptions options;
  options.worker_threads = 2;
  options.fti_compact_min_postings = 8;
  TemporalQueryService service(options);
  for (int v = 1; v <= 8; ++v) {
    ASSERT_TRUE(service.PutAt("u", GuideXml(v), Day(v)).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int v = 9; v < 48; ++v) {
      if (!service.PutAt("u", GuideXml(1 + v % 8), Day(v)).ok()) {
        failures.fetch_add(1);
      }
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::thread vacuumer([&] {
    int horizon = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      // Horizon below every live commit: always valid, occasionally a
      // no-op, always exercises the forced fold.
      auto stats = service.Vacuum(RetentionPolicy::DropBefore(Day(horizon)));
      if (!stats.ok()) failures.fetch_add(1);
      horizon = 2 + (horizon + 1) % 5;
    }
  });
  std::thread reader([&] {
    QueryRequest request;
    request.query_text = "SELECT COUNT(R) FROM doc(\"u\")/item R";
    while (!stop.load(std::memory_order_relaxed)) {
      if (!service.Execute(request).ok()) failures.fetch_add(1);
    }
  });
  writer.join();
  vacuumer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

// Crash recovery replays the WAL into a rebuilt index. A service that was
// folding aggressively must recover to the same answers under a different
// (here: disabled) fold schedule — compaction is never WAL-logged.
TEST(CompactionDurabilityTest, RecoveryIndependentOfFoldSchedule) {
  std::string dir = TempDir("recovery");
  std::vector<std::string> before;
  {
    ServiceOptions options;
    options.worker_threads = 2;
    options.durability.data_dir = dir;
    options.fti_compact_min_postings = 4;
    auto service = TemporalQueryService::Create(options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (int v = 1; v <= 6; ++v) {
      ASSERT_TRUE((*service)->PutAt("u", GuideXml(v), Day(v)).ok());
    }
    ASSERT_TRUE((*service)->PutAt("gone", "<d><x>w</x></d>", Day(7)).ok());
    ASSERT_TRUE((*service)->Delete("gone").ok());
    EXPECT_GT((*service)->Stats().fti.compactions, 0u);
    for (const std::string& q : OracleQueries()) {
      QueryRequest request;
      request.query_text = q;
      auto response = (*service)->Execute(request);
      before.push_back(response.ok() ? response->payload : "<error>");
    }
  }

  ServiceOptions options;
  options.worker_threads = 2;
  options.durability.data_dir = dir;
  options.fti_compact_min_postings = 0;  // never fold after recovery
  auto recovered = TemporalQueryService::Create(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  for (size_t i = 0; i < before.size(); ++i) {
    QueryRequest request;
    request.query_text = OracleQueries()[i];
    auto response = (*recovered)->Execute(request);
    std::string payload = response.ok() ? response->payload : "<error>";
    EXPECT_EQ(payload, before[i]) << OracleQueries()[i];
  }
  std::filesystem::remove_all(dir);
}

// The index's checkpoint bytes are canonical: the same history saves the
// same indexes.txml whether the differential was never folded or folded
// every 64 postings, so a leader's and a follower's checkpoints match.
TEST(CompactionDurabilityTest, CheckpointBytesIndependentOfFoldSchedule) {
  std::vector<std::string> saved;
  for (size_t threshold : {size_t{0}, size_t{64}}) {
    ServiceOptions options;
    options.worker_threads = 2;
    options.fti_compact_min_postings = threshold;
    TemporalQueryService service(options);
    for (int v = 1; v <= 6; ++v) {
      for (int d = 0; d < 12; ++d) {
        // Per-document vocabulary, so terms enter the index in an order
        // that differs between the folded and the unfolded index.
        std::string tag = "doc";
        tag += std::to_string(d);
        std::string xml = "<guide><";
        xml += tag;
        xml += ">w";
        xml += std::to_string(d * 7 + v);
        xml += "</";
        xml += tag;
        xml += ">";
        xml += GuideXml(v).substr(7);
        ASSERT_TRUE(service.PutAt(tag, xml, Day(v).AddMicros(d)).ok());
      }
    }
    ASSERT_TRUE(service.PutAt("gone", "<d><x>w y</x></d>", Day(7)).ok());
    ASSERT_TRUE(service.Delete("gone").ok());
    if (threshold == 0) {
      EXPECT_EQ(service.Stats().fti.compactions, 0u);
    } else {
      EXPECT_GT(service.Stats().fti.compactions, 1u);
      EXPECT_GT(service.Stats().fti.differential_postings, 0u);
    }
    std::string dir = TempDir("canonical");
    ASSERT_TRUE(service.database().Save(dir).ok());
    auto bytes = ReadFileToString(dir + "/indexes.txml");
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    saved.push_back(std::move(*bytes));
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(saved[0], saved[1]);
}

// A follower applying the leader's WAL while folding on its own (much
// tighter) schedule converges to the leader's answers: the fold is a pure
// layout transform, so replication never ships or coordinates it.
TEST(CompactionDurabilityTest, ReplicatedApplyWithInFlightFolds) {
  std::string leader_dir = TempDir("repl_leader");
  std::string follower_dir = TempDir("repl_follower");

  ServiceOptions leader_options;
  leader_options.worker_threads = 2;
  leader_options.durability.data_dir = leader_dir;
  leader_options.fti_compact_min_postings = 0;  // leader never folds
  auto leader = TemporalQueryService::Create(leader_options);
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  for (int v = 1; v <= 6; ++v) {
    ASSERT_TRUE((*leader)->PutAt("u", GuideXml(v), Day(v)).ok());
  }
  ASSERT_TRUE((*leader)->PutAt("gone", "<d><x>w y</x></d>", Day(7)).ok());
  ASSERT_TRUE((*leader)->Delete("gone").ok());

  ServiceOptions follower_options;
  follower_options.worker_threads = 2;
  follower_options.durability.data_dir = follower_dir;
  follower_options.fti_compact_min_postings = 2;  // folds nearly per record
  auto follower = TemporalQueryService::Create(follower_options);
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();

  auto replay = WriteAheadLog::Replay(leader_dir + "/" + kWalFileName);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_FALSE(replay->records.empty());
  for (const WalRecord& record : replay->records) {
    ASSERT_TRUE((*follower)->ApplyReplicated({&record, 1}).ok());
  }
  EXPECT_GT((*follower)->Stats().fti.compactions, 0u);

  for (const std::string& q : OracleQueries()) {
    QueryRequest request;
    request.query_text = q;
    auto leader_out = (*leader)->Execute(request);
    auto follower_out = (*follower)->Execute(request);
    ASSERT_TRUE(leader_out.ok()) << q;
    ASSERT_TRUE(follower_out.ok()) << q;
    EXPECT_EQ(follower_out->payload, leader_out->payload) << q;
  }
  std::filesystem::remove_all(leader_dir);
  std::filesystem::remove_all(follower_dir);
}

}  // namespace
}  // namespace txml
