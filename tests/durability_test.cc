// Durability layer tests (DESIGN.md §9): WAL framing and torn-tail
// tolerance, checkpoint stamps, service recovery (checkpoint + WAL suffix
// replay), auto-checkpointing — and, when TXML_FAILPOINTS is compiled in,
// a crash-recovery sweep that injects a fault at every discovered WAL /
// checkpoint I/O boundary and checks the recovered service answers the
// oracle battery byte-identically to an in-memory database replaying the
// acknowledged commits.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/database.h"
#include "src/service/service.h"
#include "src/storage/wal.h"
#include "src/util/env.h"
#include "src/util/failpoint.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::string DayStr(int d) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02d/01/2001", d);
  return buf;
}

std::string TempDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("txml_dur_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// Small guide history: version v has items [1..v], prices move with v.
std::string GuideXml(int v) {
  std::string xml = "<guide>";
  for (int i = 1; i <= v; ++i) {
    xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
           std::to_string(10 * i + v) + "</price></item>";
  }
  return xml + "</guide>";
}

ServiceOptions DurableOptions(const std::string& dir,
                              WalSyncMode sync_mode = WalSyncMode::kAlways) {
  ServiceOptions options;
  options.worker_threads = 2;
  options.durability.data_dir = dir;
  options.durability.wal.sync_mode = sync_mode;
  // Tests drive checkpoints explicitly unless they test the trigger.
  options.durability.checkpoint_log_bytes = 0;
  options.durability.checkpoint_log_records = 0;
  return options;
}

/// The query battery compared across crash/recovery: snapshot scans and
/// lifetime operators at two anchors, a DIFF, and an [EVERY] history.
std::vector<std::string> OracleQueries(int last_day) {
  std::string t1 = DayStr(1);
  std::string t2 = DayStr(last_day);
  return {
      "SELECT R FROM doc(\"u\")[" + t2 + "]/guide/item R",
      "SELECT R/name FROM doc(\"u\")[" + t2 +
          "]/guide/item R WHERE R/price < 150",
      "SELECT COUNT(R) FROM doc(\"u\")[" + t1 + "]/guide/item R",
      "SELECT R/name, CREATE TIME(R) FROM doc(\"u\")[" + t2 +
          "]/guide/item R",
      "SELECT DIFF(R1, R2) FROM doc(\"u\")[" + t1 + "]/guide R1, doc(\"u\")[" +
          t2 + "]/guide R2 WHERE R1 == R2",
      "SELECT TIME(R), R/price FROM doc(\"u\")[EVERY]/guide/item R "
      "WHERE CREATE TIME(R) >= " +
          t1,
  };
}

/// Unified-Execute convenience: run one query and unwrap the payload
/// as a local helper (the service API itself has no string-unwrap call).
StatusOr<std::string> RunQuery(TemporalQueryService* service,
                               const std::string& query, bool pretty = true) {
  QueryRequest request;
  request.query_text = query;
  request.pretty = pretty;
  auto response = service->Execute(request);
  if (!response.ok()) return response.status();
  return std::move(response->payload);
}

std::vector<std::string> AnswersOf(TemporalQueryService* service,
                                   int last_day) {
  std::vector<std::string> answers;
  for (const std::string& q : OracleQueries(last_day)) {
    auto out = RunQuery(service, q);
    answers.push_back(out.ok() ? *out : "<error: " + out.status().ToString() +
                                            " for " + q + ">");
  }
  return answers;
}

/// Oracle: a fresh in-memory database fed the given (day → xml) puts in
/// order, queried with the same battery. PutAt timestamps are explicit, so
/// the oracle's history is bit-identical to what WAL replay reconstructs.
std::vector<std::string> OracleAnswers(
    const std::vector<std::pair<int, std::string>>& puts, int last_day) {
  TemporalXmlDatabase db;
  for (const auto& [day, xml] : puts) {
    auto put = db.PutDocumentAt("u", xml, Day(day));
    EXPECT_TRUE(put.ok()) << put.status().ToString();
  }
  std::vector<std::string> answers;
  for (const std::string& q : OracleQueries(last_day)) {
    auto out = db.QueryToString(q);
    answers.push_back(out.ok() ? *out : "<error: " + out.status().ToString() +
                                            " for " + q + ">");
  }
  return answers;
}

/// The store's encoding (the bytes a checkpoint's store.txml carries).
std::string EncodedStore(const TemporalQueryService& service) {
  std::string encoded;
  service.database().store().EncodeTo(&encoded);
  return encoded;
}

/// Submits one record to a group-commit log and waits for its batch.
Status AppendOne(GroupCommitWal* gcw, const WalRecord& record) {
  GroupCommitWal::Ticket ticket;
  gcw->EnqueueRun({record}, {&ticket});
  return gcw->Wait(&ticket);
}

// ---------------------------------------------------------------- WAL --

TEST(WalTest, AppendReplayRoundTrip) {
  std::string dir = TempDir("wal_roundtrip");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/" + kWalFileName;

  auto wal = WriteAheadLog::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();

  WalRecord put;
  put.type = WalRecordType::kPut;
  put.ts = Day(1);
  put.url = "u";
  put.payload = "<a><b>text</b></a>";
  auto s1 = (*wal)->Append(put);
  ASSERT_TRUE(s1.ok()) << s1.status().ToString();
  EXPECT_EQ(*s1, 1u);

  WalRecord del;
  del.type = WalRecordType::kDelete;
  del.ts = Day(2);
  del.url = "u";
  auto s2 = (*wal)->Append(del);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s2, 2u);

  WalRecord vac;
  vac.type = WalRecordType::kVacuum;
  vac.policy = RetentionPolicy::CoarsenOlderThan(Day(2), 4);
  auto s3 = (*wal)->Append(vac);
  ASSERT_TRUE(s3.ok());
  EXPECT_EQ(*s3, 3u);

  EXPECT_EQ((*wal)->record_count(), 3u);
  EXPECT_EQ((*wal)->last_sequence(), 3u);
  EXPECT_GT((*wal)->file_bytes(), 0u);

  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->tail_dropped);
  EXPECT_EQ(replay->last_sequence, 3u);
  ASSERT_EQ(replay->records.size(), 3u);

  EXPECT_EQ(replay->records[0].type, WalRecordType::kPut);
  EXPECT_EQ(replay->records[0].sequence, 1u);
  EXPECT_EQ(replay->records[0].ts, Day(1));
  EXPECT_EQ(replay->records[0].url, "u");
  EXPECT_EQ(replay->records[0].payload, "<a><b>text</b></a>");

  EXPECT_EQ(replay->records[1].type, WalRecordType::kDelete);
  EXPECT_EQ(replay->records[1].ts, Day(2));
  EXPECT_EQ(replay->records[1].url, "u");

  EXPECT_EQ(replay->records[2].type, WalRecordType::kVacuum);
  ASSERT_TRUE(replay->records[2].policy.coarsen_older_than.has_value());
  EXPECT_EQ(*replay->records[2].policy.coarsen_older_than, Day(2));
  EXPECT_EQ(replay->records[2].policy.keep_every, 4u);
  EXPECT_FALSE(replay->records[2].policy.drop_before.has_value());
}

TEST(WalTest, SequenceContinuesAcrossReopen) {
  std::string dir = TempDir("wal_reopen");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/" + kWalFileName;

  WalRecord record;
  record.type = WalRecordType::kPut;
  record.ts = Day(1);
  record.url = "u";
  record.payload = "<a/>";
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(record).ok());
    ASSERT_TRUE((*wal)->Append(record).ok());
  }
  auto wal = WriteAheadLog::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->last_sequence(), 2u);
  EXPECT_EQ((*wal)->record_count(), 2u);
  auto seq = (*wal)->Append(record);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);

  // The min_base_sequence floor wins when it exceeds the file's tail
  // (checkpoint stamp outran a crashed log truncation).
  auto floored = WriteAheadLog::Open(path, WalOptions{}, 10);
  ASSERT_TRUE(floored.ok());
  EXPECT_EQ((*floored)->last_sequence(), 10u);
}

TEST(WalTest, ResetTruncatesAndContinuesSequences) {
  std::string dir = TempDir("wal_reset");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/" + kWalFileName;
  auto wal = WriteAheadLog::Open(path, WalOptions{});
  ASSERT_TRUE(wal.ok());

  WalRecord record;
  record.type = WalRecordType::kPut;
  record.ts = Day(1);
  record.url = "u";
  record.payload = "<a/>";
  ASSERT_TRUE((*wal)->Append(record).ok());
  ASSERT_TRUE((*wal)->Append(record).ok());
  ASSERT_TRUE((*wal)->Reset(2).ok());
  EXPECT_EQ((*wal)->record_count(), 0u);

  auto replay = WriteAheadLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_EQ(replay->last_sequence, 2u);  // base_sequence carries over

  auto seq = (*wal)->Append(record);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);
}

TEST(WalTest, TornTailMatrix) {
  std::string dir = TempDir("wal_torn");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::string path = dir + "/" + kWalFileName;

  // Three records; remember the valid length after each.
  std::vector<uint64_t> valid_after;
  {
    auto wal = WriteAheadLog::Open(path, WalOptions{});
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 3; ++i) {
      WalRecord record;
      record.type = WalRecordType::kPut;
      record.ts = Day(i);
      record.url = "u";
      record.payload = GuideXml(i);
      ASSERT_TRUE((*wal)->Append(record).ok());
      valid_after.push_back((*wal)->file_bytes());
    }
  }
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  const std::string& full = *data;
  ASSERT_EQ(valid_after[2], full.size());
  // A freshly created empty log is exactly one header long; measure it
  // instead of hardcoding the magic+varint layout.
  size_t header_size;
  {
    auto empty = WriteAheadLog::Open(dir + "/empty.txml", WalOptions{});
    ASSERT_TRUE(empty.ok());
    header_size = (*empty)->file_bytes();
  }
  ASSERT_GT(header_size, 0u);
  ASSERT_LT(header_size, valid_after[0]);

  std::string torn_path = dir + "/torn.txml";
  // Truncate at every byte offset inside the FINAL record (and at the
  // boundaries): the complete prefix must always survive, the tail must
  // always be dropped, and an Open() over the torn file must accept new
  // appends that a subsequent replay sees.
  for (size_t len = valid_after[1]; len < full.size(); ++len) {
    std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    auto replay = WriteAheadLog::Replay(torn_path);
    ASSERT_TRUE(replay.ok()) << "len=" << len;
    EXPECT_EQ(replay->records.size(), 2u) << "len=" << len;
    EXPECT_EQ(replay->tail_dropped, len != valid_after[1]) << "len=" << len;
    EXPECT_EQ(replay->valid_bytes, valid_after[1]) << "len=" << len;
    EXPECT_EQ(replay->bytes_dropped, len - valid_after[1]) << "len=" << len;
    EXPECT_EQ(replay->last_sequence, 2u) << "len=" << len;
  }

  // Truncations inside the header are not a torn tail but a file that
  // never finished being created: Corruption.
  for (size_t len = 0; len < header_size; ++len) {
    std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    auto replay = WriteAheadLog::Replay(torn_path);
    EXPECT_FALSE(replay.ok()) << "len=" << len;
  }

  // A CRC flip in the final record drops exactly that record.
  {
    std::string flipped = full;
    flipped[flipped.size() - 1] = static_cast<char>(flipped.back() ^ 0x40);
    std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
    out.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    out.close();
    auto replay = WriteAheadLog::Replay(torn_path);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->records.size(), 2u);
    EXPECT_TRUE(replay->tail_dropped);
  }

  // Open() over a torn file truncates the tail physically; appends then
  // extend the valid prefix.
  {
    size_t len = valid_after[1] + (full.size() - valid_after[1]) / 2;
    std::ofstream out(torn_path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(len));
    out.close();
    auto wal = WriteAheadLog::Open(torn_path, WalOptions{});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ((*wal)->last_sequence(), 2u);
    WalRecord record;
    record.type = WalRecordType::kPut;
    record.ts = Day(9);
    // Move-assigned: GCC 12 at -O3 misreports a literal assign here as
    // -Werror=restrict (an overlapping memcpy that cannot happen).
    record.url = std::string("u");
    record.payload = "<late/>";
    auto seq = (*wal)->Append(record);
    ASSERT_TRUE(seq.ok());
    EXPECT_EQ(*seq, 3u);
    auto replay = WriteAheadLog::Replay(torn_path);
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ(replay->records.size(), 3u);
    EXPECT_FALSE(replay->tail_dropped);
    EXPECT_EQ(replay->records[2].payload, "<late/>");
  }
}

TEST(WalTest, CheckpointStampRoundTrip) {
  std::string dir = TempDir("stamp");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());

  auto missing = ReadCheckpointStamp(dir);
  EXPECT_TRUE(missing.status().IsNotFound());

  ASSERT_TRUE(WriteCheckpointStamp(dir, 42).ok());
  auto stamp = ReadCheckpointStamp(dir);
  ASSERT_TRUE(stamp.ok()) << stamp.status().ToString();
  EXPECT_EQ(*stamp, 42u);

  // Corruption is detected, not trusted.
  std::string path = dir + "/" + kCheckpointStampFileName;
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  std::string bad = *data;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x1);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
  out.close();
  EXPECT_FALSE(ReadCheckpointStamp(dir).ok());
}

TEST(WalTest, SyncModeParsing) {
  EXPECT_EQ(WalSyncModeToString(WalSyncMode::kNone), "none");
  EXPECT_EQ(WalSyncModeToString(WalSyncMode::kEveryN), "every_n");
  EXPECT_EQ(WalSyncModeToString(WalSyncMode::kAlways), "always");
  auto none = ParseWalSyncMode("none");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, WalSyncMode::kNone);
  auto every = ParseWalSyncMode("every_n");
  ASSERT_TRUE(every.ok());
  EXPECT_EQ(*every, WalSyncMode::kEveryN);
  auto always = ParseWalSyncMode("always");
  ASSERT_TRUE(always.ok());
  EXPECT_EQ(*always, WalSyncMode::kAlways);
  EXPECT_FALSE(ParseWalSyncMode("sometimes").ok());
}

// --------------------------------------------------------- group commit --

TEST(WalGroupCommitTest, EnqueueRunSharesOneBatchAndOneSync) {
  std::string dir = TempDir("gc_run");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  auto wal = WriteAheadLog::Open(dir + "/" + kWalFileName, WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  GroupCommitWal gcw(std::move(*wal), GroupCommitWal::Hooks{});

  // Five records submitted in one run land in one batch: one write, one
  // fsync (kAlways), and the 5-8 histogram bucket takes the batch.
  std::vector<WalRecord> records(5);
  std::vector<GroupCommitWal::Ticket> tickets(5);
  std::vector<GroupCommitWal::Ticket*> ticket_ptrs;
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].type = WalRecordType::kPut;
    records[i].sequence = i + 1;
    records[i].ts = Day(static_cast<int>(i) + 1);
    records[i].url = "u";
    records[i].payload = GuideXml(static_cast<int>(i) + 1);
    ticket_ptrs.push_back(&tickets[i]);
  }
  gcw.EnqueueRun(records, ticket_ptrs);
  for (auto& ticket : tickets) {
    Status waited = gcw.Wait(&ticket);
    EXPECT_TRUE(waited.ok()) << waited.ToString();
  }

  GroupCommitStats stats = gcw.Stats();
  EXPECT_EQ(stats.records_written, 5u);
  EXPECT_EQ(stats.batches_written, 1u);
  EXPECT_EQ(stats.max_batch_records, 5u);
  // Size 5 lands in bucket index 3 ((4, 8]).
  EXPECT_EQ(stats.batch_size_histogram[3], 1u);
  EXPECT_EQ(gcw.sync_count(), 1u);
  EXPECT_EQ(gcw.last_sequence(), 5u);
}

TEST(WalGroupCommitTest, RejectsNonAscendingSequences) {
  std::string dir = TempDir("gc_order");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  auto wal = WriteAheadLog::Open(dir + "/" + kWalFileName, WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  GroupCommitWal gcw(std::move(*wal), GroupCommitWal::Hooks{});

  WalRecord record;
  record.type = WalRecordType::kPut;
  record.sequence = 7;
  record.ts = Day(1);
  record.url = "u";
  record.payload = GuideXml(1);
  ASSERT_TRUE(AppendOne(&gcw, record).ok());
  // A stale (already-submitted) sequence is rejected up front; the log
  // itself is untouched and stays healthy.
  Status stale = AppendOne(&gcw, record);
  EXPECT_FALSE(stale.ok());
  EXPECT_FALSE(gcw.poisoned());
  record.sequence = 8;
  EXPECT_TRUE(AppendOne(&gcw, record).ok());
  EXPECT_EQ(gcw.record_count(), 2u);
  // A run is admitted whole or not at all: a stale record anywhere in it
  // refuses the fresh ones too, and the log is untouched.
  WalRecord fresh = record;
  fresh.sequence = 9;
  GroupCommitWal::Ticket first;
  GroupCommitWal::Ticket second;
  gcw.EnqueueRun({fresh, record}, {&first, &second});
  EXPECT_FALSE(gcw.Wait(&first).ok());
  EXPECT_FALSE(gcw.Wait(&second).ok());
  EXPECT_EQ(gcw.record_count(), 2u);
  EXPECT_TRUE(AppendOne(&gcw, fresh).ok());
  EXPECT_EQ(gcw.record_count(), 3u);
}

TEST(WalGroupCommitTest, ConcurrentWritersKeepWalSequencesMonotone) {
  std::string dir = TempDir("gc_monotone");
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 12;
  {
    auto service = TemporalQueryService::Create(
        DurableOptions(dir, WalSyncMode::kAlways));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    std::atomic<bool> failed{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&service, &failed, w] {
        std::string url = "w" + std::to_string(w);
        for (int i = 1; i <= kCommitsPerWriter; ++i) {
          auto put = (*service)->Put(url, GuideXml(i));
          if (!put.ok()) {
            failed.store(true);
            ADD_FAILURE() << put.status().ToString();
            return;
          }
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    ASSERT_FALSE(failed.load());
  }

  // The on-disk log must hold every commit with strictly ascending
  // sequences — group commit batches writes but never reorders them.
  auto replay = WriteAheadLog::Replay(dir + "/" + kWalFileName);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->tail_dropped);
  EXPECT_EQ(replay->records.size(),
            static_cast<size_t>(kWriters * kCommitsPerWriter));
  uint64_t previous = replay->base_sequence;
  for (const WalRecord& record : replay->records) {
    EXPECT_GT(record.sequence, previous)
        << "sequence regressed at record " << record.sequence;
    previous = record.sequence;
  }
}

// ------------------------------------------------------ service recovery --

TEST(ServiceRecoveryTest, RecoversFromWalWithoutCheckpoint) {
  std::string dir = TempDir("svc_wal_only");
  std::vector<std::pair<int, std::string>> puts;
  std::vector<std::string> before;
  {
    auto service = TemporalQueryService::Create(DurableOptions(dir));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    for (int day = 1; day <= 5; ++day) {
      auto put = (*service)->PutAt("u", GuideXml(day), Day(day));
      ASSERT_TRUE(put.ok()) << put.status().ToString();
      puts.emplace_back(day, GuideXml(day));
    }
    before = AnswersOf(service->get(), 5);
    EXPECT_EQ((*service)->Stats().durability.wal_records_appended, 5u);
    // No clean shutdown: the service is simply destroyed (crash model —
    // nothing is flushed or checkpointed on destruction).
  }
  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Stats().durability.recovered_records, 5u);
  EXPECT_EQ(AnswersOf(recovered->get(), 5), before);
  EXPECT_EQ(AnswersOf(recovered->get(), 5), OracleAnswers(puts, 5));

  // The service keeps accepting writes after recovery.
  auto put = (*recovered)->PutAt("u", GuideXml(6), Day(6));
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  puts.emplace_back(6, GuideXml(6));
  EXPECT_EQ(AnswersOf(recovered->get(), 6), OracleAnswers(puts, 6));
}

TEST(ServiceRecoveryTest, RecoversFromCheckpointPlusWalSuffix) {
  std::string dir = TempDir("svc_ckpt_suffix");
  std::vector<std::pair<int, std::string>> puts;
  std::vector<std::string> before;
  {
    auto service = TemporalQueryService::Create(DurableOptions(dir));
    ASSERT_TRUE(service.ok());
    for (int day = 1; day <= 3; ++day) {
      ASSERT_TRUE((*service)->PutAt("u", GuideXml(day), Day(day)).ok());
      puts.emplace_back(day, GuideXml(day));
    }
    ASSERT_TRUE((*service)->Checkpoint().ok());
    EXPECT_EQ((*service)->wal()->record_count(), 0u);  // truncated
    for (int day = 4; day <= 6; ++day) {
      ASSERT_TRUE((*service)->PutAt("u", GuideXml(day), Day(day)).ok());
      puts.emplace_back(day, GuideXml(day));
    }
    before = AnswersOf(service->get(), 6);
  }
  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // Only the suffix past the checkpoint replays.
  EXPECT_EQ((*recovered)->Stats().durability.recovered_records, 3u);
  EXPECT_EQ(AnswersOf(recovered->get(), 6), before);
  EXPECT_EQ(AnswersOf(recovered->get(), 6), OracleAnswers(puts, 6));
}

TEST(ServiceRecoveryTest, DeleteSurvivesRecovery) {
  std::string dir = TempDir("svc_delete");
  std::vector<std::string> before;
  {
    auto service = TemporalQueryService::Create(DurableOptions(dir));
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->PutAt("u", GuideXml(2), Day(1)).ok());
    ASSERT_TRUE((*service)->PutAt("gone", "<d><x>bye</x></d>", Day(2)).ok());
    ASSERT_TRUE((*service)->Delete("gone").ok());
    before = AnswersOf(service->get(), 2);
    // Deleting again fails and must not leave a bogus WAL record behind.
    const uint64_t records = (*service)->wal()->record_count();
    EXPECT_FALSE((*service)->Delete("gone").ok());
    EXPECT_FALSE((*service)->Delete("never-existed").ok());
    EXPECT_EQ((*service)->wal()->record_count(), records);
  }
  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(AnswersOf(recovered->get(), 2), before);
  auto snap = (*recovered)->Snapshot("gone", Timestamp::Infinity());
  EXPECT_FALSE(snap.ok());  // still deleted after recovery
}

TEST(ServiceRecoveryTest, AutoCheckpointTriggersOnRecordCount) {
  std::string dir = TempDir("svc_auto_ckpt");
  ServiceOptions options = DurableOptions(dir);
  options.durability.checkpoint_log_records = 3;
  std::vector<std::pair<int, std::string>> puts;
  {
    auto service = TemporalQueryService::Create(options);
    ASSERT_TRUE(service.ok());
    for (int day = 1; day <= 7; ++day) {
      ASSERT_TRUE((*service)->PutAt("u", GuideXml(day), Day(day)).ok());
      puts.emplace_back(day, GuideXml(day));
    }
    ServiceStats stats = (*service)->Stats();
    EXPECT_GE(stats.durability.checkpoints_completed, 2u);
    EXPECT_LT((*service)->wal()->record_count(), 3u);
  }
  auto recovered = TemporalQueryService::Create(options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(AnswersOf(recovered->get(), 7), OracleAnswers(puts, 7));
}

TEST(ServiceRecoveryTest, VacuumIsCheckpointedAndRecovered) {
  std::string dir = TempDir("svc_vacuum");
  std::vector<std::string> before;
  {
    auto service = TemporalQueryService::Create(DurableOptions(dir));
    ASSERT_TRUE(service.ok());
    for (int day = 1; day <= 8; ++day) {
      ASSERT_TRUE((*service)->PutAt("u", GuideXml(day), Day(day)).ok());
    }
    auto vacuumed =
        (*service)->Vacuum(RetentionPolicy::CoarsenOlderThan(Day(6), 3));
    ASSERT_TRUE(vacuumed.ok()) << vacuumed.status().ToString();
    // Every vacuum commit forces a checkpoint (replay non-idempotence).
    EXPECT_GE((*service)->Stats().durability.checkpoints_completed, 1u);
    EXPECT_EQ((*service)->wal()->record_count(), 0u);
    before = AnswersOf(service->get(), 8);
  }
  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(AnswersOf(recovered->get(), 8), before);
}

// A vacuum is a logged commit: it takes the next WAL sequence, but no
// commit timestamp, so the auto-stamped put after it continues the
// timestamp line one microsecond on.
TEST(ServiceRecoveryTest, VacuumTakesASequenceButNoTimestamp) {
  std::string dir = TempDir("svc_vacuum_ticket");
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto first = (*service)->Put("u", GuideXml(1));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*service)->wal()->last_sequence(), 1u);

  // Nothing lies before the first commit: a valid policy that drops nothing.
  auto vacuumed =
      (*service)->Vacuum(RetentionPolicy::DropBefore(first->commit_ts));
  ASSERT_TRUE(vacuumed.ok()) << vacuumed.status().ToString();
  EXPECT_EQ(vacuumed->versions_dropped, 0u);
  EXPECT_EQ((*service)->wal()->last_sequence(), 2u);

  auto second = (*service)->Put("u", GuideXml(2));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ((*service)->wal()->last_sequence(), 3u);
  EXPECT_EQ((*service)->applied_sequence(), 3u);
  EXPECT_EQ(second->commit_ts, first->commit_ts.AddMicros(1));
  std::filesystem::remove_all(dir);
}

TEST(ServiceRecoveryTest, LegacyDirectoryWithoutWalLoads) {
  std::string dir = TempDir("svc_legacy");
  std::vector<std::pair<int, std::string>> puts;
  {
    // A pre-durability directory: TemporalXmlDatabase::Save only.
    TemporalXmlDatabase db;
    for (int day = 1; day <= 3; ++day) {
      ASSERT_TRUE(db.PutDocumentAt("u", GuideXml(day), Day(day)).ok());
      puts.emplace_back(day, GuideXml(day));
    }
    ASSERT_TRUE(db.Save(dir).ok());
  }
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->Stats().durability.recovered_records, 0u);
  EXPECT_EQ(AnswersOf(service->get(), 3), OracleAnswers(puts, 3));
  // And it is durable from here on.
  ASSERT_TRUE((*service)->PutAt("u", GuideXml(4), Day(4)).ok());
  puts.emplace_back(4, GuideXml(4));
  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(AnswersOf(recovered->get(), 4), OracleAnswers(puts, 4));
}

TEST(ServiceRecoveryTest, AdoptedDatabaseRefusesDataDir) {
  ServiceOptions options = DurableOptions(TempDir("svc_adopt"));
  auto service = TemporalQueryService::Create(
      options, std::make_unique<TemporalXmlDatabase>());
  EXPECT_FALSE(service.ok());
  EXPECT_TRUE(service.status().IsInvalidArgument());
}

TEST(ServiceRecoveryTest, EveryNSyncModeValidation) {
  ServiceOptions options = DurableOptions(TempDir("svc_everyn"));
  options.durability.wal.sync_mode = WalSyncMode::kEveryN;
  options.durability.wal.sync_every_n = 0;
  EXPECT_FALSE(ValidateServiceOptions(options).ok());
  options.durability.wal.sync_every_n = 4;
  auto service = TemporalQueryService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->PutAt("u", GuideXml(1), Day(1)).ok());
}

// An unparseable put is refused before it takes a ticket: the caller sees
// the parser's status, and neither the log nor the sequence moves.
TEST(ServiceRecoveryTest, UnparseablePutTakesNoTicketAndNoWalRecord) {
  std::string dir = TempDir("svc_refused_put");
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->PutAt("u", GuideXml(1), Day(1)).ok());
  const uint64_t records = (*service)->wal()->record_count();
  const uint64_t sequence = (*service)->applied_sequence();
  ASSERT_EQ(sequence, 1u);

  const std::string bad = "<guide><unclosed>";
  const Status parse_status = ParseXml(bad).status();
  ASSERT_FALSE(parse_status.ok());
  PutRequest put;
  put.url = "u";
  put.xml_text = bad;
  auto refused = (*service)->Execute(put);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().ToString(), parse_status.ToString());
  EXPECT_EQ((*service)->wal()->record_count(), records);
  EXPECT_EQ((*service)->wal()->last_sequence(), sequence);
  EXPECT_EQ((*service)->applied_sequence(), sequence);

  // In a batch the refused item keeps its per-item error payload, and
  // only its valid sibling takes a ticket and a record.
  WriteBatchRequest batch;
  WriteBatchItem bad_item;
  bad_item.url = "u";
  bad_item.xml_text = bad;
  batch.items.push_back(bad_item);
  WriteBatchItem good_item;
  good_item.url = "u";
  good_item.xml_text = GuideXml(2);
  good_item.timestamp = Day(2);
  batch.items.push_back(good_item);
  auto response = (*service)->Execute(batch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find(
                "<item url=\"u\" action=\"put\" status=\"error\" "
                "message=\"" +
                EscapeXml(parse_status.ToString()) + "\"/>"),
            std::string::npos)
      << response->payload;
  EXPECT_EQ((*service)->wal()->record_count(), records + 1);
  EXPECT_EQ((*service)->applied_sequence(), sequence + 1);
  EXPECT_EQ(response->sequence, sequence + 1);

  // A batch of nothing but refused items takes no ticket at all.
  WriteBatchRequest all_bad;
  all_bad.items.push_back(bad_item);
  auto none = (*service)->Execute(all_bad);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_NE(none->payload.find("committed=\"0\" failed=\"1\""),
            std::string::npos)
      << none->payload;
  EXPECT_EQ((*service)->wal()->record_count(), records + 1);
  EXPECT_EQ((*service)->applied_sequence(), sequence + 1);
  std::filesystem::remove_all(dir);
}

// Logs written before puts were refused up front may hold unparseable put
// records. Recovery and replicated apply — record by record or as one
// batch — must still skip them as the no-ops they always were.
TEST(ServiceRecoveryTest, LoggedUnparseablePutStillReplaysAsNoOp) {
  std::string dir = TempDir("svc_logged_bad_put");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::vector<WalRecord> records;
  {
    auto wal = WriteAheadLog::Open(dir + "/" + kWalFileName, WalOptions{});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const std::pair<int, std::string> puts[] = {
        {1, GuideXml(1)}, {2, "<guide><unclosed>"}, {3, GuideXml(3)}};
    for (const auto& [day, xml] : puts) {
      WalRecord record;
      record.type = WalRecordType::kPut;
      record.url = "u";
      record.payload = xml;
      record.ts = Day(day);
      auto sequence = (*wal)->Append(record);
      ASSERT_TRUE(sequence.ok()) << sequence.status().ToString();
      record.sequence = *sequence;
      records.push_back(record);
    }
  }
  const std::vector<std::string> oracle =
      OracleAnswers({{1, GuideXml(1)}, {3, GuideXml(3)}}, 3);

  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Stats().durability.recovered_records, 2u);
  EXPECT_EQ(AnswersOf(recovered->get(), 3), oracle);

  std::string follower_dir = TempDir("svc_logged_bad_put_follower");
  auto follower = TemporalQueryService::Create(DurableOptions(follower_dir));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  for (const WalRecord& record : records) {
    ASSERT_TRUE((*follower)->ApplyReplicated({&record, 1}).ok());
  }
  ServiceStats stats = (*follower)->Stats();
  EXPECT_EQ(stats.replication.replicated_records_applied, 2u);
  EXPECT_EQ(stats.replication.replicated_records_skipped, 1u);
  EXPECT_EQ((*follower)->applied_sequence(), 3u);
  EXPECT_EQ(AnswersOf(follower->get(), 3), oracle);
  EXPECT_EQ(EncodedStore(**follower), EncodedStore(**recovered));

  // The same records as one batch: one WAL submission, so one fsync.
  std::string batch_dir = TempDir("svc_logged_bad_put_batch");
  auto batch = TemporalQueryService::Create(DurableOptions(batch_dir));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const uint64_t syncs = (*batch)->Stats().commit_path.syncs;
  ASSERT_TRUE((*batch)->ApplyReplicated(records).ok());
  ServiceStats batch_stats = (*batch)->Stats();
  EXPECT_EQ(batch_stats.replication.replicated_records_applied, 2u);
  EXPECT_EQ(batch_stats.replication.replicated_records_skipped, 1u);
  EXPECT_EQ(batch_stats.commit_path.syncs, syncs + 1);
  EXPECT_EQ((*batch)->applied_sequence(), 3u);
  EXPECT_EQ(AnswersOf(batch->get(), 3), oracle);
  EXPECT_EQ(EncodedStore(**batch), EncodedStore(**follower));
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(follower_dir);
  std::filesystem::remove_all(batch_dir);
}

/// The checkpoint `service` writes into `dir`: store.txml then
/// indexes.txml.
std::vector<std::string> CheckpointFiles(TemporalQueryService* service,
                                         const std::string& dir) {
  Status checkpointed = service->Checkpoint();
  EXPECT_TRUE(checkpointed.ok()) << checkpointed.ToString();
  std::vector<std::string> files;
  for (const char* name : {"store.txml", "indexes.txml"}) {
    auto contents = ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(contents.ok()) << contents.status().ToString();
    files.push_back(contents.ok() ? *contents : "");
  }
  return files;
}

// Replay prepares each window of puts to distinct URLs side by side and
// publishes it in sequence order; a repeated URL, a delete or a vacuum
// closes the window. A log of three interleaved writers holding all three
// must recover, and apply as one follower batch, to exactly the bytes
// record-by-record application gives.
TEST(ServiceRecoveryTest, InterleavedLogReplaysInWindowsByteEqual) {
  std::string dir = TempDir("svc_windows");
  ASSERT_TRUE(CreateDirIfMissing(dir).ok());
  std::vector<WalRecord> records;
  {
    auto wal = WriteAheadLog::Open(dir + "/" + kWalFileName, WalOptions{});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    auto append = [&](WalRecord record) {
      auto sequence = (*wal)->Append(record);
      ASSERT_TRUE(sequence.ok()) << sequence.status().ToString();
      record.sequence = *sequence;
      records.push_back(std::move(record));
    };
    auto put = [&](const std::string& url, Timestamp ts, int v) {
      WalRecord record;
      record.url = url;
      record.ts = ts;
      record.payload = GuideXml(v);
      append(std::move(record));
    };
    put("victim", Day(1), 2);
    for (int round = 1; round <= 8; ++round) {
      for (int writer = 0; writer < 3; ++writer) {
        // Each writer alternates between two documents, so some windows
        // end at a repeated URL.
        std::string url = "w";
        url += std::to_string(writer);
        url += "-";
        url += std::to_string(round % 2 == 0 ? 0 : writer);
        put(url, Day(round + 1).AddMicros(writer), round % 5 + writer + 1);
      }
      if (round == 3) {
        WalRecord deleted;
        deleted.type = WalRecordType::kDelete;
        deleted.url = "victim";
        deleted.ts = Day(4).AddMicros(10);
        append(std::move(deleted));
      }
      if (round == 5) {
        WalRecord vacuum;
        vacuum.type = WalRecordType::kVacuum;
        vacuum.policy = RetentionPolicy::CoarsenOlderThan(Day(5), 2);
        append(std::move(vacuum));
      }
    }
  }
  std::string serial_dir = TempDir("svc_windows_serial");
  auto serial = TemporalQueryService::Create(DurableOptions(serial_dir));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (const WalRecord& record : records) {
    ASSERT_TRUE((*serial)->ApplyReplicated({&record, 1}).ok());
  }
  const std::vector<std::string> expected =
      CheckpointFiles(serial->get(), serial_dir);

  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->Stats().durability.recovered_records,
            records.size());
  EXPECT_EQ((*recovered)->applied_sequence(), records.back().sequence);
  EXPECT_EQ(CheckpointFiles(recovered->get(), dir), expected);

  std::string batch_dir = TempDir("svc_windows_batch");
  auto batch = TemporalQueryService::Create(DurableOptions(batch_dir));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE((*batch)->ApplyReplicated(records).ok());
  ServiceStats stats = (*batch)->Stats();
  EXPECT_EQ(stats.replication.replicated_records_applied, records.size());
  EXPECT_EQ(stats.replication.replicated_records_skipped, 0u);
  EXPECT_EQ((*batch)->applied_sequence(), records.back().sequence);
  EXPECT_EQ(CheckpointFiles(batch->get(), batch_dir), expected);

  for (const char* url : {"w0-0", "w1-1", "w2-2", "victim"}) {
    std::string query = "SELECT TIME(R), R/price FROM doc(\"";
    query += url;
    query += "\")[EVERY]/guide/item R";
    auto answer = [&](TemporalQueryService* service) {
      auto out = RunQuery(service, query);
      return out.ok() ? *out : "<error: " + out.status().ToString() + ">";
    };
    const std::string want = answer(serial->get());
    EXPECT_EQ(want.find("<error"), std::string::npos) << want;
    EXPECT_EQ(answer(recovered->get()), want);
    EXPECT_EQ(answer(batch->get()), want);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(serial_dir);
  std::filesystem::remove_all(batch_dir);
}

// A resent batch (the leader's cursor lagged our acks across a reconnect)
// starts with records the follower already persisted: only the rest is
// logged and applied. A batch holding a vacuum ends with one forced
// checkpoint covering the whole batch, as the leader checkpoints after
// every vacuum.
TEST(ServiceRecoveryTest, ReplicatedBatchAppliesPastPersistedPrefix) {
  std::string leader_dir = TempDir("svc_batch_leader");
  auto leader = TemporalQueryService::Create(DurableOptions(leader_dir));
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  const RetentionPolicy policy = RetentionPolicy::CoarsenOlderThan(Day(4), 2);
  std::vector<WalRecord> records;
  for (int day = 1; day <= 6; ++day) {
    ASSERT_TRUE((*leader)->PutAt("u", GuideXml(day), Day(day)).ok());
    WalRecord record;
    record.type = WalRecordType::kPut;
    record.sequence = records.size() + 1;
    record.url = "u";
    record.payload = GuideXml(day);
    record.ts = Day(day);
    records.push_back(record);
    if (day == 5) {
      ASSERT_TRUE((*leader)->Vacuum(policy).ok());
      WalRecord vacuum;
      vacuum.type = WalRecordType::kVacuum;
      vacuum.sequence = records.size() + 1;
      vacuum.policy = policy;
      records.push_back(vacuum);
    }
  }
  ASSERT_EQ((*leader)->applied_sequence(), records.size());

  std::string follower_dir = TempDir("svc_batch_follower");
  auto follower = TemporalQueryService::Create(DurableOptions(follower_dir));
  ASSERT_TRUE(follower.ok()) << follower.status().ToString();
  const std::span<const WalRecord> all(records);
  ASSERT_TRUE((*follower)->ApplyReplicated(all.first(2)).ok());
  ASSERT_TRUE((*follower)->ApplyReplicated(all).ok());
  ServiceStats stats = (*follower)->Stats();
  EXPECT_EQ(stats.durability.wal_records_appended, records.size());
  EXPECT_EQ(stats.replication.replicated_records_applied, records.size());
  EXPECT_EQ(stats.replication.replicated_records_skipped, 0u);
  EXPECT_EQ(stats.durability.checkpoints_completed, 1u);
  EXPECT_EQ(stats.replication.last_checkpoint_sequence, records.size());
  EXPECT_EQ((*follower)->wal()->record_count(), 0u);
  EXPECT_EQ((*follower)->applied_sequence(), records.size());
  EXPECT_EQ(AnswersOf(follower->get(), 6), AnswersOf(leader->get(), 6));
  EXPECT_EQ(EncodedStore(**follower), EncodedStore(**leader));
  std::filesystem::remove_all(leader_dir);
  std::filesystem::remove_all(follower_dir);
}

#if defined(TXML_FAILPOINTS)

// ------------------------------------------------- crash-recovery sweep --

struct SweepOp {
  int day;
  std::string xml;
};

std::vector<SweepOp> SweepOps() {
  std::vector<SweepOp> ops;
  for (int day = 1; day <= 6; ++day) ops.push_back({day, GuideXml(day)});
  return ops;
}

/// Runs the sweep workload: puts 1..3, an explicit checkpoint, puts 4..6.
/// Every acknowledged put lands in *acked; the first failing operation
/// (if any) lands in *faulted. Returns the created service, or null when
/// Create itself failed (a fault at the wal/bootstrap boundary).
std::unique_ptr<TemporalQueryService> RunSweepWorkload(
    const std::string& dir, std::vector<std::pair<int, std::string>>* acked,
    std::vector<std::pair<int, std::string>>* faulted) {
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  if (!service.ok()) return nullptr;
  std::vector<SweepOp> ops = SweepOps();
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == 3) (void)(*service)->Checkpoint();  // may fault; state keeps
    auto put = (*service)->PutAt("u", ops[i].xml, Day(ops[i].day));
    if (put.ok()) {
      acked->emplace_back(ops[i].day, ops[i].xml);
    } else if (faulted->empty()) {
      faulted->emplace_back(ops[i].day, ops[i].xml);
    }
    // After a fault the service may refuse writes (poisoned WAL): keep
    // going — remaining failures are recorded nowhere, exactly like a
    // client whose writes were never acknowledged.
  }
  return std::move(*service);
}

TEST(CrashRecoverySweepTest, EveryDiscoveredFaultRecoversToAckedState) {
  // Phase 1: one clean traced run discovers every instrumented I/O
  // boundary the workload crosses, as (site, file basename) pairs.
  FailPoints::Global().DisarmAll();
  FailPoints::Global().ClearTrace();
  {
    std::string dir = TempDir("sweep_trace");
    std::vector<std::pair<int, std::string>> acked, faulted;
    auto service = RunSweepWorkload(dir, &acked, &faulted);
    ASSERT_NE(service, nullptr);
    ASSERT_EQ(acked.size(), 6u);
    ASSERT_TRUE(faulted.empty());
  }
  std::vector<std::pair<std::string, std::string>> sites =
      FailPoints::Global().Trace();
  ASSERT_GE(sites.size(), 6u) << "expected the workload to cross wal and "
                                 "checkpoint boundaries";

  // Phase 2: one crash per discovered boundary — and a short-write
  // variant at the write sites (a torn record / torn temp file).
  std::vector<std::pair<std::string, FailPointSpec>> variants;
  for (const auto& [site, file] : sites) {
    FailPointSpec error;
    error.kind = FailPointSpec::Kind::kError;
    error.path_substr = file;
    variants.emplace_back(site, error);
    if (site.find("write") != std::string::npos) {
      FailPointSpec torn;
      torn.kind = FailPointSpec::Kind::kShortWrite;
      torn.short_bytes = 5;
      torn.path_substr = file;
      variants.emplace_back(site, torn);
    }
  }

  int variant_index = 0;
  for (const auto& [site, spec] : variants) {
    SCOPED_TRACE(site + " @ " + spec.path_substr +
                 (spec.kind == FailPointSpec::Kind::kShortWrite
                      ? " (short write)"
                      : " (error)"));
    std::string dir = TempDir("sweep_" + std::to_string(variant_index++));
    std::vector<std::pair<int, std::string>> acked, faulted;

    FailPoints::Global().DisarmAll();
    FailPoints::Global().Arm(site, spec);
    auto service = RunSweepWorkload(dir, &acked, &faulted);
    if (service == nullptr) {
      // The fault killed bootstrap. The directory may hold a torn header;
      // recovery below must still come up (with nothing acked).
      FailPoints::Global().DisarmAll();
      service = RunSweepWorkload(dir, &acked, &faulted);
      ASSERT_NE(service, nullptr);
      ASSERT_EQ(acked.size(), 6u);
    }
    // "Crash": destroy with no shutdown path. The next process runs with
    // no faults armed.
    service.reset();
    FailPoints::Global().DisarmAll();

    auto recovered = TemporalQueryService::Create(DurableOptions(dir));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

    int acked_last = acked.empty() ? 1 : acked.back().first;
    std::vector<std::string> got = AnswersOf(recovered->get(), acked_last);
    // A fault between the WAL append and its fsync leaves the record's
    // durability ambiguous (it was written, just not acknowledged), so
    // the recovered state may legitimately include the faulted commit.
    bool matches_acked = got == OracleAnswers(acked, acked_last);
    bool matches_with_faulted = false;
    if (!faulted.empty()) {
      std::vector<std::pair<int, std::string>> with = acked;
      with.insert(
          std::lower_bound(with.begin(), with.end(), faulted.front(),
                           [](const auto& a, const auto& b) {
                             return a.first < b.first;
                           }),
          faulted.front());
      matches_with_faulted = got == OracleAnswers(with, acked_last);
    }
    EXPECT_TRUE(matches_acked || matches_with_faulted)
        << "recovered answers match neither the acked oracle nor the "
           "acked+faulted oracle";

    // Recovery yields a fully writable service again.
    auto put = (*recovered)->PutAt("u", GuideXml(9), Day(9));
    EXPECT_TRUE(put.ok()) << put.status().ToString();
  }
  FailPoints::Global().DisarmAll();
}

TEST(FailPointTest, SyncFailurePoisonsWalUntilRestart) {
  std::string dir = TempDir("poison");
  FailPoints::Global().DisarmAll();
  auto service = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->PutAt("u", GuideXml(1), Day(1)).ok());

  FailPointSpec spec;
  spec.kind = FailPointSpec::Kind::kError;
  FailPoints::Global().Arm("wal.append.sync", spec);
  EXPECT_FALSE((*service)->PutAt("u", GuideXml(2), Day(2)).ok());
  // The fault was one-shot, but the log stays poisoned: every further
  // write fails kUnavailable until a restart re-establishes the tail.
  auto after = (*service)->PutAt("u", GuideXml(3), Day(3));
  ASSERT_FALSE(after.ok());
  EXPECT_TRUE(after.status().IsUnavailable());
  service->reset();
  FailPoints::Global().DisarmAll();

  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->PutAt("u", GuideXml(4), Day(4)).ok());
}

// A follower batch whose write fails cleanly (rolled back, log healthy)
// leaves none of itself behind: the leader's longer resend is logged and
// applied whole, so the follower neither wedges on the failed sequences
// nor logs a later record without the ones before it.
TEST(FailPointTest, FollowerResendAfterCleanWriteFailureConverges) {
  FailPoints::Global().DisarmAll();
  std::string leader_dir = TempDir("fp_resend_leader");
  auto leader = TemporalQueryService::Create(DurableOptions(leader_dir));
  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  std::vector<WalRecord> records;
  for (int day = 1; day <= 8; ++day) {
    ASSERT_TRUE((*leader)->PutAt("u", GuideXml(day), Day(day)).ok());
    WalRecord record;
    record.type = WalRecordType::kPut;
    record.sequence = day;
    record.url = "u";
    record.payload = GuideXml(day);
    record.ts = Day(day);
    records.push_back(record);
  }

  std::string follower_dir = TempDir("fp_resend_follower");
  {
    auto follower =
        TemporalQueryService::Create(DurableOptions(follower_dir));
    ASSERT_TRUE(follower.ok()) << follower.status().ToString();
    const std::span<const WalRecord> all(records);
    ASSERT_TRUE((*follower)->ApplyReplicated(all.first(4)).ok());

    FailPointSpec torn;
    torn.kind = FailPointSpec::Kind::kShortWrite;
    torn.short_bytes = 9;
    torn.path_substr = follower_dir;
    FailPoints::Global().Arm("wal.append.write", torn);
    EXPECT_FALSE((*follower)->ApplyReplicated(all.subspan(4, 3)).ok());
    FailPoints::Global().DisarmAll();
    EXPECT_FALSE((*follower)->wal()->poisoned());
    EXPECT_EQ((*follower)->applied_sequence(), 4u);

    ASSERT_TRUE((*follower)->ApplyReplicated(all).ok());
    ServiceStats stats = (*follower)->Stats();
    EXPECT_EQ(stats.replication.replicated_records_applied, records.size());
    EXPECT_EQ(stats.replication.replicated_records_skipped, 0u);
    EXPECT_EQ((*follower)->applied_sequence(), records.size());
    EXPECT_EQ(AnswersOf(follower->get(), 8), AnswersOf(leader->get(), 8));
    EXPECT_EQ(EncodedStore(**follower), EncodedStore(**leader));
  }
  // The follower's log holds the whole history, so recovery agrees too.
  auto recovered = TemporalQueryService::Create(DurableOptions(follower_dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(EncodedStore(**recovered), EncodedStore(**leader));
  std::filesystem::remove_all(leader_dir);
  std::filesystem::remove_all(follower_dir);
}

TEST(FailPointTest, CrashInsideGroupCommitBatchWindowRecovers) {
  // Concurrent writers race into group-commit batches while a short-write
  // fault is armed to fire mid-run: one batch tears in the middle of its
  // write() — inside the batch window, before its fsync. The batch rolls
  // back cleanly (only its committers fail), then the process "crashes".
  // Recovery must come up, keep every acked commit, and the log's torn
  // tail must never surface as applied state a writer was not acked for
  // beyond the one ambiguous in-flight version per document.
  std::string dir = TempDir("gc_crash_window");
  FailPoints::Global().DisarmAll();
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 10;
  // acked[w] = highest version writer w saw acknowledged (prefix 1..n:
  // each writer stops at its first failure).
  int acked[kWriters] = {};
  {
    auto service = TemporalQueryService::Create(
        DurableOptions(dir, WalSyncMode::kAlways));
    ASSERT_TRUE(service.ok()) << service.status().ToString();

    FailPointSpec torn;
    torn.kind = FailPointSpec::Kind::kShortWrite;
    torn.skip = 7;        // let a few batches land first
    torn.short_bytes = 9; // tear inside the batch's first record frame
    FailPoints::Global().Arm("wal.append.write", torn);

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&service, &acked, w] {
        std::string url = "w";
        url += std::to_string(w);
        for (int i = 1; i <= kCommitsPerWriter; ++i) {
          auto put = (*service)->Put(url, GuideXml(i));
          if (!put.ok()) return;  // injected batch failure: stop this doc
          acked[w] = i;
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    // Crash: destroy with no shutdown path while the armed fault's torn
    // bytes (if the rollback truncation itself was the last act) are on
    // disk exactly as a power cut would leave them.
  }
  FailPoints::Global().DisarmAll();

  auto recovered = TemporalQueryService::Create(DurableOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // The recovered log must be strictly ascending even after the sweep
  // dropped / rolled back the torn batch.
  auto replay = WriteAheadLog::Replay(dir + "/" + kWalFileName);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  uint64_t previous = replay->base_sequence;
  for (const WalRecord& record : replay->records) {
    EXPECT_GT(record.sequence, previous);
    previous = record.sequence;
  }

  for (int w = 0; w < kWriters; ++w) {
    std::string url = "w" + std::to_string(w);
    if (acked[w] == 0) continue;
    // Every acked version must survive; the one in-flight version after
    // the ack horizon is durability-ambiguous (written, never acked), so
    // the recovered head is acked[w] or acked[w] + 1 items.
    auto now = RunQuery(recovered->get(),
                        "SELECT COUNT(R) FROM doc(\"" + url +
                            "\")[NOW]/guide/item R");
    ASSERT_TRUE(now.ok()) << now.status().ToString();
    bool matches_acked =
        now->find(">" + std::to_string(acked[w]) + "<") != std::string::npos;
    bool matches_ambiguous =
        now->find(">" + std::to_string(acked[w] + 1) + "<") !=
        std::string::npos;
    EXPECT_TRUE(matches_acked || matches_ambiguous)
        << url << " recovered to neither " << acked[w] << " nor "
        << acked[w] + 1 << " items: " << *now;
  }

  // Recovery yields a fully writable service again.
  auto put = (*recovered)->PutAt("w0", GuideXml(11), Day(11));
  EXPECT_TRUE(put.ok()) << put.status().ToString();
}

TEST(FailPointTest, OneShotArmRespectsSkipAndPathFilter) {
  FailPoints::Global().DisarmAll();
  FailPointSpec spec;
  spec.kind = FailPointSpec::Kind::kError;
  spec.skip = 1;
  spec.path_substr = "target.txml";
  FailPoints::Global().Arm("test.site", spec);
  EXPECT_FALSE(FailPointError("test.site", "/tmp/other.txml"));  // filtered
  EXPECT_FALSE(FailPointError("test.site", "/tmp/target.txml"));  // skipped
  EXPECT_TRUE(FailPointError("test.site", "/tmp/target.txml"));   // fires
  EXPECT_FALSE(FailPointError("test.site", "/tmp/target.txml"));  // one-shot
  FailPoints::Global().DisarmAll();
}

#endif  // TXML_FAILPOINTS

}  // namespace
}  // namespace txml
