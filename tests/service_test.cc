// Tests of the service layer (src/service/): the concurrent query service,
// its thread pool, and the shared sharded snapshot cache —
// including the multi-threaded stress test of the single-writer /
// multi-reader model (run it under ThreadSanitizer: scripts/check.sh).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/service.h"
#include "src/service/snapshot_cache.h"
#include "src/service/thread_pool.h"
#include "src/util/env.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

std::string ItemXml(const std::string& name, int price) {
  return "<item><name>" + name + "</name><price>" + std::to_string(price) +
         "</price></item>";
}

/// The immutable "hot" history every test queries: six versions of one
/// document at days 1..6 (alpha's price moves, beta comes and goes,
/// gamma appears on day 3).
void PutHotHistory(TemporalQueryService* service) {
  auto put = [&](int day, const std::string& body) {
    auto result = service->PutAt("hot", "<guide>" + body + "</guide>", Day(day));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };
  put(1, ItemXml("alpha", 10) + ItemXml("beta", 20));
  put(2, ItemXml("alpha", 12) + ItemXml("beta", 20));
  put(3, ItemXml("alpha", 12) + ItemXml("beta", 20) + ItemXml("gamma", 30));
  put(4, ItemXml("alpha", 15) + ItemXml("beta", 25) + ItemXml("gamma", 30));
  put(5, ItemXml("alpha", 15) + ItemXml("gamma", 30));
  put(6, ItemXml("alpha", 18) + ItemXml("gamma", 31));
}

/// Queries over the hot history whose answers never change (explicit
/// timestamps / element histories on an immutable prefix — no NOW).
const char* kStableQueries[] = {
    "SELECT R/price FROM doc(\"hot\")[03/01/2001]/item R "
    "WHERE R/name = \"alpha\"",
    "SELECT COUNT(R) FROM doc(\"hot\")[05/01/2001]/item R",
    "SELECT R FROM doc(\"hot\")[04/01/2001]/item R WHERE R/price = 25",
    "SELECT TIME(R), R/price FROM doc(\"hot\")[EVERY]/item R "
    "WHERE R/name = \"gamma\"",
    "SELECT CREATE TIME(R) FROM doc(\"hot\")[04/01/2001]/item R "
    "WHERE R/name = \"beta\"",
    "SELECT MIN(R/price), MAX(R/price) FROM doc(\"hot\")[06/01/2001]/item R",
};

/// Executes one query through the unified entry point and unwraps the
/// serialized payload (and optionally the execution counters); kept local
/// because the service API itself has no string-unwrap call.
StatusOr<std::string> RunQuery(TemporalQueryService& service,
                               const std::string& query, bool pretty = true,
                               ExecStats* stats = nullptr) {
  QueryRequest request;
  request.query_text = query;
  request.pretty = pretty;
  auto response = service.Execute(request);
  if (!response.ok()) return response.status();
  if (stats != nullptr) *stats = response->stats;
  return std::move(response->payload);
}

// Runs `query` with a compact payload and parses it, so ok() also means
// the answer is well-formed XML.
StatusOr<XmlDocument> RunParsed(TemporalQueryService& service,
                                const std::string& query,
                                ExecStats* stats = nullptr) {
  auto payload = RunQuery(service, query, /*pretty=*/false, stats);
  if (!payload.ok()) return payload.status();
  return ParseXml(*payload);
}

TEST(ServiceTest, BasicQueryAndWriteFlow) {
  TemporalQueryService service;
  PutHotHistory(&service);

  auto count = RunQuery(
      service, "SELECT COUNT(R) FROM doc(\"hot\")[03/01/2001]/item R");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_NE(count->find("3"), std::string::npos);

  // Epoch advances with commits.
  Timestamp before = service.Epoch();
  ASSERT_EQ(service.Stats().writes_committed, 6u);
  ASSERT_TRUE(service.Put("other", "<d><x>1</x></d>").ok());
  EXPECT_GT(service.Epoch(), before);

  // A malformed query fails and is counted as such.
  EXPECT_FALSE(RunQuery(service, "SELECT").ok());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.writes_committed, 7u);  // 6 hot versions + 1 other
  EXPECT_EQ(stats.writes_failed, 0u);
  EXPECT_EQ(stats.queries_executed, 1u);
  EXPECT_EQ(stats.queries_failed, 1u);

  // Put and Delete are commit runs of one item: each counts as one write
  // and never as a batch. A refused put and a delete of a missing document
  // each add exactly one failed write.
  EXPECT_FALSE(service.Put("other", "<d><unclosed>").ok());
  EXPECT_EQ(service.Stats().writes_failed, 1u);
  EXPECT_FALSE(service.Delete("missing").ok());
  stats = service.Stats();
  EXPECT_EQ(stats.writes_failed, 2u);
  EXPECT_EQ(stats.writes_committed, 7u);
  EXPECT_EQ(stats.write_batches_committed, 0u);
}

TEST(ServiceTest, OptionValidationRejectsDegenerateConfigurations) {
  ServiceOptions zero_workers;
  zero_workers.worker_threads = 0;
  Status s = ValidateServiceOptions(zero_workers);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  ServiceOptions zero_shards;
  zero_shards.snapshot_cache_shards = 0;
  s = ValidateServiceOptions(zero_shards);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  EXPECT_TRUE(ValidateServiceOptions(ServiceOptions()).ok());

  // The factory surfaces the same Status instead of crashing.
  auto bad = TemporalQueryService::Create(zero_workers);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  auto good = TemporalQueryService::Create(ServiceOptions());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_NE(*good, nullptr);
}

TEST(ServiceTest, UnifiedExecuteMatchesDatabaseReads) {
  TemporalQueryService service;
  PutHotHistory(&service);

  // Execute adds locking, caching and serialization over the database
  // façade's read path: same bytes out.
  for (const char* query : kStableQueries) {
    QueryRequest request;
    request.query_text = query;
    auto unified = service.Execute(request);
    ASSERT_TRUE(unified.ok()) << unified.status().ToString();
    ExecStats stats;
    auto direct = service.database().QueryAt(query, service.Epoch(), &stats);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ(unified->payload,
              SerializeXml(*direct->root(), {.pretty = true}));
  }

  // Compact serialization is a request knob, not a separate entry point.
  QueryRequest compact;
  compact.query_text = kStableQueries[0];
  compact.pretty = false;
  auto response = service.Execute(compact);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->payload.find('\n'), std::string::npos);

  // Parse errors come back through the StatusOr, tagged kParseError.
  QueryRequest bad;
  bad.query_text = "SELECT";
  auto failed = service.Execute(bad);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsParseError()) << failed.status().ToString();
}

TEST(ServiceTest, UnifiedExecuteHandlesWritesAndQueriesFromAnotherThread) {
  TemporalQueryService service;

  PutRequest put;
  put.url = "hot";
  put.xml_text = "<guide>" + ItemXml("alpha", 10) + "</guide>";
  put.timestamp = Day(1);
  auto committed = service.Execute(put);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_NE(committed->payload.find("url=\"hot\""), std::string::npos);
  EXPECT_NE(committed->payload.find("version=\"1\""), std::string::npos);

  QueryRequest query;
  query.query_text = kStableQueries[0];
  StatusOr<QueryResponse> response = Status::Internal("not run");
  Thread reader([&] { response = service.Execute(query); });
  reader.Join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("10"), std::string::npos);
}

TEST(ServiceTest, ResponsesCarryPerCallStats) {
  TemporalQueryService service;
  PutHotHistory(&service);

  ExecStats materializing;
  ASSERT_TRUE(RunParsed(service, kStableQueries[0], &materializing).ok());
  // The materializing snapshot query reconstructed (or fetched) a tree.
  EXPECT_GT(materializing.snapshot_reconstructions +
                materializing.snapshot_cache_hits,
            0u);
  // The next response counts only its own call: an aggregate-only query
  // materializes nothing.
  ExecStats aggregate;
  ASSERT_TRUE(RunQuery(service, kStableQueries[1], true, &aggregate).ok());
  EXPECT_EQ(aggregate.snapshot_reconstructions + aggregate.snapshot_cache_hits,
            0u);
}

TEST(ServiceTest, SnapshotCacheServesRepeatedQueries) {
  ServiceOptions options;
  options.snapshot_cache_capacity = 64;
  TemporalQueryService service(options);
  PutHotHistory(&service);

  ExecStats first, second;
  auto a = RunQuery(service, kStableQueries[0], true, &first);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(first.snapshot_reconstructions, 0u);
  EXPECT_EQ(first.snapshot_cache_hits, 0u);

  auto b = RunQuery(service, kStableQueries[0], true, &second);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(second.snapshot_reconstructions, 0u);
  EXPECT_GT(second.snapshot_cache_hits, 0u);

  SnapshotCacheStats cache = service.Stats().snapshot_cache;
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(cache.insertions, 0u);
  EXPECT_GT(cache.entries, 0u);
}

TEST(ServiceTest, CachedAnswersEqualUncachedAnswers) {
  ServiceOptions cached_options;
  cached_options.snapshot_cache_capacity = 64;
  TemporalQueryService cached(cached_options);
  ServiceOptions plain_options;
  plain_options.snapshot_cache_capacity = 0;  // disabled
  TemporalQueryService plain(plain_options);
  PutHotHistory(&cached);
  PutHotHistory(&plain);

  for (const char* query : kStableQueries) {
    // Twice through the cached service: populate, then hit.
    auto c1 = RunQuery(cached, query);
    auto c2 = RunQuery(cached, query);
    auto p = RunQuery(plain, query);
    ASSERT_TRUE(c1.ok() && c2.ok() && p.ok()) << query;
    EXPECT_EQ(*c1, *p) << query;
    EXPECT_EQ(*c2, *p) << query;
  }
  EXPECT_EQ(plain.Stats().snapshot_cache.hits, 0u);
}

// The guard for caching the *current* version: an entry cloned from the
// stored current tree must still be the right answer after later appends
// turn that version into a delta-chain reconstruction.
TEST(ServiceTest, CacheStaysCoherentAcrossAppends) {
  ServiceOptions options;
  options.snapshot_cache_capacity = 64;
  TemporalQueryService service(options);

  auto snapshot_query = [](int day) {
    return "SELECT R FROM doc(\"hot\")[0" + std::to_string(day) +
           "/01/2001]/item R";
  };

  // Build the history version by version, querying the *current* snapshot
  // right after each append so it enters the cache as a clone-of-current.
  std::vector<std::string> live_answers;
  auto put = [&](int day, const std::string& body) {
    auto result =
        service.PutAt("hot", "<guide>" + body + "</guide>", Day(day));
    ASSERT_TRUE(result.ok());
  };
  const std::string bodies[] = {
      ItemXml("alpha", 10) + ItemXml("beta", 20),
      ItemXml("alpha", 12) + ItemXml("beta", 20),
      ItemXml("alpha", 12) + ItemXml("beta", 20) + ItemXml("gamma", 30),
  };
  for (int v = 0; v < 3; ++v) {
    put(v + 1, bodies[v]);
    auto live = RunQuery(service, snapshot_query(v + 1));
    ASSERT_TRUE(live.ok());
    live_answers.push_back(*live);
  }

  // Every earlier snapshot must read identically now that newer versions
  // exist — both from the cache and from a cache-free replay.
  ServiceOptions plain_options;
  plain_options.snapshot_cache_capacity = 0;
  TemporalQueryService plain(plain_options);
  for (int v = 0; v < 3; ++v) {
    auto put2 = plain.PutAt("hot", "<guide>" + bodies[v] + "</guide>",
                            Day(v + 1));
    ASSERT_TRUE(put2.ok());
  }
  for (int v = 0; v < 3; ++v) {
    auto from_cache = RunQuery(service, snapshot_query(v + 1));
    auto from_plain = RunQuery(plain, snapshot_query(v + 1));
    ASSERT_TRUE(from_cache.ok() && from_plain.ok());
    EXPECT_EQ(*from_cache, live_answers[static_cast<size_t>(v)]);
    EXPECT_EQ(*from_cache, *from_plain);
  }
}

TEST(ServiceTest, CacheEvictsBeyondCapacity) {
  ServiceOptions options;
  options.snapshot_cache_capacity = 2;
  options.snapshot_cache_shards = 1;
  TemporalQueryService service(options);
  PutHotHistory(&service);

  for (int day = 1; day <= 6; ++day) {
    auto result = RunQuery(
        service, "SELECT R FROM doc(\"hot\")[0" + std::to_string(day) +
                     "/01/2001]/item R");
    ASSERT_TRUE(result.ok());
  }
  SnapshotCacheStats cache = service.Stats().snapshot_cache;
  EXPECT_GT(cache.evictions, 0u);
  EXPECT_LE(cache.entries, 2u);
  // Evicted versions still answer correctly (they just reconstruct again).
  auto again = RunQuery(
      service, "SELECT COUNT(R) FROM doc(\"hot\")[01/01/2001]/item R");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->find("2"), std::string::npos);
}

TEST(ServiceTest, DeleteInvalidatesCachedDocument) {
  ServiceOptions options;
  options.snapshot_cache_capacity = 64;
  TemporalQueryService service(options);
  PutHotHistory(&service);

  ASSERT_TRUE(RunQuery(service, kStableQueries[0]).ok());
  ASSERT_GT(service.Stats().snapshot_cache.entries, 0u);

  ASSERT_TRUE(service.Delete("hot").ok());
  SnapshotCacheStats cache = service.Stats().snapshot_cache;
  EXPECT_GT(cache.invalidations, 0u);
  EXPECT_EQ(cache.entries, 0u);

  // The deleted document's history is still queryable at old timestamps.
  auto old = RunQuery(service, kStableQueries[0]);
  ASSERT_TRUE(old.ok());
  EXPECT_NE(old->find("12"), std::string::npos);
}

TEST(ServiceTest, ConcurrentCallersOnTheirOwnThreads) {
  ServiceOptions options;
  options.worker_threads = 2;
  TemporalQueryService service(options);
  PutHotHistory(&service);

  std::vector<StatusOr<QueryResponse>> results(8, Status::Internal("not run"));
  std::vector<Thread> readers;
  for (int i = 0; i < 8; ++i) {
    readers.emplace_back([&service, &results, i] {
      QueryRequest request;
      request.query_text = kStableQueries[0];
      results[i] = service.Execute(request);
    });
  }
  PutRequest put;
  put.url = "async";
  put.xml_text = "<d><x>1</x></d>";
  StatusOr<QueryResponse> put_result = Status::Internal("not run");
  Thread writer([&] { put_result = service.Execute(put); });
  for (Thread& reader : readers) reader.Join();
  writer.Join();
  for (auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  ASSERT_TRUE(put_result.ok());
  EXPECT_EQ(service.Stats().queries_executed, 8u);
}

TEST(ThreadPoolTest, DrainsEverySubmittedTaskOnShutdown) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.thread_count(), 3u);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains + joins
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ForEachRunsEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> runs(100);
  std::vector<size_t> squares(100, 0);
  pool.ForEach(runs.size(), [&](size_t i) {
    runs[i].fetch_add(1);
    squares[i] = i * i;  // plain writes: visible once ForEach returns
  });
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << i;
    EXPECT_EQ(squares[i], i * i) << i;
  }
}

TEST(ThreadPoolTest, ForEachOfOneRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  int calls = 0;
  pool.ForEach(0, [&](size_t) { ++calls; });
  pool.ForEach(1, [&](size_t i) {
    ++calls;
    ran_on = std::this_thread::get_id();
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

// The only worker runs the task that calls ForEach, so no helper can
// start: the caller claims every index itself and returns.
TEST(ThreadPoolTest, ForEachInsideATaskOnAOneThreadPoolCompletes) {
  std::atomic<bool> finished{false};
  std::atomic<size_t> sum{0};
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      pool.ForEach(8, [&](size_t i) { sum.fetch_add(i); });
      finished.store(true);
    });
  }  // destructor drains (the stale helpers find nothing left) + joins
  EXPECT_TRUE(finished.load());
  EXPECT_EQ(sum.load(), 28u);
}

TEST(StoreObserverContractDeathTest, LateRegistrationWithoutOptInAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VersionedDocumentStore store;
  auto parsed = ParseXml("<d><x>1</x></d>");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(store.Put("u", parsed->ReleaseRoot(), Day(1)).ok());
  ShardedSnapshotCache cache;
  EXPECT_DEATH(store.AddObserver(&cache), "check failed");
  store.AddObserver(&cache, /*allow_late=*/true);  // the sanctioned path
}

// ------------------------------------------------------------------ stress

// N reader threads run the stable query set against the immutable "hot"
// prefix while one writer commits new versions/documents and a delete.
// Every reader answer must equal the serial oracle; the suite must be
// ThreadSanitizer-clean (scripts/check.sh builds the TSan configuration).
TEST(ServiceStressTest, ConcurrentReadersMatchSerialOracleUnderWrites) {
  ServiceOptions options;
  options.snapshot_cache_capacity = 32;  // small: force concurrent eviction
  options.snapshot_cache_shards = 4;
  TemporalQueryService service(options);
  PutHotHistory(&service);

  // Serial oracle, computed before any concurrency starts.
  std::vector<std::string> oracle;
  for (const char* query : kStableQueries) {
    auto answer = RunQuery(service, query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    oracle.push_back(*answer);
  }

  constexpr int kReaders = 4;
  constexpr int kIterationsPerReader = 60;
  constexpr int kWriterCommits = 40;
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &oracle, &failed, r] {
      for (int i = 0; i < kIterationsPerReader && !failed.load(); ++i) {
        size_t q = static_cast<size_t>(r + i) % std::size(kStableQueries);
        auto answer = RunQuery(service, kStableQueries[q]);
        if (!answer.ok() || *answer != oracle[q]) {
          failed.store(true);
          ADD_FAILURE() << "reader " << r << " query " << q << ": "
                        << (answer.ok() ? "answer diverged from oracle"
                                        : answer.status().ToString());
          return;
        }
        // Collection queries race benignly with the writer: results vary,
        // but every answer must be well-formed.
        auto live = RunParsed(
            service, "SELECT COUNT(I) FROM collection(\"aux*\")/item I");
        if (!live.ok()) {
          failed.store(true);
          ADD_FAILURE() << "live query: " << live.status().ToString();
          return;
        }
      }
    });
  }

  std::thread writer([&service, &failed] {
    for (int i = 0; i < kWriterCommits && !failed.load(); ++i) {
      // Deletion is terminal (EIDs are never reused), so aux3 leaves the
      // rotation once the midpoint delete has happened.
      int live_docs = i > kWriterCommits / 2 ? 3 : 4;
      std::string url = "aux" + std::to_string(i % live_docs);
      std::string name = "w";
      name += std::to_string(i);
      auto put = service.Put(url, "<d>" + ItemXml(name, i) + "</d>");
      if (!put.ok()) {
        failed.store(true);
        ADD_FAILURE() << "writer: " << put.status().ToString();
        return;
      }
      if (i == kWriterCommits / 2) {
        Status deleted = service.Delete("aux3");
        if (!deleted.ok()) {
          failed.store(true);
          ADD_FAILURE() << "delete: " << deleted.ToString();
          return;
        }
      }
    }
  });

  for (std::thread& reader : readers) reader.join();
  writer.join();
  ASSERT_FALSE(failed.load());

  // Post-conditions: the oracle still holds serially, counters add up.
  for (size_t q = 0; q < std::size(kStableQueries); ++q) {
    auto answer = RunQuery(service, kStableQueries[q]);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(*answer, oracle[q]);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_GE(stats.queries_executed,
            static_cast<uint64_t>(kReaders * kIterationsPerReader));
  EXPECT_EQ(stats.writes_committed,
            static_cast<uint64_t>(6 + kWriterCommits + 1));  // hot + aux + del
}

TEST(ServiceTest, VacuumRequestRewritesHistoryUnderCommitLock) {
  TemporalQueryService service(ServiceOptions{});
  PutHotHistory(&service);

  // A policy with no horizon is rejected and counted as a failed write.
  VacuumRequest empty;
  EXPECT_FALSE(service.Execute(empty).ok());

  VacuumRequest request;
  request.drop_before = Day(3);
  auto response = service.Execute(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("<vacuum-result"), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("vacuumed=\"1\""), std::string::npos)
      << response->payload;

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.vacuums_run, 1u);
  EXPECT_EQ(stats.writes_failed, 1u);

  // A vacuum runs from any caller's thread, like any write.
  VacuumRequest coarsen;
  coarsen.coarsen_older_than = Day(5);
  coarsen.keep_every = 2;
  StatusOr<QueryResponse> async = Status::Internal("not run");
  Thread vacuumer([&] { async = service.Execute(coarsen); });
  vacuumer.Join();
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  EXPECT_EQ(service.Stats().vacuums_run, 2u);
}

// Vacuum holds the exclusive commit lock, so it must interleave safely
// with concurrent readers and writers; answers anchored at or above every
// horizon it uses stay byte-identical throughout. (kStableQueries qualify:
// the earliest anchor is day 3, gamma is born on day 3, and beta's CREATE
// TIME survives through the lifetime index.) Run under TSan via check.sh.
TEST(ServiceStressTest, VacuumRacesConcurrentReadersAndWriters) {
  ServiceOptions options;
  options.snapshot_cache_capacity = 32;
  options.snapshot_cache_shards = 4;
  TemporalQueryService service(options);
  PutHotHistory(&service);

  std::vector<std::string> oracle;
  for (const char* query : kStableQueries) {
    auto answer = RunQuery(service, query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    oracle.push_back(*answer);
  }

  constexpr int kReaders = 4;
  constexpr int kIterationsPerReader = 50;
  constexpr int kVacuums = 20;
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &oracle, &failed, r] {
      for (int i = 0; i < kIterationsPerReader && !failed.load(); ++i) {
        size_t q = static_cast<size_t>(r + i) % std::size(kStableQueries);
        auto answer = RunQuery(service, kStableQueries[q]);
        if (!answer.ok() || *answer != oracle[q]) {
          failed.store(true);
          ADD_FAILURE() << "reader " << r << " query " << q << ": "
                        << (answer.ok() ? "answer diverged under vacuum"
                                        : answer.status().ToString());
          return;
        }
      }
    });
  }

  std::thread vacuumer([&service, &failed] {
    for (int i = 0; i < kVacuums && !failed.load(); ++i) {
      // Alternate the two policy shapes; the horizon never rises above
      // day 3, the earliest anchor the readers use.
      VacuumRequest request;
      if (i % 2 == 0) {
        request.drop_before = Day(2);
      } else {
        request.coarsen_older_than = Day(3);
        request.keep_every = 2;
      }
      auto response = service.Execute(request);
      if (!response.ok()) {
        failed.store(true);
        ADD_FAILURE() << "vacuum " << i << ": "
                      << response.status().ToString();
        return;
      }
      // Interleave writes so vacuums contend with commits, not just reads.
      auto put = service.Put(
          "churn", "<d>" + ItemXml("c" + std::to_string(i), i) + "</d>");
      if (!put.ok()) {
        failed.store(true);
        ADD_FAILURE() << "churn put: " << put.status().ToString();
        return;
      }
    }
  });

  for (std::thread& reader : readers) reader.join();
  vacuumer.join();
  ASSERT_FALSE(failed.load());

  for (size_t q = 0; q < std::size(kStableQueries); ++q) {
    auto answer = RunQuery(service, kStableQueries[q]);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(*answer, oracle[q]);
  }
  EXPECT_EQ(service.Stats().vacuums_run, static_cast<uint64_t>(kVacuums));
}

// ------------------------------------------------- sharded commit path

// N writers on N disjoint documents: every commit must land, timestamps
// must be unique and monotone per document, and the shard contention
// counters must account for every acquisition. TSan-clean (check.sh).
TEST(ServiceStressTest, ConcurrentDisjointWritersMatchSerialOracle) {
  ServiceOptions options;
  options.commit_shards = 8;
  TemporalQueryService service(options);

  constexpr int kWriters = 8;
  constexpr int kCommitsPerWriter = 30;
  std::atomic<bool> failed{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&service, &failed, w] {
      std::string url = "doc" + std::to_string(w);
      for (int i = 0; i < kCommitsPerWriter && !failed.load(); ++i) {
        std::string name = "w";
        name += std::to_string(w);
        auto put = service.Put(url, "<d>" + ItemXml(name, i) + "</d>");
        if (!put.ok()) {
          failed.store(true);
          ADD_FAILURE() << "writer " << w << ": " << put.status().ToString();
          return;
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  ASSERT_FALSE(failed.load());

  // Serial oracle: each document holds exactly kCommitsPerWriter versions,
  // and the newest one carries the writer's last payload.
  for (int w = 0; w < kWriters; ++w) {
    std::string url = "doc" + std::to_string(w);
    auto every = RunQuery(
        service, "SELECT COUNT(I) FROM doc(\"" + url + "\")[EVERY]/item I");
    ASSERT_TRUE(every.ok()) << every.status().ToString();
    EXPECT_NE(every->find(">" + std::to_string(kCommitsPerWriter) + "<"),
              std::string::npos)
        << url << ": " << *every;
    auto now = RunQuery(service,
                        "SELECT I/name FROM doc(\"" + url + "\")[NOW]/item I",
                        /*pretty=*/false);
    ASSERT_TRUE(now.ok());
    EXPECT_NE(now->find("w" + std::to_string(w)), std::string::npos);
  }

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.writes_committed,
            static_cast<uint64_t>(kWriters * kCommitsPerWriter));
  EXPECT_EQ(stats.writes_failed, 0u);
  ASSERT_EQ(stats.commit_path.shards.size(), options.commit_shards);
  uint64_t total_acquires = 0;
  for (const CommitShardStats& shard : stats.commit_path.shards) {
    total_acquires += shard.acquires;
  }
  EXPECT_EQ(total_acquires,
            static_cast<uint64_t>(kWriters * kCommitsPerWriter));
}

// N writers hammering the SAME document: the shard serializes them, every
// commit still lands exactly once, and version times stay strictly
// monotone (the ticket allocator hands out distinct timestamps).
TEST(ServiceStressTest, ConcurrentSameDocumentWritersSerialize) {
  // Durable with sync=always so every commit holds its shard lock across
  // a real fsync: writers racing for the same document reliably collide
  // on the shard mutex instead of slipping through between scheduler
  // quanta, which makes the contention counters deterministic.
  std::string dir =
      (std::filesystem::temp_directory_path() / "txml_svc_same_doc").string();
  std::filesystem::remove_all(dir);
  ServiceOptions options;
  options.commit_shards = 8;
  options.durability.data_dir = dir;
  options.durability.wal.sync_mode = WalSyncMode::kAlways;
  auto created = TemporalQueryService::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TemporalQueryService& service = **created;

  constexpr int kWriters = 6;
  constexpr int kCommitsPerWriter = 10;
  std::atomic<bool> failed{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&service, &failed, &ready, &go, w] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kCommitsPerWriter && !failed.load(); ++i) {
        auto put = service.Put(
            "shared",
            "<d>" + ItemXml("w" + std::to_string(w) + "i" + std::to_string(i),
                            w * 1000 + i) +
                "</d>");
        if (!put.ok()) {
          failed.store(true);
          ADD_FAILURE() << "writer " << w << ": " << put.status().ToString();
          return;
        }
      }
    });
  }
  while (ready.load() < kWriters) std::this_thread::yield();
  go.store(true);
  for (std::thread& writer : writers) writer.join();
  ASSERT_FALSE(failed.load());

  auto every = RunQuery(
      service, "SELECT COUNT(I) FROM doc(\"shared\")[EVERY]/item I");
  ASSERT_TRUE(every.ok()) << every.status().ToString();
  EXPECT_NE(every->find(">" + std::to_string(kWriters * kCommitsPerWriter) +
                        "<"),
            std::string::npos)
      << *every;

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.writes_committed,
            static_cast<uint64_t>(kWriters * kCommitsPerWriter));
  EXPECT_EQ(stats.writes_failed, 0u);
  // All commits hashed to one shard; with 6 threads released together and
  // each commit pinned under the lock for a full fsync, at least one
  // acquisition must have actually blocked.
  uint64_t total_waits = 0;
  for (const CommitShardStats& shard : stats.commit_path.shards) {
    total_waits += shard.waits;
  }
  EXPECT_GT(total_waits, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ServiceTest, WriteBatchAppliesItemsIndependently) {
  TemporalQueryService service;
  ASSERT_TRUE(service.PutAt("old", "<d><x>1</x></d>", Day(1)).ok());

  WriteBatchRequest batch;
  WriteBatchItem good_put;
  good_put.url = "batched";
  good_put.xml_text = "<d>" + ItemXml("a", 1) + "</d>";
  batch.items.push_back(good_put);
  WriteBatchItem bad_put;
  bad_put.url = "broken";
  bad_put.xml_text = "<d><unclosed>";
  batch.items.push_back(bad_put);
  WriteBatchItem delete_existing;
  delete_existing.kind = WriteBatchItem::Kind::kDelete;
  delete_existing.url = "old";
  batch.items.push_back(delete_existing);
  WriteBatchItem delete_missing;
  delete_missing.kind = WriteBatchItem::Kind::kDelete;
  delete_missing.url = "never-existed";
  batch.items.push_back(delete_missing);

  auto response = service.Execute(batch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("items=\"4\""), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("committed=\"2\""), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("failed=\"2\""), std::string::npos)
      << response->payload;
  // Per-item outcomes: the good put and the real delete succeeded, the
  // malformed put and the missing-document delete failed — independently.
  EXPECT_NE(response->payload.find(
                "url=\"batched\" action=\"put\" status=\"ok\""),
            std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find(
                "url=\"broken\" action=\"put\" status=\"error\""),
            std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find(
                "url=\"old\" action=\"delete\" status=\"ok\""),
            std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find(
                "url=\"never-existed\" action=\"delete\" status=\"error\""),
            std::string::npos)
      << response->payload;

  // The batch's effects are those of the same edits issued sequentially.
  auto put_count = RunQuery(
      service, "SELECT COUNT(I) FROM doc(\"batched\")[NOW]/item I");
  ASSERT_TRUE(put_count.ok());
  EXPECT_NE(put_count->find(">1<"), std::string::npos);
  // The deleted document answers empty at NOW (deletion is not an error).
  auto old_now =
      RunQuery(service, "SELECT X FROM doc(\"old\")[NOW]/x X", false);
  ASSERT_TRUE(old_now.ok());
  EXPECT_EQ(old_now->find("<x>"), std::string::npos) << *old_now;

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.write_batches_committed, 1u);
  EXPECT_EQ(stats.writes_committed, 3u);  // the seed put + 2 batch items
  EXPECT_EQ(stats.writes_failed, 2u);

  // An empty batch is rejected up front.
  WriteBatchRequest empty;
  EXPECT_TRUE(service.Execute(empty).status().IsInvalidArgument());
}

TEST(ServiceTest, WriteBatchIntraBatchPutThenDelete) {
  TemporalQueryService service;

  // A put and a delete of the same document inside one batch: the delete
  // must observe the put (apply order is ticket order) and succeed.
  WriteBatchRequest batch;
  WriteBatchItem put;
  put.url = "ephemeral";
  put.xml_text = "<d><x>1</x></d>";
  batch.items.push_back(put);
  WriteBatchItem del;
  del.kind = WriteBatchItem::Kind::kDelete;
  del.url = "ephemeral";
  batch.items.push_back(del);

  auto response = service.Execute(batch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("committed=\"2\""), std::string::npos)
      << response->payload;
  // Deleted at NOW: the document answers empty (deletion is not an error).
  auto now =
      RunQuery(service, "SELECT X FROM doc(\"ephemeral\")[NOW]/x X", false);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->find("<x>"), std::string::npos) << *now;
}

// The current version of a live document is aliased for one execution,
// never cloned into the shared cache: repeating a current-version query
// inserts nothing and answers byte-equally.
TEST(ServiceTest, CurrentVersionQueriesNeverEnterSnapshotCache) {
  ServiceOptions options;
  options.snapshot_cache_capacity = 64;
  TemporalQueryService service(options);
  PutHotHistory(&service);

  const std::string query = "SELECT R FROM doc(\"hot\")[NOW]/item R";
  const uint64_t before = service.Stats().snapshot_cache.insertions;
  auto first = RunQuery(service, query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunQuery(service, query);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*first, *second);
  EXPECT_NE(first->find("alpha"), std::string::npos) << *first;
  EXPECT_EQ(service.Stats().snapshot_cache.insertions, before);

  // A past version is still memoized.
  ASSERT_TRUE(RunQuery(service, kStableQueries[0]).ok());
  EXPECT_GT(service.Stats().snapshot_cache.insertions, before);
}

/// Serialized answers of `queries` on `service`'s database at its latest
/// epoch, with the scan arm pinned. Only for quiescent services.
std::vector<std::string> PinnedAnswers(const TemporalQueryService& service,
                                       const std::vector<std::string>& queries,
                                       ScanStrategy strategy) {
  ExecOptions options;
  options.now = service.database().latest_commit();
  options.scan_strategy = strategy;
  QueryExecutor executor(service.database().Context(), options);
  std::vector<std::string> answers;
  ExecStats stats;
  for (const std::string& query : queries) {
    auto result = executor.Execute(query, &stats);
    answers.push_back(result.ok() ? result->ToString()
                                  : "<error: " + result.status().ToString());
  }
  return answers;
}

// A batch that writes one URL several times prepares the repeats inside
// its turn, on top of the earlier items: it must leave exactly the state
// the same edits leave when issued one by one.
TEST(ServiceTest, WriteBatchWithRepeatedUrlsMatchesSequentialPuts) {
  struct Edit {
    WriteBatchItem::Kind kind;
    std::string url;
    std::string xml;
  };
  const std::vector<Edit> edits = {
      {WriteBatchItem::Kind::kPut, "a",
       "<d>" + ItemXml("alpha", 1) + ItemXml("beta", 2) + "</d>"},
      {WriteBatchItem::Kind::kPut, "b", "<d>" + ItemXml("gamma", 3) + "</d>"},
      {WriteBatchItem::Kind::kPut, "a",
       "<d>" + ItemXml("alpha", 4) + ItemXml("delta", 5) + "</d>"},
      {WriteBatchItem::Kind::kPut, "a",
       "<d>" + ItemXml("delta", 5) + ItemXml("eps", 6) + "</d>"},
      {WriteBatchItem::Kind::kPut, "b", "<d><item><unclosed></d>"},
      {WriteBatchItem::Kind::kDelete, "a", ""},
      {WriteBatchItem::Kind::kPut, "a", "<d>" + ItemXml("zeta", 7) + "</d>"},
      {WriteBatchItem::Kind::kPut, "b",
       "<d>" + ItemXml("gamma", 8) + ItemXml("eta", 9) + "</d>"},
  };

  TemporalQueryService batched;
  WriteBatchRequest batch;
  for (const Edit& edit : edits) {
    WriteBatchItem item;
    item.kind = edit.kind;
    item.url = edit.url;
    item.xml_text = edit.xml;
    batch.items.push_back(item);
  }
  auto response = batched.Execute(batch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();

  TemporalQueryService sequential;
  std::vector<bool> sequential_ok;
  for (const Edit& edit : edits) {
    sequential_ok.push_back(edit.kind == WriteBatchItem::Kind::kPut
                                ? sequential.Put(edit.url, edit.xml).ok()
                                : sequential.Delete(edit.url).ok());
  }
  // put a x3, put b, delete a succeed; bad XML and put-after-delete fail.
  EXPECT_EQ(sequential_ok, (std::vector<bool>{true, true, true, true, false,
                                              true, false, true}));
  EXPECT_NE(response->payload.find("committed=\"6\" failed=\"2\""),
            std::string::npos)
      << response->payload;
  EXPECT_EQ(batched.Stats().writes_committed,
            sequential.Stats().writes_committed);

  // Same history, byte for byte: the store and both indexes encode equal.
  std::string batched_store, sequential_store;
  batched.database().store().EncodeTo(&batched_store);
  sequential.database().store().EncodeTo(&sequential_store);
  EXPECT_EQ(batched_store, sequential_store);
  std::string batched_fti, sequential_fti;
  batched.database().fti().EncodeTo(&batched_fti);
  sequential.database().fti().EncodeTo(&sequential_fti);
  EXPECT_EQ(batched_fti, sequential_fti);

  const std::vector<std::string> queries = {
      "SELECT R FROM doc(\"a\")[EVERY]/item R",
      "SELECT R FROM doc(\"b\")[NOW]/item R",
      "SELECT TIME(R), R/price FROM doc(\"b\")[EVERY]/item R",
      "SELECT R/name FROM collection(\"*\")[EVERY]/item R "
      "WHERE R/price > 3",
      "SELECT CREATE TIME(R), R/name FROM doc(\"a\")[EVERY]/item R",
      "SELECT CREATE TIME(R), R/name FROM doc(\"b\")[NOW]/item R",
  };
  for (ScanStrategy strategy :
       {ScanStrategy::kIndex, ScanStrategy::kTraversal}) {
    const std::vector<std::string> got =
        PinnedAnswers(batched, queries, strategy);
    EXPECT_EQ(got, PinnedAnswers(sequential, queries, strategy));
    for (const std::string& answer : got) {
      EXPECT_EQ(answer.find("<error"), std::string::npos) << answer;
    }
  }
}

/// The item entries of a <write-batch-result> payload, each serialized.
std::vector<std::string> BatchItemEntries(const std::string& payload) {
  std::vector<std::string> entries;
  auto parsed = ParseXml(payload);
  EXPECT_TRUE(parsed.ok()) << payload;
  if (!parsed.ok()) return entries;
  for (const auto& child : parsed->root()->children()) {
    if (!child->is_attribute()) entries.push_back(SerializeXml(*child));
  }
  return entries;
}

/// The checkpoint files `service`'s database saves: store.txml then
/// indexes.txml.
std::vector<std::string> SavedFiles(const TemporalQueryService& service,
                                    const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::vector<std::string> files;
  Status saved = service.database().Save(dir);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  for (const char* name : {"store.txml", "indexes.txml"}) {
    auto contents = ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(contents.ok()) << contents.status().ToString();
    files.push_back(contents.ok() ? *contents : "");
  }
  std::filesystem::remove_all(dir);
  return files;
}

// A batch of 64 distinct documents prepares them side by side on the
// pool; a repeated URL prepares inside the turn and a delete applies in
// it. Whatever the pool's width, the batch leaves exactly the state the
// same items leave when committed one at a time: the same per-item
// outcomes, the same answers and the same checkpoint bytes.
TEST(ServiceTest, ParallelBatchPreparesMatchOneAtATimeCommits) {
  auto setup = [](TemporalQueryService* service) {
    ASSERT_TRUE(service
                    ->PutAt("keep", "<guide>" + ItemXml("kept", 1) + "</guide>",
                            Day(1))
                    .ok());
    ASSERT_TRUE(service
                    ->PutAt("gone", "<guide>" + ItemXml("gone", 2) + "</guide>",
                            Day(2))
                    .ok());
  };
  std::vector<WriteBatchItem> items;
  for (int d = 0; d < 63; ++d) {
    WriteBatchItem item;
    item.url = "doc";
    item.url += std::to_string(d);
    std::string name = "n";
    name += std::to_string(d);
    item.xml_text = "<guide>";
    item.xml_text += ItemXml(name, d);
    item.xml_text += ItemXml("shared", 100 + d % 7);
    item.xml_text += "</guide>";
    items.push_back(item);
  }
  WriteBatchItem keep;
  keep.url = "keep";
  keep.xml_text =
      "<guide>" + ItemXml("kept", 3) + ItemXml("shared", 101) + "</guide>";
  items.insert(items.begin() + 20, keep);
  WriteBatchItem repeat;
  repeat.url = "doc5";
  repeat.xml_text =
      "<guide>" + ItemXml("n5", 55) + ItemXml("later", 56) + "</guide>";
  items.push_back(repeat);
  WriteBatchItem gone;
  gone.kind = WriteBatchItem::Kind::kDelete;
  gone.url = "gone";
  items.insert(items.begin() + 40, gone);
  for (size_t k = 0; k < items.size(); ++k) {
    items[k].timestamp = Day(3).AddMicros(static_cast<int64_t>(k));
  }

  TemporalQueryService sequential;
  setup(&sequential);
  std::vector<std::string> expected_entries;
  for (const WriteBatchItem& item : items) {
    WriteBatchRequest one;
    one.items.push_back(item);
    auto response = sequential.Execute(one);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    for (std::string& entry : BatchItemEntries(response->payload)) {
      expected_entries.push_back(std::move(entry));
    }
  }
  ASSERT_EQ(expected_entries.size(), items.size());
  for (const std::string& entry : expected_entries) {
    EXPECT_NE(entry.find("status=\"ok\""), std::string::npos) << entry;
  }

  const std::vector<std::string> queries = {
      "SELECT R FROM doc(\"doc5\")[EVERY]/item R",
      "SELECT R FROM doc(\"keep\")[EVERY]/item R",
      "SELECT R FROM doc(\"gone\")[EVERY]/item R",
      "SELECT R/price FROM collection(\"doc*\")[NOW]/item R "
      "WHERE R/name = \"shared\"",
      "SELECT CREATE TIME(R), R/name FROM collection(\"*\")[NOW]/item R",
  };
  const std::string dir =
      (std::filesystem::temp_directory_path() / "txml_svc_parallel_batch")
          .string();
  const std::vector<std::string> expected_files = SavedFiles(sequential, dir);

  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "worker_threads = " << workers);
    ServiceOptions options;
    options.worker_threads = workers;
    TemporalQueryService batched(options);
    setup(&batched);
    WriteBatchRequest batch;
    batch.items = items;
    auto response = batched.Execute(batch);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(BatchItemEntries(response->payload), expected_entries);
    EXPECT_EQ(batched.Stats().writes_committed,
              sequential.Stats().writes_committed);
    for (ScanStrategy strategy :
         {ScanStrategy::kIndex, ScanStrategy::kTraversal}) {
      const std::vector<std::string> got =
          PinnedAnswers(batched, queries, strategy);
      EXPECT_EQ(got, PinnedAnswers(sequential, queries, strategy));
      for (const std::string& answer : got) {
        EXPECT_EQ(answer.find("<error"), std::string::npos) << answer;
      }
    }
    const std::vector<std::string> files = SavedFiles(batched, dir);
    EXPECT_EQ(files[0], expected_files[0]) << "store.txml differs";
    EXPECT_EQ(files[1], expected_files[1]) << "indexes.txml differs";
  }
}

// Eight callers commit overlapping batches through a two-worker pool at
// once: each run's caller claims prepares itself, so runs that wait for
// each other's stripes never wait for a worker, and every batch lands.
TEST(ServiceStressTest, ConcurrentWriteBatchesOnASmallPoolFinish) {
  ServiceOptions options;
  options.worker_threads = 2;
  options.commit_shards = 4;  // callers' stripe sets overlap
  TemporalQueryService service(options);
  constexpr int kCallers = 8;
  constexpr int kRounds = 4;
  constexpr int kDocs = 16;
  std::atomic<int> failed{0};
  std::vector<Thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&service, &failed, c] {
      for (int round = 1; round <= kRounds; ++round) {
        WriteBatchRequest batch;
        for (int d = 0; d < kDocs; ++d) {
          WriteBatchItem item;
          item.url = "c";
          item.url += std::to_string(c);
          item.url += "-";
          item.url += std::to_string(d);
          item.xml_text = "<guide>";
          item.xml_text += ItemXml("r", round);
          item.xml_text += "</guide>";
          batch.items.push_back(item);
        }
        auto response = service.Execute(batch);
        if (!response.ok() ||
            response->payload.find("failed=\"0\"") == std::string::npos) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (Thread& caller : callers) caller.Join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(service.Stats().writes_committed,
            static_cast<uint64_t>(kCallers * kRounds * kDocs));
  for (int c = 0; c < kCallers; ++c) {
    std::string url = "c";
    url += std::to_string(c);
    url += "-0";
    const VersionedDocument* doc = service.database().store().FindByUrl(url);
    ASSERT_NE(doc, nullptr);
    EXPECT_EQ(doc->version_count(), static_cast<VersionNum>(kRounds));
  }
}

/// The <result> rows of a compact answer, sorted: the index and traversal
/// arms may emit the same rows in different orders.
std::vector<std::string> SortedRows(const std::string& answer) {
  std::vector<std::string> rows;
  const std::string open = "<result>", close = "</result>";
  for (size_t at = answer.find(open); at != std::string::npos;
       at = answer.find(open, at)) {
    size_t end = answer.find(close, at);
    if (end == std::string::npos) break;
    end += close.size();
    rows.push_back(answer.substr(at, end - at));
    at = end;
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Puts prepare beside readers and beside each other while only their
// publishes serialize. Three disjoint writers, one writer sharing a
// document with one of them, readers, folds and checkpoints race; every
// read must hold the traversal-pinned oracle's rows at the epoch it ran
// at.
TEST(ServiceStressTest, PreparedPutsMatchTraversalOracleAtEveryEpoch) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "txml_svc_prepared").string();
  std::filesystem::remove_all(dir);
  ServiceOptions options;
  options.commit_shards = 8;
  options.snapshot_cache_capacity = 16;
  options.fti_compact_min_postings = 48;  // folds every few commits
  options.durability.data_dir = dir;
  options.durability.wal.sync_mode = WalSyncMode::kNone;
  options.durability.checkpoint_log_records = 0;
  options.durability.checkpoint_log_bytes = 0;
  auto created = TemporalQueryService::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TemporalQueryService& service = **created;

  const std::vector<std::string> kUrls = {"d0", "d1", "d2"};
  auto queries_for = [](const std::string& url) {
    return std::vector<std::string>{
        "SELECT R FROM doc(\"" + url + "\")[NOW]/item R",
        "SELECT CREATE TIME(R), R/name FROM doc(\"" + url +
            "\")[NOW]/item R WHERE R/price > 2",
    };
  };
  // Writers 0..2 own d0..d2; writer 3 shares d0 with writer 0.
  constexpr int kWriters = 4;
  constexpr int kCommitsPerWriter = 20;
  constexpr int kReaders = 2;
  std::atomic<bool> failed{false};
  std::atomic<int> writers_left{kWriters};
  std::vector<std::vector<Timestamp>> commits(kWriters);

  struct Read {
    Timestamp lo, hi;
    std::string query;
    std::string answer;
  };
  std::vector<std::vector<Read>> reads(kReaders);

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string& url = kUrls[w == 3 ? 0 : w];
      for (int i = 0; i < kCommitsPerWriter && !failed.load(); ++i) {
        std::string name = "w";
        name += std::to_string(w);
        std::string xml = "<d>" + ItemXml(name, i);
        for (int k = 0; k < i % 4; ++k) {
          std::string name = "k";
          name += std::to_string(k);
          xml += ItemXml(name, w + k);
        }
        xml += "</d>";
        auto put = service.Put(url, xml);
        if (!put.ok()) {
          failed.store(true);
          ADD_FAILURE() << "writer " << w << ": " << put.status().ToString();
          break;
        }
        commits[w].push_back(put->commit_ts);
      }
      writers_left.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (writers_left.load() > 0 && !failed.load()) {
      Status status = service.Checkpoint();
      if (!status.ok()) {
        failed.store(true);
        ADD_FAILURE() << "checkpoint: " << status.ToString();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int i = 0; writers_left.load() > 0 && !failed.load(); ++i) {
        const auto queries = queries_for(kUrls[(r + i) % kUrls.size()]);
        const std::string& query = queries[i % queries.size()];
        Read read;
        read.lo = service.Epoch();
        auto answer = RunQuery(service, query, /*pretty=*/false);
        read.hi = service.Epoch();
        if (!answer.ok()) {
          // A document may not exist yet at the reader's epoch.
          if (answer.status().IsNotFound()) continue;
          failed.store(true);
          ADD_FAILURE() << "reader " << r << ": "
                        << answer.status().ToString();
          return;
        }
        read.query = query;
        read.answer = std::move(*answer);
        reads[r].push_back(std::move(read));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.writes_committed,
            static_cast<uint64_t>(kWriters * kCommitsPerWriter));
  EXPECT_GT(stats.fti.compactions, 0u);
  EXPECT_GT(stats.durability.checkpoints_completed, 0u);

  // The oracle: the finished database with the traversal arm pinned and
  // NOW set to a candidate epoch. A read's epoch lies in [lo, hi], and
  // epochs are commit timestamps, so one of those candidates must match.
  std::vector<Timestamp> all_commits;
  for (const auto& list : commits) {
    all_commits.insert(all_commits.end(), list.begin(), list.end());
  }
  std::sort(all_commits.begin(), all_commits.end());
  std::map<std::pair<int64_t, std::string>, std::string> oracle;
  auto oracle_at = [&](Timestamp epoch, const std::string& query) {
    auto key = std::make_pair(epoch.micros(), query);
    auto it = oracle.find(key);
    if (it != oracle.end()) return it->second;
    ExecOptions exec;
    exec.now = epoch;
    exec.scan_strategy = ScanStrategy::kTraversal;
    exec.lifetime_strategy = LifetimeStrategy::kTraversal;
    QueryExecutor executor(service.database().Context(), exec);
    ExecStats exec_stats;
    auto result = executor.Execute(query, &exec_stats);
    SerializeOptions compact;
    compact.pretty = false;
    std::string answer = result.ok()
                             ? SerializeXml(*result->root(), compact)
                             : "<error: " + result.status().ToString();
    return oracle.emplace(key, std::move(answer)).first->second;
  };
  size_t checked = 0;
  for (const auto& reader_reads : reads) {
    for (const Read& read : reader_reads) {
      std::vector<Timestamp> candidates = {read.lo};
      for (Timestamp ts : all_commits) {
        if (read.lo < ts && ts <= read.hi) candidates.push_back(ts);
      }
      bool matched = false;
      const std::vector<std::string> rows = SortedRows(read.answer);
      for (Timestamp epoch : candidates) {
        const std::string& expected = oracle_at(epoch, read.query);
        if (expected == read.answer ||
            (expected.rfind("<error", 0) != 0 &&
             SortedRows(expected) == rows)) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << read.query << " between " << read.lo.ToString()
                           << " and " << read.hi.ToString() << ": "
                           << read.answer;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace txml
