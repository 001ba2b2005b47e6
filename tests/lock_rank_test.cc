// Tests of the lock-rank checker (src/util/lock_rank.h, DESIGN.md §16).
//
// The death tests are the negative proof that the checker is live —
// the runtime analogue of tests/analyze_negative.cc: a seeded inversion,
// an unordered same-rank acquisition, and a descending stripe sequence
// must each abort with the rank-checker diagnostic. The positive tests
// pin the documented acquisition order, both directly on ranked mutexes
// and end to end through the service's fold / vacuum / checkpoint triple
// (the paths that hold the deepest stacks: all stripes + commit lock +
// WAL + failpoints). Under TXML_LOCK_RANK a single execution of those
// paths *proves* their acquisition order matches the hierarchy — no
// lucky interleaving needed, which is what distinguishes this suite from
// the TSan stage.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "src/service/service.h"
#include "src/storage/vacuum.h"
#include "src/util/lock_rank.h"
#include "src/util/synchronization.h"

namespace txml {
namespace {

#if defined(TXML_LOCK_RANK)

TEST(LockRankDeathTest, InversionAborts) {
  Mutex low(LockRank::kFailPoint);
  Mutex high(LockRank::kServer);
  MutexLock hold_low(low);
  EXPECT_DEATH(high.Lock(), "lock-rank inversion");
}

TEST(LockRankDeathTest, UnorderedSameRankAborts) {
  Mutex first(LockRank::kTicket);
  Mutex second(LockRank::kTicket);
  MutexLock hold_first(first);
  EXPECT_DEATH(second.Lock(), "same-rank acquisition");
}

TEST(LockRankDeathTest, StripeSequenceMustAscend) {
  Mutex stripe_one(LockRank::kCommitStripe, 1);
  Mutex stripe_zero(LockRank::kCommitStripe, 0);
  MutexLock hold_one(stripe_one);
  EXPECT_DEATH(stripe_zero.Lock(), "ascending");
}

TEST(LockRankDeathTest, SharedAcquisitionIsCheckedToo) {
  Mutex low(LockRank::kSeqFloor);
  SharedMutex high(LockRank::kCommitApply);
  MutexLock hold_low(low);
  EXPECT_DEATH(high.LockShared(), "lock-rank inversion");
}

TEST(LockRankDeathTest, TryLockSuccessIsCheckedToo) {
  Mutex low(LockRank::kFailPoint);
  Mutex high(LockRank::kServer);
  MutexLock hold_low(low);
  EXPECT_DEATH((void)high.TryLock(), "lock-rank inversion");
}

// The pool's queue lock is taken under commit stripes (ForEach), so a
// stripe taken under it would invert the order.
TEST(LockRankDeathTest, StripeUnderThreadPoolQueueAborts) {
  Mutex pool(LockRank::kThreadPool);
  Mutex stripe(LockRank::kCommitStripe, 0);
  MutexLock hold_pool(pool);
  EXPECT_DEATH(stripe.Lock(), "lock-rank inversion");
}

TEST(LockRankTest, DocumentedOrderAcquiresCleanly) {
  // The full documented chain, outermost to innermost — the deepest stack
  // the commit path can hold (DESIGN.md §16 rank table, top to bottom).
  Mutex server(LockRank::kServer);
  Mutex stripe0(LockRank::kCommitStripe, 0);
  Mutex stripe1(LockRank::kCommitStripe, 1);
  Mutex pool(LockRank::kThreadPool);
  SharedMutex commit(LockRank::kCommitApply);
  Mutex turn(LockRank::kTurnstile);
  Mutex ticket(LockRank::kTicket);
  Mutex wal_queue(LockRank::kWalQueue);
  Mutex cache(LockRank::kSnapshotCache);
  Mutex failpoint(LockRank::kFailPoint);

  server.Lock();
  stripe0.Lock();
  stripe1.Lock();  // same rank, ascending seq: the LockAllShards order
  pool.Lock();  // ThreadPool::ForEach queues its helpers under stripes
  commit.Lock();
  turn.Lock();
  ticket.Lock();
  wal_queue.Lock();
  cache.Lock();
  failpoint.Lock();
  EXPECT_EQ(LockRankChecker::HeldDepthForTest(), 10);

  failpoint.Unlock();
  cache.Unlock();
  wal_queue.Unlock();
  ticket.Unlock();
  turn.Unlock();
  commit.Unlock();
  pool.Unlock();
  // FIFO stripe release, as UnlockAllShards does.
  stripe0.Unlock();
  stripe1.Unlock();
  server.Unlock();
  EXPECT_EQ(LockRankChecker::HeldDepthForTest(), 0);
}

TEST(LockRankTest, ReaderAndWriterSidesBothTrack) {
  SharedMutex commit(LockRank::kCommitApply);
  Mutex cache(LockRank::kSnapshotCache);
  {
    ReaderLock read(commit);
    MutexLock shard(cache);
    EXPECT_EQ(LockRankChecker::HeldDepthForTest(), 2);
  }
  {
    WriterLock write(commit);
    MutexLock shard(cache);
    EXPECT_EQ(LockRankChecker::HeldDepthForTest(), 2);
  }
  EXPECT_EQ(LockRankChecker::HeldDepthForTest(), 0);
}

TEST(LockRankTest, CondVarWaitKeepsTheLockOnTheStack) {
  Mutex mu(LockRank::kTicket);
  CondVar cv;
  MutexLock lock(mu);
  // Times out (nothing signals); the lock is logically held throughout
  // and lower-ranked work may proceed after the wakeup.
  EXPECT_FALSE(cv.WaitFor(mu, /*timeout_ms=*/5));
  EXPECT_EQ(LockRankChecker::HeldDepthForTest(), 1);
  Mutex wal_queue(LockRank::kWalQueue);
  MutexLock nested(wal_queue);
  EXPECT_EQ(LockRankChecker::HeldDepthForTest(), 2);
}

#endif  // TXML_LOCK_RANK

// glibc's exit() destroys the main thread's thread_locals before it runs
// static destructors, and a static whose destructor locks (a server
// stopping, a pool joining) must not touch the destroyed held-rank stack.
// Only ASan sees that write into freed memory (a heap-use-after-free in
// LockRankChecker::NoteAcquire), so check.sh runs this suite under it.
TEST(LockRankTest, StaticDestructorMayLockDuringExit) {
  EXPECT_EXIT(
      {
        struct LocksOnDestruction {
          Mutex mu{LockRank::kServer};
          ~LocksOnDestruction() { MutexLock lock(mu); }
        };
        static LocksOnDestruction locker;
        // Gives the stack heap storage before exit() destroys it.
        { MutexLock lock(locker.mu); }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

// The fold / vacuum / checkpoint triple end to end. Each of these paths
// quiesces the commit lattice its own way (fold: all stripes → exclusive
// commit lock; vacuum: all stripes → allocate → turnstile → exclusive
// apply → forced quiesced checkpoint; checkpoint: all stripes → exclusive
// commit → store save → WAL reset) — running all three against a live
// service pins their documented acquisition order: under TXML_LOCK_RANK
// any deviation aborts the test deterministically, and in the OFF
// configuration the test still exercises the paths.
TEST(LockRankTest, FoldVacuumCheckpointTripleObeysTheHierarchy) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     "txml_lock_rank_triple")
                        .string();
  std::filesystem::remove_all(dir);

  ServiceOptions options;
  options.worker_threads = 2;
  options.commit_shards = 4;
  options.durability.data_dir = dir;
  // Every post-commit check folds the differential: the fold path runs on
  // the very first put, not just at the 4096-posting default.
  options.fti_compact_min_postings = 1;
  // Checkpoint on every record: MaybeCheckpoint fires per commit.
  options.durability.checkpoint_log_records = 1;

  auto service = TemporalQueryService::Create(options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (int day = 1; day <= 6; ++day) {
    PutRequest put;
    put.url = "u";
    put.xml_text = "<guide><item><name>n" + std::to_string(day) +
                   "</name></item></guide>";
    put.timestamp = Timestamp::FromDate(2001, 1, day);
    auto committed = (*service)->Execute(put);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  }

  // Vacuum forces a fold and a quiesced checkpoint on the same pass.
  auto stats =
      (*service)->Vacuum(RetentionPolicy::DropBefore(Timestamp::FromDate(
          2001, 1, 3)));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // And an explicit full checkpoint on top.
  Status checkpoint = (*service)->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();

  // The service still answers: current version visible post-triple.
  QueryRequest query;
  query.query_text = "SELECT R/name FROM doc(\"u\")/guide/item R";
  auto response = (*service)->Execute(query);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("n6"), std::string::npos)
      << response->payload;

  service->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace txml
