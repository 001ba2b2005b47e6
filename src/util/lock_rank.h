#ifndef TXML_SRC_UTIL_LOCK_RANK_H_
#define TXML_SRC_UTIL_LOCK_RANK_H_

/// The lock-rank hierarchy: the single documented acquisition order for
/// every Mutex/SharedMutex in the tree (DESIGN.md §16 has the full rank
/// table with the edge that forces each ordering).
///
/// Rule: a thread may only acquire a lock whose rank is STRICTLY LOWER
/// than the lowest rank it already holds. The one exception is a rank
/// that explicitly allows ordered same-rank nesting (the commit stripes),
/// where acquisitions at equal rank must carry a strictly increasing
/// sequence number (the stripe index) — this is exactly the ascending
/// order LockAllShards documents.
///
/// Under TXML_LOCK_RANK (default ON, tier-1 runs it) every acquisition
/// is checked against a thread-local stack of held ranks and any
/// violation aborts via TXML_LOG_FATAL — a lock-order inversion is
/// caught deterministically on the first execution that merely
/// *acquires* the locks in conflicting orders, no unlucky interleaving
/// required (unlike TSan). With -DTXML_LOCK_RANK=OFF the checker
/// compiles away entirely: Mutex is a bare std::mutex wrapper again,
/// mirroring the TXML_FAILPOINTS pattern.
///
/// Ranks are spaced by 100 so a future layer can slot in without
/// renumbering. Higher value = outer lock (acquired first).

#include <cstdint>

namespace txml {

enum class LockRank : int {
  // Test-only rank for locks owned by test fixtures that call into the
  // service while held. Outermost by construction.
  kTest = 2000,

  // net/server.h TxmlServer::mu_ — connection registry. Held while
  // registering/draining sockets; outermost production lock.
  kServer = 1300,

  // repl/replica_applier.h ReplicaApplier::mu_ — applier session state.
  // The applier thread calls Service::ApplyReplicated once per batch
  // (stripes, then ApplyLogged's commit lock and below), so it sits above
  // the whole service layer.
  kReplApplier = 1200,

  // repl/wal_shipper.h WalShipper::mu_ — follower stats map. Shipper
  // sessions read the WAL tail (kWalTail) for catch-up bookkeeping.
  kReplShipper = 1100,

  // net/rate_limiter.h TokenBucketRateLimiter::mu_ — admission control
  // on connection-handler threads, before any service lock.
  kRateLimiter = 1000,

  // service/service.h CommitShard::mu — per-document commit-lock
  // stripes. The only rank allowing same-rank nesting: LockAllShards
  // (fold, vacuum, checkpoint, install, ApplyReplicated) takes every
  // stripe in ascending index order, enforced via the per-lock sequence
  // number.
  kCommitStripe = 800,

  // service/thread_pool.h ThreadPool::mu_ — task queue. Held only around
  // a push or a pop, never while a task runs. ThreadPool::ForEach pushes
  // its helpers while the caller holds commit stripes (CommitRun,
  // ApplyReplicated), so the queue ranks below them; nothing is taken
  // under it.
  kThreadPool = 750,

  // service/service.h commit_mu_ — single-writer/multi-reader apply
  // lock. ApplyLogged prepares logged puts under the shared side and
  // publishes them under the exclusive one; holders reach cache shards
  // (observer fan-out) and failpoints (checkpoint I/O).
  kCommitApply = 700,

  // service/service.h turn_mu_ — apply turnstile. Taken under stripes,
  // never while commit_mu_ is wanted (BeginTurn returns before apply;
  // ContinueAfter advances it with nothing but stripes held).
  kTurnstile = 600,

  // service/service.h ticket_mu_ — ticket allocator. Taken under a
  // stripe on the commit path (enqueues into the WAL queue) and by
  // ContinueAfter, after it read the database clock under commit_mu_.
  kTicket = 500,

  // storage/wal.h GroupCommitWal::mu_ — group-commit queue. Enqueue runs
  // inside the ticket critical section (commits) or under stripes
  // (ApplyReplicated's one submission per batch); Wait/Reset run under
  // stripes.
  kWalQueue = 400,

  // storage/wal_tail.h WalTailBuffer::mu_ — live replication tail.
  // Pushed by the log-writer thread lock-free of kWalQueue; SetFloor
  // runs in ContinueAfter, under stripes during checkpoint install.
  kWalTail = 350,

  // service/snapshot_cache.h Shard::mu — snapshot-cache shards. Taken
  // one at a time; reached under commit_mu_ via observer callbacks and
  // the read path.
  kSnapshotCache = 300,

  // service/service.h seq_mu_ — published-sequence floor. Signalled
  // under stripes after FinishTurn; waited on with nothing held.
  kSeqFloor = 250,

  // util/failpoint.h FailPoints::mu_ — leaf. Reached from env I/O under
  // nearly everything above.
  kFailPoint = 100,
};

constexpr int LockRankValue(LockRank rank) { return static_cast<int>(rank); }

/// Ranks whose locks may nest at equal rank, provided the per-lock
/// sequence numbers are strictly ascending. Only the commit stripes.
constexpr bool LockRankAllowsOrderedSameRank(LockRank rank) {
  return rank == LockRank::kCommitStripe;
}

const char* LockRankName(LockRank rank);

#if defined(TXML_LOCK_RANK)

/// Thread-local held-rank stack. Mutex/SharedMutex call NoteAcquire on
/// every successful acquisition (shared or exclusive, Lock or TryLock)
/// and NoteRelease on every release; NoteAcquire TXML_LOG_FATALs on any
/// acquisition that is out of rank order. Once the thread's stack is
/// destroyed (thread exit; for the main thread, exit() before static
/// destructors run) further calls check and record nothing.
/// CondVar::Wait keeps the waited-on lock's entry on the stack: the lock
/// is logically held across the wait, and the thread cannot acquire
/// anything else while blocked in it.
class LockRankChecker {
 public:
  static void NoteAcquire(LockRank rank, uint64_t seq);
  static void NoteRelease(LockRank rank, uint64_t seq);

  /// Number of lock entries the calling thread currently holds.
  /// Test-only.
  static int HeldDepthForTest();
};

#endif  // TXML_LOCK_RANK

}  // namespace txml

#endif  // TXML_SRC_UTIL_LOCK_RANK_H_
