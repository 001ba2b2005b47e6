#ifndef TXML_SRC_SERVICE_STATS_H_
#define TXML_SRC_SERVICE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/storage/wal.h"

namespace txml {

/// Point-in-time counters of the sharded snapshot cache. A snapshot is
/// internally consistent per counter but not across counters (counters are
/// independent atomics read without a global lock).
struct SnapshotCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Entries dropped by observer-driven invalidation (document deletes).
  uint64_t invalidations = 0;
  /// Entries currently resident across all shards.
  size_t entries = 0;
};

/// Counters of the durability layer (WAL + checkpoints, DESIGN.md §9).
/// All zero for an in-memory service (no data_dir configured).
struct DurabilityStats {
  /// Commit records appended to the WAL since startup.
  uint64_t wal_records_appended = 0;
  /// Highest WAL sequence assigned so far (monotone across restarts).
  uint64_t wal_last_sequence = 0;
  /// Current WAL file length in bytes (header + records).
  uint64_t wal_bytes = 0;
  uint64_t checkpoints_completed = 0;
  uint64_t checkpoints_failed = 0;
  /// WAL records applied during startup recovery.
  uint64_t recovered_records = 0;
  /// Startup recovery found (and dropped) a torn WAL tail.
  bool recovery_tail_dropped = false;
};

/// One commit-lock stripe's contention counters (DESIGN.md §12).
struct CommitShardStats {
  /// Times a writer acquired this shard.
  uint64_t acquires = 0;
  /// Acquisitions that blocked on a same-shard writer (TryLock failed
  /// first) — the contention signal. High waits on few shards = hot
  /// documents; high waits everywhere = raise commit_shards.
  uint64_t waits = 0;
};

/// Counters of the sharded commit path + group commit (DESIGN.md §12):
/// the group-commit batching gauges (zeros on an in-memory service; the
/// amortization shows as records_written / syncs >> 1 in kAlways mode
/// under concurrent writers) plus per-stripe contention.
struct CommitPathStats : GroupCommitStats {
  /// Per-stripe contention, indexed by shard (size == commit_shards).
  std::vector<CommitShardStats> shards;
};

/// Replication-facing gauges (DESIGN.md §11). On a leader,
/// last_committed_sequence is the newest WAL append; on a follower it is
/// the newest leader sequence locally persisted and applied. Per-follower
/// lag lives with the WalShipper (src/repl), which observes acks.
struct ReplicationStats {
  /// Newest commit sequence this node has durably accepted (leader:
  /// appended; follower: replicated). The read-your-writes floor.
  uint64_t last_committed_sequence = 0;
  /// Sequence the newest completed checkpoint covers.
  uint64_t last_checkpoint_sequence = 0;
  /// Records applied from a replication leader (followers only).
  uint64_t replicated_records_applied = 0;
  /// Replicated records persisted but skipped at apply time (their
  /// original commit failed identically on the leader).
  uint64_t replicated_records_skipped = 0;
  /// Checkpoint re-seeds this node completed (followers: checkpoints
  /// installed over the wire after falling below the leader's WAL floor,
  /// DESIGN.md §14).
  uint64_t reseeds = 0;
  /// Archive bytes received and installed across those re-seeds.
  uint64_t reseed_bytes = 0;
};

/// Gauges of the split full-text index (DESIGN.md §13): the compacted
/// main index plus the in-memory differential that commits append to.
struct FtiIndexStats {
  /// Postings in the compacted main half.
  size_t main_postings = 0;
  /// Postings accumulated in the differential since the last fold. Grows
  /// with commits, returns to zero at each compaction.
  size_t differential_postings = 0;
  /// Differential folds completed (post-commit triggers + vacuum-forced).
  uint64_t compactions = 0;
};

/// Planner decision tallies (src/query/planner.h) aggregated across every
/// Execute(QueryRequest) on this service.
struct PlannerStats {
  /// FROM-item scans dispatched to the FTI join vs. tree traversal.
  uint64_t scans_index = 0;
  uint64_t scans_traversal = 0;
  /// CREATE/DELETE TIME evaluations by resolved strategy.
  uint64_t lifetime_index_lookups = 0;
  uint64_t lifetime_traversals = 0;
  /// Explicitly requested strategies that were unavailable (no index
  /// attached) and degraded to the other arm instead of failing.
  uint64_t strategy_fallbacks = 0;
};

/// Aggregate counters of a TemporalQueryService, for monitoring and the
/// service benchmarks.
struct ServiceStats {
  uint64_t queries_executed = 0;
  uint64_t queries_failed = 0;
  uint64_t writes_committed = 0;
  uint64_t writes_failed = 0;
  /// WriteBatch requests whose run reached the log (per-item outcomes
  /// count into writes_committed/writes_failed).
  uint64_t write_batches_committed = 0;
  /// Successful Vacuum() passes over the store (failed ones count as
  /// writes_failed — a vacuum holds every commit shard).
  uint64_t vacuums_run = 0;
  SnapshotCacheStats snapshot_cache;
  DurabilityStats durability;
  CommitPathStats commit_path;
  ReplicationStats replication;
  FtiIndexStats fti;
  PlannerStats planner;
};

}  // namespace txml

#endif  // TXML_SRC_SERVICE_STATS_H_
