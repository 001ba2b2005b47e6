#ifndef TXML_SRC_STORAGE_WAL_H_
#define TXML_SRC_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/vacuum.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/util/synchronization.h"
#include "src/util/thread.h"
#include "src/util/thread_annotations.h"
#include "src/util/timestamp.h"

namespace txml {

/// The write-ahead commit log (DESIGN.md §9): an append-only file of
/// CRC32C-framed, length-prefixed *logical* commit records. A record
/// describes a commit the way the service API received it — Put as
/// (url, xml text, commit timestamp), Delete as (url, timestamp), Vacuum
/// as the retention policy — not as physical page/delta images: replaying
/// a record through the normal write path is deterministic (same parse,
/// same diff, same XID assignment), so checkpoint + replay reconstructs
/// the exact pre-crash store. The same (url, delta, timestamp) stream is
/// the replication feed the ROADMAP's read-replica item needs.
///
/// File layout (all little-endian, src/util/coding.h primitives):
///
///   header:  fixed32 magic "TWL1", varint64 base_sequence
///   record*: varint64 body_len, byte[body_len] body,
///            fixed32 masked_crc32c(body)
///   body:    varint32 type, varint64 sequence, then per type (see wal.cc)
///
/// Sequences are assigned by Append, strictly increasing, continuing
/// across reopen and across Reset (the post-checkpoint truncation writes
/// the covered sequence into the new header as base_sequence).
///
/// Torn-tail tolerance: a crash mid-append leaves a truncated or
/// CRC-failing suffix. Replay drops that suffix (reporting it) and keeps
/// everything before it; Open physically truncates the file back to the
/// last complete record so new appends land on a clean boundary.

enum class WalSyncMode {
  /// Never fsync; the OS flushes when it likes. Fastest, loses the tail
  /// of acknowledged commits on power loss (not on process crash).
  kNone = 0,
  /// Group commit: fsync once every sync_every_n appended records.
  kEveryN = 1,
  /// fsync every append before acknowledging. The default: an
  /// acknowledged commit survives power loss.
  kAlways = 2,
};

/// Renders "none" / "every_n" / "always".
std::string_view WalSyncModeToString(WalSyncMode mode);
/// Parses the --sync-mode flag vocabulary ("none", "every_n", "always").
StatusOr<WalSyncMode> ParseWalSyncMode(std::string_view text);

struct WalOptions {
  WalSyncMode sync_mode = WalSyncMode::kAlways;
  /// kEveryN: fsync once per this many appended records. Must be > 0.
  uint64_t sync_every_n = 8;
  /// Group commit batch-formation window (GroupCommitWal only): when the
  /// commits-in-flight hook reports more committers inside the commit
  /// path than records queued, the log-writer thread holds the batch open
  /// up to this long so their records join the same write + fsync. A lone
  /// writer never waits (its record is the only commit in flight, so the
  /// queue already covers the in-flight count) — the window costs nothing
  /// at concurrency 1 and amortizes the sync at concurrency N. 0 disables
  /// the wait (sync as soon as anything is queued).
  int64_t group_commit_window_us = 250;
};

enum class WalRecordType : uint8_t {
  kPut = 1,
  kDelete = 2,
  kVacuum = 3,
};

/// One logical commit record.
struct WalRecord {
  WalRecordType type = WalRecordType::kPut;
  /// Assigned by Append; read back by Replay.
  uint64_t sequence = 0;
  /// Commit timestamp (kPut / kDelete; unused for kVacuum).
  Timestamp ts;
  /// Document URL (kPut / kDelete).
  std::string url;
  /// kPut: the XML text exactly as the service received it.
  std::string payload;
  /// kVacuum: the retention horizons.
  RetentionPolicy policy;
};

/// Encodes a record body exactly as it appears between the length prefix
/// and the CRC inside the log file — `varint32 type, varint64 sequence`,
/// then per-type fields. The replication protocol ships these bodies
/// verbatim inside batch frames, so leader and follower agree on the
/// byte-level record format by construction.
std::string EncodeWalRecordBody(const WalRecord& record, uint64_t sequence);
/// Inverse of EncodeWalRecordBody. Returns Corruption (never crashes) on
/// malformed input; fuzzed via the wire decode harness.
StatusOr<WalRecord> DecodeWalRecordBody(std::string_view body);

class WriteAheadLog {
 public:
  /// Opens the log at `path` for appending, creating it (with
  /// base_sequence = min_base_sequence) when absent. An existing file is
  /// scanned: a torn tail is physically truncated away, and appends
  /// continue after the last complete record. `min_base_sequence` guards
  /// sequence monotonicity across a crash window where the checkpoint
  /// stamp advanced but log truncation did not happen (or the log file is
  /// gone): assigned sequences always exceed both the file's last record
  /// and this floor.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(
      std::string path, WalOptions options, uint64_t min_base_sequence = 0);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends `record` as a batch of one (AppendBatch) under the next
  /// sequence, which it assigns and returns; the record's own sequence
  /// field is ignored.
  StatusOr<uint64_t> Append(const WalRecord& record);

  /// Group commit: appends `records` — each carrying a caller-assigned
  /// sequence, strictly ascending and above last_sequence() — as ONE
  /// write() followed by at most one sync decision for the whole batch
  /// (kAlways: one fsync covers every record; kEveryN counts the batch
  /// against its budget; kNone never syncs). The frame bytes on disk are
  /// identical to `records.size()` individual Appends — replay and
  /// replication cannot tell a batch from a run of singles. All-or-
  /// nothing: a write failure rolls the whole batch back (ftruncate to
  /// the pre-append length) so the file stays clean; if the rollback
  /// itself fails, or an fsync fails (after which the kernel may have
  /// dropped dirty pages — the file's durable content is unknowable), the
  /// log is *poisoned*: every further append fails kUnavailable until the
  /// process restarts and recovery re-establishes a trusted tail.
  Status AppendBatch(const std::vector<WalRecord>& records);

  /// Explicit group-commit flush (kNone/kEveryN callers before an ack
  /// barrier). No-op when nothing is unsynced.
  Status Sync();

  /// Atomically replaces the log with a fresh empty one whose appends
  /// continue from base_sequence + 1 — the truncation after a checkpoint
  /// covering base_sequence. base_sequence may exceed last_sequence():
  /// a checkpoint re-seed (DESIGN.md §14) installs a leader image ahead
  /// of everything this log holds and forwards the cursor to it. On
  /// failure the old log (still containing everything) remains in use;
  /// replay tolerates the stale records via the sequence floor.
  Status Reset(uint64_t base_sequence);

  uint64_t last_sequence() const { return last_sequence_; }
  /// Current file length in bytes (header + records) — the size trigger
  /// for auto-checkpointing.
  uint64_t file_bytes() const { return file_bytes_; }
  /// Complete records currently in the file.
  uint64_t record_count() const { return record_count_; }
  /// Successful fsync calls over the log's lifetime. With group commit the
  /// interesting ratio is sync_count() / record_count(): far below 1 in
  /// kAlways mode under concurrency is the amortization working.
  uint64_t sync_count() const { return sync_count_; }
  bool poisoned() const { return poisoned_; }
  const std::string& path() const { return path_; }
  const WalOptions& options() const { return options_; }

  struct ReplayResult {
    std::vector<WalRecord> records;
    /// The header's base_sequence: every record in the file has a sequence
    /// above it. A replication subscriber asking for records at or below
    /// this floor must be re-seeded from a checkpoint instead.
    uint64_t base_sequence = 0;
    /// max(header base_sequence, last record's sequence).
    uint64_t last_sequence = 0;
    /// True when a truncated or CRC-failing suffix was dropped.
    bool tail_dropped = false;
    uint64_t bytes_dropped = 0;
    /// Bytes of header + complete records.
    uint64_t valid_bytes = 0;
  };

  /// Reads the log for recovery. An absent file yields an empty result
  /// (last_sequence 0). A torn tail is dropped and reported; a file too
  /// corrupt to even carry a header is Corruption.
  static StatusOr<ReplayResult> Replay(const std::string& path);

  /// Scans an in-memory image of a log file — Replay minus the I/O. This
  /// is the decode path the fuzz harness drives with arbitrary bytes, so
  /// it must return Corruption (never crash) on any input.
  static StatusOr<ReplayResult> ReplayData(std::string_view data);

 private:
  WriteAheadLog(std::string path, WalOptions options);

  /// Writes `framed` (one or many complete frames) atomically: rollback
  /// via ftruncate on a short write, poisoning when the rollback fails.
  Status WriteFramed(std::string_view framed);

  /// fsync with poisoning semantics (see AppendBatch).
  Status SyncLocked();

  std::string path_;
  WalOptions options_;
  int fd_ = -1;
  uint64_t last_sequence_ = 0;
  uint64_t file_bytes_ = 0;
  uint64_t record_count_ = 0;
  uint64_t unsynced_records_ = 0;
  uint64_t sync_count_ = 0;
  bool poisoned_ = false;
};

class WalTailBuffer;

/// Point-in-time counters of a GroupCommitWal (DESIGN.md §12). The
/// histogram buckets batch sizes at powers of two: bucket i counts batches
/// of size in (2^(i-1), 2^i] — i.e. 1, 2, 3-4, 5-8, 9-16, 17-32, and the
/// last bucket everything larger.
struct GroupCommitStats {
  static constexpr size_t kHistogramBuckets = 7;
  uint64_t batches_written = 0;
  uint64_t records_written = 0;
  /// fsync calls issued (≤ batches in kAlways mode — the amortization).
  uint64_t syncs = 0;
  uint64_t max_batch_records = 0;
  uint64_t batch_size_histogram[kHistogramBuckets] = {};
};

/// The group-commit front end of a WriteAheadLog (DESIGN.md §12): an
/// append queue drained by one dedicated log-writer thread that folds all
/// concurrently submitted records into a single AppendBatch — one write(),
/// one sync decision — and wakes each committer only once its record's
/// batch has resolved:
///
///   kAlways  — after the batch's fsync, so a woken committer's record is
///              durable (one fsync amortized over every commit in the
///              batch);
///   kEveryN  — after the write; fsync happens once per N records across
///              batches, exactly the standing every_n contract;
///   kNone    — after the write (the OS flushes when it likes).
///
/// Sequences are assigned by the CALLER (the service's global allocator
/// draws sequence + commit timestamp under one lock so WAL order, apply
/// order and replication order all agree; a follower submits the leader's
/// sequences); this front end only coordinates durability. The hooks fire
/// on the writer thread only after the batch passed its sync decision —
/// the replication tail and the read-your-writes floor publish only
/// acknowledged prefixes, so a follower can never observe a record the
/// leader did not acknowledge.
///
/// Error isolation is per batch: a write failure (rolled back cleanly by
/// AppendBatch) fails exactly the committers in that batch, and later
/// batches proceed — their sequences leave a gap, which replay and
/// replication already tolerate. Poisoning (failed fsync/rollback) fails
/// everything until recovery, exactly as the underlying log.
class GroupCommitWal {
 public:
  struct Hooks {
    /// Acknowledged records are pushed here in sequence order; may be null.
    WalTailBuffer* tail = nullptr;
    /// Commits currently inside the service's commit path (ticket
    /// allocated, turn not yet finished) — the batch-formation signal for
    /// WalOptions::group_commit_window_us. Must be lock-free (it is read
    /// with the queue lock held); may be null (no window is ever held).
    std::function<uint64_t()> commits_in_flight;
  };

  /// A pending submission handle: lives on the submitting thread's stack
  /// between Enqueue and Wait (the writer thread fills it in place, so it
  /// must not move meanwhile).
  class Ticket {
   public:
    Ticket() = default;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

   private:
    friend class GroupCommitWal;
    Status result_;
    bool done_ = false;
  };

  /// Takes ownership of an opened log; spawns the writer thread.
  GroupCommitWal(std::unique_ptr<WriteAheadLog> wal, Hooks hooks);
  /// Stops the writer thread. No submission may be in flight (Wait blocks
  /// until its record resolves, so a live caller cannot coexist with
  /// destruction); anything still queued fails kUnavailable.
  ~GroupCommitWal();

  GroupCommitWal(const GroupCommitWal&) = delete;
  GroupCommitWal& operator=(const GroupCommitWal&) = delete;

  /// Submits `records[i]` onto `tickets[i]` in one queue critical
  /// section: the whole run lands in the same drain, hence shares one
  /// batch and at most one fsync. Sequences are pre-assigned, ascending,
  /// and strictly above every previously submitted sequence — callers
  /// serialize their submissions through the sequence allocator's lock,
  /// which makes queue order equal sequence order by construction. The
  /// records are moved into the queue. Returns immediately; the caller
  /// later blocks in Wait. A run with any record refused up front
  /// (shutdown, poisoned log, non-ascending sequence) queues nothing and
  /// resolves every ticket immediately with the error; a queued run is
  /// then logged whole or not at all (WriteAheadLog::AppendBatch).
  void EnqueueRun(std::vector<WalRecord> records,
                  const std::vector<Ticket*>& tickets) EXCLUDES(mu_);

  /// Blocks until the ticket's batch resolved: OK once the record is
  /// acknowledged per the sync policy, the batch's error otherwise.
  Status Wait(Ticket* ticket) EXCLUDES(mu_);

  /// Waits for everything already queued to be written, then forces an
  /// fsync (the ack barrier before a checkpoint, mirroring
  /// WriteAheadLog::Sync for the kNone/kEveryN modes).
  Status Flush() EXCLUDES(mu_);

  /// Post-checkpoint truncation (WriteAheadLog::Reset) through the group
  /// path. The caller must hold the commit path quiescent (no submission
  /// in flight or able to start — the service takes every commit shard);
  /// the queue is drained, the writer parked, and the log swapped.
  Status Reset(uint64_t base_sequence) EXCLUDES(mu_);

  // Gauges mirrored from the underlying log after every batch, readable
  // from any thread without a lock (Stats() no longer needs the commit
  // lock — each gauge is independently fresh).
  uint64_t last_sequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }
  uint64_t file_bytes() const {
    return file_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t record_count() const {
    return record_count_.load(std::memory_order_relaxed);
  }
  uint64_t sync_count() const {
    return sync_count_.load(std::memory_order_relaxed);
  }
  bool poisoned() const { return poisoned_.load(std::memory_order_relaxed); }

  GroupCommitStats Stats() const EXCLUDES(mu_);

  /// Test access to the owned log. The writer thread appends to it; do
  /// not call mutating members through this.
  const WriteAheadLog* wal() const { return wal_.get(); }

 private:
  struct Pending {
    WalRecord record;
    /// Points at the submitting caller's Ticket; the writer fills it
    /// under mu_ and signals ack_cv_.
    Ticket* ticket;
  };

  /// Wakes the writer for a new record — immediately when it is idle,
  /// but during the batch-formation window only once the queue covers
  /// every commit in flight (see WalOptions::group_commit_window_us).
  void SignalWriterLocked() REQUIRES(mu_);
  void WriterLoop() EXCLUDES(mu_);
  void MirrorGauges() REQUIRES(mu_);

  /// Appended to by the writer thread between the two mu_ critical
  /// sections of a batch (writing_ is true then); quiesced operations
  /// (Flush/Reset) touch it only under mu_ with the writer parked.
  std::unique_ptr<WriteAheadLog> wal_;
  Hooks hooks_;

  mutable Mutex mu_{LockRank::kWalQueue};
  CondVar queue_cv_;  // wakes the writer: queue non-empty or stopping
  CondVar ack_cv_;    // wakes committers and quiesced ops: batch resolved
  std::deque<Pending> queue_ GUARDED_BY(mu_);
  /// Highest sequence submitted and not since rolled back (validates
  /// ascending submission); a failed batch with nothing queued behind it
  /// lowers it back to the log's last sequence.
  uint64_t submitted_watermark_ GUARDED_BY(mu_) = 0;
  bool writing_ GUARDED_BY(mu_) = false;  // writer mid-batch, log in use
  /// Writer inside the batch-formation window — enqueues skip the wakeup
  /// unless they complete the batch (SignalWriterLocked).
  bool forming_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;

  GroupCommitStats stats_ GUARDED_BY(mu_);

  std::atomic<uint64_t> last_sequence_{0};
  std::atomic<uint64_t> file_bytes_{0};
  std::atomic<uint64_t> record_count_{0};
  std::atomic<uint64_t> sync_count_{0};
  std::atomic<bool> poisoned_{false};

  Thread writer_;  // last: joined by the destructor
};

/// The checkpoint stamp: a tiny atomic file recording the WAL sequence a
/// checkpoint covers. Recovery replays only records above it.
Status WriteCheckpointStamp(const std::string& dir, uint64_t sequence);
/// NotFound when no stamp exists (fresh or legacy directory).
StatusOr<uint64_t> ReadCheckpointStamp(const std::string& dir);

/// File names inside a durability data_dir (store.txml / indexes.txml are
/// owned by TemporalXmlDatabase::Save).
inline constexpr char kWalFileName[] = "wal.txml";
inline constexpr char kCheckpointStampFileName[] = "checkpoint.txml";

}  // namespace txml

#endif  // TXML_SRC_STORAGE_WAL_H_
