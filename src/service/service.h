#ifndef TXML_SRC_SERVICE_SERVICE_H_
#define TXML_SRC_SERVICE_SERVICE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/database.h"
#include "src/service/request.h"
#include "src/service/snapshot_cache.h"
#include "src/service/stats.h"
#include "src/service/thread_pool.h"
#include "src/storage/wal.h"
#include "src/storage/wal_tail.h"
#include "src/util/statusor.h"
#include "src/util/synchronization.h"
#include "src/util/timestamp.h"

namespace txml {

/// Durability configuration (DESIGN.md §9). With a data_dir, every commit
/// is appended to a write-ahead log before the store and indexes observe
/// it, the database is checkpointed atomically into the directory, and
/// Create() recovers automatically on startup: load the newest checkpoint,
/// replay the WAL suffix past its covered sequence, truncate the log.
struct DurabilityOptions {
  /// Directory holding store.txml / indexes.txml / wal.txml /
  /// checkpoint.txml. Empty (the default) = purely in-memory service: no
  /// WAL, no checkpoints, no recovery.
  std::string data_dir;
  /// WAL sync policy — the commit durability / throughput trade-off
  /// benchmarked in bench/bench_wal.cc. With group commit (DESIGN.md §12)
  /// the policy is applied per *batch*: concurrently submitted commits
  /// share one fsync in kAlways mode.
  WalOptions wal;
  /// Auto-checkpoint after a commit once the WAL exceeds this many bytes
  /// (0 disables the size trigger).
  uint64_t checkpoint_log_bytes = 64ull << 20;
  /// Auto-checkpoint after a commit once the WAL holds this many records
  /// (0 disables the count trigger).
  uint64_t checkpoint_log_records = 10000;
};

/// Configuration of a TemporalQueryService.
struct ServiceOptions {
  /// Width of the service's prepare pool (DESIGN.md §12): a write batch's
  /// distinct documents and a replay window's records prepare on the
  /// calling thread plus up to this many workers. Must be > 0. Requests
  /// themselves always run on the caller's thread.
  size_t worker_threads = 4;
  /// Shared snapshot cache budget in entries; 0 disables the cache.
  size_t snapshot_cache_capacity = 1024;
  /// Lock shards of the snapshot cache. Must be > 0 (keys are spread by
  /// hash modulo the shard count).
  size_t snapshot_cache_shards = 16;
  /// Commit-path lock stripes (DESIGN.md §12): commits to documents that
  /// hash to different shards overlap their WAL waits; commits to the
  /// same shard serialize. Must be > 0. More shards buy more overlap at
  /// the cost of a longer quiescence sweep for checkpoints/vacuums.
  size_t commit_shards = 16;
  /// Options of the owned database (ignored when a database is adopted).
  DatabaseOptions database;
  /// Durability: WAL + checkpoints + startup recovery. Only honored by
  /// Create(ServiceOptions) — the database-adopting factory refuses a
  /// data_dir rather than guess how the adopted state relates to disk.
  DurabilityOptions durability;
  /// How long a read presenting a min_sequence token waits for the commit
  /// to arrive before failing kUnavailable ("replica lag") — the bound on
  /// read-your-writes blocking on a lagging follower.
  int64_t read_wait_timeout_ms = 5000;
  /// Fold the FTI differential into the compacted main index once it
  /// holds this many postings (checked after each commit — DESIGN.md §13).
  /// 0 disables the post-commit trigger; the differential then only folds
  /// when a vacuum forces it. The threshold trades a small query-time
  /// merge overhead (lookups walk main + differential) against the
  /// stop-the-world cost of the fold.
  size_t fti_compact_min_postings = 4096;
};

/// Checks an options struct for values that would be undefined behavior
/// downstream (zero worker threads leaves an empty pool, zero cache or
/// commit shards is a division by zero in the shard spread). Returns
/// InvalidArgument naming the offending field; OK otherwise.
Status ValidateServiceOptions(const ServiceOptions& options);

/// The multi-client façade over one TemporalXmlDatabase: accepts textual
/// queries and writes from many concurrent callers and executes them with
/// sharded-writer / multi-reader concurrency.
///
/// Concurrency model (DESIGN.md §6/§12):
///  * a writer hashes its document URL onto a commit shard and holds that
///    shard's mutex for the whole commit, so same-document commits
///    serialize while disjoint-document commits overlap;
///  * under its shard lock the writer draws a *ticket* from the global
///    allocator — one atomic draw hands out the commit sequence (== WAL
///    sequence when durable) and the commit timestamp together, so WAL
///    order, timestamp order, apply order and replication order all
///    agree — and enqueues its WAL record on the group-commit queue in
///    the same critical section (queue order == ticket order);
///  * the dedicated log-writer thread folds every queued record into one
///    write()+fsync (GroupCommitWal); disjoint writers overlap exactly
///    here, amortizing the fsync that used to serialize them;
///  * database application goes through a ticket-ordered *turnstile* into
///    the exclusive side of the commit lock: effects land in ticket (==
///    timestamp) order, so the epoch-pinned read protocol is unchanged;
///  * readers take the shared side of the commit lock and pin a
///    commit-timestamp *epoch* — the latest commit at query start, bound
///    to NOW — for the whole execution, so an in-flight query never sees
///    a half-applied version or index update;
///  * reconstructed snapshots are memoized in a sharded LRU keyed by
///    (DocId, resolved version), shared by all readers, invalidated
///    through the store's observer hooks.
///
/// Every call runs on the caller's thread (the caller provides the
/// request parallelism, e.g. one thread per connection). The worker pool
/// only widens one call: the prepares of a commit run's distinct documents
/// and of a replay window's records fan out onto it.
class TemporalQueryService {
 public:
  /// Validating factories: the only constructors that *reject* bad options
  /// (ValidateServiceOptions) instead of aborting. The network front end
  /// and CLIs build services through these.
  static StatusOr<std::unique_ptr<TemporalQueryService>> Create(
      ServiceOptions options);
  static StatusOr<std::unique_ptr<TemporalQueryService>> Create(
      ServiceOptions options, std::unique_ptr<TemporalXmlDatabase> db);

  /// Direct construction CHECK-fails on invalid options (use Create to get
  /// a Status instead).
  explicit TemporalQueryService(ServiceOptions options = {});
  /// Adopts an existing database (e.g. restored via
  /// TemporalXmlDatabase::Open, or pre-populated single-threaded).
  TemporalQueryService(ServiceOptions options,
                       std::unique_ptr<TemporalXmlDatabase> db);
  ~TemporalQueryService();

  TemporalQueryService(const TemporalQueryService&) = delete;
  TemporalQueryService& operator=(const TemporalQueryService&) = delete;

  using PutResult = TemporalXmlDatabase::PutResult;

  // ---- the request/response API (thread-safe; many threads) ----

  /// THE query entry point: executes `request` at the current commit epoch
  /// and returns the serialized result document plus this execution's
  /// counters. Both in-process callers and the network front end
  /// (src/net/) funnel through here.
  StatusOr<QueryResponse> Execute(const QueryRequest& request)
      EXCLUDES(commit_mu_);

  /// The write entry point (commit shard of the URL): stores a new version
  /// per `request` and returns a <put-result url=… version=… commit=…/>
  /// confirmation payload.
  StatusOr<QueryResponse> Execute(const PutRequest& request)
      EXCLUDES(commit_mu_);

  /// The batched-write entry point (DESIGN.md §12): applies every item —
  /// puts and deletes, any mix of documents — as one shard-locked,
  /// consecutively ticketed run whose WAL records share a single
  /// group-commit submission (one fsync in kAlways mode). Items apply
  /// independently: a semantically failed item (bad XML, stale timestamp)
  /// is reported in the payload without failing its siblings, exactly as
  /// N sequential Puts would behave. The response's sequence is the
  /// batch's last commit sequence — one read-your-writes token covers the
  /// whole batch.
  StatusOr<QueryResponse> Execute(const WriteBatchRequest& request)
      EXCLUDES(commit_mu_);

  /// The admin entry point (all commit shards): vacuums every document's
  /// history per the request's retention horizons and returns a
  /// <vacuum-result …/> summary payload. See Vacuum() for the typed form.
  StatusOr<QueryResponse> Execute(const VacuumRequest& request)
      EXCLUDES(commit_mu_);

  /// Typed writes (commit shard of the URL), each a commit run of one
  /// item. Put/PutAt are the typed equivalents of Execute(PutRequest).
  StatusOr<PutResult> Put(const std::string& url, std::string_view xml_text)
      EXCLUDES(commit_mu_);
  StatusOr<PutResult> PutAt(const std::string& url, std::string_view xml_text,
                            Timestamp ts) EXCLUDES(commit_mu_);
  Status Delete(const std::string& url) EXCLUDES(commit_mu_);

  /// Vacuums every document's history per `policy` holding every commit
  /// shard (a vacuum rewrites all documents): in-flight writers finish
  /// first, in-flight readers finish against the pre-vacuum state, and
  /// readers starting afterwards see the rewritten (answer-preserving)
  /// history with all indexes and the snapshot cache already updated.
  StatusOr<VacuumStats> Vacuum(const RetentionPolicy& policy)
      EXCLUDES(commit_mu_);

  /// Snapshot of one document at time t (shared lock; consults the cache
  /// through the query path only — plain retrieval reconstructs).
  StatusOr<XmlDocument> Snapshot(const std::string& url, Timestamp t)
      EXCLUDES(commit_mu_);

  // ---- replication (DESIGN.md §11) ----

  /// Follower entry point: persists one shipped batch into the local WAL
  /// *preserving the leader's sequences* (one group-commit submission: one
  /// fsync in kAlways mode), applies it through ApplyLogged like recovery
  /// replay, publishing each record's sequence once it is applied. Records
  /// already persisted (the leader resent after a reconnect) are dropped.
  /// An I/O failure logs none of the batch (unless it poisons the log) and
  /// is returned without applying or publishing; the applier must treat
  /// it as session-fatal and reconnect. Durable services only. Takes
  /// every commit shard (uncontended on a follower — read-only servers
  /// reject local writes).
  Status ApplyReplicated(std::span<const WalRecord> records)
      EXCLUDES(commit_mu_);

  /// Newest commit sequence this node has durably accepted *and applied*
  /// (leader: committed; follower: replicated). 0 on in-memory services.
  uint64_t applied_sequence() const;

  /// Blocks until applied_sequence() >= min_sequence or the timeout
  /// elapses; returns whether the floor was reached. The read-your-writes
  /// wait (Execute consults it when a request carries a token).
  bool WaitForSequence(uint64_t min_sequence, int64_t timeout_ms) const;

  /// The live commit tail the replication shipper reads (DESIGN.md §11).
  /// The group-commit writer thread feeds it only records that passed the
  /// batch's sync decision, so a follower can never observe a sequence
  /// the leader did not acknowledge. Null for an in-memory service.
  WalTailBuffer* wal_tail() const { return tail_.get(); }

  /// Durable services only: checkpoints the database into data_dir
  /// (atomic store + index save, then the covered-sequence stamp) and
  /// truncates the WAL. Quiesces the commit path by taking every commit
  /// shard; writes started after it returns see the compacted log.
  /// InvalidArgument on an in-memory service.
  Status Checkpoint() EXCLUDES(commit_mu_);

  // ---- checkpoint re-seed (DESIGN.md §14) ----

  /// One checkpoint held in memory for wire transfer: the sequence it
  /// covers plus the checkpoint files (name → contents) in install
  /// order. The stamp file is listed too, so an installed image is a
  /// byte-complete checkpoint directory.
  struct CheckpointImage {
    uint64_t covered_sequence = 0;
    std::vector<std::pair<std::string, std::string>> files;
  };

  /// Leader side of a re-seed: returns the newest on-disk checkpoint as
  /// an in-memory image, creating one first (same quiescence as
  /// Checkpoint()) when none exists yet. Quiesces the commit path for
  /// the read so the files and the stamp are one consistent capture.
  /// InvalidArgument on an in-memory service.
  StatusOr<CheckpointImage> ExportCheckpoint() EXCLUDES(commit_mu_);

  /// Follower side of a re-seed: atomically replaces this service's
  /// state with the image — each file lands via the write-temp/fsync/
  /// rename discipline, the stamp is written only after the image
  /// re-opens cleanly, the WAL is reset to the covered sequence, and the
  /// snapshot cache is dropped. Quiesces the commit path end to end.
  /// Rejects (kOutOfRange) an image at or below the locally applied
  /// sequence — installing it would move state backwards. On
  /// any failure the service keeps serving its old in-memory state; a
  /// crash mid-install recovers to either state, or at worst to one the
  /// next re-seed attempt replaces (DESIGN.md §14 walks the windows).
  Status InstallCheckpoint(const CheckpointImage& image)
      EXCLUDES(commit_mu_);

  // ---- introspection ----

  /// The commit epoch a reader starting now would pin.
  Timestamp Epoch() const EXCLUDES(commit_mu_);
  ServiceStats Stats() const EXCLUDES(commit_mu_);
  const ServiceOptions& options() const { return options_; }
  size_t worker_threads() const { return pool_.thread_count(); }

  /// Test/benchmark access. Unsynchronized — do not touch while
  /// readers/writers are in flight unless the access is read-only and you
  /// hold no expectations against concurrent commits. (The deliberate
  /// escape from the db_ pointee guard below — hence the analysis
  /// opt-out.)
  const TemporalXmlDatabase& database() const NO_THREAD_SAFETY_ANALYSIS {
    return *db_;
  }
  ShardedSnapshotCache* snapshot_cache() { return cache_.get(); }
  /// The log behind the group-commit front end; null for an in-memory
  /// service. Test access — gauges only, and only at quiescence.
  const WriteAheadLog* wal() const {
    return wal_ == nullptr ? nullptr : wal_->wal();
  }
  /// The group-commit front end itself; null for an in-memory service.
  const GroupCommitWal* group_wal() const { return wal_.get(); }

 private:
  /// One commit-lock stripe plus its contention counters (reported by
  /// Stats as CommitPathStats). TryLock-first acquisition makes `waits`
  /// count the acquisitions that actually blocked on a same-shard writer.
  struct CommitShard {
    /// `index` doubles as the lock-rank sequence number: stripes are the
    /// one rank that may nest, and only in ascending index order — the
    /// checker enforces exactly the LockAllShards rule.
    explicit CommitShard(uint64_t index)
        : mu(LockRank::kCommitStripe, index) {}
    Mutex mu;  // rank: kCommitStripe, seq = stripe index (ctor above)
    std::atomic<uint64_t> acquires{0};
    std::atomic<uint64_t> waits{0};
  };

  /// One commit of a run as the allocator sees it. In: the WAL record
  /// to log (type, url, payload or policy), the caller's explicit
  /// timestamp, and whether to log at all (`logged` false for in-memory
  /// services and for deletes that will not apply — the slot still takes
  /// its ticket). Out: the global ticket (== WAL sequence when logged),
  /// the commit timestamp drawn with it, and the pending group-commit
  /// submission to wait on.
  struct CommitSlot {
    WalRecord record;
    std::optional<Timestamp> explicit_ts;
    bool logged = false;
    uint64_t ticket = 0;
    Timestamp ts;
    GroupCommitWal::Ticket wal_ticket;
  };

  /// What a commit run produced: one outcome per item (a delete's carries
  /// only its commit time), how many of them succeeded, and the run's last
  /// logged sequence, published once the run applied (0 when nothing was
  /// logged).
  struct RunResult {
    std::vector<StatusOr<PutResult>> outcomes;
    size_t committed = 0;
    uint64_t sequence = 0;
  };

  /// Create(ServiceOptions) with a data_dir: startup recovery
  /// (checkpoint load + WAL suffix replay through ApplyLogged) then log
  /// compaction.
  static StatusOr<std::unique_ptr<TemporalQueryService>> CreateDurable(
      ServiceOptions options);

  /// Points the service at `db` and attaches the snapshot cache to it.
  /// The constructor and InstallCheckpoint then call ContinueAfter.
  void AdoptDatabase(std::unique_ptr<TemporalXmlDatabase> db)
      REQUIRES(commit_mu_);

  /// The one applier of records that carry their sequences (recovery
  /// replay, replicated batches), already in the local WAL. Skips what the
  /// database already reflects (replay after a crash between a
  /// checkpoint's files and its stamp) and, with a warning, records that
  /// fail to apply (they failed identically when first logged). A put is
  /// prepared under the shared commit lock and published under the
  /// exclusive one. Consecutive puts to distinct URLs form a window whose
  /// prepares run side by side on the pool before the window publishes in
  /// sequence order; a delete, a vacuum or a repeated URL closes a window
  /// and applies alone. Publishes each record's sequence once it is
  /// applied, and ends with ContinueAfter(the log's last sequence).
  /// Callers hold every commit shard or run before the service is
  /// visible. Returns how many records applied; the rest were skipped.
  uint64_t ApplyLogged(std::span<const WalRecord> records)
      EXCLUDES(commit_mu_);

  /// Continues the sequence space after `sequence`, which the database
  /// reflects: the next ticket is sequence + 1 and applies first, the
  /// allocator's clock catches up with the database, a tail that never
  /// carried `sequence` serves it from disk, and waiters up to it wake.
  /// Monotone. With AllocateCommitRun and FinishTurn, the only writer of
  /// the ticket and turnstile counters.
  void ContinueAfter(uint64_t sequence)
      EXCLUDES(commit_mu_, ticket_mu_, turn_mu_);

  size_t ShardIndexFor(std::string_view url) const;
  /// Locks shard `index`, counting contention. Lock shards in ascending
  /// index order only (the deadlock-freedom rule of the striped map).
  /// Analysis opt-outs: the capability is chosen by runtime index, which
  /// the annotations cannot name.
  void LockShard(size_t index) NO_THREAD_SAFETY_ANALYSIS;
  void UnlockShard(size_t index) NO_THREAD_SAFETY_ANALYSIS;
  void LockAllShards() NO_THREAD_SAFETY_ANALYSIS;
  void UnlockAllShards() NO_THREAD_SAFETY_ANALYSIS;

  /// Draws consecutive tickets and commit timestamps for `slots` under
  /// ticket_mu_ and, on durable services, stamps each logged slot's
  /// record (sequence = ticket, ts = the drawn timestamp) and moves it
  /// onto the group-commit queue in the same critical section — the queue
  /// is therefore in ticket order, which AppendBatch requires and
  /// followers rely on, and the run shares one drain (at most one fsync).
  /// An explicit timestamp is used as is and advances the allocator past
  /// it (mirroring CommitClock::AdvanceTo). A vacuum slot takes a ticket
  /// but no timestamp (its record carries none). The caller must already
  /// hold the commit shard(s) of every document the slots touch.
  void AllocateCommitRun(std::span<CommitSlot> slots) EXCLUDES(ticket_mu_);

  /// Blocks until the slot's WAL record is acknowledged per the sync
  /// policy (no-op for unlogged slots). A failure dooms the commit: the
  /// caller must skip the database apply but still consume the ticket's
  /// turn (BeginTurn/FinishTurn) — every allocated ticket passes the
  /// turnstile exactly once or all later commits deadlock.
  Status WaitDurable(CommitSlot* slot);

  /// The apply turnstile: blocks until every ticket below `first_ticket`
  /// has completed its database apply. The caller then applies under the
  /// exclusive commit lock and calls FinishTurn.
  void BeginTurn(uint64_t first_ticket) EXCLUDES(turn_mu_);
  /// Retires tickets [first, last] (consecutive) and wakes the next
  /// committer. `publish_sequence` > 0 advances the read-your-writes
  /// floor — pass the last *logged* ticket of the run after its apply so
  /// a released waiter is guaranteed to see the write.
  void FinishTurn(uint64_t last_ticket, uint64_t publish_sequence)
      EXCLUDES(turn_mu_);

  /// Resolves (shared commit lock) and prepares (no commit lock) a put of
  /// `tree` at `ts`. The committing thread holds the document's commit
  /// stripe, which keeps the document still until its publish (DESIGN.md
  /// §12), also while a pool worker runs this on its behalf. Analysis
  /// opt-out: the prepare reads the guarded database without commit_mu_,
  /// which only that stripe argument makes safe.
  StatusOr<TemporalXmlDatabase::PreparedPut> PrepareUnderStripe(
      const std::string& url, std::unique_ptr<XmlNode> tree, Timestamp ts)
      NO_THREAD_SAFETY_ANALYSIS;

  /// The one local commit path (DESIGN.md §12): parses every put, then
  /// commits the parsed items as one run holding the union of their
  /// commit shards — consecutive tickets, one group-commit submission,
  /// one turn in which each item publishes in its own exclusive section.
  /// The first write of each URL prepares on the pool while the log
  /// syncs; a repeated URL prepares inside the turn.
  /// An unparseable put takes no ticket and no WAL record; a delete of a
  /// document that will not exist at its turn takes a ticket but no
  /// record. Items succeed or fail independently; a WAL failure fails the
  /// whole run. Counts every item into writes_committed/writes_failed.
  StatusOr<RunResult> CommitRun(std::span<const WriteBatchItem> items)
      EXCLUDES(commit_mu_);
  /// A run of one (Put, PutAt, Execute(PutRequest), Delete): the item's
  /// own status, the post-commit triggers when it committed, and the
  /// published sequence through `sequence` when non-null.
  StatusOr<PutResult> CommitOne(const WriteBatchItem& item,
                                uint64_t* sequence = nullptr)
      EXCLUDES(commit_mu_);

  /// Advances the published commit floor and wakes WaitForSequence.
  void PublishSequence(uint64_t sequence) const;

  /// Checkpoint with the commit path already quiescent: the caller holds
  /// every commit shard (LockAllShards), so no ticket is in flight and
  /// the group-commit queue is empty. Saves the database, writes the
  /// stamp, and truncates the WAL through the group front end.
  Status CheckpointQuiesced();
  /// Post-commit auto-checkpoint trigger. Runs *outside* the shard locks
  /// (a checkpoint takes all of them; triggering one while holding a
  /// shard would deadlock against concurrent committers), guarded by an
  /// in-progress flag so concurrent commits don't stampede.
  void MaybeCheckpoint();

  /// Post-commit FTI compaction trigger (DESIGN.md §13): once the
  /// differential exceeds fti_compact_min_postings, folds it into the
  /// main index under full quiescence (all shards + exclusive commit
  /// lock — same discipline as MaybeCheckpoint, same stampede guard).
  /// The fold is not WAL-logged: it changes the index's internal layout,
  /// not its contents, and the index encodes the same bytes before and
  /// after it (TemporalFullTextIndex::EncodeTo).
  void MaybeCompactFti() EXCLUDES(commit_mu_);

  /// The apply/read lock: database application exclusive (one ticket at a
  /// time, in ticket order via the turnstile), readers shared. Declared
  /// before the members whose pointees it guards so the annotations below
  /// can reference it.
  mutable SharedMutex commit_mu_{LockRank::kCommitApply};

  ServiceOptions options_;
  /// The pointer is immutable after construction; the *database* behind
  /// it is what the commit lock protects (readers shared, appliers
  /// exclusive).
  std::unique_ptr<TemporalXmlDatabase> db_ PT_GUARDED_BY(commit_mu_);
  std::unique_ptr<ShardedSnapshotCache> cache_;  // null when disabled

  /// The striped commit-lock map (immutable vector, each shard internally
  /// locked). Writers hold exactly their document's shard; quiescent
  /// operations (checkpoint, vacuum, replicated apply) hold all of them
  /// in ascending index order.
  std::vector<std::unique_ptr<CommitShard>> commit_shards_;

  /// The global commit allocator: one lock hands out ticket + timestamp
  /// and orders the group-commit queue (see AllocateCommitRun).
  mutable Mutex ticket_mu_{LockRank::kTicket};
  /// Last ticket handed out; tickets are contiguous (every one passes the
  /// turnstile). Equals the WAL sequence space on durable services.
  uint64_t next_ticket_ GUARDED_BY(ticket_mu_) = 0;
  /// The service-level commit clock mirror: last issued / observed commit
  /// timestamp in microseconds. The database's own CommitClock advances
  /// identically at apply time (PutDocumentAt → AdvanceTo), but applies
  /// lag allocation, so the allocator keeps its own monotone copy.
  int64_t last_alloc_ts_micros_ GUARDED_BY(ticket_mu_) = 0;

  /// The apply turnstile: database effects land in ticket order, keeping
  /// timestamp order == apply order for epoch-pinned readers.
  mutable Mutex turn_mu_{LockRank::kTurnstile};
  mutable CondVar turn_cv_;
  uint64_t next_apply_ticket_ GUARDED_BY(turn_mu_) = 1;

  /// Commits between ticket allocation and FinishTurn — the group-commit
  /// batch-formation signal (GroupCommitWal::Hooks::commits_in_flight):
  /// each such commit's next record, or its successor's, is moments away,
  /// so the log writer briefly holds batches open for them.
  std::atomic<uint64_t> commits_in_flight_{0};

  /// Null for an in-memory service. The group-commit front end is
  /// internally synchronized; Reset/Flush additionally require the commit
  /// path quiescent (all shards held), which annotations cannot express —
  /// see CheckpointQuiesced.
  std::string data_dir_;
  /// Live commit tail for replication shippers; null when in-memory.
  /// Internally synchronized — shipper threads read it without the commit
  /// lock. Declared before wal_ (whose writer thread pushes into it).
  std::unique_ptr<WalTailBuffer> tail_;
  std::unique_ptr<GroupCommitWal> wal_;

  /// Read-your-writes publication. The atomic is the fast-path gauge;
  /// the mutex/condvar pair exists only for the bounded wait protocol
  /// (stores happen under seq_mu_ so waiters cannot miss a wakeup).
  mutable Mutex seq_mu_{LockRank::kSeqFloor};
  mutable CondVar seq_cv_;
  /// mutable: PublishSequence is const so duplicate-delivery refreshes can
  /// run from const contexts; it only ever moves the floor forward.
  mutable std::atomic<uint64_t> last_committed_sequence_{0};
  std::atomic<uint64_t> last_checkpoint_sequence_{0};
  std::atomic<bool> checkpoint_running_{false};
  std::atomic<bool> fti_compact_running_{false};
  std::atomic<uint64_t> replicated_records_applied_{0};
  std::atomic<uint64_t> replicated_records_skipped_{0};
  /// Checkpoint images installed over the wire (InstallCheckpoint) and
  /// the archive bytes they carried — the follower-side re-seed gauges.
  std::atomic<uint64_t> reseeds_{0};
  std::atomic<uint64_t> reseed_bytes_{0};

  std::atomic<uint64_t> queries_executed_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> writes_committed_{0};
  std::atomic<uint64_t> writes_failed_{0};
  std::atomic<uint64_t> write_batches_committed_{0};
  std::atomic<uint64_t> vacuums_run_{0};
  std::atomic<uint64_t> wal_records_appended_{0};
  std::atomic<uint64_t> checkpoints_completed_{0};
  std::atomic<uint64_t> checkpoints_failed_{0};
  /// Planner decision tallies accumulated from every Execute(QueryRequest)
  /// response's ExecStats (src/query/planner.h).
  std::atomic<uint64_t> planner_scans_index_{0};
  std::atomic<uint64_t> planner_scans_traversal_{0};
  std::atomic<uint64_t> planner_lifetime_index_{0};
  std::atomic<uint64_t> planner_lifetime_traversal_{0};
  std::atomic<uint64_t> planner_fallbacks_{0};
  /// Recovery facts, set once before the service is visible to callers.
  uint64_t recovered_records_ = 0;
  bool recovery_tail_dropped_ = false;

  /// The prepare fan-out (ThreadPool::ForEach). Last: joins workers before
  /// db_/cache_/wal_ die. A ForEach returns only once its work ran, so
  /// what a worker finds queued at shutdown touches none of them.
  ThreadPool pool_;
};

}  // namespace txml

#endif  // TXML_SRC_SERVICE_SERVICE_H_
