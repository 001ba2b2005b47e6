#include "src/service/service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/util/env.h"
#include "src/util/logging.h"
#include "src/util/macros.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace txml {
namespace {

/// The most logged puts ApplyLogged prepares before publishing them: it
/// bounds the prepared versions held at once during a long replay.
constexpr size_t kMaxReplayWindow = 64;

}  // namespace

Status ValidateServiceOptions(const ServiceOptions& options) {
  if (options.worker_threads == 0) {
    return Status::InvalidArgument(
        "ServiceOptions.worker_threads must be > 0");
  }
  if (options.snapshot_cache_shards == 0) {
    return Status::InvalidArgument(
        "ServiceOptions.snapshot_cache_shards must be > 0");
  }
  if (options.commit_shards == 0) {
    return Status::InvalidArgument("ServiceOptions.commit_shards must be > 0");
  }
  if (options.durability.wal.sync_mode == WalSyncMode::kEveryN &&
      options.durability.wal.sync_every_n == 0) {
    return Status::InvalidArgument(
        "DurabilityOptions.wal.sync_every_n must be > 0 in every_n mode");
  }
  if (options.read_wait_timeout_ms < 0) {
    return Status::InvalidArgument(
        "ServiceOptions.read_wait_timeout_ms must be >= 0");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<TemporalQueryService>> TemporalQueryService::Create(
    ServiceOptions options) {
  TXML_RETURN_IF_ERROR(ValidateServiceOptions(options));
  if (!options.durability.data_dir.empty()) {
    return CreateDurable(std::move(options));
  }
  return std::make_unique<TemporalQueryService>(options);
}

StatusOr<std::unique_ptr<TemporalQueryService>> TemporalQueryService::Create(
    ServiceOptions options, std::unique_ptr<TemporalXmlDatabase> db) {
  TXML_RETURN_IF_ERROR(ValidateServiceOptions(options));
  if (!options.durability.data_dir.empty()) {
    return Status::InvalidArgument(
        "durability.data_dir cannot be combined with an adopted database; "
        "use Create(ServiceOptions) and let recovery build the database");
  }
  return std::make_unique<TemporalQueryService>(options, std::move(db));
}

StatusOr<std::unique_ptr<TemporalQueryService>>
TemporalQueryService::CreateDurable(ServiceOptions options) {
  const std::string& dir = options.durability.data_dir;
  TXML_RETURN_IF_ERROR(CreateDirIfMissing(dir));

  // 1. The checkpoint stamp. Absent in a fresh directory — and in a
  //    pre-durability one, which then loads below exactly as Open() always
  //    loaded it (legacy upgrade path).
  uint64_t covered_sequence = 0;
  auto stamp = ReadCheckpointStamp(dir);
  if (stamp.ok()) {
    covered_sequence = *stamp;
  } else if (!stamp.status().IsNotFound()) {
    return stamp.status();
  }

  // 2. The checkpointed database, when one exists.
  std::unique_ptr<TemporalXmlDatabase> db;
  if (FileExists(dir + "/store.txml")) {
    TXML_ASSIGN_OR_RETURN(db,
                          TemporalXmlDatabase::Open(dir, options.database));
  } else {
    db = std::make_unique<TemporalXmlDatabase>(options.database);
  }

  // 3. Open the log for appending; the floor keeps sequences monotone even
  //    when the stamp outran the log (crash between stamp and truncation).
  const std::string wal_path = dir + "/" + kWalFileName;
  TXML_ASSIGN_OR_RETURN(WriteAheadLog::ReplayResult replay,
                        WriteAheadLog::Replay(wal_path));
  TXML_ASSIGN_OR_RETURN(
      std::unique_ptr<WriteAheadLog> wal,
      WriteAheadLog::Open(wal_path, options.durability.wal,
                          std::max(covered_sequence, replay.last_sequence)));

  auto service =
      std::make_unique<TemporalQueryService>(options, std::move(db));
  service->data_dir_ = dir;
  // Replication plumbing: the live tail starts empty (ContinueAfter below
  // declares everything recovered disk-resident). It must exist before the
  // group-commit front end, whose writer thread feeds it.
  service->tail_ = std::make_unique<WalTailBuffer>();
  GroupCommitWal::Hooks hooks;
  hooks.tail = service->tail_.get();
  // Lock-free by construction (a relaxed atomic read): the log writer
  // calls this with its queue lock held.
  hooks.commits_in_flight = [raw = service.get()] {
    return raw->commits_in_flight_.load(std::memory_order_relaxed);
  };
  service->wal_ =
      std::make_unique<GroupCommitWal>(std::move(wal), hooks);
  service->last_checkpoint_sequence_.store(covered_sequence,
                                           std::memory_order_relaxed);

  // 4. Replay the WAL suffix the checkpoint does not cover. New commits
  //    then continue the recovered sequence space.
  std::span<const WalRecord> suffix(replay.records);
  while (!suffix.empty() && suffix.front().sequence <= covered_sequence) {
    suffix = suffix.subspan(1);
  }
  const uint64_t applied = service->ApplyLogged(suffix);
  service->recovered_records_ = applied;
  service->recovery_tail_dropped_ = replay.tail_dropped;

  // 5. Fold the replayed suffix into a fresh checkpoint so the next crash
  //    replays nothing twice. Best-effort: on failure the WAL still holds
  //    every record and the service is fully usable.
  if (applied > 0 || replay.tail_dropped) {
    service->Checkpoint().IgnoreError(
        "startup fold is best-effort: the WAL still holds every "
        "replayed record, the next checkpoint retries");
  }
  return service;
}

TemporalQueryService::TemporalQueryService(ServiceOptions options)
    : TemporalQueryService(
          options, std::make_unique<TemporalXmlDatabase>(options.database)) {}

TemporalQueryService::TemporalQueryService(
    ServiceOptions options, std::unique_ptr<TemporalXmlDatabase> db)
    : options_(options), pool_(options.worker_threads) {
  TXML_CHECK(ValidateServiceOptions(options_).ok());
  commit_shards_.reserve(options_.commit_shards);
  for (size_t i = 0; i < options_.commit_shards; ++i) {
    commit_shards_.push_back(std::make_unique<CommitShard>(i));
  }
  if (options_.snapshot_cache_capacity > 0) {
    SnapshotCacheOptions cache_options;
    cache_options.capacity = options_.snapshot_cache_capacity;
    cache_options.shards = options_.snapshot_cache_shards;
    cache_ = std::make_unique<ShardedSnapshotCache>(cache_options);
  }
  {
    // No concurrent access is possible yet, but the database pointee is
    // commit-lock-guarded; the (uncontended) lock keeps the constructor
    // honest under the same analysis as everything else.
    WriterLock lock(commit_mu_);
    AdoptDatabase(std::move(db));
  }
  ContinueAfter(0);
}

void TemporalQueryService::AdoptDatabase(
    std::unique_ptr<TemporalXmlDatabase> db) {
  db_ = std::move(db);
  if (cache_ != nullptr) {
    db_->set_snapshot_cache(cache_.get());
    // Invalidation rides the store's observer hooks. The cache tolerates
    // missing the events before it was attached (late registration), so an
    // adopted pre-populated database is fine.
    db_->AddStoreObserver(cache_.get(), /*allow_late=*/true);
  }
}

TemporalQueryService::~TemporalQueryService() {
  // Wake any replication shipper blocked on the live tail before the
  // service goes away; the shipper's owner must have stopped it already,
  // this just guarantees no blocked ReadAfter outlives the buffer fill.
  if (tail_ != nullptr) tail_->Close();
  // Destruction order then does the rest: the pool drains pending tasks
  // while everything they touch is alive, the group-commit front end joins
  // its writer thread before the tail it pushes into dies.
}

// ---- the sharded commit path (DESIGN.md §12) ----

size_t TemporalQueryService::ShardIndexFor(std::string_view url) const {
  return std::hash<std::string_view>{}(url) % commit_shards_.size();
}

void TemporalQueryService::LockShard(size_t index) {
  CommitShard* shard = commit_shards_[index].get();
  TXML_CHECK(shard != nullptr);
  // TryLock first so `waits` counts only acquisitions that actually
  // blocked on a same-shard writer.
  if (!shard->mu.TryLock()) {
    shard->waits.fetch_add(1, std::memory_order_relaxed);
    shard->mu.Lock();
  }
  shard->acquires.fetch_add(1, std::memory_order_relaxed);
}

void TemporalQueryService::UnlockShard(size_t index) {
  commit_shards_[index]->mu.Unlock();
}

void TemporalQueryService::LockAllShards() {
  // Ascending index order — the same rule writers follow, so the sweep
  // cannot deadlock against them. Contention counters untouched: a
  // quiescence sweep is not write contention.
  for (auto& shard : commit_shards_) shard->mu.Lock();
}

void TemporalQueryService::UnlockAllShards() {
  for (auto& shard : commit_shards_) shard->mu.Unlock();
}

void TemporalQueryService::AllocateCommitRun(std::span<CommitSlot> slots) {
  std::vector<WalRecord> records;
  std::vector<GroupCommitWal::Ticket*> tickets;
  records.reserve(slots.size());
  tickets.reserve(slots.size());
  commits_in_flight_.fetch_add(slots.size(), std::memory_order_relaxed);
  MutexLock lock(ticket_mu_);
  for (CommitSlot& slot : slots) {
    slot.ticket = ++next_ticket_;
    if (slot.record.type != WalRecordType::kVacuum) {
      if (slot.explicit_ts.has_value()) {
        slot.ts = *slot.explicit_ts;
        last_alloc_ts_micros_ =
            std::max(last_alloc_ts_micros_, slot.ts.micros());
      } else {
        slot.ts = Timestamp::FromMicros(++last_alloc_ts_micros_);
      }
    }
    if (!slot.logged) continue;
    slot.record.sequence = slot.ticket;
    slot.record.ts = slot.ts;
    records.push_back(std::move(slot.record));
    tickets.push_back(&slot.wal_ticket);
  }
  // Still inside the allocator's critical section, and one queue critical
  // section for the whole run: it lands in a single drain of the
  // log-writer thread, hence shares one batch (one fsync).
  if (!records.empty()) wal_->EnqueueRun(std::move(records), tickets);
}

Status TemporalQueryService::WaitDurable(CommitSlot* slot) {
  if (!slot->logged) return Status::OK();
  Status status = wal_->Wait(&slot->wal_ticket);
  if (status.ok()) {
    wal_records_appended_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

void TemporalQueryService::BeginTurn(uint64_t first_ticket) {
  MutexLock lock(turn_mu_);
  while (next_apply_ticket_ != first_ticket) turn_cv_.Wait(turn_mu_);
}

void TemporalQueryService::FinishTurn(uint64_t last_ticket,
                                      uint64_t publish_sequence) {
  {
    MutexLock lock(turn_mu_);
    // The turn covers [old next_apply_ticket_, last_ticket]; every ticket
    // in it leaves the in-flight gauge here, whatever its outcome.
    commits_in_flight_.fetch_sub(last_ticket + 1 - next_apply_ticket_,
                                 std::memory_order_relaxed);
    next_apply_ticket_ = last_ticket + 1;
    turn_cv_.SignalAll();
  }
  // Publish only after the apply: a released read-your-writes waiter takes
  // the shared commit lock next and must observe this commit's effects.
  if (publish_sequence > 0) PublishSequence(publish_sequence);
}

StatusOr<TemporalXmlDatabase::PreparedPut>
TemporalQueryService::PrepareUnderStripe(const std::string& url,
                                         std::unique_ptr<XmlNode> tree,
                                         Timestamp ts) {
  TemporalXmlDatabase::PreparedPut put = [&] {
    ReaderLock lock(commit_mu_);
    return db_->ResolvePut(url);
  }();
  // No commit lock: the caller's stripe keeps this document still, and
  // the prepare reads nothing else (DESIGN.md §12).
  TXML_RETURN_IF_ERROR(db_->PreparePut(&put, std::move(tree), ts));
  return put;
}

StatusOr<TemporalQueryService::RunResult> TemporalQueryService::CommitRun(
    std::span<const WriteBatchItem> items) {
  const size_t n = items.size();
  RunResult result;
  result.outcomes.assign(n, Status::Internal("commit not applied"));

  // Parse every put before taking tickets: an unparseable item is refused
  // here, so no doomed record reaches the WAL or the followers. `run`
  // lists the items that go on, in order.
  std::vector<std::unique_ptr<XmlNode>> trees(n);
  std::vector<size_t> run;
  run.reserve(n);
  bool has_delete = false;
  for (size_t i = 0; i < n; ++i) {
    if (items[i].kind == WriteBatchItem::Kind::kPut) {
      StatusOr<XmlDocument> parsed = ParseXml(items[i].xml_text);
      if (!parsed.ok()) {
        result.outcomes[i] = parsed.status();
        continue;
      }
      trees[i] = parsed->ReleaseRoot();
    } else {
      has_delete = true;
    }
    run.push_back(i);
  }
  // Everything below indexes the run: item run[j] takes slot j.
  const size_t m = run.size();

  // Hold the union of the run's commit shards, ascending (the
  // deadlock-freedom rule), for the whole run.
  std::vector<size_t> shards;
  shards.reserve(m);
  for (size_t i : run) shards.push_back(ShardIndexFor(items[i].url));
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  for (size_t index : shards) LockShard(index);

  std::vector<CommitSlot> slots(m);
  for (size_t j = 0; j < m; ++j) {
    const WriteBatchItem& item = items[run[j]];
    CommitSlot& slot = slots[j];
    slot.explicit_ts = item.timestamp;
    slot.logged = wal_ != nullptr;
    if (!slot.logged) continue;
    slot.record.url = item.url;
    if (item.kind == WriteBatchItem::Kind::kDelete) {
      slot.record.type = WalRecordType::kDelete;
    } else {
      slot.record.type = WalRecordType::kPut;
      slot.record.payload = item.xml_text;
    }
  }
  // Log a delete only when the document will exist when its turn
  // applies; logging one that fails would just leave a no-op record in
  // every future replay. Tracked through the run's own earlier items,
  // since a put at item 3 resurrects the document a delete at item 5 then
  // really deletes (and must log, or replay would diverge). The
  // prediction errs toward logging: a doomed record replays as the same
  // no-op it was on the leader. The shards pin these documents (only a
  // same-shard writer could change them), so the shared side suffices —
  // and a run without deletes skips the peek, so a put takes no commit
  // lock before its ticket.
  if (has_delete && wal_ != nullptr) {
    std::unordered_map<std::string_view, bool> exists;
    ReaderLock lock(commit_mu_);
    for (size_t j = 0; j < m; ++j) {
      const WriteBatchItem& item = items[run[j]];
      auto it = exists.find(item.url);
      if (it == exists.end()) {
        const VersionedDocument* doc = db_->store().FindByUrl(item.url);
        it = exists.emplace(item.url, doc != nullptr && !doc->deleted())
                 .first;
      }
      if (item.kind == WriteBatchItem::Kind::kDelete) {
        slots[j].logged = it->second;
        it->second = false;
      } else {
        it->second = true;
      }
    }
  }
  AllocateCommitRun(slots);

  // Prepare while the log writer syncs the run. An item whose URL an
  // earlier item of the run already wrote builds on that item's result,
  // so it keeps its tree and is prepared inside the turn instead. The
  // first writes touch distinct documents, each pinned by a stripe held
  // here, so they prepare side by side on the pool (DESIGN.md §12); a run
  // of one prepares inline.
  std::vector<StatusOr<TemporalXmlDatabase::PreparedPut>> prepared;
  prepared.reserve(m);
  std::vector<size_t> first_puts;
  std::unordered_set<std::string_view> seen;
  for (size_t j = 0; j < m; ++j) {
    const WriteBatchItem& item = items[run[j]];
    const bool first_write = seen.insert(item.url).second;
    if (item.kind == WriteBatchItem::Kind::kPut && first_write) {
      first_puts.push_back(j);
    }
    prepared.push_back(Status::Internal("put not prepared"));
  }
  pool_.ForEach(first_puts.size(), [&](size_t k) {
    const size_t j = first_puts[k];
    const size_t i = run[j];
    prepared[j] =
        PrepareUnderStripe(items[i].url, std::move(trees[i]), slots[j].ts);
  });

  // One durability wait covers the run: every logged record shares a
  // single drain, so the waits resolve together (one fsync in kAlways).
  Status durable = Status::OK();
  for (CommitSlot& slot : slots) {
    Status status = WaitDurable(&slot);
    if (durable.ok() && !status.ok()) durable = status;
  }

  // A doomed run (WAL failure) skips the database apply but still
  // consumes its turn — every allocated ticket passes the turnstile
  // exactly once or all later commits deadlock behind the gap.
  if (m > 0) BeginTurn(slots.front().ticket);
  if (durable.ok()) {
    // Each item publishes in its own exclusive section, so readers may run
    // between items — they see a prefix of the run, exactly as they would
    // between N sequential Puts.
    for (size_t j = 0; j < m; ++j) {
      const size_t i = run[j];
      const WriteBatchItem& item = items[i];
      if (item.kind == WriteBatchItem::Kind::kDelete) {
        WriterLock lock(commit_mu_);
        Status deleted = db_->DeleteDocumentAt(item.url, slots[j].ts);
        if (deleted.ok()) {
          result.outcomes[i] = PutResult{.commit_ts = slots[j].ts};
        } else {
          result.outcomes[i] = std::move(deleted);
        }
        continue;
      }
      if (trees[i] != nullptr) {
        prepared[j] =
            PrepareUnderStripe(item.url, std::move(trees[i]), slots[j].ts);
      }
      if (!prepared[j].ok()) {
        result.outcomes[i] = prepared[j].status();
        continue;
      }
      WriterLock lock(commit_mu_);
      result.outcomes[i] = db_->PublishPut(std::move(*prepared[j]));
    }
    for (const CommitSlot& slot : slots) {
      if (slot.logged) result.sequence = slot.ticket;
    }
  }
  if (m > 0) FinishTurn(slots.back().ticket, result.sequence);
  for (size_t index : shards) UnlockShard(index);

  if (!durable.ok()) {
    writes_failed_.fetch_add(n, std::memory_order_relaxed);
    return durable;
  }
  result.committed =
      std::count_if(result.outcomes.begin(), result.outcomes.end(),
                    [](const StatusOr<PutResult>& o) { return o.ok(); });
  writes_committed_.fetch_add(result.committed, std::memory_order_relaxed);
  writes_failed_.fetch_add(n - result.committed, std::memory_order_relaxed);
  return result;
}

StatusOr<TemporalQueryService::PutResult> TemporalQueryService::CommitOne(
    const WriteBatchItem& item, uint64_t* sequence) {
  TXML_ASSIGN_OR_RETURN(RunResult run, CommitRun({&item, 1}));
  if (!run.outcomes[0].ok()) return run.outcomes[0].status();
  if (sequence != nullptr) *sequence = run.sequence;
  MaybeCheckpoint();
  MaybeCompactFti();
  return std::move(run.outcomes[0]);
}

// ---- the request/response API ----

StatusOr<QueryResponse> TemporalQueryService::Execute(
    const QueryRequest& request) {
  if (request.min_sequence > 0 &&
      !WaitForSequence(request.min_sequence, options_.read_wait_timeout_ms)) {
    // Typed as retriable: the routing client falls back to another
    // replica (ultimately the leader, which by construction has the
    // commit the token names).
    return Status::Unavailable(
        "replica lag: commit sequence " +
        std::to_string(request.min_sequence) + " not yet applied (at " +
        std::to_string(applied_sequence()) + ")");
  }
  QueryResponse response;
  StatusOr<XmlDocument> results = [&] {
    // Reader: shared commit lock for the whole execution, pinned to the
    // epoch of the latest commit — see the class comment.
    ReaderLock lock(commit_mu_);
    return db_->QueryAt(request.query_text, db_->latest_commit(),
                        &response.stats);
  }();
  (results.ok() ? queries_executed_ : queries_failed_)
      .fetch_add(1, std::memory_order_relaxed);
  if (results.ok()) {
    planner_scans_index_.fetch_add(response.stats.scans_index,
                                   std::memory_order_relaxed);
    planner_scans_traversal_.fetch_add(response.stats.scans_traversal,
                                       std::memory_order_relaxed);
    planner_lifetime_index_.fetch_add(response.stats.lifetime_index_lookups,
                                      std::memory_order_relaxed);
    planner_lifetime_traversal_.fetch_add(response.stats.lifetime_traversals,
                                          std::memory_order_relaxed);
    planner_fallbacks_.fetch_add(response.stats.strategy_fallbacks,
                                 std::memory_order_relaxed);
  }
  if (!results.ok()) return results.status();
  SerializeOptions serialize_options;
  serialize_options.pretty = request.pretty;
  response.payload = SerializeXml(*results->root(), serialize_options);
  response.sequence = applied_sequence();
  return response;
}

StatusOr<QueryResponse> TemporalQueryService::Execute(
    const PutRequest& request) {
  uint64_t sequence = 0;
  TXML_ASSIGN_OR_RETURN(
      PutResult result,
      CommitOne({.url = request.url,
                 .xml_text = request.xml_text,
                 .timestamp = request.timestamp},
                &sequence));
  QueryResponse response;
  response.payload = SerializeXml(*XmlNode::Element(
      "put-result", {{"url", request.url},
                     {"version", std::to_string(result.version)},
                     {"commit", result.commit_ts.ToString()}}));
  response.sequence = sequence;
  return response;
}

StatusOr<QueryResponse> TemporalQueryService::Execute(
    const WriteBatchRequest& request) {
  if (request.items.empty()) {
    return Status::InvalidArgument("write batch has no items");
  }
  if (request.items.size() > kMaxWriteBatchItems) {
    return Status::InvalidArgument(
        "write batch has " + std::to_string(request.items.size()) +
        " items (max " + std::to_string(kMaxWriteBatchItems) + ")");
  }
  TXML_ASSIGN_OR_RETURN(RunResult run, CommitRun(request.items));
  write_batches_committed_.fetch_add(1, std::memory_order_relaxed);
  const size_t n = request.items.size();
  std::unique_ptr<XmlNode> result = XmlNode::Element(
      "write-batch-result", {{"items", std::to_string(n)},
                             {"committed", std::to_string(run.committed)},
                             {"failed", std::to_string(n - run.committed)},
                             {"sequence", std::to_string(run.sequence)}});
  for (size_t i = 0; i < n; ++i) {
    const WriteBatchItem& item = request.items[i];
    const StatusOr<PutResult>& outcome = run.outcomes[i];
    const bool is_put = item.kind == WriteBatchItem::Kind::kPut;
    XmlNode* entry = result->AddChild(XmlNode::Element(
        "item", {{"url", item.url},
                 {"action", is_put ? "put" : "delete"},
                 {"status", outcome.ok() ? "ok" : "error"}}));
    if (!outcome.ok()) {
      entry->AddChild(
          XmlNode::Attribute("message", outcome.status().ToString()));
      continue;
    }
    if (is_put) {
      entry->AddChild(
          XmlNode::Attribute("version", std::to_string(outcome->version)));
    }
    entry->AddChild(
        XmlNode::Attribute("commit", outcome->commit_ts.ToString()));
  }

  QueryResponse response;
  response.payload = SerializeXml(*result);
  response.sequence = run.sequence;
  MaybeCheckpoint();
  MaybeCompactFti();
  return response;
}

StatusOr<QueryResponse> TemporalQueryService::Execute(
    const VacuumRequest& request) {
  RetentionPolicy policy;
  policy.drop_before = request.drop_before;
  policy.coarsen_older_than = request.coarsen_older_than;
  policy.keep_every = request.keep_every;
  TXML_ASSIGN_OR_RETURN(VacuumStats stats, Vacuum(policy));
  QueryResponse response;
  response.payload = SerializeXml(*XmlNode::Element(
      "vacuum-result",
      {{"documents", std::to_string(stats.documents_examined)},
       {"vacuumed", std::to_string(stats.documents_vacuumed)},
       {"versions-dropped", std::to_string(stats.versions_dropped)},
       {"snapshots-dropped", std::to_string(stats.snapshots_dropped)},
       {"deltas-merged", std::to_string(stats.deltas_merged)},
       {"bytes-before", std::to_string(stats.bytes_before)},
       {"bytes-after", std::to_string(stats.bytes_after)},
       {"reclaimed-bytes", std::to_string(stats.ReclaimedBytes())}}));
  return response;
}

StatusOr<VacuumStats> TemporalQueryService::Vacuum(
    const RetentionPolicy& policy) {
  // Validate before logging so a malformed policy never reaches the WAL.
  // Still counts as a failed write — the rejection is observable in
  // Stats() exactly as when the database itself refused the policy.
  Status valid = ValidateRetentionPolicy(policy);
  if (!valid.ok()) {
    writes_failed_.fetch_add(1, std::memory_order_relaxed);
    return valid;
  }
  LockAllShards();
  CommitSlot slot;
  slot.record.type = WalRecordType::kVacuum;
  slot.record.policy = policy;
  slot.logged = wal_ != nullptr;
  AllocateCommitRun({&slot, 1});
  Status durable = WaitDurable(&slot);
  BeginTurn(slot.ticket);
  // A doomed vacuum (WAL failure) skips the apply but still consumes its
  // turn, like a doomed commit run.
  StatusOr<VacuumStats> stats = Status::Internal("commit not applied");
  if (durable.ok()) {
    WriterLock lock(commit_mu_);
    stats = db_->Vacuum(policy);
  }
  FinishTurn(slot.ticket, durable.ok() && slot.logged ? slot.ticket : 0);
  if (!durable.ok()) {
    UnlockAllShards();
    writes_failed_.fetch_add(1, std::memory_order_relaxed);
    return durable;
  }
  if (stats.ok()) {
    vacuums_run_.fetch_add(1, std::memory_order_relaxed);
    if (wal_ != nullptr) {
      // Replaying a vacuum against a post-vacuum checkpoint is the one
      // non-idempotent case (it may coarsen further; see ApplyLogged).
      // Checkpointing immediately retires the record, shrinking that
      // window to a crash inside this very checkpoint. All shards are
      // held, so the commit path is already quiescent.
      CheckpointQuiesced().IgnoreError(
          "best-effort retirement of the vacuum record; on failure "
          "replay may re-coarsen, which only loses extra versions");
    }
  } else {
    writes_failed_.fetch_add(1, std::memory_order_relaxed);
  }
  UnlockAllShards();
  return stats;
}

StatusOr<TemporalQueryService::PutResult> TemporalQueryService::Put(
    const std::string& url, std::string_view xml_text) {
  return CommitOne({.url = url, .xml_text = std::string(xml_text)});
}

StatusOr<TemporalQueryService::PutResult> TemporalQueryService::PutAt(
    const std::string& url, std::string_view xml_text, Timestamp ts) {
  return CommitOne(
      {.url = url, .xml_text = std::string(xml_text), .timestamp = ts});
}

Status TemporalQueryService::Delete(const std::string& url) {
  return CommitOne({.kind = WriteBatchItem::Kind::kDelete, .url = url})
      .status();
}

void TemporalQueryService::PublishSequence(uint64_t sequence) const {
  MutexLock lock(seq_mu_);
  if (sequence > last_committed_sequence_.load(std::memory_order_relaxed)) {
    last_committed_sequence_.store(sequence, std::memory_order_release);
  }
  seq_cv_.SignalAll();
}

uint64_t TemporalQueryService::applied_sequence() const {
  return last_committed_sequence_.load(std::memory_order_acquire);
}

bool TemporalQueryService::WaitForSequence(uint64_t min_sequence,
                                           int64_t timeout_ms) const {
  if (applied_sequence() >= min_sequence) return true;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  MutexLock lock(seq_mu_);
  while (last_committed_sequence_.load(std::memory_order_acquire) <
         min_sequence) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return false;
    seq_cv_.WaitFor(seq_mu_, remaining.count());
  }
  return true;
}

Status TemporalQueryService::ApplyReplicated(
    std::span<const WalRecord> records) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "replication requires a durable service (no data_dir configured)");
  }
  // A replicated apply quiesces the whole commit path. Uncontended in
  // practice: followers run read-only servers, so no local writer ever
  // holds a shard.
  LockAllShards();
  // Drop the prefix already persisted and applied (the leader resent
  // after a reconnect); sequences ascend, so it is a prefix.
  const uint64_t persisted = wal_->last_sequence();
  while (!records.empty() && records.front().sequence <= persisted) {
    records = records.subspan(1);
  }
  // Persist first — an acked sequence must survive a follower crash. One
  // submission keeps the leader's sequences (gaps are legal: the leader's
  // log has them wherever a batch failed cleanly) and lands in one drain
  // with at most one fsync. It is admitted whole or not at all and then
  // logged whole or rolled back, so a failure — returned without applying
  // or publishing — leaves no record of it in the log unless the log is
  // poisoned, and the leader's resend after a reconnect is admitted again.
  std::vector<GroupCommitWal::Ticket> tickets(records.size());
  std::vector<GroupCommitWal::Ticket*> pending;
  pending.reserve(tickets.size());
  for (GroupCommitWal::Ticket& ticket : tickets) pending.push_back(&ticket);
  wal_->EnqueueRun({records.begin(), records.end()}, pending);
  Status appended = Status::OK();
  for (GroupCommitWal::Ticket* ticket : pending) {
    Status status = wal_->Wait(ticket);
    if (appended.ok() && !status.ok()) appended = status;
  }
  if (!appended.ok()) {
    UnlockAllShards();
    return appended;
  }
  wal_records_appended_.fetch_add(records.size(), std::memory_order_relaxed);
  const uint64_t applied = ApplyLogged(records);
  replicated_records_applied_.fetch_add(applied, std::memory_order_relaxed);
  replicated_records_skipped_.fetch_add(records.size() - applied,
                                        std::memory_order_relaxed);
  if (std::any_of(records.begin(), records.end(), [](const WalRecord& r) {
        return r.type == WalRecordType::kVacuum;
      })) {
    // Mirror the leader's forced checkpoint after a vacuum (see Vacuum).
    CheckpointQuiesced().IgnoreError(
        "mirrors the leader's best-effort forced checkpoint; the "
        "follower re-seeds if its log diverges");
  }
  UnlockAllShards();
  MaybeCheckpoint();
  // Followers compact on their own local threshold — compaction is a pure
  // index-layout transform, never WAL-shipped, so leader and follower may
  // fold at different times and still answer queries identically.
  MaybeCompactFti();
  return Status::OK();
}

uint64_t TemporalQueryService::ApplyLogged(
    std::span<const WalRecord> records) {
  uint64_t applied = 0;
  // Counts one record's outcome and publishes its sequence. Each record is
  // durable already: a follower's read-your-writes waiter sees it as soon
  // as it is applied, not at the batch's end.
  auto finish = [&](const WalRecord& record, const Status& status) {
    if (status.ok()) {
      ++applied;
    } else {
      TXML_LOG_WARN("skipping logged record %llu: %s",
                    static_cast<unsigned long long>(record.sequence),
                    status.ToString().c_str());
    }
    PublishSequence(record.sequence);
  };
  while (!records.empty()) {
    // A window is the longest run of puts to distinct URLs; a delete, a
    // vacuum or a repeated URL closes it. Its records touch distinct
    // documents, so none reads what another writes: they prepare side by
    // side on the pool, then publish in sequence order, exactly as one
    // record at a time would (DESIGN.md §9).
    std::unordered_set<std::string_view> urls;
    size_t width = 0;
    while (width < records.size() && width < kMaxReplayWindow &&
           records[width].type == WalRecordType::kPut &&
           urls.insert(records[width].url).second) {
      ++width;
    }
    if (width == 0) {
      const WalRecord& record = records.front();
      Status status = Status::OK();
      {
        WriterLock lock(commit_mu_);
        if (record.type == WalRecordType::kDelete) {
          const VersionedDocument* doc = db_->store().FindByUrl(record.url);
          if (doc == nullptr || !doc->deleted()) {
            status = db_->DeleteDocumentAt(record.url, record.ts);
          }
        } else {
          // Not guarded: a vacuum re-applied to an already-vacuumed
          // checkpoint may coarsen further, but never changes an answer at
          // or after the policy's horizons — and the forced checkpoint
          // after every vacuum keeps this window one record (or batch)
          // wide.
          status = db_->Vacuum(record.policy).status();
        }
      }
      finish(record, status);
      records = records.subspan(1);
      continue;
    }
    const std::span<const WalRecord> window = records.first(width);
    // Prepare beside readers (nothing else writes); only the publish takes
    // the exclusive side. A put the database already reflects prepares
    // nothing and counts as applied.
    struct LoggedPut {
      Status status = Status::OK();
      std::optional<TemporalXmlDatabase::PreparedPut> put;
    };
    std::vector<LoggedPut> prepared(width);
    pool_.ForEach(width, [&](size_t k) {
      const WalRecord& record = window[k];
      ReaderLock lock(commit_mu_);
      const VersionedDocument* doc = db_->store().FindByUrl(record.url);
      const bool reflected =
          doc != nullptr &&
          (doc->delta_index().last_timestamp() >= record.ts ||
           (doc->deleted() && doc->delete_time() >= record.ts));
      if (reflected) return;
      StatusOr<XmlDocument> parsed = ParseXml(record.payload);
      if (!parsed.ok()) {
        prepared[k].status = parsed.status();
        return;
      }
      TemporalXmlDatabase::PreparedPut put = db_->ResolvePut(record.url);
      prepared[k].status =
          db_->PreparePut(&put, parsed->ReleaseRoot(), record.ts);
      if (prepared[k].status.ok()) prepared[k].put = std::move(put);
    });
    for (size_t k = 0; k < width; ++k) {
      if (prepared[k].put.has_value()) {
        WriterLock lock(commit_mu_);
        db_->PublishPut(std::move(*prepared[k].put));
      }
      finish(window[k], prepared[k].status);
    }
    records = records.subspan(width);
  }
  ContinueAfter(wal_->last_sequence());
  return applied;
}

void TemporalQueryService::ContinueAfter(uint64_t sequence) {
  const int64_t latest_micros = [&] {
    ReaderLock lock(commit_mu_);
    return db_->latest_commit().micros();
  }();
  {
    MutexLock lock(ticket_mu_);
    next_ticket_ = std::max(next_ticket_, sequence);
    last_alloc_ts_micros_ = std::max(last_alloc_ts_micros_, latest_micros);
  }
  {
    MutexLock lock(turn_mu_);
    next_apply_ticket_ = std::max(next_apply_ticket_, sequence + 1);
    turn_cv_.SignalAll();
  }
  // Sequences the live tail never carried (a recovered or installed
  // prefix) are served from disk only.
  if (tail_ != nullptr && tail_->last_sequence() < sequence) {
    tail_->SetFloor(sequence);
  }
  PublishSequence(sequence);
}

Status TemporalQueryService::Checkpoint() {
  LockAllShards();
  Status status = CheckpointQuiesced();
  UnlockAllShards();
  return status;
}

Status TemporalQueryService::CheckpointQuiesced() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "service has no durability data_dir to checkpoint into");
  }
  // Quiescent (all shards held): no ticket is in flight, so everything
  // allocated is applied and the group-commit queue is drained — the log's
  // last sequence is exactly the state the save below captures.
  const uint64_t covered = wal_->last_sequence();
  Status status = [&]() -> Status {
    // Order matters: database files first, the stamp last (the stamp is
    // the commit point of the checkpoint), log truncation after that. A
    // crash between any two steps recovers correctly — see ApplyLogged
    // for the new-files/old-stamp window, and the Open() sequence floor
    // for the new-stamp/old-log window.
    {
      // Shared side: every stripe is held, so no writer can run, and
      // readers keep going while the database encodes.
      ReaderLock lock(commit_mu_);
      TXML_RETURN_IF_ERROR(db_->Save(data_dir_));
    }
    TXML_RETURN_IF_ERROR(WriteCheckpointStamp(data_dir_, covered));
    return wal_->Reset(covered);
  }();
  (status.ok() ? checkpoints_completed_ : checkpoints_failed_)
      .fetch_add(1, std::memory_order_relaxed);
  if (status.ok()) {
    last_checkpoint_sequence_.store(covered, std::memory_order_relaxed);
  }
  return status;
}

StatusOr<TemporalQueryService::CheckpointImage>
TemporalQueryService::ExportCheckpoint() {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "service has no durability data_dir to export a checkpoint from");
  }
  LockAllShards();
  auto result = [&]() -> StatusOr<CheckpointImage> {
    // Serve the newest checkpoint that already exists on disk; cut a
    // fresh one only when the directory has never been checkpointed
    // (then the WAL still holds full history and the image is merely a
    // faster transfer than replaying it).
    auto stamp = ReadCheckpointStamp(data_dir_);
    if (!stamp.ok() || !FileExists(data_dir_ + "/store.txml")) {
      TXML_RETURN_IF_ERROR(CheckpointQuiesced());
      stamp = ReadCheckpointStamp(data_dir_);
      if (!stamp.ok()) return stamp.status();
    }
    CheckpointImage image;
    image.covered_sequence = *stamp;
    // Everything in the directory except the live log (a follower resets
    // its own) and write-temp leftovers is part of the checkpoint —
    // store, indexes, stamp. Sorted for a deterministic archive, with
    // the stamp moved last so installation order == commit order.
    std::vector<std::string> names;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(data_dir_, ec)) {
      if (!entry.is_regular_file()) continue;
      std::string name = entry.path().filename().string();
      if (name == kWalFileName || name == kCheckpointStampFileName) continue;
      if (name.size() >= 4 && name.ends_with(".tmp")) continue;
      names.push_back(std::move(name));
    }
    if (ec) {
      return Status::IoError("listing checkpoint dir '" + data_dir_ +
                             "': " + ec.message());
    }
    std::sort(names.begin(), names.end());
    names.push_back(kCheckpointStampFileName);
    for (const std::string& name : names) {
      auto contents = ReadFileToString(data_dir_ + "/" + name);
      if (!contents.ok()) return contents.status();
      image.files.emplace_back(name, std::move(*contents));
    }
    return image;
  }();
  UnlockAllShards();
  return result;
}

Status TemporalQueryService::InstallCheckpoint(const CheckpointImage& image) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "service has no durability data_dir to install a checkpoint into");
  }
  bool has_store = false;
  for (const auto& [name, contents] : image.files) {
    // The names came over the wire: they must stay inside data_dir and
    // must not smash the local log (the WAL is reset separately, to the
    // covered sequence, after the image commits).
    if (name.empty() || name.find('/') != std::string::npos ||
        name.find("..") != std::string::npos) {
      return Status::InvalidArgument("checkpoint image file name '" + name +
                                     "' is not a plain file name");
    }
    if (name == kWalFileName) {
      return Status::InvalidArgument(
          "checkpoint image must not carry a write-ahead log");
    }
    has_store |= name == "store.txml";
  }
  if (!has_store) {
    return Status::InvalidArgument("checkpoint image has no store.txml");
  }
  LockAllShards();
  Status status = [&]() -> Status {
    if (image.covered_sequence <= wal_->last_sequence()) {
      return Status::OutOfRange(
          "checkpoint covers sequence " +
          std::to_string(image.covered_sequence) +
          ", not past the locally applied " +
          std::to_string(wal_->last_sequence()));
    }
    // 1. Data files first, each atomically (write-temp/fsync/rename).
    //    The stamp is NOT written yet: until it is, a crash recovers via
    //    the old stamp — at worst to a state below the leader's floor,
    //    which the next re-seed attempt replaces.
    for (const auto& [name, contents] : image.files) {
      if (name == kCheckpointStampFileName) continue;
      TXML_RETURN_IF_ERROR(
          WriteStringToFile(data_dir_ + "/" + name, contents));
    }
    // 2. Prove the image opens before committing to it.
    auto reopened = TemporalXmlDatabase::Open(data_dir_, options_.database);
    if (!reopened.ok()) return reopened.status();
    // 3. The stamp is the commit point (verbatim from the image when it
    //    carried one — same bytes WriteCheckpointStamp would produce).
    Status stamped = Status::OK();
    bool stamp_from_image = false;
    for (const auto& [name, contents] : image.files) {
      if (name == kCheckpointStampFileName) {
        stamped = WriteStringToFile(data_dir_ + "/" + name, contents);
        stamp_from_image = true;
      }
    }
    if (!stamp_from_image) {
      stamped = WriteCheckpointStamp(data_dir_, image.covered_sequence);
    }
    TXML_RETURN_IF_ERROR(stamped);
    // 4. Swap the live database; the snapshot cache starts cold (its
    //    entries describe the replaced history).
    {
      WriterLock lock(commit_mu_);
      AdoptDatabase(std::move(*reopened));
      if (cache_ != nullptr) cache_->Clear();
    }
    // 5. Continue the leader's sequence space from the covered floor:
    //    fresh log, tail floor, allocator and turnstile all agree the
    //    next record is covered_sequence + 1.
    TXML_RETURN_IF_ERROR(wal_->Reset(image.covered_sequence));
    ContinueAfter(image.covered_sequence);
    last_checkpoint_sequence_.store(image.covered_sequence,
                                    std::memory_order_relaxed);
    return Status::OK();
  }();
  UnlockAllShards();
  if (status.ok()) {
    uint64_t bytes = 0;
    for (const auto& [name, contents] : image.files) bytes += contents.size();
    reseeds_.fetch_add(1, std::memory_order_relaxed);
    reseed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  return status;
}

void TemporalQueryService::MaybeCheckpoint() {
  if (wal_ == nullptr) return;
  const DurabilityOptions& durability = options_.durability;
  bool over_bytes = durability.checkpoint_log_bytes > 0 &&
                    wal_->file_bytes() >= durability.checkpoint_log_bytes;
  bool over_records =
      durability.checkpoint_log_records > 0 &&
      wal_->record_count() >= durability.checkpoint_log_records;
  if (!over_bytes && !over_records) return;
  // One committer runs the checkpoint; concurrent triggers yield (the log
  // only shrinks when it completes, so the next commit re-triggers on
  // failure). Best-effort, as the single-lock trigger always was.
  bool expected = false;
  if (!checkpoint_running_.compare_exchange_strong(expected, true)) return;
  Checkpoint().IgnoreError(
      "best-effort trigger: the log only shrinks on success, so the "
      "next commit re-fires the threshold");
  checkpoint_running_.store(false, std::memory_order_release);
}

void TemporalQueryService::MaybeCompactFti() {
  const size_t threshold = options_.fti_compact_min_postings;
  if (threshold == 0) return;
  {
    // Cheap peek: the differential gauge is plain state behind the commit
    // lock, so read it under the shared side.
    ReaderLock lock(commit_mu_);
    if (db_->fti().differential_posting_count() < threshold) return;
  }
  // One committer runs the fold; concurrent triggers yield (the
  // differential only shrinks when the fold lands, so the next commit
  // re-triggers if this one loses a race).
  bool expected = false;
  if (!fti_compact_running_.compare_exchange_strong(expected, true)) return;
  // Full quiescence, same as a checkpoint: every shard (no ticket in
  // flight) plus the exclusive commit lock (no reader holds posting
  // pointers across the fold).
  LockAllShards();
  {
    WriterLock lock(commit_mu_);
    db_->CompactFti();
  }
  UnlockAllShards();
  fti_compact_running_.store(false, std::memory_order_release);
}

StatusOr<XmlDocument> TemporalQueryService::Snapshot(const std::string& url,
                                                     Timestamp t) {
  ReaderLock lock(commit_mu_);
  return db_->Snapshot(url, t);
}

Timestamp TemporalQueryService::Epoch() const {
  ReaderLock lock(commit_mu_);
  return db_->latest_commit();
}

ServiceStats TemporalQueryService::Stats() const {
  ServiceStats stats;
  stats.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  stats.queries_failed = queries_failed_.load(std::memory_order_relaxed);
  stats.writes_committed = writes_committed_.load(std::memory_order_relaxed);
  stats.writes_failed = writes_failed_.load(std::memory_order_relaxed);
  stats.write_batches_committed =
      write_batches_committed_.load(std::memory_order_relaxed);
  stats.vacuums_run = vacuums_run_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) stats.snapshot_cache = cache_->Stats();
  stats.durability.wal_records_appended =
      wal_records_appended_.load(std::memory_order_relaxed);
  stats.durability.checkpoints_completed =
      checkpoints_completed_.load(std::memory_order_relaxed);
  stats.durability.checkpoints_failed =
      checkpoints_failed_.load(std::memory_order_relaxed);
  stats.durability.recovered_records = recovered_records_;
  stats.durability.recovery_tail_dropped = recovery_tail_dropped_;
  stats.commit_path.shards.reserve(commit_shards_.size());
  for (const auto& shard : commit_shards_) {
    CommitShardStats shard_stats;
    shard_stats.acquires = shard->acquires.load(std::memory_order_relaxed);
    shard_stats.waits = shard->waits.load(std::memory_order_relaxed);
    stats.commit_path.shards.push_back(shard_stats);
  }
  if (wal_ != nullptr) {
    // All lock-free: the group front end mirrors its gauges into atomics
    // precisely so Stats() never queues behind the commit path.
    stats.durability.wal_last_sequence = wal_->last_sequence();
    stats.durability.wal_bytes = wal_->file_bytes();
    static_cast<GroupCommitStats&>(stats.commit_path) = wal_->Stats();
  }
  stats.replication.last_committed_sequence = applied_sequence();
  stats.replication.last_checkpoint_sequence =
      last_checkpoint_sequence_.load(std::memory_order_relaxed);
  stats.replication.replicated_records_applied =
      replicated_records_applied_.load(std::memory_order_relaxed);
  stats.replication.replicated_records_skipped =
      replicated_records_skipped_.load(std::memory_order_relaxed);
  stats.replication.reseeds = reseeds_.load(std::memory_order_relaxed);
  stats.replication.reseed_bytes =
      reseed_bytes_.load(std::memory_order_relaxed);
  stats.planner.scans_index =
      planner_scans_index_.load(std::memory_order_relaxed);
  stats.planner.scans_traversal =
      planner_scans_traversal_.load(std::memory_order_relaxed);
  stats.planner.lifetime_index_lookups =
      planner_lifetime_index_.load(std::memory_order_relaxed);
  stats.planner.lifetime_traversals =
      planner_lifetime_traversal_.load(std::memory_order_relaxed);
  stats.planner.strategy_fallbacks =
      planner_fallbacks_.load(std::memory_order_relaxed);
  {
    // The index gauges are plain state behind the commit lock; a brief
    // shared acquisition keeps Stats() consistent with in-flight folds.
    ReaderLock lock(commit_mu_);
    const TemporalFullTextIndex& fti = db_->fti();
    stats.fti.main_postings = fti.main_posting_count();
    stats.fti.differential_postings = fti.differential_posting_count();
    stats.fti.compactions = fti.compaction_count();
  }
  return stats;
}

}  // namespace txml
