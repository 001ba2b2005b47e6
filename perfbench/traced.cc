// The traced run: replays a fixed sample of a workload's requests and, for
// each one, times a call into every layer's public entry point.
//
//   net.*            TxmlClient::Execute against the loopback server (S)
//   service.*        TemporalQueryService::Execute on a twin service (T)
//   core.query_at    TemporalXmlDatabase::QueryAt on a twin database (D)
//   lang/query/index/storage/diff/xml
//                    the operators under QueryAt and the put path, on D
//                    with no cache and on shadow logs
//
// S, T and D hold the same data (same seed, same set-up order) and see the
// same request sequence, so T's and D's snapshot caches are in the state
// S's cache was in for the same request — an inner replay is never served
// from an entry the outer call just filled. Put-path calls that change
// state run on shadow copies fed the same inputs.

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include "perfbench/bench.h"
#include "perfbench/trace.h"
#include "src/core/database.h"
#include "src/diff/diff.h"
#include "src/lang/executor.h"
#include "src/lang/parser.h"
#include "src/query/history_ops.h"
#include "src/query/scan.h"
#include "src/query/time_ops.h"
#include "src/service/snapshot_cache.h"
#include "src/storage/wal.h"
#include "src/xml/parser.h"

namespace perfbench {

using txml::QueryRequest;
using txml::TemporalQueryService;
using txml::TemporalXmlDatabase;

namespace {

/// The twin database with its own snapshot cache, folding its FTI
/// differential at the same threshold as the service.
struct TwinDatabase {
  TwinDatabase() {
    const txml::ServiceOptions defaults;
    cache = std::make_unique<txml::ShardedSnapshotCache>(
        txml::SnapshotCacheOptions{defaults.snapshot_cache_capacity,
                                   defaults.snapshot_cache_shards});
    fold_at = defaults.fti_compact_min_postings;
    db.set_snapshot_cache(cache.get());
    db.AddStoreObserver(cache.get(), /*allow_late=*/true);
  }
  /// True when a fold is due (the service checks after each commit).
  bool FoldDue() const {
    return fold_at > 0 && db.fti().differential_posting_count() >= fold_at;
  }

  TemporalXmlDatabase db;
  std::unique_ptr<txml::ShardedSnapshotCache> cache;
  size_t fold_at = 0;
};

/// The placeholder of a result slot filled inside a timed span.
txml::Status NotRun() { return txml::Status::Internal("not run"); }

/// What EXPLAIN says about one FROM item.
struct ExplainedItem {
  std::string pattern;
  bool materialize = false;
};

std::vector<ExplainedItem> ParseExplain(const std::string& plan) {
  std::vector<ExplainedItem> items;
  size_t pos = 0;
  while ((pos = plan.find(" pattern=", pos)) != std::string::npos) {
    const size_t start = pos + 9;
    size_t end = plan.find(" doc=\"", start);
    end = std::min(end, plan.find(" collection=\"", start));
    const size_t eol = plan.find('\n', start);
    ExplainedItem item;
    item.pattern = plan.substr(start, end - start);
    item.materialize =
        plan.substr(start, eol - start).find("materialize=yes") !=
        std::string::npos;
    items.push_back(std::move(item));
    pos = eol;
  }
  return items;
}

/// Per-layer counters accumulated over the replayed sample.
struct Counters {
  uint64_t queries = 0;  // replayed (traced + untraced)
  uint64_t traced_queries = 0;
  uint64_t traced_puts = 0;
  uint64_t response_bytes = 0;
  uint64_t rows_considered = 0;
  uint64_t rows_emitted = 0;
  uint64_t reconstructions = 0;
  uint64_t postings = 0;
  uint64_t deltas_applied = 0;
  uint64_t put_bytes = 0;
  uint64_t mismatches = 0;
  /// Wire round trips by request kind, untraced and traced.
  std::map<std::string, std::vector<double>> untraced_us;
  std::map<std::string, std::vector<double>> traced_us;
};

/// Tracing overhead: per request kind, the median traced round trip minus
/// the median untraced one, weighted by the kind's traced count.
double TracingOverhead(const Counters& n) {
  double weighted = 0;
  double count = 0;
  for (const auto& [kind, traced] : n.traced_us) {
    auto untraced = n.untraced_us.find(kind);
    if (untraced == n.untraced_us.end() || untraced->second.empty()) continue;
    weighted += static_cast<double>(traced.size()) *
                (Median(traced) - Median(untraced->second));
    count += static_cast<double>(traced.size());
  }
  return count == 0 ? 0 : weighted / count;
}

class Replayer {
 public:
  Replayer(const Inputs& inputs, uint16_t port, TemporalQueryService* twin,
           TwinDatabase* db, txml::WriteAheadLog* shadow_wal)
      : inputs_(inputs),
        client_(ConnectOrDie(port)),
        twin_(twin),
        twin_db_(db),
        shadow_wal_(shadow_wal) {}

  /// Runs one query on S, T and D; with `traced`, times every layer.
  void Query(const QuerySpec& q, bool traced) {
    const uint64_t id = next_id_++;
    QueryRequest request;
    request.query_text = q.text;
    txml::StatusOr<txml::QueryResponse> wire = NotRun();
    txml::StatusOr<txml::QueryResponse> twin = NotRun();
    txml::StatusOr<txml::XmlDocument> result = NotRun();
    txml::ExecStats stats;
    std::string serialized;
    ++counters_.queries;
    if (!traced) {
      const int64_t t0 = NowNanos();
      wire = client_.Execute(request);
      counters_.untraced_us[KindName(q.kind)].push_back(
          static_cast<double>(NowNanos() - t0) / 1e3);
      twin = twin_->Execute(request);
      result = twin_db_->db.QueryAt(q.text, twin_db_->db.latest_commit(),
                                    &stats);
      if (result.ok()) serialized = SerializeResult(*result);
    } else {
      ++counters_.traced_queries;
      const int net = rec_.Record("net", -1, id,
                                  [&] { wire = client_.Execute(request); });
      counters_.traced_us[KindName(q.kind)].push_back(
          rec_.spans()[static_cast<size_t>(net)].micros());
      const int svc = rec_.Record("service.execute", net, id,
                                  [&] { twin = twin_->Execute(request); });
      const int core = rec_.Record("core.query_at", svc, id, [&] {
        result = twin_db_->db.QueryAt(q.text, twin_db_->db.latest_commit(),
                                      &stats);
      });
      if (result.ok()) {
        rec_.Record("xml.serialize", svc, id,
                    [&] { serialized = SerializeResult(*result); });
        Operators(q, id, core, stats);
      }
    }
    if (!wire.ok() || !twin.ok() || !result.ok()) {
      Die("traced run: query failed: " + q.text);
    }
    // The three instances must agree byte for byte.
    if (wire->payload != twin->payload || wire->payload != serialized) {
      ++counters_.mismatches;
      std::fprintf(stderr, "perfbench: twins disagree on %s\n",
                   q.text.c_str());
    }
    counters_.response_bytes += wire->payload.size();
    counters_.rows_considered += wire->stats.rows_considered;
    counters_.rows_emitted += wire->stats.rows_emitted;
      counters_.reconstructions += wire->stats.snapshot_reconstructions;
  }

  /// Puts version `v` of inputs.next[d] on S, T and D; with `traced`,
  /// times the put path's layers on shadow copies.
  void Put(size_t d, size_t v, bool traced) {
    const uint64_t id = next_id_++;
    const DocumentHistory& next = inputs_.next[d];
    txml::PutRequest put;
    put.url = next.url;
    put.xml_text = next.xml[v];
    put.timestamp = next.ts[v];
    txml::StatusOr<txml::QueryResponse> wire = NotRun();
    txml::StatusOr<txml::QueryResponse> twin = NotRun();
    if (!traced) {
      const int64_t t0 = NowNanos();
      wire = client_.Execute(put);
      counters_.untraced_us["put"].push_back(
          static_cast<double>(NowNanos() - t0) / 1e3);
      twin = twin_->Execute(put);
    } else {
      ++counters_.traced_puts;
      const int net =
          rec_.Record("net.put", -1, id, [&] { wire = client_.Execute(put); });
      counters_.traced_us["put"].push_back(
          rec_.spans()[static_cast<size_t>(net)].micros());
      const int svc = rec_.Record("service.put", net, id,
                                  [&] { twin = twin_->Execute(put); });
      txml::StatusOr<txml::XmlDocument> parsed = NotRun();
      rec_.Record("xml.parse", svc, id,
                  [&] { parsed = txml::ParseXml(put.xml_text); });
      if (!parsed.ok()) Die("traced run: put does not parse");
      const txml::VersionedDocument* doc =
          twin_db_->db.store().FindByUrl(put.url);
      txml::XidAllocator xids(doc->next_xid());
      txml::StatusOr<txml::DiffResult> diff = NotRun();
      rec_.Record("diff.diff_trees", svc, id, [&] {
        diff = txml::DiffTrees(*doc->current(), parsed->root(), &xids,
                               *put.timestamp);
      });
      if (!diff.ok()) Die("traced run: diff failed");
      txml::WalRecord record;
      record.ts = *put.timestamp;
      record.url = put.url;
      record.payload = put.xml_text;
      txml::StatusOr<uint64_t> appended = NotRun();
      rec_.Record("storage.wal_sync", svc, id,
                  [&] { appended = shadow_wal_->Append(record); });
      if (!appended.ok()) Die("traced run: shadow WAL append failed");
    }
    if (!wire.ok() || !twin.ok()) Die("traced run: put failed");
    auto stored = twin_db_->db.PutDocumentAt(put.url, put.xml_text,
                                             *put.timestamp);
    if (!stored.ok()) Die("traced run: twin put failed");
    counters_.put_bytes += put.xml_text.size();
    if (twin_db_->FoldDue()) {
      rec_.Record("index.fold", -1, id, [&] { twin_db_->db.CompactFti(); });
    }
  }

  /// Checkpoints the shadow service once (timed).
  void Checkpoint() {
    txml::Status status = NotRun();
    rec_.Record("storage.checkpoint", -1, next_id_++,
                [&] { status = twin_->Checkpoint(); });
    if (!status.ok()) Die("traced run: shadow checkpoint failed");
  }

  const SpanRecorder& recorder() const { return rec_; }
  const Counters& counters() const { return counters_; }

 private:
  /// The operators under QueryAt, replayed on D with no cache.
  void Operators(const QuerySpec& q, uint64_t id, int core,
                 const txml::ExecStats& stats) {
    txml::QueryContext ctx = twin_db_->db.Context();
    ctx.snapshot_cache = nullptr;
    txml::ExecOptions options;
    options.now = twin_db_->db.latest_commit();

    txml::StatusOr<std::string> plan = std::string();
    const int explain = rec_.Record("query.explain", core, id, [&] {
      plan = txml::QueryExecutor(ctx, options).Explain(q.text);
    });
    rec_.Record("lang.parse", explain, id,
                [&] { (void)txml::ParseQuery(q.text).ok(); });
    if (!plan.ok()) Die("traced run: EXPLAIN failed: " + q.text);
    const std::vector<ExplainedItem> items = ParseExplain(*plan);
    const txml::Pattern pattern = q.ScanPattern();
    if (items.size() != q.from.size()) Die("traced run: EXPLAIN items differ");

    size_t reconstructions_left = stats.snapshot_reconstructions;
    for (size_t i = 0; i < q.from.size(); ++i) {
      const QuerySpec::From& from = q.from[i];
      if (items[i].pattern != pattern.ToString()) {
        Die("traced run: pattern " + pattern.ToString() +
            " differs from EXPLAIN's " + items[i].pattern);
      }
      std::vector<const txml::VersionedDocument*> docs;
      for (const txml::VersionedDocument* doc :
           twin_db_->db.store().AllDocuments()) {
        if (from.collection ? doc->url().starts_with(from.url)
                            : doc->url() == from.url) {
          docs.push_back(doc);
        }
      }
      for (const txml::PatternNode* node : pattern.NodesPreorder()) {
        counters_.postings += twin_db_->db.fti().PostingCountFor(
            node->test == txml::PatternNode::Test::kWord
                ? txml::TermKind::kWord
                : txml::TermKind::kElementName,
            node->term);
      }

      // Both scan arms; only the arm the planner chose is a child of
      // core.query_at (the other is timed for comparison only). The index
      // arm always runs: CREATE TIME replays over its rows. An [EVERY]
      // traversal the planner did not choose is skipped — it materializes
      // every version, hundreds of times the chosen arm's cost.
      using Mode = QuerySpec::From::Mode;
      txml::StatusOr<std::vector<txml::ScanMatch>> index_rows = NotRun();
      txml::StatusOr<std::vector<txml::ScanMatch>> traversal_rows =
          std::vector<txml::ScanMatch>();
      rec_.Record("query.scan_index", stats.scans_index > 0 ? core : -1, id,
                  [&] {
                    index_rows =
                        from.mode == Mode::kCurrent
                            ? txml::PatternScanCurrent(ctx, pattern)
                        : from.mode == Mode::kSnapshot
                            ? txml::TPatternScan(ctx, pattern, from.time)
                            : txml::TPatternScanAll(ctx, pattern);
                  });
      if (stats.scans_traversal > 0 || from.mode != Mode::kEvery) {
        rec_.Record(
            "query.scan_traversal", stats.scans_traversal > 0 ? core : -1, id,
            [&] {
              traversal_rows =
                  from.mode == Mode::kCurrent
                      ? txml::PatternScanCurrentTraversal(ctx, pattern, docs)
                  : from.mode == Mode::kSnapshot
                      ? txml::TPatternScanTraversal(ctx, pattern, from.time,
                                                    docs)
                      : txml::TPatternScanAllTraversal(ctx, pattern, docs);
            });
      }
      if (!index_rows.ok() || !traversal_rows.ok()) {
        Die("traced run: scan failed: " + q.text);
      }

      if (from.mode == Mode::kEvery && items[i].materialize) {
        for (const txml::VersionedDocument* doc : docs) {
          rec_.Record("query.history_walk", core, id, [&] {
            txml::Status walked = txml::WalkDocumentVersionsBackward(
                *doc, txml::Timestamp::NegInfinity(),
                txml::Timestamp::Infinity(),
                [](txml::VersionNum, const txml::TimeInterval&,
                   const txml::XmlNode&) {});
            if (!walked.ok()) Die("traced run: history walk failed");
          });
        }
      }
      if (q.create_time) {
        rec_.Record("query.lifetime", core, id, [&] {
          for (const txml::ScanMatch& row : *index_rows) {
            auto created = txml::CreTime(ctx, row.ProjectedTeid(pattern),
                                         txml::LifetimeStrategy::kAuto);
            if (!created.ok()) Die("traced run: CreTime failed");
          }
        });
      }
      // Every version a materialized snapshot item resolves to is
      // reconstructed; the span is a child of core.query_at only where the
      // query itself reconstructed (a snapshot-cache miss).
      if (from.mode == Mode::kSnapshot && items[i].materialize &&
          docs.size() == 1) {
        const bool missed = reconstructions_left > 0;
        if (missed) --reconstructions_left;
        txml::VersionedDocument::ReconstructStats rstats;
        rec_.Record("storage.reconstruct", missed ? core : -1, id, [&] {
          if (!docs[0]->ReconstructAt(from.time, &rstats).ok()) {
            Die("traced run: reconstruction failed");
          }
        });
        counters_.deltas_applied += rstats.deltas_applied;
      }
    }
  }

  const Inputs& inputs_;
  txml::TxmlClient client_;
  TemporalQueryService* twin_;
  TwinDatabase* twin_db_;
  txml::WriteAheadLog* shadow_wal_;
  SpanRecorder rec_;
  Counters counters_;
  uint64_t next_id_ = 0;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void RunTraced(const Args& args, const Inputs& inputs, Result* result) {
  const Sizes& sizes = inputs.sizes;
  const bool ingest = !inputs.next.empty();
  const size_t connections = sizes.read_connections + sizes.write_connections;

  // S: the served instance, loaded over the wire as in the timed runs.
  auto instance =
      Instance::Start(sizes, ingest ? args.work_dir + "/data-traced" : "");
  LoadOverWire(inputs, instance->port(), connections);
  TemporalQueryService* served = instance->service();

  // T and D: twins loaded in-process with the same batches in the same
  // per-document order.
  auto twin = TemporalQueryService::Create(
      ServiceOptionsFor(sizes, ingest ? args.work_dir + "/twin" : ""));
  if (!twin.ok()) Die("twin service: " + twin.status().ToString());
  TwinDatabase twin_db;
  for (size_t c = 0; c < connections; ++c) {
    for (const txml::WriteBatchRequest& batch :
         LoadBatches(inputs, c, connections)) {
      if (!BatchCommitted((*twin)->Execute(batch))) {
        Die("twin service load failed");
      }
    }
  }
  for (size_t v = 0; v < sizes.versions; ++v) {
    for (const DocumentHistory& doc : inputs.documents) {
      if (!twin_db.db.PutDocumentAt(doc.url, doc.xml[v], doc.ts[v]).ok()) {
        Die("twin database load failed");
      }
      if (twin_db.FoldDue()) twin_db.db.CompactFti();
    }
  }
  std::unique_ptr<txml::WriteAheadLog> shadow_wal;
  if (ingest) {
    std::filesystem::create_directories(args.work_dir + "/shadow-wal");
    auto wal = txml::WriteAheadLog::Open(args.work_dir + "/shadow-wal/wal.txml",
                                         txml::WalOptions{});
    if (!wal.ok()) Die("shadow WAL: " + wal.status().ToString());
    shadow_wal = std::move(wal.value());
  }

  Replayer replay(inputs, instance->port(), twin->get(), &twin_db,
                  shadow_wal.get());
  const size_t readers = inputs.queries.size();
  auto query_at = [&](size_t k) -> const QuerySpec& {
    const auto& list = inputs.queries[k % readers];
    return list[(sizes.warmup_per_connection + k / readers) % list.size()];
  };
  // Warm-up, sequential so that the three caches evolve identically.
  for (size_t i = 0; i < sizes.warmup_per_connection; ++i) {
    for (size_t c = 0; c < readers; ++c) {
      const auto& list = inputs.queries[c];
      replay.Query(list[i % list.size()], /*traced=*/false);
    }
  }
  const txml::ServiceStats before = served->Stats();

  // The sample: reads, and for ingest puts interleaved with them
  // (documents round-robin). Every second request of each type is traced;
  // the others give the untraced latency the overhead is measured against.
  std::vector<size_t> first_put(inputs.next.size(), 0);
  const size_t total = sizes.trace_queries + sizes.trace_puts;
  const size_t checkpoint_every = std::max<size_t>(1, sizes.trace_puts / 3);
  size_t queries = 0;
  size_t puts = 0;
  for (size_t k = 0; k < total; ++k) {
    const bool read = puts == sizes.trace_puts ||
                      (queries < sizes.trace_queries &&
                       queries * total <= k * sizes.trace_queries);
    if (read) {
      replay.Query(query_at(queries), queries % 2 == 1);
      ++queries;
    } else {
      const size_t d = puts % inputs.next.size();
      replay.Put(d, first_put[d]++, puts % 2 == 1);
      ++puts;
      if (puts % checkpoint_every == 0) replay.Checkpoint();
    }
  }
  txml::ServiceStats after = served->Stats();

  // ingest: the closed loop then runs untraced for the run's duration, so
  // the commit-path counters (group commit, stripes, folds, checkpoints)
  // come from the workload's real concurrency.
  uint64_t acked_bytes = inputs.SetupXmlBytes() + replay.counters().put_bytes;
  if (ingest) {
    LoopOutcome loop =
        ClosedLoop(inputs, instance->port(), args.seconds, first_put);
    if (loop.query_failed + loop.put_failed > 0) {
      Die("traced run: closed loop requests failed");
    }
    acked_bytes += loop.put_bytes;
    after = served->Stats();
  }
  instance->Shutdown();

  if (!args.trace_out.empty() &&
      !replay.recorder().WriteJsonLines(args.trace_out)) {
    result->notes.push_back("could not write spans to " + args.trace_out);
  }

  const Counters& n = replay.counters();
  const auto layers = ReduceSpans(replay.recorder().spans());
  auto total_us = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.total_us;
  };
  auto self_us = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_us;
  };
  auto calls = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  const double tq = static_cast<double>(n.traced_queries);
  const double tp = static_cast<double>(n.traced_puts);
  uint64_t waits = 0;
  uint64_t acquires = 0;
  for (const auto& shard : after.commit_path.shards) {
    waits += shard.waits;
    acquires += shard.acquires;
  }
  const double hits = static_cast<double>(after.snapshot_cache.hits -
                                          before.snapshot_cache.hits);
  const double lookups =
      hits + static_cast<double>(after.snapshot_cache.misses -
                                 before.snapshot_cache.misses);

  std::vector<Metric>& m = result->metrics;
  const auto& spans = replay.recorder().spans();
  m.push_back({"net.self_us", Median(SelfTimes(spans, "net")), "us"});
  m.push_back({"net.response_bytes",
               Ratio(static_cast<double>(n.response_bytes),
                     static_cast<double>(n.queries)),
               "bytes"});
  m.push_back({"service.execute_us", Ratio(total_us("service.execute"), tq),
               "us"});
  m.push_back({"service.self_us", Median(SelfTimes(spans, "service.execute")),
               "us"});
  m.push_back({"service.cache_hit_ratio", Ratio(hits, lookups), "ratio"});
  m.push_back({"service.cache_lookups", lookups, "count"});
  m.push_back({"service.records_per_sync",
               Ratio(static_cast<double>(after.commit_path.records_written),
                     static_cast<double>(after.commit_path.syncs)),
               "ratio"});
  m.push_back({"service.stripe_wait_ratio",
               Ratio(static_cast<double>(waits), static_cast<double>(acquires)),
               "ratio"});
  m.push_back({"service.put_self_us", Median(SelfTimes(spans, "service.put")),
               "us"});
  m.push_back({"core.query_at_us", Ratio(total_us("core.query_at"), tq), "us"});
  m.push_back({"lang.parse_us", Ratio(total_us("lang.parse"), tq), "us"});
  m.push_back({"query.plan_us", Ratio(self_us("query.explain"), tq), "us"});
  const double scans_index = static_cast<double>(after.planner.scans_index -
                                                 before.planner.scans_index);
  const double scans = scans_index +
                       static_cast<double>(after.planner.scans_traversal -
                                           before.planner.scans_traversal);
  m.push_back({"query.index_arm_ratio", Ratio(scans_index, scans), "ratio"});
  m.push_back({"query.scans", scans, "count"});
  m.push_back({"query.scan_index_us", Ratio(total_us("query.scan_index"), tq),
               "us"});
  m.push_back({"query.scan_traversal_us",
               Ratio(total_us("query.scan_traversal"), tq), "us"});
  m.push_back({"query.history_walk_us",
               Ratio(total_us("query.history_walk"), tq), "us"});
  m.push_back({"query.lifetime_us", Ratio(total_us("query.lifetime"), tq),
               "us"});
  m.push_back({"query.rows_considered_per_emitted",
               Ratio(static_cast<double>(n.rows_considered),
                     static_cast<double>(n.rows_emitted)),
               "ratio"});
  m.push_back({"index.postings_per_result",
               Ratio(static_cast<double>(n.postings),
                     static_cast<double>(n.rows_emitted)),
               "ratio"});
  m.push_back({"index.folds", static_cast<double>(after.fti.compactions),
               "count"});
  m.push_back({"index.fold_us",
               Ratio(total_us("index.fold"), calls("index.fold")), "us"});
  m.push_back({"storage.reconstruct_us",
               Ratio(total_us("storage.reconstruct"), tq), "us"});
  m.push_back({"storage.reconstructions_per_query",
               Ratio(static_cast<double>(n.reconstructions),
                     static_cast<double>(n.queries)),
               "ratio"});
  m.push_back({"storage.wal_sync_us", Ratio(total_us("storage.wal_sync"), tp),
               "us"});
  m.push_back({"storage.wal_bytes_per_user_byte",
               ingest ? Ratio(static_cast<double>(after.durability.wal_bytes),
                              static_cast<double>(acked_bytes))
                      : 0,
               "ratio"});
  m.push_back({"storage.checkpoints",
               static_cast<double>(after.durability.checkpoints_completed),
               "count"});
  m.push_back({"storage.checkpoint_us",
               Ratio(total_us("storage.checkpoint"), calls("storage.checkpoint")),
               "us"});
  m.push_back({"diff.diff_trees_us", Ratio(total_us("diff.diff_trees"), tp),
               "us"});
  m.push_back({"diff.apply_us_per_delta",
               Ratio(total_us("storage.reconstruct"),
                     static_cast<double>(n.deltas_applied)),
               "us"});
  m.push_back({"xml.parse_us", Ratio(total_us("xml.parse"), tp), "us"});
  m.push_back({"xml.serialize_us", Ratio(total_us("xml.serialize"), tq), "us"});
  m.push_back({"trace.overhead_us", TracingOverhead(n), "us"});

  result->attempted = n.queries + puts;
  result->wrong = n.mismatches;
  result->failed = n.mismatches;

  // The self-time table, one row per span name.
  for (const auto& [name, t] : layers) {
    result->notes.push_back(
        "layer " + name + ": calls=" + std::to_string(t.calls) +
        " total_us=" + std::to_string(t.total_us) +
        " self_us=" + std::to_string(t.self_us));
  }
  result->extra.push_back({"traced_queries", tq, "count"});
  result->extra.push_back({"traced_puts", tp, "count"});

}

}  // namespace perfbench
