#ifndef TXML_SRC_CORE_DATABASE_H_
#define TXML_SRC_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/index/doctime_index.h"
#include "src/index/fti.h"
#include "src/index/lifetime_index.h"
#include "src/lang/executor.h"
#include "src/query/context.h"
#include "src/query/history_ops.h"
#include "src/storage/store.h"
#include "src/util/statusor.h"
#include "src/util/timestamp.h"
#include "src/xml/node.h"

namespace txml {

/// Configuration of a TemporalXmlDatabase.
struct DatabaseOptions {
  /// Keep a complete snapshot of every k-th version of each document
  /// (Section 7.3.3's reconstruction shortcut); 0 = pure delta chains.
  uint32_t snapshot_every = 0;
  /// When non-empty, maintain a *document time* index (Section 3.1's third
  /// case): the location path to the in-document timestamp, e.g.
  /// "//published". Queried through document_time_index().
  std::string document_time_path;
};

/// The temporal XML database: the public façade tying together the
/// versioned repository, the temporal indexes, the algebra operators and
/// the query language.
///
///   TemporalXmlDatabase db;
///   db.PutDocument("http://guide.com", "<guide>…</guide>");
///   db.PutDocument("http://guide.com", "<guide>…updated…</guide>");
///   auto results = db.Query(
///       "SELECT R FROM doc(\"http://guide.com\")[26/01/2001]/restaurant R");
///
/// Transaction-time semantics: every successful PutDocument/DeleteDocument
/// gets a strictly increasing commit timestamp from the database clock;
/// the *At variants let a warehouse loader supply crawl times instead
/// (Section 3.1's two cases).
class TemporalXmlDatabase {
 public:
  explicit TemporalXmlDatabase(DatabaseOptions options = {});
  ~TemporalXmlDatabase();

  TemporalXmlDatabase(const TemporalXmlDatabase&) = delete;
  TemporalXmlDatabase& operator=(const TemporalXmlDatabase&) = delete;

  struct PutResult {
    DocId doc_id = 0;
    VersionNum version = 0;
    Timestamp commit_ts;
  };

  /// Stores a new version of the document at `url`, parsing `xml_text`.
  /// Creates the document on first contact.
  StatusOr<PutResult> PutDocument(const std::string& url,
                                  std::string_view xml_text);

  /// Warehouse variant: explicit (crawl) timestamp; must exceed every
  /// timestamp already recorded for the document.
  StatusOr<PutResult> PutDocumentAt(const std::string& url,
                                    std::string_view xml_text, Timestamp ts);

  /// Stores an already-built tree.
  StatusOr<PutResult> PutDocumentTree(const std::string& url,
                                      std::unique_ptr<XmlNode> tree,
                                      Timestamp ts);

  /// The phases of a put (DESIGN.md §12), for callers that overlap the
  /// costly part with other work. PutDocumentTree is
  /// PublishPut(PreparePut(ResolvePut(url), …)). ResolvePut needs
  /// publishes excluded (a shared lock); PreparePut needs only that
  /// nothing else writes this document until the publish; PublishPut is
  /// a write under the single-writer contract. See
  /// VersionedDocumentStore::PreparedPut.
  using PreparedPut = VersionedDocumentStore::PreparedPut;
  PreparedPut ResolvePut(const std::string& url) const {
    return store_->ResolvePut(url);
  }
  Status PreparePut(PreparedPut* put, std::unique_ptr<XmlNode> tree,
                    Timestamp ts) const {
    return store_->PreparePut(put, std::move(tree), ts);
  }
  PutResult PublishPut(PreparedPut put);

  Status DeleteDocument(const std::string& url);
  Status DeleteDocumentAt(const std::string& url, Timestamp ts);

  /// Rewrites every document's history below the policy's horizon
  /// (Section 7.1's vacuuming): versions are dropped or coarsened, version
  /// numbers are never reused, and every answer about a time at or after
  /// the horizon is unchanged. Requires the same external exclusion as
  /// PutDocument (single writer); attached indexes are updated in place.
  StatusOr<VacuumStats> Vacuum(const RetentionPolicy& policy);

  /// Executes a query of the Section-5 dialect as of latest_commit();
  /// returns the <results><result>…</result></results> document. Callers
  /// that want the counters use QueryAt(text, latest_commit(), &stats).
  StatusOr<XmlDocument> Query(std::string_view query_text);

  /// Const read path for the service layer: executes as of commit epoch
  /// `epoch` (the value of NOW) with counters accumulating into
  /// caller-owned `stats` (never null). Safe to call from many threads
  /// concurrently provided no write (Put/Delete) runs at the same time —
  /// the caller serializes writers against readers (the service layer's
  /// commit lock).
  StatusOr<XmlDocument> QueryAt(std::string_view query_text, Timestamp epoch,
                                ExecStats* stats) const;

  /// Convenience: Query + serialize (pretty by default).
  StatusOr<std::string> QueryToString(std::string_view query_text,
                                      bool pretty = true);

  /// The query plan, rendered as text without executing (which scan
  /// operator per variable, resolved snapshot time, effective pattern with
  /// pushed-down word tests, whether content is materialized).
  StatusOr<std::string> Explain(std::string_view query_text);

  /// Snapshot of one document at time t (the paper's plain snapshot
  /// retrieval): a fresh tree.
  StatusOr<XmlDocument> Snapshot(const std::string& url, Timestamp t) const;

  /// All versions of a document valid in [t1, t2), most recent first.
  StatusOr<std::vector<MaterializedVersion>> History(const std::string& url,
                                                     Timestamp t1,
                                                     Timestamp t2) const;

  /// Operator-level access for benchmarks and tests.
  QueryContext Context() const;
  const VersionedDocumentStore& store() const { return *store_; }

  /// Registers an additional store observer (beyond the indexes the
  /// database attaches itself); see VersionedDocumentStore::AddObserver
  /// for the single-writer contract and the `allow_late` escape hatch.
  void AddStoreObserver(StoreObserver* observer, bool allow_late = false) {
    store_->AddObserver(observer, allow_late);
  }
  const TemporalFullTextIndex& fti() const { return *fti_; }
  /// Folds the FTI differential into the compacted main index (DESIGN.md
  /// §13). Requires the same exclusion as a write; the service layer
  /// triggers it from MaybeCompactFti, and a vacuum forces it through
  /// OnHistoryVacuumed.
  void CompactFti() { fti_->CompactDifferential(); }
  /// The EID lifetime index (Section 7.3.6's auxiliary index); always
  /// attached.
  const LifetimeIndex* lifetime_index() const { return lifetime_.get(); }
  const DocumentTimeIndex* document_time_index() const {
    return doctime_.get();
  }
  CommitClock* clock() { return &clock_; }
  /// The latest issued commit timestamp — the epoch a new reader pins.
  Timestamp latest_commit() const { return clock_.Last(); }
  const DatabaseOptions& options() const { return options_; }

  /// Plugs a shared snapshot cache into query execution (consulted before
  /// delta-chain reconstruction; see src/query/snapshot_cache.h). Not
  /// owned; pass null to detach. The service layer owns the production
  /// sharded LRU implementation.
  void set_snapshot_cache(SnapshotCacheInterface* cache) {
    snapshot_cache_ = cache;
  }
  SnapshotCacheInterface* snapshot_cache() const { return snapshot_cache_; }

  /// Persists the repository and the FTI/lifetime indexes to a directory.
  /// Open loads the persisted indexes when they are present and match the
  /// store (checksum fingerprint); otherwise it rebuilds them by replaying
  /// the stored histories. The optional document-time index is always
  /// rebuilt by replay when enabled.
  Status Save(const std::string& dir) const;
  static StatusOr<std::unique_ptr<TemporalXmlDatabase>> Open(
      const std::string& dir, DatabaseOptions options = {});

 private:
  TemporalXmlDatabase(DatabaseOptions options,
                      std::unique_ptr<VersionedDocumentStore> store,
                      bool attach_indexes);
  /// Registers indexes as store observers; preloaded ones are adopted,
  /// missing ones constructed empty.
  void AttachIndexes(std::unique_ptr<TemporalFullTextIndex> fti,
                     std::unique_ptr<LifetimeIndex> lifetime);
  /// Feeds the retained histories to the document-time index and, when
  /// `include_indexes`, to the FTI and lifetime index (which start empty
  /// then); advances the clock past every stored event.
  void ReplayIntoIndexes(bool include_indexes);

  DatabaseOptions options_;
  CommitClock clock_;
  std::unique_ptr<VersionedDocumentStore> store_;
  std::unique_ptr<TemporalFullTextIndex> fti_;
  std::unique_ptr<LifetimeIndex> lifetime_;
  std::unique_ptr<DocumentTimeIndex> doctime_;
  SnapshotCacheInterface* snapshot_cache_ = nullptr;
};

}  // namespace txml

#endif  // TXML_SRC_CORE_DATABASE_H_
