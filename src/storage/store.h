#ifndef TXML_SRC_STORAGE_STORE_H_
#define TXML_SRC_STORAGE_STORE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/storage/vacuum.h"
#include "src/storage/versioned_document.h"
#include "src/util/logging.h"
#include "src/util/statusor.h"
#include "src/util/timestamp.h"
#include "src/xml/ids.h"
#include "src/xml/node.h"

namespace txml {

/// Notification interface for index maintenance: the store calls observers
/// after every successful version append / document delete, handing them
/// the new current tree and the completed delta of the transition. All
/// indexing strategies of Section 7.2 are built as observers.
///
/// Ordering guarantees (the contract the service layer's concurrency model
/// builds on):
///  * observers are notified *synchronously inside* Put/Delete, after the
///    store's own state (version chain, delta index) is fully updated — an
///    observer may read the store and sees the post-write state;
///  * observers are notified in registration order, one write at a time —
///    the store itself takes no locks, so Put/Delete *and* registration
///    must be externally serialized (single-writer contract; the service
///    layer holds its exclusive commit lock around every write);
///  * a reader that is prevented from running concurrently with Put/Delete
///    (e.g. via the service layer's shared commit lock) therefore never
///    observes a version without its index/cache updates, or vice versa.
///
/// A put may also run in phases (VersionedDocumentStore::PreparedPut), and
/// an observer may move its costly work into the prepare phase through
/// BeginVersion. Only the publish phase is under the single-writer
/// contract; everything above applies to it unchanged.
class StoreObserver {
 public:
  /// One version's observer work, started by BeginVersion and completed
  /// by PublishVersion.
  class PendingVersion {
   public:
    virtual ~PendingVersion() = default;
    /// Computes the work against `next`, the new version with its final
    /// XIDs and stamps. Runs beside readers and beside other documents'
    /// publishes: it may read only the per-document state BeginVersion
    /// captured (DESIGN.md §12 lists what that may be).
    virtual void Prepare(const XmlNode& next) = 0;
  };

  virtual ~StoreObserver() = default;

  /// A new version was stored. `delta` is null for the first version.
  virtual void OnVersionStored(DocId doc_id, VersionNum version,
                               Timestamp ts, const XmlNode& current,
                               const EditScript* delta) = 0;

  /// Starts the prepare phase for a new version of `doc_id` (0 for a
  /// document the store has not created yet). Called where publishes are
  /// excluded (the service's shared commit lock), so it may look up
  /// per-document state and capture pointers to it; those pointers must
  /// survive other documents' publishes (node-based containers). Null,
  /// the default, means the observer does all its work in PublishVersion.
  virtual std::unique_ptr<PendingVersion> BeginVersion(DocId doc_id) const {
    (void)doc_id;
    return nullptr;
  }

  /// The publish phase: like OnVersionStored, with the prepared work of
  /// this observer's BeginVersion (null if it returned null). The default
  /// forwards to OnVersionStored.
  virtual void PublishVersion(DocId doc_id, VersionNum version, Timestamp ts,
                              const XmlNode& current, const EditScript* delta,
                              PendingVersion* prepared) {
    (void)prepared;
    OnVersionStored(doc_id, version, ts, current, delta);
  }

  /// The document was deleted at `ts` (its last version was `last`).
  virtual void OnDocumentDeleted(DocId doc_id, VersionNum last,
                                 Timestamp ts) = 0;

  /// The document's history was rewritten by a vacuum (versions below
  /// doc.first_retained() are gone; the coarse zone below
  /// doc.dense_floor() retains only a subset of versions). Observers must
  /// drop or re-anchor anything keyed on vacuumed-away versions. Called
  /// under the same single-writer contract as the other events; default is
  /// a no-op so observers indifferent to retention need no change.
  virtual void OnHistoryVacuumed(const VersionedDocument& doc) {
    (void)doc;
  }
};

/// Configuration for a VersionedDocumentStore.
struct StoreOptions {
  /// Keep a complete snapshot of every k-th version of each document
  /// (0 = pure delta chains, the paper's baseline configuration).
  uint32_t snapshot_every = 0;
};

/// The repository: a catalog of URL-addressed versioned documents. This is
/// the "local storage of documents" / warehouse substrate of Section 3.1;
/// commit timestamps come from the caller (the database façade's commit
/// clock, or crawl times in the warehouse setting).
class VersionedDocumentStore {
 public:
  explicit VersionedDocumentStore(StoreOptions options = {})
      : options_(options) {}

  /// Registers an observer; not owned. Must outlive the store's writes.
  ///
  /// Index-maintaining observers must see *every* write or none, so
  /// registration after writes have begun on this instance CHECK-fails
  /// unless `allow_late` is set. Late registration is reserved for
  /// observers that tolerate a truncated event stream (the service layer's
  /// snapshot cache); a decoded store counts as write-free — the database
  /// façade replays its history into late-attached indexes explicitly.
  /// Like writes, registration is the single writer's job: it must not
  /// race Put/Delete or queries (the observer list is unsynchronized).
  void AddObserver(StoreObserver* observer, bool allow_late = false) {
    TXML_CHECK(allow_late || !writes_begun_);
    observers_.push_back(observer);
  }

  struct PutResult {
    DocId doc_id = 0;
    VersionNum version = 0;
  };

  /// A put between its phases (DESIGN.md §12). The phases differ in what
  /// they must exclude:
  ///  * ResolvePut looks the document and the observers' per-document
  ///    state up. Publishes must be excluded (a shared lock suffices).
  ///  * PreparePut parses nothing and links nothing: it diffs against the
  ///    current version and lets the observers compute their changes. It
  ///    needs only that nothing else writes *this* document until the
  ///    publish (the service's commit stripe), and it runs beside readers
  ///    and beside other documents' publishes.
  ///  * PublishPut links the prepared version in, under the single-writer
  ///    contract. It creates the document on first contact.
  struct PreparedPut {
    std::string url;
    /// The document as resolved; null on first contact.
    const VersionedDocument* doc = nullptr;
    /// Parallel to the observer list (null entries: nothing prepared).
    std::vector<std::unique_ptr<StoreObserver::PendingVersion>> observed;
    /// Set by a successful PreparePut.
    std::optional<VersionedDocument::PreparedVersion> version;
  };

  PreparedPut ResolvePut(const std::string& url) const;
  Status PreparePut(PreparedPut* put, std::unique_ptr<XmlNode> content,
                    Timestamp ts) const;
  /// Precondition: PreparePut(&put, …) succeeded and nothing wrote the
  /// document since ResolvePut.
  PutResult PublishPut(PreparedPut put);

  /// Stores a new version of the document at `url`, creating the document
  /// on first contact. `ts` must exceed every timestamp already recorded
  /// for the document. The three phases above, back to back.
  StatusOr<PutResult> Put(const std::string& url,
                          std::unique_ptr<XmlNode> content, Timestamp ts);

  /// Marks the document deleted at `ts` (terminal; see VersionedDocument).
  Status Delete(const std::string& url, Timestamp ts);

  /// Applies the retention policy to every document, notifying observers
  /// (OnHistoryVacuumed) for each document whose history changed. A write
  /// under the single-writer contract — the caller must hold the same
  /// exclusion it holds around Put/Delete. Implemented in vacuum.cc.
  StatusOr<VacuumStats> Vacuum(const RetentionPolicy& policy);

  /// Lookup by URL / id. Null when absent.
  VersionedDocument* FindByUrl(const std::string& url);
  const VersionedDocument* FindByUrl(const std::string& url) const;
  VersionedDocument* FindById(DocId doc_id);
  const VersionedDocument* FindById(DocId doc_id) const;

  /// All documents, in DocId order (stable iteration for scans).
  std::vector<const VersionedDocument*> AllDocuments() const;
  std::vector<VersionedDocument*> AllDocuments();

  size_t document_count() const { return by_id_.size(); }
  const StoreOptions& options() const { return options_; }

  /// Total storage accounting (encoded bytes), for the space experiments.
  size_t CurrentBytes() const;
  size_t DeltaBytes() const;
  size_t SnapshotBytes() const;

  /// Persists the whole store to `<dir>/store.txml` (CRC-framed records)
  /// and reloads it. Observers are not persisted; indexes are rebuilt (or
  /// loaded from their own file) by the database façade on load.
  Status Save(const std::string& dir) const;
  static StatusOr<std::unique_ptr<VersionedDocumentStore>> Load(
      const std::string& dir);

  /// In-memory (de)serialization, used by Save/Load and by the database
  /// façade to fingerprint the store when persisting indexes.
  void EncodeTo(std::string* dst) const;
  static StatusOr<std::unique_ptr<VersionedDocumentStore>> Decode(
      std::string_view data);

 private:
  StoreOptions options_;
  DocId next_doc_id_ = 1;
  std::map<DocId, std::unique_ptr<VersionedDocument>> by_id_;
  std::unordered_map<std::string, VersionedDocument*> by_url_;
  std::vector<StoreObserver*> observers_;
  /// Set by the first Put/Delete on this instance; guards AddObserver.
  bool writes_begun_ = false;
};

}  // namespace txml

#endif  // TXML_SRC_STORAGE_STORE_H_
