#ifndef TXML_SRC_STORAGE_VERSIONED_DOCUMENT_H_
#define TXML_SRC_STORAGE_VERSIONED_DOCUMENT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/diff/edit_script.h"
#include "src/storage/delta_index.h"
#include "src/util/statusor.h"
#include "src/util/timestamp.h"
#include "src/xml/ids.h"
#include "src/xml/node.h"

namespace txml {

struct RetentionPolicy;  // src/storage/vacuum.h

/// One document and its full transaction-time history, stored per the
/// paper's physical model (Section 7.1):
///
///  * the *current* version is stored complete;
///  * previous versions are stored as a chain of *completed deltas*
///    (TransitionDelta(i) turns version i into i+1 forward, i+1 into i
///    backward);
///  * optional periodic *snapshots* (complete intermediate versions) bound
///    the number of deltas a reconstruction must apply (Section 7.3.3);
///  * the per-document delta index maps version numbers to timestamps.
///
/// XIDs are document-scoped and never reused; the embedded XidAllocator is
/// threaded through every diff.
///
/// Deletion is terminal: a deleted document keeps its history (and stays
/// queryable for all t < delete_time()), but accepts no further versions —
/// content reappearing later at the same URL is a new document with new
/// EIDs, which is exactly the Web-warehouse identity caveat of Section 7.4.
class VersionedDocument {
 public:
  /// `snapshot_every` = k keeps a complete copy of every k-th version as a
  /// reconstruction shortcut; 0 disables snapshots (pure delta chain).
  VersionedDocument(DocId doc_id, std::string url, uint32_t snapshot_every);

  DocId doc_id() const { return doc_id_; }
  const std::string& url() const { return url_; }

  VersionNum version_count() const { return delta_index_.version_count(); }
  bool deleted() const { return !delete_ts_.IsInfinite(); }
  Timestamp delete_time() const { return delete_ts_; }

  /// True if the document exists (has a version valid) at time t.
  bool ExistsAt(Timestamp t) const {
    return version_count() > 0 && t >= delta_index_.first_timestamp() &&
           t < delete_ts_;
  }

  const DeltaIndex& delta_index() const { return delta_index_; }
  XidAllocator* xid_allocator() { return &xids_; }
  /// First XID not yet allocated; xids in [1, next_xid) have been used.
  Xid next_xid() const { return xids_.next(); }

  /// The complete stored current version — the *last* version even after
  /// deletion (needed to walk the history backwards). Never null once a
  /// version was appended.
  const XmlNode* current() const { return current_.get(); }

  struct AppendResult {
    VersionNum version = 0;
    /// Delta from the previous version; null for the first version.
    const EditScript* delta = nullptr;
  };

  /// A new version diffed against the current one but not yet linked in.
  struct PreparedVersion {
    /// The new current version: XIDs propagated by the differ, timestamps
    /// stamped per the data model.
    std::unique_ptr<XmlNode> tree;
    /// Delta from the current version; empty for a first version.
    std::optional<EditScript> delta;
    /// Complete copy of `tree` when the new version is a snapshot version.
    std::unique_ptr<XmlNode> snapshot;
    /// Private copy of the document's allocator, advanced past every XID
    /// the diff handed out; it becomes the document's at publish.
    XidAllocator xids;
    Timestamp ts;
  };

  /// The costly half of an append: validates `ts` (must exceed the last
  /// version's) and diffs `content` (XID-free, a fresh parse) against the
  /// current version. Reads only the current tree, the XID counter and
  /// the delta-index tail, and writes nothing, so it may run beside
  /// readers and beside appends to other documents (DESIGN.md §12). The
  /// result is valid until this document's next append or vacuum.
  StatusOr<PreparedVersion> PrepareVersion(std::unique_ptr<XmlNode> content,
                                           Timestamp ts) const;

  /// The cheap half: links a PrepareVersion result in as the new current
  /// version. O(change) apart from freeing the replaced tree.
  AppendResult PublishVersion(PreparedVersion prepared);

  /// PublishVersion(PrepareVersion(content, ts)): on return `content` has
  /// become the current version.
  StatusOr<AppendResult> AppendVersion(std::unique_ptr<XmlNode> content,
                                       Timestamp ts);

  /// Marks the document deleted at `ts`. The last version's validity ends
  /// at `ts`.
  Status MarkDeleted(Timestamp ts);

  /// Validity interval of version v, capped at the delete time.
  TimeInterval VersionValidity(VersionNum v) const;

  /// The completed delta for the transition version `from` -> `from`+1.
  /// Precondition: dense_floor() <= from < version_count().
  const EditScript& TransitionDelta(VersionNum from) const {
    return deltas_[from - dense_floor_];
  }

  // --- Retention state (see src/storage/vacuum.h) ------------------------
  //
  // Vacuuming partitions the version axis into three zones without ever
  // renumbering: versions below first_retained() are gone entirely;
  // [first_retained(), dense_floor()) is the *coarse* zone where only a
  // subset of versions survives, linked by merged deltas; versions at or
  // above dense_floor() keep the original dense delta chain. Unvacuumed
  // documents have first_retained() == dense_floor() == 1 and every
  // version retained, so all retained-walk helpers degrade to the dense
  // behaviour.

  /// Oldest version still reconstructible. 1 unless vacuumed with a drop
  /// horizon.
  VersionNum first_retained() const { return first_retained_; }
  /// First version of the dense (unmerged) tail of the delta chain.
  VersionNum dense_floor() const { return dense_floor_; }
  /// True once the document has been vacuumed (it then owns a materialized
  /// base snapshot of first_retained()).
  bool vacuumed() const { return base_ != nullptr; }
  /// The re-anchored base snapshot (version first_retained()), or null for
  /// an unvacuumed document.
  const XmlNode* base() const { return base_.get(); }

  bool IsRetained(VersionNum v) const;
  /// Largest retained version <= v, or 0 if v precedes first_retained().
  VersionNum SnapToRetained(VersionNum v) const;
  /// Smallest retained version > v, or 0 if v is the last version.
  VersionNum NextRetained(VersionNum v) const;
  /// Largest retained version < v, or 0 if v <= first_retained().
  VersionNum PrevRetained(VersionNum v) const;
  /// True if [start, end) contains at least one retained version.
  bool AnyRetainedIn(VersionNum start, VersionNum end) const;
  /// The delta for the retained transition `from` -> NextRetained(`from`):
  /// the original delta in the dense zone, a merged delta in the coarse
  /// zone. Precondition: IsRetained(from) && from < version_count().
  const EditScript& RetainedTransition(VersionNum from) const;
  /// Validity of retained version v over the *retained* timeline:
  /// [ts(v), ts(NextRetained(v))), capped at the delete time. Equals
  /// VersionValidity(v) in the dense zone.
  TimeInterval RetainedValidity(VersionNum v) const;

  struct VacuumOutcome {
    bool changed = false;
    uint32_t versions_dropped = 0;
    uint32_t snapshots_dropped = 0;
    uint32_t deltas_merged = 0;
  };

  /// Rewrites the history below the policy's horizons (implemented in
  /// vacuum.cc). Answers for any time at or after the horizon are
  /// unchanged; version numbers are never reused or renumbered.
  StatusOr<VacuumOutcome> Vacuum(const RetentionPolicy& policy);

  struct ReconstructStats {
    size_t deltas_applied = 0;
    bool used_snapshot = false;
    /// True when reconstruction walked *forward* from the vacuum base
    /// snapshot instead of backward from the current version.
    bool used_base = false;
    VersionNum base_version = 0;
  };

  /// A complete stored version a delta-chain walk can start from.
  struct ChainAnchor {
    enum Kind { kCurrent, kSnapshot, kBase };
    Kind kind = kCurrent;
    VersionNum version = 0;
    const XmlNode* tree = nullptr;
  };

  /// The cheapest complete version to reach retained version `target` from
  /// (Section 7.3.3): the nearest complete version at or after it — the
  /// current version or an intermediate snapshot, walked backward — or,
  /// when fewer retained transitions separate them, the vacuum base below
  /// it, walked forward. Precondition: IsRetained(target).
  ChainAnchor CheapestAnchor(VersionNum target) const;

  /// Materializes version v (the Reconstruct operator's engine,
  /// Section 7.3.3): a DeltaChainCursor opened at v from the cheapest
  /// anchor.
  StatusOr<std::unique_ptr<XmlNode>> ReconstructVersion(
      VersionNum v, ReconstructStats* stats = nullptr) const;

  /// Materializes the version valid at time t; NotFound if the document
  /// does not exist at t.
  StatusOr<std::unique_ptr<XmlNode>> ReconstructAt(
      Timestamp t, ReconstructStats* stats = nullptr) const;

  /// Snapshot versions currently kept (for tests/benches).
  std::vector<VersionNum> SnapshotVersions() const;

  /// Storage accounting for the space experiments, in encoded bytes.
  size_t CurrentBytes() const;
  size_t DeltaBytes() const;
  size_t SnapshotBytes() const;

  void EncodeTo(std::string* dst) const;
  static StatusOr<std::unique_ptr<VersionedDocument>> Decode(
      std::string_view data);

 private:
  /// Number of retained transitions between retained versions lo <= hi.
  size_t RetainedSteps(VersionNum lo, VersionNum hi) const;

  DocId doc_id_;
  std::string url_;
  uint32_t snapshot_every_;
  XidAllocator xids_;
  Timestamp delete_ts_ = Timestamp::Infinity();
  std::unique_ptr<XmlNode> current_;
  /// deltas_[i] is the transition from version dense_floor_+i to
  /// dense_floor_+i+1 (dense_floor_ is 1 until vacuumed).
  std::vector<EditScript> deltas_;
  DeltaIndex delta_index_;
  /// Periodic complete versions, keyed by version number. Always at
  /// retained versions >= dense_floor_.
  std::map<VersionNum, std::unique_ptr<XmlNode>> snapshots_;

  // Retention state — see the "Retention state" section above and
  // src/storage/vacuum.h. Invariants: first_retained_ <= dense_floor_;
  // coarse_kept_ is ascending, starts with first_retained_, lies entirely
  // below dense_floor_, and is empty iff dense_floor_ == first_retained_;
  // coarse_deltas_.size() == coarse_kept_.size(); base_ is null iff the
  // document was never vacuumed.
  VersionNum first_retained_ = 1;
  VersionNum dense_floor_ = 1;
  std::unique_ptr<XmlNode> base_;
  std::vector<VersionNum> coarse_kept_;
  /// coarse_deltas_[i] merges the original transitions coarse_kept_[i] ->
  /// (coarse_kept_[i+1], or dense_floor_ for the last entry).
  std::vector<EditScript> coarse_deltas_;
};

}  // namespace txml

#endif  // TXML_SRC_STORAGE_VERSIONED_DOCUMENT_H_
