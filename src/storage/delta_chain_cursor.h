#ifndef TXML_SRC_STORAGE_DELTA_CHAIN_CURSOR_H_
#define TXML_SRC_STORAGE_DELTA_CHAIN_CURSOR_H_

#include <functional>
#include <memory>
#include <span>

#include "src/diff/edit_script.h"
#include "src/storage/store.h"
#include "src/storage/versioned_document.h"
#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/xml/ids.h"
#include "src/xml/node.h"

namespace txml {

/// The one walker of a document's delta chain (DESIGN.md §3). A cursor
/// holds one materialized retained version of a document and an XidIndex
/// over it, and moves one retained transition — plain or merged — at a
/// time, so a step costs its delta, not the tree.
///
/// It opens at a retained version from the cheapest complete anchor (the
/// current version, an intermediate snapshot or the vacuum base — see
/// VersionedDocument::CheapestAnchor), cloning and indexing that anchor
/// once — the index on first need, so a cursor that never steps or looks
/// an XID up (ReconstructVersion of an anchor) pays for the clone alone.
/// The document must not change while a cursor over it is open.
///
/// A step that fails part-way leaves the tree and the index out of step
/// with each other, so the cursor is then *poisoned*: status(), every later
/// step and TakeTree() return that error. tree() and Find() stay memory-safe
/// (a failed step frees no node the index names) but describe no version.
/// An anchor naming an XID at or beyond next_xid() poisons the cursor the
/// same way when it is indexed.
class DeltaChainCursor {
 public:
  /// Opens at SnapToRetained(v), the version the retained history presents
  /// for v. OutOfRange unless 1 <= v <= version_count(); NotFound below
  /// first_retained(). `stats`, when non-null, records the anchor and the
  /// number of retained transitions applied to reach the target.
  static StatusOr<DeltaChainCursor> Open(
      const VersionedDocument& doc, VersionNum v,
      VersionedDocument::ReconstructStats* stats = nullptr);

  DeltaChainCursor(DeltaChainCursor&&) = default;
  DeltaChainCursor& operator=(DeltaChainCursor&&) = default;

  /// Moves to PrevRetained(version()) by applying that transition
  /// backward. OutOfRange, with the cursor unchanged, at first_retained().
  Status StepBackward();
  /// Moves to NextRetained(version()) by applying the transition forward.
  /// OutOfRange, with the cursor unchanged, at the last version.
  Status StepForward();

  VersionNum version() const { return version_; }
  /// The materialized version. Valid until the next step.
  const XmlNode& tree() const { return *tree_; }
  /// The node with this XID in the materialized version, or null.
  const XmlNode* Find(Xid xid) const {
    EnsureIndexed().IgnoreError("a failed build poisons the cursor");
    return index_.Find(xid);
  }
  /// OK, or the error that poisoned the cursor.
  const Status& status() const { return status_; }

  /// Hands the materialized version over; the cursor is spent afterwards.
  StatusOr<std::unique_ptr<XmlNode>> TakeTree();

 private:
  explicit DeltaChainCursor(const VersionedDocument& doc) : doc_(&doc) {}

  /// Applies `delta` to the tree in the given direction and moves to `to`,
  /// or poisons the cursor.
  Status Step(const EditScript& delta, bool forward, VersionNum to);

  /// Indexes the tree unless it already is, or poisons the cursor.
  Status EnsureIndexed() const;

  const VersionedDocument* doc_;
  VersionNum version_ = 0;
  std::unique_ptr<XmlNode> tree_;
  // Built lazily by EnsureIndexed, which const Find() may call.
  mutable XidIndex index_;
  mutable bool indexed_ = false;
  mutable Status status_;
};

/// Visits every retained version of `doc`, oldest first, with one cursor
/// opened at first_retained() and stepped forward: O(retained transitions)
/// in total. Stops at the first error, the walk's or `visit`'s.
Status ForEachRetainedVersion(
    const VersionedDocument& doc,
    const std::function<Status(const DeltaChainCursor&)>& visit);

/// Replays the store's retained history into `observers` that were not
/// attached while it was written: for each document, every retained
/// version through ForEachRetainedVersion as OnVersionStored (with the
/// retained transition that led to it), then OnDocumentDeleted if the
/// document is deleted. Stops at the first walk error.
Status ReplayRetainedHistory(const VersionedDocumentStore& store,
                             std::span<StoreObserver* const> observers);

}  // namespace txml

#endif  // TXML_SRC_STORAGE_DELTA_CHAIN_CURSOR_H_
