#include "src/storage/delta_chain_cursor.h"

#include <string>
#include <utility>

#include "src/util/macros.h"

namespace txml {

StatusOr<DeltaChainCursor> DeltaChainCursor::Open(
    const VersionedDocument& doc, VersionNum v,
    VersionedDocument::ReconstructStats* stats) {
  if (v < 1 || v > doc.version_count()) {
    return Status::OutOfRange("version " + std::to_string(v) +
                              " out of range [1, " +
                              std::to_string(doc.version_count()) + "]");
  }
  if (v < doc.first_retained()) {
    return Status::NotFound("version " + std::to_string(v) +
                            " of document '" + doc.url() +
                            "' was vacuumed (first retained version is " +
                            std::to_string(doc.first_retained()) + ")");
  }
  // In the coarse zone a vacuumed-away version resolves to the nearest
  // retained version at or before it — the content the coarsened history
  // presents for that version's time range.
  const VersionNum target = doc.SnapToRetained(v);
  const VersionedDocument::ChainAnchor anchor = doc.CheapestAnchor(target);

  DeltaChainCursor cursor(doc);
  cursor.version_ = anchor.version;
  cursor.tree_ = anchor.tree->Clone();
  size_t applied = 0;
  for (; cursor.version_ > target; ++applied) {
    TXML_RETURN_IF_ERROR(cursor.StepBackward());
  }
  for (; cursor.version_ < target; ++applied) {
    TXML_RETURN_IF_ERROR(cursor.StepForward());
  }
  if (stats != nullptr) {
    using Anchor = VersionedDocument::ChainAnchor;
    stats->deltas_applied = applied;
    stats->used_snapshot = anchor.kind == Anchor::kSnapshot;
    stats->used_base = anchor.kind == Anchor::kBase;
    stats->base_version = anchor.version;
  }
  return cursor;
}

Status DeltaChainCursor::StepBackward() {
  if (!status_.ok()) return status_;
  const VersionNum prev = doc_->PrevRetained(version_);
  if (prev == 0) {
    return Status::OutOfRange("no retained version before " +
                              std::to_string(version_));
  }
  return Step(doc_->RetainedTransition(prev), /*forward=*/false, prev);
}

Status DeltaChainCursor::StepForward() {
  if (!status_.ok()) return status_;
  const VersionNum next = doc_->NextRetained(version_);
  if (next == 0) {
    return Status::OutOfRange("no retained version after " +
                              std::to_string(version_));
  }
  return Step(doc_->RetainedTransition(version_), /*forward=*/true, next);
}

Status DeltaChainCursor::EnsureIndexed() const {
  if (indexed_ || !status_.ok()) return status_;
  index_ = XidIndex(doc_->next_xid(), tree_->CountNodes());
  status_ = index_.Add(tree_.get());
  indexed_ = true;
  return status_;
}

Status DeltaChainCursor::Step(const EditScript& delta, bool forward,
                              VersionNum to) {
  TXML_RETURN_IF_ERROR(EnsureIndexed());
  Status applied = forward ? delta.ApplyForward(tree_.get(), &index_)
                           : delta.ApplyBackward(tree_.get(), &index_);
  if (!applied.ok()) {
    status_ = applied;
    return applied;
  }
  version_ = to;
  return Status::OK();
}

StatusOr<std::unique_ptr<XmlNode>> DeltaChainCursor::TakeTree() {
  if (!status_.ok()) return status_;
  status_ = Status::InvalidArgument("delta chain cursor's tree was taken");
  index_ = XidIndex();
  return std::move(tree_);
}

Status ForEachRetainedVersion(
    const VersionedDocument& doc,
    const std::function<Status(const DeltaChainCursor&)>& visit) {
  if (doc.version_count() == 0) return Status::OK();
  TXML_ASSIGN_OR_RETURN(DeltaChainCursor cursor,
                        DeltaChainCursor::Open(doc, doc.first_retained()));
  for (;;) {
    TXML_RETURN_IF_ERROR(visit(cursor));
    if (doc.NextRetained(cursor.version()) == 0) return Status::OK();
    TXML_RETURN_IF_ERROR(cursor.StepForward());
  }
}

Status ReplayRetainedHistory(const VersionedDocumentStore& store,
                             std::span<StoreObserver* const> observers) {
  if (observers.empty()) return Status::OK();
  for (const VersionedDocument* doc : store.AllDocuments()) {
    // Vacuumed-away versions have no timestamps and no reconstructible
    // content: the history starts at first_retained() and may skip
    // coarsened-away versions.
    TXML_RETURN_IF_ERROR(ForEachRetainedVersion(
        *doc, [&](const DeltaChainCursor& cursor) {
          const VersionNum v = cursor.version();
          const Timestamp ts = doc->delta_index().TimestampOf(v);
          const EditScript* delta =
              v > doc->first_retained()
                  ? &doc->RetainedTransition(doc->PrevRetained(v))
                  : nullptr;
          for (StoreObserver* observer : observers) {
            observer->OnVersionStored(doc->doc_id(), v, ts, cursor.tree(),
                                      delta);
          }
          return Status::OK();
        }));
    if (doc->deleted()) {
      for (StoreObserver* observer : observers) {
        observer->OnDocumentDeleted(doc->doc_id(), doc->version_count(),
                                    doc->delete_time());
      }
    }
  }
  return Status::OK();
}

}  // namespace txml
