#include "src/storage/versioned_document.h"

#include <algorithm>
#include <utility>

#include "src/diff/diff.h"
#include "src/storage/delta_chain_cursor.h"
#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/macros.h"
#include "src/xml/codec.h"

namespace txml {

VersionedDocument::VersionedDocument(DocId doc_id, std::string url,
                                     uint32_t snapshot_every)
    : doc_id_(doc_id), url_(std::move(url)), snapshot_every_(snapshot_every) {}

StatusOr<VersionedDocument::PreparedVersion>
VersionedDocument::PrepareVersion(std::unique_ptr<XmlNode> content,
                                  Timestamp ts) const {
  if (content == nullptr || !content->is_element()) {
    return Status::InvalidArgument("document version must be an element tree");
  }
  if (deleted()) {
    return Status::InvalidArgument("document '" + url_ +
                                   "' was deleted; EIDs are not reused");
  }
  if (version_count() > 0 && ts <= delta_index_.last_timestamp()) {
    return Status::InvalidArgument(
        "version timestamps must be strictly increasing (transaction time)");
  }

  PreparedVersion prepared;
  prepared.xids = xids_;
  prepared.ts = ts;
  if (current_ == nullptr) {
    AssignFreshXids(content.get(), &prepared.xids);
    StampAll(content.get(), ts);
  } else {
    TXML_ASSIGN_OR_RETURN(
        DiffResult diff, DiffTrees(*current_, content.get(), &prepared.xids,
                                   ts));
    prepared.delta = std::move(diff.script);
    const VersionNum version = version_count() + 1;
    if (snapshot_every_ > 0 && version % snapshot_every_ == 0) {
      prepared.snapshot = content->Clone();
    }
  }
  prepared.tree = std::move(content);
  return prepared;
}

VersionedDocument::AppendResult VersionedDocument::PublishVersion(
    PreparedVersion prepared) {
  xids_ = prepared.xids;
  delta_index_.Append(prepared.ts);
  current_ = std::move(prepared.tree);
  AppendResult result;
  result.version = version_count();
  if (prepared.delta.has_value()) {
    deltas_.push_back(std::move(*prepared.delta));
    result.delta = &deltas_.back();
  }
  if (prepared.snapshot != nullptr) {
    snapshots_[result.version] = std::move(prepared.snapshot);
  }
  return result;
}

StatusOr<VersionedDocument::AppendResult> VersionedDocument::AppendVersion(
    std::unique_ptr<XmlNode> content, Timestamp ts) {
  TXML_ASSIGN_OR_RETURN(PreparedVersion prepared,
                        PrepareVersion(std::move(content), ts));
  return PublishVersion(std::move(prepared));
}

Status VersionedDocument::MarkDeleted(Timestamp ts) {
  if (version_count() == 0) {
    return Status::InvalidArgument("cannot delete an empty document");
  }
  if (deleted()) {
    return Status::InvalidArgument("document already deleted");
  }
  if (ts <= delta_index_.last_timestamp()) {
    return Status::InvalidArgument(
        "delete timestamp must follow the last version");
  }
  delete_ts_ = ts;
  return Status::OK();
}

TimeInterval VersionedDocument::VersionValidity(VersionNum v) const {
  TimeInterval iv = delta_index_.ValidityOf(v);
  if (iv.end > delete_ts_) iv.end = delete_ts_;
  return iv;
}

bool VersionedDocument::IsRetained(VersionNum v) const {
  if (v < first_retained_ || v > version_count()) return false;
  if (v >= dense_floor_) return true;
  return std::binary_search(coarse_kept_.begin(), coarse_kept_.end(), v);
}

VersionNum VersionedDocument::SnapToRetained(VersionNum v) const {
  if (v < first_retained_) return 0;
  if (v >= dense_floor_) return std::min(v, version_count());
  auto it = std::upper_bound(coarse_kept_.begin(), coarse_kept_.end(), v);
  return *(it - 1);  // coarse_kept_ starts at first_retained_ <= v
}

VersionNum VersionedDocument::NextRetained(VersionNum v) const {
  if (v >= dense_floor_) return v < version_count() ? v + 1 : 0;
  auto it = std::upper_bound(coarse_kept_.begin(), coarse_kept_.end(), v);
  return it == coarse_kept_.end() ? dense_floor_ : *it;
}

VersionNum VersionedDocument::PrevRetained(VersionNum v) const {
  if (v > dense_floor_) return v - 1;
  auto it = std::lower_bound(coarse_kept_.begin(), coarse_kept_.end(), v);
  return it == coarse_kept_.begin() ? 0 : *(it - 1);
}

bool VersionedDocument::AnyRetainedIn(VersionNum start,
                                      VersionNum end) const {
  if (end <= start || version_count() == 0) return false;
  VersionNum last = std::min<VersionNum>(end - 1, version_count());
  VersionNum snap = SnapToRetained(last);
  return snap != 0 && snap >= start;
}

const EditScript& VersionedDocument::RetainedTransition(
    VersionNum from) const {
  if (from >= dense_floor_) return TransitionDelta(from);
  auto it = std::lower_bound(coarse_kept_.begin(), coarse_kept_.end(), from);
  TXML_DCHECK(it != coarse_kept_.end() && *it == from);
  return coarse_deltas_[it - coarse_kept_.begin()];
}

TimeInterval VersionedDocument::RetainedValidity(VersionNum v) const {
  VersionNum next = NextRetained(v);
  TimeInterval iv{delta_index_.TimestampOf(v),
                  next != 0 ? delta_index_.TimestampOf(next)
                            : Timestamp::Infinity()};
  if (iv.end > delete_ts_) iv.end = delete_ts_;
  return iv;
}

size_t VersionedDocument::RetainedSteps(VersionNum lo, VersionNum hi) const {
  if (lo >= dense_floor_) return hi - lo;
  size_t lo_idx = std::lower_bound(coarse_kept_.begin(), coarse_kept_.end(),
                                   lo) -
                  coarse_kept_.begin();
  if (hi < dense_floor_) {
    size_t hi_idx = std::lower_bound(coarse_kept_.begin(),
                                     coarse_kept_.end(), hi) -
                    coarse_kept_.begin();
    return hi_idx - lo_idx;
  }
  return (coarse_kept_.size() - lo_idx) + (hi - dense_floor_);
}

VersionedDocument::ChainAnchor VersionedDocument::CheapestAnchor(
    VersionNum target) const {
  TXML_DCHECK(IsRetained(target));
  ChainAnchor anchor{ChainAnchor::kCurrent, version_count(), current_.get()};
  auto it = snapshots_.lower_bound(target);
  if (it != snapshots_.end() && it->first < anchor.version) {
    anchor = {ChainAnchor::kSnapshot, it->first, it->second.get()};
  }
  // A vacuumed document also has a complete version at the *bottom* of the
  // chain: the base snapshot. Walking forward from it when that is cheaper
  // is what makes old-version reads faster after coarsening.
  if (base_ != nullptr && RetainedSteps(first_retained_, target) <
                              RetainedSteps(target, anchor.version)) {
    anchor = {ChainAnchor::kBase, first_retained_, base_.get()};
  }
  return anchor;
}

StatusOr<std::unique_ptr<XmlNode>> VersionedDocument::ReconstructVersion(
    VersionNum v, ReconstructStats* stats) const {
  TXML_ASSIGN_OR_RETURN(DeltaChainCursor cursor,
                        DeltaChainCursor::Open(*this, v, stats));
  return cursor.TakeTree();
}

StatusOr<std::unique_ptr<XmlNode>> VersionedDocument::ReconstructAt(
    Timestamp t, ReconstructStats* stats) const {
  if (!ExistsAt(t)) {
    return Status::NotFound("document '" + url_ + "' does not exist at " +
                            t.ToString());
  }
  auto v = delta_index_.VersionAt(t);
  TXML_DCHECK(v.has_value());
  return ReconstructVersion(*v, stats);
}

std::vector<VersionNum> VersionedDocument::SnapshotVersions() const {
  std::vector<VersionNum> versions;
  versions.reserve(snapshots_.size());
  for (const auto& [v, tree] : snapshots_) versions.push_back(v);
  return versions;
}

size_t VersionedDocument::CurrentBytes() const {
  if (current_ == nullptr) return 0;
  return EncodeNodeToString(*current_).size();
}

size_t VersionedDocument::DeltaBytes() const {
  size_t total = 0;
  std::string buf;
  for (const EditScript& delta : deltas_) {
    buf.clear();
    delta.EncodeTo(&buf);
    total += buf.size();
  }
  for (const EditScript& delta : coarse_deltas_) {
    buf.clear();
    delta.EncodeTo(&buf);
    total += buf.size();
  }
  return total;
}

size_t VersionedDocument::SnapshotBytes() const {
  size_t total = 0;
  for (const auto& [v, tree] : snapshots_) {
    total += EncodeNodeToString(*tree).size();
  }
  if (base_ != nullptr) total += EncodeNodeToString(*base_).size();
  return total;
}

void VersionedDocument::EncodeTo(std::string* dst) const {
  PutVarint32(dst, doc_id_);
  PutLengthPrefixed(dst, url_);
  PutVarint32(dst, snapshot_every_);
  PutVarint32(dst, xids_.next());
  PutVarintSigned64(dst, delete_ts_.micros());
  delta_index_.EncodeTo(dst);
  PutVarint32(dst, current_ != nullptr ? 1 : 0);
  if (current_ != nullptr) EncodeNode(*current_, dst);
  PutVarint64(dst, deltas_.size());
  for (const EditScript& delta : deltas_) {
    std::string buf;
    delta.EncodeTo(&buf);
    PutLengthPrefixed(dst, buf);
  }
  PutVarint64(dst, snapshots_.size());
  for (const auto& [v, tree] : snapshots_) {
    PutVarint32(dst, v);
    EncodeNode(*tree, dst);
  }
  // Trailing retention section, present only once the document has been
  // vacuumed so unvacuumed documents keep the original byte layout
  // (Decode distinguishes the two via AtEnd).
  if (base_ != nullptr) {
    PutVarint32(dst, first_retained_);
    PutVarint32(dst, dense_floor_);
    EncodeNode(*base_, dst);
    PutVarint64(dst, coarse_kept_.size());
    for (size_t i = 0; i < coarse_kept_.size(); ++i) {
      PutVarint32(dst, coarse_kept_[i]);
      std::string buf;
      coarse_deltas_[i].EncodeTo(&buf);
      PutLengthPrefixed(dst, buf);
    }
  }
}

StatusOr<std::unique_ptr<VersionedDocument>> VersionedDocument::Decode(
    std::string_view data) {
  Decoder decoder(data);
  auto doc_id = decoder.ReadVarint32();
  if (!doc_id.ok()) return doc_id.status();
  auto url = decoder.ReadLengthPrefixed();
  if (!url.ok()) return url.status();
  auto snapshot_every = decoder.ReadVarint32();
  if (!snapshot_every.ok()) return snapshot_every.status();
  auto next_xid = decoder.ReadVarint32();
  if (!next_xid.ok()) return next_xid.status();
  auto delete_ts = decoder.ReadVarintSigned64();
  if (!delete_ts.ok()) return delete_ts.status();

  auto doc = std::make_unique<VersionedDocument>(
      *doc_id, std::string(*url), *snapshot_every);
  doc->xids_ = XidAllocator(*next_xid);
  doc->delete_ts_ = Timestamp::FromMicros(*delete_ts);

  auto index = DeltaIndex::Decode(&decoder);
  if (!index.ok()) return index.status();
  doc->delta_index_ = std::move(*index);

  auto has_current = decoder.ReadVarint32();
  if (!has_current.ok()) return has_current.status();
  if (*has_current != 0) {
    auto current = DecodeNode(&decoder);
    if (!current.ok()) return current.status();
    doc->current_ = std::move(*current);
  }

  auto delta_count = decoder.ReadVarint64();
  if (!delta_count.ok()) return delta_count.status();
  for (uint64_t i = 0; i < *delta_count; ++i) {
    auto buf = decoder.ReadLengthPrefixed();
    if (!buf.ok()) return buf.status();
    auto delta = EditScript::Decode(*buf);
    if (!delta.ok()) return delta.status();
    doc->deltas_.push_back(std::move(*delta));
  }

  auto snapshot_count = decoder.ReadVarint64();
  if (!snapshot_count.ok()) return snapshot_count.status();
  for (uint64_t i = 0; i < *snapshot_count; ++i) {
    auto v = decoder.ReadVarint32();
    if (!v.ok()) return v.status();
    auto tree = DecodeNode(&decoder);
    if (!tree.ok()) return tree.status();
    doc->snapshots_[*v] = std::move(*tree);
  }

  if (!decoder.AtEnd()) {
    // Retention section of a vacuumed document.
    auto first_retained = decoder.ReadVarint32();
    if (!first_retained.ok()) return first_retained.status();
    auto dense_floor = decoder.ReadVarint32();
    if (!dense_floor.ok()) return dense_floor.status();
    if (*first_retained < 1 || *dense_floor < *first_retained) {
      return Status::Corruption("bad retention horizons");
    }
    auto base = DecodeNode(&decoder);
    if (!base.ok()) return base.status();
    auto kept_count = decoder.ReadVarint64();
    if (!kept_count.ok()) return kept_count.status();
    for (uint64_t i = 0; i < *kept_count; ++i) {
      auto v = decoder.ReadVarint32();
      if (!v.ok()) return v.status();
      auto buf = decoder.ReadLengthPrefixed();
      if (!buf.ok()) return buf.status();
      auto delta = EditScript::Decode(*buf);
      if (!delta.ok()) return delta.status();
      doc->coarse_kept_.push_back(*v);
      doc->coarse_deltas_.push_back(std::move(*delta));
    }
    doc->first_retained_ = *first_retained;
    doc->dense_floor_ = *dense_floor;
    doc->base_ = std::move(*base);
    doc->delta_index_.RestoreFirstVersion(*first_retained);
    bool kept_ok =
        doc->coarse_kept_.empty()
            ? doc->dense_floor_ == doc->first_retained_
            : doc->coarse_kept_.front() == doc->first_retained_ &&
                  doc->coarse_kept_.back() < doc->dense_floor_ &&
                  std::is_sorted(doc->coarse_kept_.begin(),
                                 doc->coarse_kept_.end());
    if (!kept_ok || doc->dense_floor_ > doc->version_count()) {
      return Status::Corruption("bad coarse retention chain");
    }
  }
  if (!decoder.AtEnd()) {
    return Status::Corruption("trailing bytes after versioned document");
  }

  VersionNum expected_deltas =
      *has_current != 0 ? doc->version_count() - doc->dense_floor_ : 0;
  if (doc->deltas_.size() != expected_deltas ||
      (*has_current == 0 && doc->version_count() != 0)) {
    return Status::Corruption("delta chain length does not match index");
  }
  return doc;
}

}  // namespace txml
