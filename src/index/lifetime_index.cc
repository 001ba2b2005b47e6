#include "src/index/lifetime_index.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/util/coding.h"

namespace txml {
namespace {

void CollectXids(const XmlNode& node, std::unordered_set<Xid>* out) {
  if (node.xid() != kInvalidXid) out->insert(node.xid());
  for (const auto& child : node.children()) {
    CollectXids(*child, out);
  }
}

}  // namespace

/// One version's lifetime work: the new alive set and the XIDs born and
/// died against the alive set as of BeginVersion.
class LifetimeIndex::Pending : public StoreObserver::PendingVersion {
 public:
  explicit Pending(const std::unordered_set<Xid>* before) : before_(before) {}

  void Prepare(const XmlNode& next) override {
    CollectXids(next, &now_);
    for (Xid xid : now_) {
      if (before_ == nullptr || !before_->contains(xid)) born_.push_back(xid);
    }
    if (before_ == nullptr) return;
    for (Xid xid : *before_) {
      if (!now_.contains(xid)) died_.push_back(xid);
    }
  }

  std::unordered_set<Xid>& now() { return now_; }
  const std::vector<Xid>& born() const { return born_; }
  const std::vector<Xid>& died() const { return died_; }

 private:
  const std::unordered_set<Xid>* before_;
  std::unordered_set<Xid> now_;
  std::vector<Xid> born_;
  std::vector<Xid> died_;
};

std::unique_ptr<StoreObserver::PendingVersion> LifetimeIndex::BeginVersion(
    DocId doc_id) const {
  auto it = alive_.find(doc_id);
  return std::make_unique<Pending>(it == alive_.end() ? nullptr
                                                      : &it->second);
}

void LifetimeIndex::OnVersionStored(DocId doc_id, VersionNum version,
                                    Timestamp ts, const XmlNode& current,
                                    const EditScript* delta) {
  std::unique_ptr<PendingVersion> pending = BeginVersion(doc_id);
  pending->Prepare(current);
  PublishVersion(doc_id, version, ts, current, delta, pending.get());
}

void LifetimeIndex::PublishVersion(DocId doc_id, VersionNum /*version*/,
                                   Timestamp ts, const XmlNode& /*current*/,
                                   const EditScript* /*delta*/,
                                   PendingVersion* prepared) {
  auto* pending = static_cast<Pending*>(prepared);
  for (Xid xid : pending->born()) {
    lifetimes_[Eid{doc_id, xid}] = Lifetime{ts, Timestamp::Infinity()};
  }
  for (Xid xid : pending->died()) {
    lifetimes_[Eid{doc_id, xid}].del = ts;
  }
  alive_[doc_id] = std::move(pending->now());
}

void LifetimeIndex::OnDocumentDeleted(DocId doc_id, VersionNum /*last*/,
                                      Timestamp ts) {
  auto it = alive_.find(doc_id);
  if (it == alive_.end()) return;
  for (Xid xid : it->second) {
    lifetimes_[Eid{doc_id, xid}].del = ts;
  }
  alive_.erase(it);
}

void LifetimeIndex::OnHistoryVacuumed(const VersionedDocument& doc) {
  if (doc.first_retained() <= 1 || doc.version_count() == 0) {
    return;  // coarsen-only vacuum: every element stays reachable
  }
  const Timestamp horizon =
      doc.delta_index().TimestampOf(doc.first_retained());
  const DocId doc_id = doc.doc_id();
  std::erase_if(lifetimes_, [&](const auto& entry) {
    return entry.first.doc_id == doc_id && entry.second.del <= horizon;
  });
}

std::optional<Timestamp> LifetimeIndex::CreTime(const Eid& eid) const {
  auto it = lifetimes_.find(eid);
  if (it == lifetimes_.end()) return std::nullopt;
  return it->second.create;
}

std::optional<Timestamp> LifetimeIndex::DelTime(const Eid& eid) const {
  auto it = lifetimes_.find(eid);
  if (it == lifetimes_.end() || it->second.del.IsInfinite()) {
    return std::nullopt;
  }
  return it->second.del;
}

bool LifetimeIndex::IsAlive(const Eid& eid) const {
  auto it = lifetimes_.find(eid);
  return it != lifetimes_.end() && it->second.del.IsInfinite();
}

void LifetimeIndex::EncodeTo(std::string* dst) const {
  PutVarint64(dst, lifetimes_.size());
  for (const auto& [eid, lifetime] : lifetimes_) {
    PutVarint32(dst, eid.doc_id);
    PutVarint32(dst, eid.xid);
    PutVarintSigned64(dst, lifetime.create.micros());
    PutVarintSigned64(dst, lifetime.del.micros());
  }
}

StatusOr<std::unique_ptr<LifetimeIndex>> LifetimeIndex::Decode(
    std::string_view data) {
  auto index = std::make_unique<LifetimeIndex>();
  Decoder decoder(data);
  auto count = decoder.ReadVarint64();
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto doc = decoder.ReadVarint32();
    if (!doc.ok()) return doc.status();
    auto xid = decoder.ReadVarint32();
    if (!xid.ok()) return xid.status();
    auto create = decoder.ReadVarintSigned64();
    if (!create.ok()) return create.status();
    auto del = decoder.ReadVarintSigned64();
    if (!del.ok()) return del.status();
    Eid eid{*doc, *xid};
    Lifetime lifetime{Timestamp::FromMicros(*create),
                      Timestamp::FromMicros(*del)};
    if (lifetime.del.IsInfinite()) {
      index->alive_[eid.doc_id].insert(eid.xid);
    }
    index->lifetimes_[eid] = lifetime;
  }
  if (!decoder.AtEnd()) {
    return Status::Corruption("trailing bytes after lifetime index");
  }
  return index;
}

}  // namespace txml
