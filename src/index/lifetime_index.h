#ifndef TXML_SRC_INDEX_LIFETIME_INDEX_H_
#define TXML_SRC_INDEX_LIFETIME_INDEX_H_

#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "src/storage/store.h"
#include "src/util/timestamp.h"
#include "src/xml/ids.h"

namespace txml {

/// The auxiliary EID -> (create time, delete time) index of Section 7.3.6 —
/// the alternative to traversing delta chains for CreTime/DelTime. As the
/// paper notes, inserts are mostly append-only (elements enter when their
/// document version commits), so maintenance is cheap; the benefit is O(1)
/// lookups where traversal costs O(versions).
class LifetimeIndex : public StoreObserver {
 public:
  // StoreObserver:
  void OnVersionStored(DocId doc_id, VersionNum version, Timestamp ts,
                       const XmlNode& current,
                       const EditScript* delta) override;
  /// Captures the document's alive set; the pending version computes the
  /// born and died XIDs against it.
  std::unique_ptr<PendingVersion> BeginVersion(DocId doc_id) const override;
  void PublishVersion(DocId doc_id, VersionNum version, Timestamp ts,
                      const XmlNode& current, const EditScript* delta,
                      PendingVersion* prepared) override;
  void OnDocumentDeleted(DocId doc_id, VersionNum last,
                         Timestamp ts) override;
  /// Prunes entries for elements that vanished before the document's drop
  /// horizon — no retained version contains them, so no scan can produce
  /// their EIDs. Entries for elements still reachable keep their exact
  /// create times even when those precede the horizon.
  void OnHistoryVacuumed(const VersionedDocument& doc) override;

  /// Create time of the element (commit time of the version that
  /// introduced it); nullopt for unknown EIDs.
  std::optional<Timestamp> CreTime(const Eid& eid) const;

  /// Delete time: commit time of the version in which the element vanished
  /// (or the document delete time). nullopt if unknown or still alive.
  std::optional<Timestamp> DelTime(const Eid& eid) const;

  bool IsAlive(const Eid& eid) const;

  size_t entry_count() const { return lifetimes_.size(); }

  /// Persistence: entries plus the per-document alive sets (rebuilt from
  /// entries with an infinite delete time).
  void EncodeTo(std::string* dst) const;
  static StatusOr<std::unique_ptr<LifetimeIndex>> Decode(
      std::string_view data);

 private:
  struct Lifetime {
    Timestamp create;
    Timestamp del = Timestamp::Infinity();
  };
  class Pending;

  std::unordered_map<Eid, Lifetime, EidHash> lifetimes_;
  /// XIDs alive in the current version of each document.
  std::unordered_map<DocId, std::unordered_set<Xid>> alive_;
};

}  // namespace txml

#endif  // TXML_SRC_INDEX_LIFETIME_INDEX_H_
