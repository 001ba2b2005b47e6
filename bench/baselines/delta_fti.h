#ifndef TXML_BENCH_BASELINES_DELTA_FTI_H_
#define TXML_BENCH_BASELINES_DELTA_FTI_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/index/posting.h"
#include "src/storage/store.h"

namespace txml {

/// Alternative B of Section 7.2: *index the contents of the delta objects*
/// — the index records change events ("word appeared in element e at
/// version v" / "word disappeared at version v") instead of validity
/// intervals.
///
/// The paper predicts, and the E3 benchmark confirms, the asymmetry:
/// change-oriented queries ("when was Napoli deleted from the guide?") are
/// direct event lookups, but snapshot queries must fold all events up to
/// the target version to recover the valid occurrence set — cost grows
/// with history length rather than snapshot size.
class DeltaContentIndex : public StoreObserver {
 public:
  enum class Event : uint8_t { kAdded = 0, kRemoved = 1 };

  struct EventPosting {
    DocId doc_id = 0;
    Xid element = kInvalidXid;
    std::vector<Xid> path;
    VersionNum version = 0;
    Event event = Event::kAdded;
  };

  // StoreObserver:
  void OnVersionStored(DocId doc_id, VersionNum version, Timestamp ts,
                       const XmlNode& current,
                       const EditScript* delta) override;
  void OnDocumentDeleted(DocId doc_id, VersionNum last,
                         Timestamp ts) override;
  /// Compacts event runs that fully cancel below the document's drop
  /// horizon (an add/remove pair entirely in dropped history is
  /// unobservable from any retained version). Coarse-zone events are kept:
  /// they still fold correctly for every retained snapshot version.
  void OnHistoryVacuumed(const VersionedDocument& doc) override;

  /// Change query: all add/remove events for a term (optionally filtered
  /// by event kind by the caller). This is the cheap direction.
  std::vector<const EventPosting*> LookupEvents(TermKind kind,
                                                std::string_view term) const;

  /// Snapshot query: occurrences of the term valid at version v of each
  /// document — computed by folding the event list (the expensive
  /// direction). `version_of` maps doc id -> snapshot version (0 = absent).
  std::vector<EventPosting> LookupSnapshot(
      TermKind kind, std::string_view term,
      const std::unordered_map<DocId, VersionNum>& version_of) const;

  size_t term_count() const { return names_.size() + words_.size(); }
  size_t posting_count() const;
  size_t EncodedSizeBytes() const;

 private:
  using EventMap =
      std::unordered_map<std::string, std::vector<EventPosting>>;

  EventMap& MapFor(TermKind kind) {
    return kind == TermKind::kElementName ? names_ : words_;
  }
  const EventMap& MapFor(TermKind kind) const {
    return kind == TermKind::kElementName ? names_ : words_;
  }

  EventMap names_;
  EventMap words_;
  /// Previous occurrence keys per document, to derive events.
  std::unordered_map<DocId, std::unordered_map<std::string, Occurrence>>
      previous_;
};

}  // namespace txml

#endif  // TXML_BENCH_BASELINES_DELTA_FTI_H_
