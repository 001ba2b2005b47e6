#ifndef TXML_SRC_INDEX_FTI_H_
#define TXML_SRC_INDEX_FTI_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/index/differential_fti.h"
#include "src/index/posting.h"
#include "src/storage/store.h"
#include "src/util/statusor.h"

namespace txml {

/// The temporal full-text index of Section 7.2, built with the paper's
/// chosen alternative: *index the contents of the versions*. Postings carry
/// version-number validity ranges; occurrences surviving from one version
/// to the next keep their posting (one entry covers the whole run), so
/// index growth is proportional to change volume, not to version count.
///
/// Maintained incrementally as a StoreObserver: on each stored version the
/// occurrence set of the new tree is diffed against the open occurrences —
/// vanished ones are closed at the new version, new ones opened. That diff
/// re-keys the whole document, so it runs in the prepare phase
/// (BeginVersion), beside readers; the publish phase only appends the
/// opened postings and closes the vanished ones.
///
/// Storage is split RDF-3X-style (DESIGN.md §13) into a compacted **main**
/// index and a small **differential** index. Commits only *append* to the
/// differential — the main posting lists never grow or move between
/// compactions. Together with the prepare/publish split, the index work a
/// commit does inside the exclusive section is proportional to its change
/// volume, regardless of document or index size. (Closing a run that *started* in the
/// main index is an in-place write to that posting's `end` field; postings
/// never move, so lookups' returned pointers are what the usual
/// writer/reader exclusion already covers.) Lookups walk main then
/// differential; CompactDifferential folds the adds onto the main tails,
/// which preserves that merged order — query results are identical before
/// and after a compaction.
///
/// The three access functions of Section 7.2:
///  * LookupCurrent  — FTI_lookup(word): occurrences in currently-valid
///    (last, undeleted) versions;
///  * LookupT        — FTI_lookup_T(word, t): occurrences in the snapshot
///    at time t (version resolution through the delta indexes);
///  * LookupH        — FTI_lookup_H(word): all occurrences over all time.
///
/// Returned pointers are invalidated by the next write to the index.
class TemporalFullTextIndex : public StoreObserver {
 public:
  /// `store` is consulted for version-number <-> timestamp resolution; not
  /// owned, must outlive the index.
  explicit TemporalFullTextIndex(const VersionedDocumentStore* store)
      : store_(store) {}

  // StoreObserver:
  void OnVersionStored(DocId doc_id, VersionNum version, Timestamp ts,
                       const XmlNode& current,
                       const EditScript* delta) override;
  /// Captures the document's open-occurrence map; the pending version
  /// diffs the new tree's occurrences against it.
  std::unique_ptr<PendingVersion> BeginVersion(DocId doc_id) const override;
  void PublishVersion(DocId doc_id, VersionNum version, Timestamp ts,
                      const XmlNode& current, const EditScript* delta,
                      PendingVersion* prepared) override;
  void OnDocumentDeleted(DocId doc_id, VersionNum last,
                         Timestamp ts) override;
  /// Compacts the document's posting lists to its retained history:
  /// postings whose validity range holds no retained version are dropped,
  /// and surviving ranges are re-anchored at first_retained() (stamps
  /// below it are gone from the delta index).
  void OnHistoryVacuumed(const VersionedDocument& doc) override;

  /// Each lookup takes an optional document restriction: when `docs` is
  /// non-null (ascending, duplicate-free ids), postings of every other
  /// document are skipped before any other work — LookupT resolves time to
  /// version only for the named documents. Null means every document.

  /// FTI_lookup: postings valid in the current version of live documents.
  std::vector<const Posting*> LookupCurrent(
      TermKind kind, std::string_view term,
      const std::vector<DocId>* docs = nullptr) const;

  /// FTI_lookup_T: postings valid in the snapshot at time t.
  std::vector<const Posting*> LookupT(
      TermKind kind, std::string_view term, Timestamp t,
      const std::vector<DocId>* docs = nullptr) const;

  /// FTI_lookup_H: every posting for the term, all versions.
  std::vector<const Posting*> LookupH(
      TermKind kind, std::string_view term,
      const std::vector<DocId>* docs = nullptr) const;

  /// Rebuilds an index from scratch by replaying a store's history (used
  /// after loading a persisted store).
  static std::unique_ptr<TemporalFullTextIndex> Rebuild(
      const VersionedDocumentStore& store);

  /// Compact persistence: posting lists with delta/varint encoding. The
  /// incremental-maintenance state (open-occurrence map) is rebuilt from
  /// the open-ended postings on decode, so a loaded index keeps accepting
  /// writes. The bytes are canonical: terms sorted, each list main then
  /// differential, so they depend on the indexed history only, not on
  /// when the last fold ran.
  void EncodeTo(std::string* dst) const;
  static StatusOr<std::unique_ptr<TemporalFullTextIndex>> Decode(
      std::string_view data, const VersionedDocumentStore* store);

  /// Folds the differential postings onto the tails of the main posting
  /// lists and clears the differential. Requires the same exclusion as a
  /// write (no concurrent lookups). Idempotent when the differential is
  /// empty.
  void CompactDifferential();

  /// Statistics for the E3 index-size experiment.
  size_t term_count() const;
  size_t posting_count() const;
  /// Size of the compressed (varint/delta) encoding of all posting lists.
  size_t EncodedSizeBytes() const;

  /// Gauges of the main/differential split (service stats + compaction
  /// scheduling + planner).
  size_t main_posting_count() const;
  size_t differential_posting_count() const { return diff_.posting_count(); }
  uint64_t compaction_count() const { return compactions_; }

  /// Total postings (main + differential) for one term — the planner's
  /// index-arm cost unit. `term` is lower-cased internally.
  size_t PostingCountFor(TermKind kind, std::string_view term) const;

 private:
  using PostingMap = DifferentialFti::PostingMap;

  struct OpenRef {
    TermKind kind;
    std::string term;
    size_t index;          // into the term's posting vector
    bool in_diff = false;  // which half of the split `index` points into
  };
  /// Occurrence key -> open posting, for one document.
  using OpenMap = std::unordered_map<std::string, OpenRef>;
  class Pending;

  /// Rebuilds open_ from the open-ended postings (posting indices shift
  /// when a vacuum erases list entries).
  void RebuildOpenRefs();

  PostingMap& MapFor(TermKind kind) {
    return kind == TermKind::kElementName ? names_ : words_;
  }
  const PostingMap& MapFor(TermKind kind) const {
    return kind == TermKind::kElementName ? names_ : words_;
  }

  /// The open posting an OpenRef points at (main or differential half).
  Posting* PostingOf(const OpenRef& ref);

  /// Visits the term's postings of `docs` (null: of every document), main
  /// list first then differential — the merged view every lookup uses.
  /// `lowered` must already be lower-cased.
  template <typename Fn>
  void ForEachPosting(TermKind kind, const std::string& lowered,
                      const std::vector<DocId>* docs, Fn&& fn) const;

  const VersionedDocumentStore* store_;
  /// Main (compacted) halves: append-free between compactions.
  PostingMap names_;
  PostingMap words_;
  /// Differential half: all appends land here until the next compaction.
  DifferentialFti diff_;
  uint64_t compactions_ = 0;
  /// Per document: occurrence key -> open posting, for incremental
  /// maintenance.
  std::unordered_map<DocId, OpenMap> open_;
};

}  // namespace txml

#endif  // TXML_SRC_INDEX_FTI_H_
