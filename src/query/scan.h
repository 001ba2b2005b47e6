#ifndef TXML_SRC_QUERY_SCAN_H_
#define TXML_SRC_QUERY_SCAN_H_

#include <memory>
#include <vector>

#include "src/query/context.h"
#include "src/util/statusor.h"
#include "src/util/timestamp.h"
#include "src/xml/ids.h"
#include "src/xml/pattern.h"

namespace txml {

/// The materialized tree of retained version `v` of `doc` — the one
/// current-version rule every scan and binding path follows:
///  * the current version of a live document aliases storage. That is
///    cheap and safe for one execution under the reader's epoch, and the
///    alias never enters the shared cache (cached trees must be owned —
///    see SnapshotCacheInterface);
///  * any other version comes from the shared snapshot cache when one is
///    attached, else it is reconstructed and offered to the cache.
/// `cache_hit`, when non-null, reports whether the shared cache served it.
StatusOr<std::shared_ptr<const XmlNode>> SnapshotTree(
    const QueryContext& ctx, const VersionedDocument& doc, VersionNum v,
    bool* cache_hit = nullptr);

/// One result of a pattern-scan operator: an embedding of the pattern into
/// one document, valid over a (maximal) run of consecutive versions.
///
///  * For snapshot scans (PatternScan / TPatternScan) the run is the single
///    version valid at the scan time.
///  * For TPatternScanAll the run is the maximal version range over which
///    this embedding holds — adjacent versions where every pattern node's
///    occurrence is unchanged collapse into one match, which is what makes
///    history scans proportional to change volume.
struct ScanMatch {
  DocId doc_id = 0;
  /// Version run [first_version, end_version).
  VersionNum first_version = 0;
  VersionNum end_version = 0;
  /// Time validity of the run: [commit ts of first version, commit ts of
  /// end version), capped by the document delete time; open-ended for
  /// still-current matches.
  TimeInterval validity;
  /// Matched element XID per pattern-node id, and its root-to-element path.
  std::vector<Xid> elements;
  std::vector<std::vector<Xid>> paths;

  /// The TEID of the projected node (Section 6.1: operators output sets of
  /// TEIDs). The timestamp is the start of the run's validity.
  Teid ProjectedTeid(const Pattern& pattern) const {
    int id = pattern.ProjectedId();
    return Teid{Eid{doc_id, id >= 0 ? elements[static_cast<size_t>(id)]
                                    : kInvalidXid},
                validity.start};
  }
};

/// The index-join scans of Section 7.3. Each reads, groups and joins the
/// postings of `docs` only (the FROM-resolved set, the same parameter the
/// traversal arms take): the FTI lookups skip every other document's
/// postings. Rows come in ascending document id, then posting order
/// within a document, so a scan over `docs` returns exactly the rows of
/// the corpus-wide scan whose doc_id is in `docs`. The overloads without
/// `docs` scan every document of the store.

/// PatternScan over current versions only (the non-temporal operator of
/// Aguilera et al. that the temporal operators extend): FTI_lookup per
/// pattern word, then a multiway join on (document, relationship).
StatusOr<std::vector<ScanMatch>> PatternScanCurrent(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs);
StatusOr<std::vector<ScanMatch>> PatternScanCurrent(const QueryContext& ctx,
                                                    const Pattern& pattern);

/// TPatternScan(Δ, pattern, t) — Section 7.3.1: like PatternScan but using
/// FTI_lookup_T, considering only entries valid at time t.
StatusOr<std::vector<ScanMatch>> TPatternScan(
    const QueryContext& ctx, const Pattern& pattern, Timestamp t,
    const std::vector<const VersionedDocument*>& docs);
StatusOr<std::vector<ScanMatch>> TPatternScan(const QueryContext& ctx,
                                              const Pattern& pattern,
                                              Timestamp t);

/// TPatternScanAll(Δ, pattern) — Section 7.3.2: FTI_lookup_H per word and a
/// temporal multiway join — the relationship predicates plus "words in the
/// pattern valid at the same time" (non-empty version-range intersection).
StatusOr<std::vector<ScanMatch>> TPatternScanAll(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs);
StatusOr<std::vector<ScanMatch>> TPatternScanAll(const QueryContext& ctx,
                                                 const Pattern& pattern);

/// Traversal ("stratum") variants of the snapshot, current and history
/// scans: materialize the relevant version(s) of each document of `docs`
/// and evaluate the pattern directly with MatchPattern — no FTI involved.
/// They emit the same ScanMatch rows as the index scans over the same
/// `docs` (TPatternScanAllTraversal coalesces each embedding's maximal run
/// of consecutive retained versions, mirroring the posting runs the index
/// join intersects). The cost-based planner (src/query/planner.h) picks
/// between these and the index joins per query; they are also each
/// other's oracle in tests.
StatusOr<std::vector<ScanMatch>> PatternScanCurrentTraversal(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs);
StatusOr<std::vector<ScanMatch>> TPatternScanTraversal(
    const QueryContext& ctx, const Pattern& pattern, Timestamp t,
    const std::vector<const VersionedDocument*>& docs);
StatusOr<std::vector<ScanMatch>> TPatternScanAllTraversal(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs);

}  // namespace txml

#endif  // TXML_SRC_QUERY_SCAN_H_
