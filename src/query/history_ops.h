#ifndef TXML_SRC_QUERY_HISTORY_OPS_H_
#define TXML_SRC_QUERY_HISTORY_OPS_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/query/context.h"
#include "src/storage/delta_chain_cursor.h"
#include "src/util/statusor.h"
#include "src/util/timestamp.h"
#include "src/xml/ids.h"
#include "src/xml/node.h"

namespace txml {

/// One materialized version of a document or element.
struct MaterializedVersion {
  Teid teid;
  TimeInterval validity;
  std::unique_ptr<XmlNode> tree;
};

/// Reconstruct(TEID) — Section 7.3.3: materializes the subtree rooted at
/// the TEID's EID in the version valid at the TEID's timestamp. Deltas are
/// applied backwards from the current version (or from the oldest snapshot
/// at or after the target). NotFound if the document does not exist at that
/// time or the element is not present in that version.
StatusOr<std::unique_ptr<XmlNode>> Reconstruct(const QueryContext& ctx,
                                               const Teid& teid);

/// DocHistory(document, t1, t2) — Section 7.3.4: all versions of the
/// document valid in [t1, t2), *most recent first* (the paper notes the
/// algorithm naturally outputs the history backwards). TEIDs are the
/// document roots.
StatusOr<std::vector<MaterializedVersion>> DocHistory(const QueryContext& ctx,
                                                      DocId doc_id,
                                                      Timestamp t1,
                                                      Timestamp t2);

/// Low-level history walker: visits the versions of `doc` whose validity
/// overlaps [t1, t2), *most recent first*. One DeltaChainCursor opens at
/// the newest needed version; each older version costs one backward delta
/// against the cursor's persistent XID index, so a walk over k versions
/// costs k delta applications total. The visited tree is transient —
/// callbacks must clone whatever they keep. This is the engine under
/// DocHistory / ElementHistory and the executor's [EVERY] binding, which
/// shares one walk across all elements of a document (the paper's
/// future-work goal of "reducing the number of delta versions that have to
/// be retrieved").
Status WalkDocumentVersionsBackward(
    const VersionedDocument& doc, Timestamp t1, Timestamp t2,
    const std::function<void(VersionNum, const TimeInterval&,
                             const XmlNode&)>& visit);

/// The same walk, visiting the cursor itself, so callers can look tracked
/// elements up by XID (DeltaChainCursor::Find) instead of searching each
/// version's tree.
Status WalkDocumentCursorBackward(
    const VersionedDocument& doc, Timestamp t1, Timestamp t2,
    const std::function<void(const TimeInterval&, const DeltaChainCursor&)>&
        visit);

/// ElementHistory(EID, t1, t2) — Section 7.3.5: DocHistory filtered to the
/// subtree rooted at the EID; versions where the element does not exist
/// are skipped. Most recent first. Consecutive versions in which the
/// element's subtree is unchanged are collapsed into one entry whose
/// validity spans the run (one element version, as the data model sees it).
StatusOr<std::vector<MaterializedVersion>> ElementHistory(
    const QueryContext& ctx, const Eid& eid, Timestamp t1, Timestamp t2);

}  // namespace txml

#endif  // TXML_SRC_QUERY_HISTORY_OPS_H_
