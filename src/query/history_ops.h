#ifndef TXML_SRC_QUERY_HISTORY_OPS_H_
#define TXML_SRC_QUERY_HISTORY_OPS_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/query/context.h"
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
/// DocHistory and ElementVersions.
Status WalkDocumentVersionsBackward(
    const VersionedDocument& doc, Timestamp t1, Timestamp t2,
    const std::function<void(VersionNum, const TimeInterval&,
                             const XmlNode&)>& visit);

/// The element versions of several elements of one document, from one
/// backward walk over the document's versions (the paper's future-work
/// goal of "reducing the number of delta versions that have to be
/// retrieved"). `runs` holds, per element XID, the intervals in which the
/// element is wanted: it is looked up, in O(1) through the cursor's XID
/// index, only in versions overlapping one of them, and the walk covers
/// [earliest start, latest end) of all runs. Consecutive versions in
/// which an element's subtree is unchanged collapse into one entry whose
/// validity spans them (one element version, as the data model sees it).
/// Each element's entries come most recent first; trees are cloned only
/// when `materialize` is set. `versions_walked`, when non-null, counts
/// every document version the walk visits.
StatusOr<std::map<Xid, std::vector<MaterializedVersion>>> ElementVersions(
    const VersionedDocument& doc,
    std::map<Xid, std::vector<TimeInterval>> runs, bool materialize,
    size_t* versions_walked = nullptr);

/// ElementHistory(EID, t1, t2) — Section 7.3.5: DocHistory filtered to the
/// subtree rooted at the EID; versions where the element does not exist
/// are skipped. Most recent first, coalesced as ElementVersions does.
StatusOr<std::vector<MaterializedVersion>> ElementHistory(
    const QueryContext& ctx, const Eid& eid, Timestamp t1, Timestamp t2);

}  // namespace txml

#endif  // TXML_SRC_QUERY_HISTORY_OPS_H_
