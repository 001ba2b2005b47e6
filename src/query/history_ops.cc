#include "src/query/history_ops.h"

#include <utility>

#include "src/diff/matcher.h"
#include "src/storage/delta_chain_cursor.h"
#include "src/util/logging.h"
#include "src/util/macros.h"

namespace txml {
namespace {

/// Visits the versions of `doc` whose validity overlaps [t1, t2), most
/// recent first (Section 7.3.4: the algorithm outputs the history
/// backwards), as a DeltaChainCursor opened at the newest needed version
/// and stepped backward — O(range) delta applications total.
template <typename Fn>
Status WalkVersionsBackward(const VersionedDocument& doc, Timestamp t1,
                            Timestamp t2, Fn&& visit) {
  // Only retained versions are visited: after a vacuum, a coarse-kept
  // version's validity covers its coarsened-away successors, and nothing
  // below first_retained() exists any more (PrevRetained returns 0 there).
  VersionNum hi = 0;
  for (VersionNum v = doc.version_count(); v != 0; v = doc.PrevRetained(v)) {
    TimeInterval validity = doc.RetainedValidity(v);
    if (validity.start < t2 && validity.start < validity.end) {
      hi = v;
      break;
    }
  }
  if (hi == 0 || doc.RetainedValidity(hi).end <= t1) return Status::OK();

  TXML_ASSIGN_OR_RETURN(DeltaChainCursor cursor,
                        DeltaChainCursor::Open(doc, hi));
  for (;;) {
    TimeInterval validity = doc.RetainedValidity(cursor.version());
    if (validity.end <= t1) break;  // older versions end even earlier
    visit(validity, cursor);
    if (doc.PrevRetained(cursor.version()) == 0) break;
    TXML_RETURN_IF_ERROR(cursor.StepBackward());
  }
  return Status::OK();
}

}  // namespace

Status WalkDocumentVersionsBackward(
    const VersionedDocument& doc, Timestamp t1, Timestamp t2,
    const std::function<void(VersionNum, const TimeInterval&,
                             const XmlNode&)>& visit) {
  return WalkVersionsBackward(
      doc, t1, t2,
      [&](const TimeInterval& validity, const DeltaChainCursor& cursor) {
        visit(cursor.version(), validity, cursor.tree());
      });
}

StatusOr<std::map<Xid, std::vector<MaterializedVersion>>> ElementVersions(
    const VersionedDocument& doc,
    std::map<Xid, std::vector<TimeInterval>> runs, bool materialize,
    size_t* versions_walked) {
  struct Tracked {
    Xid xid;
    std::vector<TimeInterval> runs;  // coalesced
    std::vector<MaterializedVersion>* history;
    uint64_t prev_hash = 0;
    bool prev_present = false;
  };
  std::map<Xid, std::vector<MaterializedVersion>> versions;
  std::vector<Tracked> tracked;
  tracked.reserve(runs.size());
  Timestamp lo = Timestamp::Infinity();
  Timestamp hi = Timestamp::NegInfinity();
  for (auto& [xid, element_runs] : runs) {
    for (const TimeInterval& run : element_runs) {
      if (run.start < lo) lo = run.start;
      if (run.end > hi) hi = run.end;
    }
    tracked.push_back(
        Tracked{xid, Coalesce(std::move(element_runs)), &versions[xid]});
  }
  if (tracked.empty()) return versions;

  TXML_RETURN_IF_ERROR(WalkVersionsBackward(
      doc, lo, hi,
      [&](const TimeInterval& validity, const DeltaChainCursor& cursor) {
        if (versions_walked != nullptr) ++*versions_walked;
        for (Tracked& state : tracked) {
          bool in_run = false;
          for (const TimeInterval& run : state.runs) {
            if (run.Overlaps(validity)) {
              in_run = true;
              break;
            }
          }
          const XmlNode* element =
              in_run ? cursor.Find(state.xid) : nullptr;
          if (element == nullptr) {
            state.prev_present = false;
            continue;
          }
          uint64_t hash = SubtreeHash(*element);
          std::vector<MaterializedVersion>& history = *state.history;
          if (state.prev_present && !history.empty() &&
              hash == state.prev_hash) {
            // Unchanged from the (more recent) neighbouring version:
            // extend that entry's validity backwards — same element
            // version.
            history.back().validity.start = validity.start;
            history.back().teid.timestamp = element->timestamp();
          } else {
            history.push_back(MaterializedVersion{
                Teid{Eid{doc.doc_id(), state.xid}, element->timestamp()},
                validity,
                materialize ? element->Clone() : nullptr});
          }
          state.prev_hash = hash;
          state.prev_present = true;
        }
      }));
  return versions;
}

StatusOr<std::unique_ptr<XmlNode>> Reconstruct(const QueryContext& ctx,
                                               const Teid& teid) {
  TXML_CHECK(ctx.store != nullptr);
  const VersionedDocument* doc = ctx.store->FindById(teid.eid.doc_id);
  if (doc == nullptr) {
    return Status::NotFound("no document with id " +
                            std::to_string(teid.eid.doc_id));
  }
  TXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> tree,
                        doc->ReconstructAt(teid.timestamp));
  if (tree->xid() == teid.eid.xid) return tree;
  const XmlNode* element = tree->FindByXid(teid.eid.xid);
  if (element == nullptr) {
    return Status::NotFound("element " + teid.eid.ToString() +
                            " does not exist at " + teid.timestamp.ToString());
  }
  return element->Clone();
}

StatusOr<std::vector<MaterializedVersion>> DocHistory(const QueryContext& ctx,
                                                      DocId doc_id,
                                                      Timestamp t1,
                                                      Timestamp t2) {
  TXML_CHECK(ctx.store != nullptr);
  if (t2 <= t1) {
    return Status::InvalidArgument("empty history interval [" +
                                   t1.ToString() + ", " + t2.ToString() + ")");
  }
  const VersionedDocument* doc = ctx.store->FindById(doc_id);
  if (doc == nullptr) {
    return Status::NotFound("no document with id " + std::to_string(doc_id));
  }
  std::vector<MaterializedVersion> history;
  TXML_RETURN_IF_ERROR(WalkVersionsBackward(
      *doc, t1, t2,
      [&](const TimeInterval& validity, const DeltaChainCursor& cursor) {
        const XmlNode& tree = cursor.tree();
        history.push_back(MaterializedVersion{
            Teid{Eid{doc_id, tree.xid()}, validity.start}, validity,
            tree.Clone()});
      }));
  return history;
}

StatusOr<std::vector<MaterializedVersion>> ElementHistory(
    const QueryContext& ctx, const Eid& eid, Timestamp t1, Timestamp t2) {
  // Section 7.3.5: DocHistory filtered to the subtree rooted at the EID —
  // "even if it was possible to optimize this so that only the desired
  // subtrees are reconstructed, the whole deltas would have to be read
  // anyway". We do apply whole deltas, but clone only the element.
  TXML_CHECK(ctx.store != nullptr);
  if (t2 <= t1) {
    return Status::InvalidArgument("empty history interval [" +
                                   t1.ToString() + ", " + t2.ToString() + ")");
  }
  const VersionedDocument* doc = ctx.store->FindById(eid.doc_id);
  if (doc == nullptr) {
    return Status::NotFound("no document with id " +
                            std::to_string(eid.doc_id));
  }
  TXML_ASSIGN_OR_RETURN(
      auto versions,
      ElementVersions(*doc, {{eid.xid, {TimeInterval{t1, t2}}}},
                      /*materialize=*/true));
  return std::move(versions[eid.xid]);
}

}  // namespace txml
