#include "src/query/scan.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/index/posting.h"
#include "src/storage/delta_chain_cursor.h"
#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/macros.h"

namespace txml {
namespace {

/// Candidate postings for every pattern node, within one document.
using NodeCandidates = std::vector<std::vector<const Posting*>>;

/// Pattern nodes in id order plus each node's parent id (-1 for the root).
struct PatternShape {
  std::vector<const PatternNode*> nodes;
  std::vector<int> parent;
};

PatternShape ShapeOf(const Pattern& pattern) {
  PatternShape shape;
  shape.nodes = pattern.NodesPreorder();
  shape.parent.assign(shape.nodes.size(), -1);
  for (const PatternNode* node : shape.nodes) {
    for (const auto& child : node->children) {
      shape.parent[static_cast<size_t>(child->id)] = node->id;
    }
  }
  return shape;
}

/// Does `child` stand in the node's axis relationship to `parent`?
bool AxisHolds(PatternNode::Axis axis, const Posting& parent,
               const Posting& child) {
  switch (axis) {
    case PatternNode::Axis::kSelf:
      return parent.path == child.path;
    case PatternNode::Axis::kChild:
      return PathIsParentOf(parent.path, child.path);
    case PatternNode::Axis::kDescendant:
      return PathIsAncestorOf(parent.path, child.path);
    case PatternNode::Axis::kDescendantOrSelf:
      return parent.path == child.path ||
             PathIsAncestorOf(parent.path, child.path);
  }
  return false;
}

/// Root axis is interpreted against the document node: kSelf/kChild bind
/// the document's root element, kDescendant anything strictly below it,
/// kDescendantOrSelf anything.
bool RootAxisHolds(PatternNode::Axis axis, const Posting& posting) {
  switch (axis) {
    case PatternNode::Axis::kSelf:
    case PatternNode::Axis::kChild:
      return posting.path.size() == 1;
    case PatternNode::Axis::kDescendant:
      return posting.path.size() > 1;
    case PatternNode::Axis::kDescendantOrSelf:
      return true;
  }
  return false;
}

/// Resolves each match's version run to its time validity through the
/// delta indexes — shared by the index joins and the traversal scans so
/// both emit byte-identical intervals.
void ResolveValidity(const QueryContext& ctx, std::vector<ScanMatch>* out) {
  for (ScanMatch& match : *out) {
    const VersionedDocument* doc = ctx.store->FindById(match.doc_id);
    TXML_CHECK(doc != nullptr);
    match.validity.start = doc->delta_index().TimestampOf(match.first_version);
    if (match.end_version != kOpenVersion &&
        match.end_version <= doc->version_count()) {
      match.validity.end = doc->delta_index().TimestampOf(match.end_version);
    } else {
      // Open-ended run, or a run closed by document deletion.
      match.validity.end = doc->delete_time();
    }
  }
}

struct VersionRun {
  VersionNum start;
  VersionNum end;  // exclusive; kOpenVersion while current
  bool Intersect(const Posting& posting) {
    if (posting.start > start) start = posting.start;
    if (posting.end < end) end = posting.end;
    return start < end;
  }
};

/// Recursive multiway join within one document: picks a posting for every
/// pattern node such that all axis predicates hold and the version ranges
/// intersect (the "temporal join" of Section 7.3.2).
class DocJoiner {
 public:
  DocJoiner(const PatternShape& shape,
            const std::vector<std::vector<const Posting*>>& candidates,
            std::vector<ScanMatch>* out)
      : shape_(shape), candidates_(candidates), out_(out) {
    chosen_.resize(shape.nodes.size(), nullptr);
  }

  void Run() {
    VersionRun run{0, kOpenVersion};
    Extend(0, run);
  }

 private:
  void Extend(size_t node_idx, VersionRun run) {
    if (node_idx == shape_.nodes.size()) {
      Emit(run);
      return;
    }
    const PatternNode& pnode = *shape_.nodes[node_idx];
    int parent_id = shape_.parent[node_idx];
    for (const Posting* posting : candidates_[node_idx]) {
      if (parent_id < 0) {
        if (!RootAxisHolds(pnode.axis, *posting)) continue;
      } else {
        const Posting& parent = *chosen_[static_cast<size_t>(parent_id)];
        if (!AxisHolds(pnode.axis, parent, *posting)) continue;
      }
      VersionRun next = run;
      if (!next.Intersect(*posting)) continue;
      chosen_[node_idx] = posting;
      Extend(node_idx + 1, next);
      chosen_[node_idx] = nullptr;
    }
  }

  void Emit(const VersionRun& run) {
    ScanMatch match;
    match.doc_id = chosen_[0]->doc_id;
    match.first_version = run.start;
    match.end_version = run.end;
    match.elements.reserve(chosen_.size());
    match.paths.reserve(chosen_.size());
    for (const Posting* posting : chosen_) {
      match.elements.push_back(posting->element);
      match.paths.push_back(posting->path);
    }
    out_->push_back(std::move(match));
  }

  const PatternShape& shape_;
  const std::vector<std::vector<const Posting*>>& candidates_;
  std::vector<ScanMatch>* out_;
  std::vector<const Posting*> chosen_;
};

/// Looks up postings per pattern node with `lookup`, restricted to the
/// documents of `docs`, groups them by document, joins per document in
/// ascending id order, then resolves version runs to time intervals
/// through the delta indexes. No posting of another document is grouped,
/// joined or resolved.
template <typename LookupFn>
StatusOr<std::vector<ScanMatch>> ScanWith(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs, LookupFn lookup) {
  std::vector<ScanMatch> results;
  if (pattern.empty()) return results;
  TXML_CHECK(ctx.store != nullptr && ctx.fti != nullptr);

  // The lookups' restriction: the named ids, ascending. A posting's
  // position in it is its document's grouping slot.
  std::vector<DocId> ids;
  ids.reserve(docs.size());
  for (const VersionedDocument* doc : docs) ids.push_back(doc->doc_id());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  PatternShape shape = ShapeOf(pattern);
  size_t node_count = shape.nodes.size();

  std::vector<NodeCandidates> by_doc(ids.size());
  for (size_t i = 0; i < node_count; ++i) {
    const PatternNode& pnode = *shape.nodes[i];
    TermKind kind = pnode.test == PatternNode::Test::kElementName
                        ? TermKind::kElementName
                        : TermKind::kWord;
    for (const Posting* posting : lookup(kind, pnode.term, &ids)) {
      auto slot = std::lower_bound(ids.begin(), ids.end(), posting->doc_id);
      TXML_DCHECK(slot != ids.end() && *slot == posting->doc_id);
      NodeCandidates& lists = by_doc[static_cast<size_t>(slot - ids.begin())];
      if (lists.empty()) lists.resize(node_count);
      lists[i].push_back(posting);
    }
  }

  for (const NodeCandidates& lists : by_doc) {
    // Every pattern node needs at least one candidate in this document.
    bool complete = !lists.empty();
    for (const auto& list : lists) {
      if (list.empty()) {
        complete = false;
        break;
      }
    }
    if (!complete) continue;
    DocJoiner(shape, lists, &results).Run();
  }

  ResolveValidity(ctx, &results);
  return results;
}

std::vector<const VersionedDocument*> AllDocuments(const QueryContext& ctx) {
  TXML_CHECK(ctx.store != nullptr);
  return ctx.store->AllDocuments();
}

}  // namespace

StatusOr<std::vector<ScanMatch>> PatternScanCurrent(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs) {
  return ScanWith(ctx, pattern, docs,
                  [&](TermKind kind, const std::string& term,
                      const std::vector<DocId>* ids) {
                    return ctx.fti->LookupCurrent(kind, term, ids);
                  });
}

StatusOr<std::vector<ScanMatch>> TPatternScan(
    const QueryContext& ctx, const Pattern& pattern, Timestamp t,
    const std::vector<const VersionedDocument*>& docs) {
  return ScanWith(ctx, pattern, docs,
                  [&](TermKind kind, const std::string& term,
                      const std::vector<DocId>* ids) {
                    return ctx.fti->LookupT(kind, term, t, ids);
                  });
}

StatusOr<std::vector<ScanMatch>> TPatternScanAll(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs) {
  return ScanWith(ctx, pattern, docs,
                  [&](TermKind kind, const std::string& term,
                      const std::vector<DocId>* ids) {
                    return ctx.fti->LookupH(kind, term, ids);
                  });
}

StatusOr<std::vector<ScanMatch>> PatternScanCurrent(const QueryContext& ctx,
                                                    const Pattern& pattern) {
  return PatternScanCurrent(ctx, pattern, AllDocuments(ctx));
}

StatusOr<std::vector<ScanMatch>> TPatternScan(const QueryContext& ctx,
                                              const Pattern& pattern,
                                              Timestamp t) {
  return TPatternScan(ctx, pattern, t, AllDocuments(ctx));
}

StatusOr<std::vector<ScanMatch>> TPatternScanAll(const QueryContext& ctx,
                                                 const Pattern& pattern) {
  return TPatternScanAll(ctx, pattern, AllDocuments(ctx));
}

namespace {

/// Root-to-element XID path of every element in a tree. Word occurrences
/// attach to their containing element, so element paths cover every
/// pattern node's match.
void BuildPaths(const XmlNode& node, std::vector<Xid>* trail,
                std::unordered_map<const XmlNode*, std::vector<Xid>>* paths) {
  trail->push_back(node.xid());
  (*paths)[&node] = *trail;
  for (const auto& child : node.children()) {
    if (child->is_element()) BuildPaths(*child, trail, paths);
  }
  trail->pop_back();
}

/// One MatchPattern embedding rendered into ScanMatch element/path
/// columns, plus a fingerprint for run coalescing across versions (the
/// paths determine the elements — each path ends in its element — and a
/// moved element changes path, closing its run, exactly like the FTI's
/// occurrence keys).
struct EmbeddingRow {
  std::vector<Xid> elements;
  std::vector<std::vector<Xid>> paths;
  std::string key;
};

std::vector<EmbeddingRow> EmbeddingsOf(const XmlNode& root,
                                       const Pattern& pattern) {
  std::unordered_map<const XmlNode*, std::vector<Xid>> paths;
  std::vector<Xid> trail;
  BuildPaths(root, &trail, &paths);
  std::vector<EmbeddingRow> rows;
  for (const PatternMatch& match : MatchPattern(root, pattern)) {
    EmbeddingRow row;
    row.elements.reserve(match.size());
    row.paths.reserve(match.size());
    for (const XmlNode* node : match) {
      row.elements.push_back(node->xid());
      row.paths.push_back(paths.at(node));
    }
    for (const auto& path : row.paths) {
      PutVarint64(&row.key, path.size());
      for (Xid xid : path) PutVarint32(&row.key, xid);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

StatusOr<std::shared_ptr<const XmlNode>> SnapshotTree(
    const QueryContext& ctx, const VersionedDocument& doc, VersionNum v,
    bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  if (v == doc.version_count() && !doc.deleted()) {
    return std::shared_ptr<const XmlNode>(doc.current(),
                                          [](const XmlNode*) {});
  }
  if (ctx.snapshot_cache != nullptr) {
    if (auto hit = ctx.snapshot_cache->Lookup(doc.doc_id(), v)) {
      if (cache_hit != nullptr) *cache_hit = true;
      return hit;
    }
  }
  auto tree = doc.ReconstructVersion(v);
  if (!tree.ok()) return tree.status();
  std::shared_ptr<const XmlNode> shared(std::move(*tree));
  if (ctx.snapshot_cache != nullptr) {
    ctx.snapshot_cache->Insert(doc.doc_id(), v, shared);
  }
  return shared;
}

StatusOr<std::vector<ScanMatch>> PatternScanCurrentTraversal(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs) {
  std::vector<ScanMatch> results;
  if (pattern.empty()) return results;
  TXML_CHECK(ctx.store != nullptr);
  for (const VersionedDocument* doc : docs) {
    if (doc->deleted() || doc->current() == nullptr) continue;
    for (EmbeddingRow& row : EmbeddingsOf(*doc->current(), pattern)) {
      ScanMatch match;
      match.doc_id = doc->doc_id();
      match.first_version = doc->version_count();
      match.end_version = kOpenVersion;
      match.elements = std::move(row.elements);
      match.paths = std::move(row.paths);
      results.push_back(std::move(match));
    }
  }
  ResolveValidity(ctx, &results);
  return results;
}

StatusOr<std::vector<ScanMatch>> TPatternScanTraversal(
    const QueryContext& ctx, const Pattern& pattern, Timestamp t,
    const std::vector<const VersionedDocument*>& docs) {
  std::vector<ScanMatch> results;
  if (pattern.empty()) return results;
  TXML_CHECK(ctx.store != nullptr);
  for (const VersionedDocument* doc : docs) {
    if (!doc->ExistsAt(t)) continue;
    auto version = doc->delta_index().VersionAt(t);
    if (!version.has_value()) continue;
    // As in FTI_lookup_T: the snapshot presented for t is the nearest
    // *retained* version.
    const VersionNum v = doc->SnapToRetained(*version);
    if (v == 0) continue;
    auto tree = SnapshotTree(ctx, *doc, v);
    if (!tree.ok()) return tree.status();
    const VersionNum next = doc->NextRetained(v);
    for (EmbeddingRow& row : EmbeddingsOf(**tree, pattern)) {
      ScanMatch match;
      match.doc_id = doc->doc_id();
      match.first_version = v;
      match.end_version = next != 0 ? next : kOpenVersion;
      match.elements = std::move(row.elements);
      match.paths = std::move(row.paths);
      results.push_back(std::move(match));
    }
  }
  ResolveValidity(ctx, &results);
  return results;
}

StatusOr<std::vector<ScanMatch>> TPatternScanAllTraversal(
    const QueryContext& ctx, const Pattern& pattern,
    const std::vector<const VersionedDocument*>& docs) {
  std::vector<ScanMatch> results;
  if (pattern.empty()) return results;
  TXML_CHECK(ctx.store != nullptr);
  for (const VersionedDocument* doc : docs) {
    // Walk the retained chain in order, coalescing each embedding's
    // maximal run of consecutive versions — the traversal mirror of the
    // version ranges the index join intersects.
    struct PendingRun {
      VersionNum first;
      std::vector<Xid> elements;
      std::vector<std::vector<Xid>> paths;
    };
    std::map<std::string, PendingRun> open_runs;
    // One cursor walks the whole retained chain forward: O(versions)
    // deltas per document, not a reconstruction per version.
    auto visit = [&](const DeltaChainCursor& cursor) {
      const VersionNum v = cursor.version();
      std::unordered_set<std::string> present;
      for (EmbeddingRow& row : EmbeddingsOf(cursor.tree(), pattern)) {
        present.insert(row.key);
        if (!open_runs.contains(row.key)) {
          open_runs.emplace(std::move(row.key),
                            PendingRun{v, std::move(row.elements),
                                       std::move(row.paths)});
        }
      }
      for (auto it = open_runs.begin(); it != open_runs.end();) {
        if (present.contains(it->first)) {
          ++it;
          continue;
        }
        ScanMatch match;
        match.doc_id = doc->doc_id();
        match.first_version = it->second.first;
        match.end_version = v;
        match.elements = std::move(it->second.elements);
        match.paths = std::move(it->second.paths);
        results.push_back(std::move(match));
        it = open_runs.erase(it);
      }
      return Status::OK();
    };
    TXML_RETURN_IF_ERROR(ForEachRetainedVersion(*doc, visit));
    // Runs alive through the last retained version: open-ended for live
    // documents, closed just past the last version for deleted ones —
    // matching how OnDocumentDeleted closes postings.
    for (auto& [key, run] : open_runs) {
      ScanMatch match;
      match.doc_id = doc->doc_id();
      match.first_version = run.first;
      match.end_version =
          doc->deleted() ? doc->version_count() + 1 : kOpenVersion;
      match.elements = std::move(run.elements);
      match.paths = std::move(run.paths);
      results.push_back(std::move(match));
    }
  }
  ResolveValidity(ctx, &results);
  return results;
}

}  // namespace txml
