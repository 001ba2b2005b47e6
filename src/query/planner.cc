#include "src/query/planner.h"

namespace txml {
namespace {

/// Reconstructing a non-current snapshot replays a delta chain and
/// allocates a fresh tree; weight relative to walking an already
/// materialized one. Calibrated coarsely from E14's reconstruction
/// microbenchmarks — the decision only needs the right order of
/// magnitude, not the right constant.
constexpr double kReconstructPenalty = 3.0;

size_t RetainedVersionCount(const VersionedDocument& doc) {
  size_t count = 0;
  for (VersionNum v = doc.first_retained();
       v != 0 && v <= doc.version_count(); v = doc.NextRetained(v)) {
    ++count;
  }
  return count;
}

}  // namespace

ScanPlan PlanScan(const QueryContext& ctx, const Pattern& pattern,
                  ScanKind kind,
                  const std::vector<const VersionedDocument*>& docs,
                  ScanStrategy requested) {
  ScanPlan plan;
  const bool have_index = ctx.fti != nullptr;

  // Index arm: postings of the pattern's terms. The counts span *all*
  // documents although the scan reads only those of `docs`, so a query
  // naming few documents of many overprices this arm (DESIGN.md §13).
  if (have_index) {
    for (const PatternNode* node : pattern.NodesPreorder()) {
      TermKind term_kind = node->test == PatternNode::Test::kElementName
                               ? TermKind::kElementName
                               : TermKind::kWord;
      plan.index_cost += static_cast<double>(
          ctx.fti->PostingCountFor(term_kind, node->term));
    }
  }

  // Traversal arm: nodes visited across every version the scan has to
  // materialize. next_xid() caps how many nodes a document ever held, and
  // the retained chain is the post-vacuum history depth.
  for (const VersionedDocument* doc : docs) {
    const double per_version = static_cast<double>(doc->next_xid());
    switch (kind) {
      case ScanKind::kCurrent:
        if (!doc->deleted()) plan.traversal_cost += per_version;
        break;
      case ScanKind::kSnapshot:
        plan.traversal_cost += per_version * kReconstructPenalty;
        break;
      case ScanKind::kAll:
        plan.traversal_cost += per_version * kReconstructPenalty *
                               static_cast<double>(RetainedVersionCount(*doc));
        break;
    }
  }

  switch (requested) {
    case ScanStrategy::kIndex:
      plan.strategy = ScanStrategy::kIndex;
      if (!have_index) {
        plan.strategy = ScanStrategy::kTraversal;
        plan.fell_back = true;
      }
      break;
    case ScanStrategy::kTraversal:
      plan.strategy = ScanStrategy::kTraversal;
      break;
    case ScanStrategy::kAuto:
      // Ties go to the index: its join prunes by document and version
      // range early, while the traversal estimate is an upper bound.
      plan.strategy = have_index && plan.index_cost <= plan.traversal_cost
                          ? ScanStrategy::kIndex
                          : ScanStrategy::kTraversal;
      break;
  }
  return plan;
}

LifetimeStrategy PlanLifetime(const QueryContext& ctx,
                              LifetimeStrategy requested, bool* fell_back) {
  if (fell_back != nullptr) *fell_back = false;
  if (requested == LifetimeStrategy::kTraversal) {
    return LifetimeStrategy::kTraversal;
  }
  if (ctx.lifetime != nullptr) return LifetimeStrategy::kIndex;
  if (requested == LifetimeStrategy::kIndex && fell_back != nullptr) {
    *fell_back = true;
  }
  return LifetimeStrategy::kTraversal;
}

const char* ScanStrategyName(ScanStrategy strategy) {
  switch (strategy) {
    case ScanStrategy::kAuto:
      return "auto";
    case ScanStrategy::kIndex:
      return "index";
    case ScanStrategy::kTraversal:
      return "traversal";
  }
  return "?";
}

}  // namespace txml
