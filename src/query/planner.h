#ifndef TXML_SRC_QUERY_PLANNER_H_
#define TXML_SRC_QUERY_PLANNER_H_

#include <vector>

#include "src/query/context.h"
#include "src/query/time_ops.h"
#include "src/xml/pattern.h"

namespace txml {

/// How a pattern-scan operator is evaluated.
enum class ScanStrategy {
  /// Cost-based pick per query (the planner's job; the ExecOptions
  /// default).
  kAuto,
  /// FTI posting-list multiway join — the Section 7.3 algorithms.
  kIndex,
  /// Materialize each resolved document version and run MatchPattern
  /// against the tree — the "stratum" baseline the paper compares
  /// against, and the only option when no FTI is attached.
  kTraversal,
};

/// Which temporal scan the FROM item needs (affects how many versions the
/// traversal arm would have to materialize).
enum class ScanKind { kCurrent, kSnapshot, kAll };

/// One scan decision with the costs that produced it — surfaced through
/// EXPLAIN and tallied into ExecStats.
struct ScanPlan {
  ScanStrategy strategy = ScanStrategy::kIndex;  // resolved; never kAuto
  /// Candidate postings the index join would feed: Σ posting-list length
  /// (main + differential) over the pattern's terms.
  double index_cost = 0;
  /// Tree nodes the traversal would visit: Σ over resolved documents of
  /// tree size × versions materialized × reconstruction penalty.
  double traversal_cost = 0;
  /// True when an explicitly requested strategy was unavailable (no FTI
  /// attached) and the planner substituted the other one.
  bool fell_back = false;
};

/// Picks index-vs-traversal for one pattern scan from statistics the
/// engine already tracks: per-term posting-list sizes
/// (TemporalFullTextIndex::PostingCountFor, main + differential),
/// resolved-document tree sizes (next_xid as an upper bound), and history
/// depth (the retained-version chain, i.e. the post-vacuum floor).
/// `requested` != kAuto forces the choice (benchmarks pin both arms);
/// kAuto compares the two cost estimates.
ScanPlan PlanScan(const QueryContext& ctx, const Pattern& pattern,
                  ScanKind kind,
                  const std::vector<const VersionedDocument*>& docs,
                  ScanStrategy requested);

/// Resolves the CreTime/DelTime strategy of Section 7.3.6: the lifetime
/// index is O(1) per lookup with no useful cost crossover, so kAuto (and
/// kIndex) take it whenever the context has one; kIndex *without* one
/// falls back to traversal (`*fell_back` = true) instead of crashing.
LifetimeStrategy PlanLifetime(const QueryContext& ctx,
                              LifetimeStrategy requested, bool* fell_back);

/// Display name for EXPLAIN output ("index" / "traversal" / "auto").
const char* ScanStrategyName(ScanStrategy strategy);

}  // namespace txml

#endif  // TXML_SRC_QUERY_PLANNER_H_
