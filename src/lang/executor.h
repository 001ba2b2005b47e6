#ifndef TXML_SRC_LANG_EXECUTOR_H_
#define TXML_SRC_LANG_EXECUTOR_H_

#include <string_view>

#include "src/lang/ast.h"
#include "src/query/context.h"
#include "src/query/planner.h"
#include "src/query/time_ops.h"
#include "src/util/statusor.h"
#include "src/util/timestamp.h"
#include "src/xml/node.h"

namespace txml {

/// Execution knobs.
struct ExecOptions {
  /// The value of NOW in queries; the database façade passes its commit
  /// clock's latest time.
  Timestamp now;
  /// Strategy for CREATE TIME / DELETE TIME (Section 7.3.6). kAuto lets
  /// the planner resolve per query (index when one is attached, else
  /// traversal); a pinned kIndex without an attached index degrades to
  /// traversal instead of failing.
  LifetimeStrategy lifetime_strategy = LifetimeStrategy::kAuto;
  /// Strategy for the pattern-scan operators: kAuto compares posting-list
  /// sizes against history-weighted tree sizes per FROM item
  /// (src/query/planner.h); kIndex / kTraversal pin one arm (benchmarks,
  /// oracle tests).
  ScanStrategy scan_strategy = ScanStrategy::kAuto;
  /// When false, disables the Q2-style optimization that skips document
  /// reconstruction for queries that never look at element content — used
  /// by the E10 benchmark to quantify that optimization.
  bool skip_unneeded_reconstruction = true;
};

/// Counters exposed for the benchmarks.
struct ExecStats {
  size_t snapshot_reconstructions = 0;
  /// Snapshots served by the shared cache (QueryContext::snapshot_cache)
  /// instead of delta-chain reconstruction.
  size_t snapshot_cache_hits = 0;
  size_t rows_considered = 0;
  size_t rows_emitted = 0;
  /// Planner decisions (src/query/planner.h): FROM-item scans dispatched
  /// to the FTI join vs. tree traversal, CREATE/DELETE TIME evaluations by
  /// strategy, and explicitly requested strategies that were unavailable
  /// and degraded gracefully instead of aborting.
  size_t scans_index = 0;
  size_t scans_traversal = 0;
  size_t lifetime_index_lookups = 0;
  size_t lifetime_traversals = 0;
  size_t strategy_fallbacks = 0;
};

/// Plans and executes one query against a QueryContext:
///
///  * each FROM item becomes a pattern scan — PatternScan on the current
///    snapshot, TPatternScan at an explicit timestamp, TPatternScanAll for
///    [EVERY] (Sections 6-7);
///  * WHERE equality constants on paths below the binding variable are
///    pushed into the pattern as word tests (the FTI-containment-then-
///    equality strategy of Section 6.1), and re-verified after the scan;
///  * bindings materialize element versions via Reconstruct only when the
///    query actually reads content;
///  * results are delivered as <results><result>…</result></results>
///    (Section 5's convention).
class QueryExecutor {
 public:
  QueryExecutor(const QueryContext& ctx, ExecOptions options)
      : ctx_(ctx), options_(options) {}

  /// Parses (or takes a parsed query) and executes; counters accumulate
  /// into caller-owned `stats` (never null). Many threads may execute
  /// concurrently through one executor — or per-thread copies — as long
  /// as nothing mutates the stores/indexes behind ctx meanwhile; the
  /// service layer guarantees that with its commit lock.
  StatusOr<XmlDocument> Execute(std::string_view query_text,
                                ExecStats* stats) const;
  StatusOr<XmlDocument> Execute(const Query& query, ExecStats* stats) const;

  /// Renders the execution plan without running it: one line per FROM
  /// item (scan operator, resolved snapshot time, pattern with pushed-down
  /// word tests, whether content is materialized) plus the post-scan
  /// predicate and output shape. For developers and tests.
  StatusOr<std::string> Explain(std::string_view query_text) const;
  StatusOr<std::string> Explain(const Query& query) const;

 private:
  QueryContext ctx_;
  ExecOptions options_;
};

}  // namespace txml

#endif  // TXML_SRC_LANG_EXECUTOR_H_
