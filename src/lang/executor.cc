#include "src/lang/executor.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/diff/matcher.h"
#include "src/lang/parser.h"
#include "src/query/diff_op.h"
#include "src/query/history_ops.h"
#include "src/query/scan.h"
#include "src/util/logging.h"
#include "src/util/macros.h"
#include "src/util/strings.h"
#include "src/xml/pattern.h"
#include "src/xml/serializer.h"

namespace txml {
namespace {

/// One element-version binding of a FROM variable.
struct Binding {
  Teid teid;
  TimeInterval validity;
  /// Materialized element version; null when the plan proved the content
  /// is never read (the Q2 optimization).
  std::shared_ptr<const XmlNode> tree;
};

/// A row of the (conceptual) cross product: one binding per FROM item.
using Row = std::vector<const Binding*>;

/// A scan's matches split per document in one pass. Both scan arms emit
/// each document's matches contiguously, so a document's slice keeps the
/// scan's order.
class MatchesByDoc {
 public:
  explicit MatchesByDoc(const std::vector<ScanMatch>& matches) {
    const std::span<const ScanMatch> all(matches);
    for (size_t begin = 0; begin < all.size();) {
      size_t end = begin + 1;
      while (end < all.size() && all[end].doc_id == all[begin].doc_id) ++end;
      const bool first_run =
          slices_.emplace(all[begin].doc_id, all.subspan(begin, end - begin))
              .second;
      TXML_CHECK(first_run);
      begin = end;
    }
  }

  /// `doc`'s matches; empty when it has none.
  std::span<const ScanMatch> Of(const VersionedDocument& doc) const {
    auto it = slices_.find(doc.doc_id());
    return it == slices_.end() ? std::span<const ScanMatch>() : it->second;
  }

 private:
  std::unordered_map<DocId, std::span<const ScanMatch>> slices_;
};

/// Runtime value of an expression.
struct Value {
  enum class Kind { kNull, kString, kNumber, kTime, kNodes };
  Kind kind = Kind::kNull;
  std::string str;
  double num = 0;
  Timestamp time;
  /// Borrowed nodes (from binding trees or from `owned`).
  std::vector<const XmlNode*> nodes;
  /// Keeps alive trees materialized by CURRENT/PREVIOUS/NEXT/DIFF.
  std::vector<std::shared_ptr<const XmlNode>> owned;

  static Value Null() { return Value(); }
  static Value String(std::string s) {
    Value v;
    v.kind = Kind::kString;
    v.str = std::move(s);
    return v;
  }
  static Value Number(double n) {
    Value v;
    v.kind = Kind::kNumber;
    v.num = n;
    return v;
  }
  static Value Time(Timestamp t) {
    Value v;
    v.kind = Kind::kTime;
    v.time = t;
    return v;
  }
};

/// The scalar string of a node: text content for elements/text, value for
/// attributes.
std::string NodeString(const XmlNode& node) {
  if (node.is_attribute()) return node.value();
  return node.TextContent();
}

bool TryParseNumber(const std::string& text, double* out) {
  std::string trimmed(Trim(text));
  if (trimmed.empty()) return false;
  char* end = nullptr;
  double value = std::strtod(trimmed.c_str(), &end);
  if (end != trimmed.c_str() + trimmed.size()) return false;
  *out = value;
  return true;
}

/// Token-set similarity (the '~' operator, in the spirit of Theobald &
/// Weikum): Jaccard overlap of word sets >= 0.5.
bool Similar(const std::string& a, const std::string& b) {
  std::set<std::string> ta, tb;
  for (std::string& w : TokenizeWords(a)) ta.insert(std::move(w));
  for (std::string& w : TokenizeWords(b)) tb.insert(std::move(w));
  if (ta.empty() && tb.empty()) return true;
  size_t common = 0;
  for (const std::string& w : ta) {
    if (tb.contains(w)) ++common;
  }
  size_t unioned = ta.size() + tb.size() - common;
  return unioned > 0 && 2 * common >= unioned;
}

/// Scalar three-way comparison used by the ordering operators; returns
/// false via `ok` when incomparable.
bool CompareScalars(const std::string& a, const std::string& b,
                    Expr::Op op) {
  double na, nb;
  int cmp;
  if (TryParseNumber(a, &na) && TryParseNumber(b, &nb)) {
    cmp = na < nb ? -1 : (na > nb ? 1 : 0);
  } else {
    cmp = a.compare(b);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }
  switch (op) {
    case Expr::Op::kEq: return cmp == 0;
    case Expr::Op::kNe: return cmp != 0;
    case Expr::Op::kLt: return cmp < 0;
    case Expr::Op::kLe: return cmp <= 0;
    case Expr::Op::kGt: return cmp > 0;
    case Expr::Op::kGe: return cmp >= 0;
    case Expr::Op::kSim: return Similar(a, b);
    default: return false;
  }
}

/// All scalar strings of a value (node sets expand to one per node).
std::vector<std::string> ScalarsOf(const Value& value) {
  switch (value.kind) {
    case Value::Kind::kNull:
      return {};
    case Value::Kind::kString:
      return {value.str};
    case Value::Kind::kNumber: {
      // Render integral numbers without decimals.
      double n = value.num;
      if (n == static_cast<double>(static_cast<int64_t>(n))) {
        return {std::to_string(static_cast<int64_t>(n))};
      }
      return {std::to_string(n)};
    }
    case Value::Kind::kTime:
      return {value.time.ToString()};
    case Value::Kind::kNodes: {
      std::vector<std::string> out;
      out.reserve(value.nodes.size());
      for (const XmlNode* node : value.nodes) out.push_back(NodeString(*node));
      return out;
    }
  }
  return {};
}

/// Existential comparison: true if any scalar pair satisfies the operator.
/// Time values compare chronologically.
bool CompareValues(const Value& a, const Value& b, Expr::Op op) {
  if (a.kind == Value::Kind::kNull || b.kind == Value::Kind::kNull) {
    return false;
  }
  if (a.kind == Value::Kind::kTime && b.kind == Value::Kind::kTime) {
    switch (op) {
      case Expr::Op::kEq: return a.time == b.time;
      case Expr::Op::kNe: return a.time != b.time;
      case Expr::Op::kLt: return a.time < b.time;
      case Expr::Op::kLe: return a.time <= b.time;
      case Expr::Op::kGt: return a.time > b.time;
      case Expr::Op::kGe: return a.time >= b.time;
      default: return false;
    }
  }
  for (const std::string& sa : ScalarsOf(a)) {
    for (const std::string& sb : ScalarsOf(b)) {
      if (CompareScalars(sa, sb, op)) return true;
    }
  }
  return false;
}

/// Whether the plan must materialize element content for a variable. True
/// for path references, bare variable uses (serialization, value
/// comparisons) — but not for TIME/CREATE TIME/DELETE TIME, ==, DIFF,
/// CURRENT/PREVIOUS/NEXT (those reconstruct on their own), or bare
/// variables under COUNT/SUM (the Q2 optimization: counting needs no
/// reconstruction).
void CollectTreeNeeds(const Expr& expr, bool under_count,
                      std::set<std::string>* needs) {
  switch (expr.kind) {
    case Expr::Kind::kVar:
      if (!under_count) needs->insert(expr.var);
      break;
    case Expr::Kind::kPath:
      needs->insert(expr.var);
      break;
    case Expr::Kind::kContains:
      // Verification reads the addressed node's direct content.
      needs->insert(expr.lhs->var);
      break;
    case Expr::Kind::kAggregate: {
      bool counting = expr.agg == Expr::Agg::kCount ||
                      (expr.agg == Expr::Agg::kSum &&
                       expr.lhs->kind == Expr::Kind::kVar);
      CollectTreeNeeds(*expr.lhs, counting, needs);
      break;
    }
    case Expr::Kind::kBinary: {
      bool id_eq = expr.op == Expr::Op::kIdEq;
      CollectTreeNeeds(*expr.lhs, id_eq, needs);
      CollectTreeNeeds(*expr.rhs, id_eq, needs);
      break;
    }
    case Expr::Kind::kDiff:
      // DiffOp reconstructs its operands itself.
      break;
    case Expr::Kind::kTimeArith:
    case Expr::Kind::kNot:
      CollectTreeNeeds(*expr.lhs, under_count, needs);
      break;
    default:
      break;  // literals, TIME/CREATE/DELETE TIME, NAV: no content needed
  }
}

/// A WHERE conjunct of shape `Var/path = "word"` that can be pushed into
/// the variable's pattern as an FTI word test.
struct PushdownPredicate {
  const Expr* path_expr;
  std::string word;
};

void CollectPushdowns(
    const Expr* expr,
    std::unordered_map<std::string, std::vector<PushdownPredicate>>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kBinary && expr->op == Expr::Op::kAnd) {
    CollectPushdowns(expr->lhs.get(), out);
    CollectPushdowns(expr->rhs.get(), out);
    return;
  }
  if (expr->kind == Expr::Kind::kContains) {
    // Containment is the FTI's native predicate: every word becomes an
    // index test (conjunctive — all must occur in the same element).
    const Expr* target = expr->lhs.get();
    if (target->path.has_value()) {
      for (const PathStep& step : target->path->steps()) {
        if (step.is_attribute || step.name == "*") return;
      }
    }
    for (const std::string& word : TokenizeWords(expr->rhs->str)) {
      (*out)[target->var].push_back(PushdownPredicate{target, word});
    }
    return;
  }
  if (expr->kind != Expr::Kind::kBinary || expr->op != Expr::Op::kEq) return;
  const Expr* path = nullptr;
  const Expr* literal = nullptr;
  for (const Expr* side : {expr->lhs.get(), expr->rhs.get()}) {
    if (side->kind == Expr::Kind::kPath) path = side;
    if (side->kind == Expr::Kind::kString ||
        side->kind == Expr::Kind::kNumber) {
      literal = side;
    }
  }
  if (path == nullptr || literal == nullptr) return;
  // Attribute steps and wildcards are not representable as FTI patterns.
  for (const PathStep& step : path->path->steps()) {
    if (step.is_attribute || step.name == "*") return;
  }
  std::string text = literal->kind == Expr::Kind::kString
                         ? literal->str
                         : ScalarsOf(Value::Number(literal->number))[0];
  std::vector<std::string> words = TokenizeWords(text);
  if (words.size() != 1) return;  // multi-word constants: filter post-scan
  (*out)[path->var].push_back(PushdownPredicate{path, words[0]});
}

/// One FROM item's plan, worked out once: EXPLAIN renders it and Run binds
/// from it. Each part keeps its own error, so each side keeps its own
/// error precedence.
struct FromPlan {
  /// The source's documents, or NotFound for an absent doc("url").
  StatusOr<std::vector<const VersionedDocument*>> docs;
  /// The scan's pattern, or why the FROM path cannot be one.
  StatusOr<Pattern> pattern;
  ScanKind kind;
  /// The snapshot time of a kSnapshot item, or why it is not constant.
  StatusOr<Timestamp> time;
  /// The planner's arm; set when the documents and the pattern resolve.
  std::optional<ScanPlan> scan;
  bool materialize;
};

ScanKind ScanKindOf(FromItem::Mode mode) {
  switch (mode) {
    case FromItem::Mode::kCurrent: return ScanKind::kCurrent;
    case FromItem::Mode::kSnapshot: return ScanKind::kSnapshot;
    case FromItem::Mode::kEvery: return ScanKind::kAll;
  }
  return ScanKind::kCurrent;
}

/// Per-execution state: binding lists, reconstruction cache, evaluation.
class Execution {
 public:
  Execution(const QueryContext& ctx, const ExecOptions& options,
            ExecStats* stats)
      : ctx_(ctx), options_(options), stats_(stats) {}

  StatusOr<XmlDocument> Run(const Query& query) {
    TXML_RETURN_IF_ERROR(Analyze(query));
    bindings_.resize(query.from.size());
    for (size_t i = 0; i < query.from.size(); ++i) {
      TXML_RETURN_IF_ERROR(Bind(Plan(query.from[i]), &bindings_[i]));
    }
    return Evaluate(query);
  }

  StatusOr<std::string> Explain(const Query& query) {
    TXML_RETURN_IF_ERROR(Analyze(query));
    std::string out;
    for (const FromItem& item : query.from) {
      const FromPlan plan = Plan(item);
      // A plan renders for absent documents too: only the pattern and the
      // snapshot time must resolve.
      TXML_RETURN_IF_ERROR(plan.pattern.status());
      TXML_RETURN_IF_ERROR(plan.time.status());
      out += item.var + ": ";
      switch (plan.kind) {
        case ScanKind::kCurrent:
          out += "PatternScan[current]";
          break;
        case ScanKind::kSnapshot:
          out += "TPatternScan[t=" + plan.time->ToString() + "]";
          break;
        case ScanKind::kAll:
          out += "TPatternScanAll";
          break;
      }
      out += " pattern=" + plan.pattern->ToString();
      out += item.is_collection ? " collection=\"" : " doc=\"";
      out += item.url + "\"";
      out += plan.materialize ? " materialize=yes" : " materialize=no";
      // Planner decision with the cost estimates behind it.
      if (plan.scan.has_value()) {
        out += " strategy=";
        out += ScanStrategyName(plan.scan->strategy);
        out += " [index_cost=" + std::to_string(plan.scan->index_cost) +
               " traversal_cost=" +
               std::to_string(plan.scan->traversal_cost) + "]";
      }
      out += "\n";
    }
    if (query.where != nullptr) {
      out += "filter: " + query.where->ToString() + "\n";
    }
    out += "output:";
    for (const auto& expr : query.select) {
      out += " ";
      out += expr->ToString();
    }
    if (query.distinct) out += " [distinct]";
    out += "\n";
    return out;
  }

 private:
  // ---------------------------------------------------------------- plan

  Status Analyze(const Query& query) {
    for (size_t i = 0; i < query.from.size(); ++i) {
      const FromItem& item = query.from[i];
      if (item.var.empty()) {
        return Status::InvalidArgument("FROM item without variable");
      }
      if (var_index_.contains(item.var)) {
        return Status::InvalidArgument("duplicate variable " + item.var);
      }
      var_index_[item.var] = i;
    }
    std::set<std::string> needs;
    for (const auto& expr : query.select) {
      CollectTreeNeeds(*expr, false, &needs);
    }
    if (query.where != nullptr) {
      CollectTreeNeeds(*query.where, false, &needs);
    }
    for (const std::string& var : needs) {
      if (!var_index_.contains(var)) {
        return Status::InvalidArgument("unbound variable " + var);
      }
    }
    if (!options_.skip_unneeded_reconstruction) {
      for (const auto& [var, idx] : var_index_) needs.insert(var);
    }
    needs_tree_ = std::move(needs);
    CollectPushdowns(query.where.get(), &pushdowns_);
    // Validate remaining variable references.
    for (const auto& expr : query.select) {
      TXML_RETURN_IF_ERROR(CheckVars(*expr));
    }
    if (query.where != nullptr) {
      TXML_RETURN_IF_ERROR(CheckVars(*query.where));
    }
    return Status::OK();
  }

  Status CheckVars(const Expr& expr) {
    if (!expr.var.empty() && expr.kind != Expr::Kind::kString &&
        !var_index_.contains(expr.var)) {
      return Status::InvalidArgument("unbound variable " + expr.var);
    }
    if (expr.lhs != nullptr) TXML_RETURN_IF_ERROR(CheckVars(*expr.lhs));
    if (expr.rhs != nullptr) TXML_RETURN_IF_ERROR(CheckVars(*expr.rhs));
    return Status::OK();
  }

  /// Evaluates a constant time expression (snapshot spec).
  StatusOr<Timestamp> ConstTime(const Expr& expr) {
    switch (expr.kind) {
      case Expr::Kind::kDate:
        return expr.date;
      case Expr::Kind::kNow:
        return options_.now;
      case Expr::Kind::kTimeArith: {
        TXML_ASSIGN_OR_RETURN(Timestamp base, ConstTime(*expr.lhs));
        return base.AddMicros(expr.duration_micros);
      }
      default:
        return Status::InvalidArgument(
            "timestamp specification must be a constant time expression");
    }
  }

  /// The one place a FROM item is planned: its documents, pattern,
  /// snapshot time and the planner's arm.
  FromPlan Plan(const FromItem& item) {
    FromPlan plan{ResolveDocs(item),
                  BuildPattern(item),
                  ScanKindOf(item.mode),
                  item.mode == FromItem::Mode::kSnapshot
                      ? ConstTime(*item.snapshot_time)
                      : StatusOr<Timestamp>(Timestamp()),
                  std::nullopt,
                  needs_tree_.contains(item.var)};
    if (plan.docs.ok() && plan.pattern.ok()) {
      plan.scan = PlanScan(ctx_, *plan.pattern, plan.kind, *plan.docs,
                           options_.scan_strategy);
    }
    return plan;
  }

  /// Builds the pattern for a FROM item: the location path as a chain of
  /// element-name nodes, plus pushed-down word tests.
  StatusOr<Pattern> BuildPattern(const FromItem& item) {
    for (const PathStep& step : item.path.steps()) {
      if (step.is_attribute) {
        return Status::InvalidArgument(
            "FROM paths must bind elements, not attributes");
      }
      if (step.name == "*") {
        return Status::Unimplemented(
            "wildcard steps in FROM paths are not supported");
      }
    }
    // FROM-clause variables bind anywhere in the document (Lorel-style):
    // the first step uses the descendant-or-self axis regardless of a
    // leading '/', so doc("u")/restaurant finds restaurants at any depth.
    std::unique_ptr<PatternNode> root;
    PatternNode* tail_node = nullptr;
    for (size_t i = 0; i < item.path.steps().size(); ++i) {
      const PathStep& step = item.path.steps()[i];
      PatternNode::Axis axis =
          i == 0 ? PatternNode::Axis::kDescendantOrSelf
                 : (step.axis == PathStep::Axis::kChild
                        ? PatternNode::Axis::kChild
                        : PatternNode::Axis::kDescendant);
      auto node = PatternNode::Make(PatternNode::Test::kElementName, axis,
                                    step.name);
      if (root == nullptr) {
        root = std::move(node);
        tail_node = root.get();
      } else {
        tail_node = tail_node->AddChild(std::move(node));
      }
    }
    tail_node->projected = true;
    Pattern pattern{std::move(root)};
    auto it = pushdowns_.find(item.var);
    if (it != pushdowns_.end()) {
      // Graft each predicate's path below the projected node, ending in a
      // word test. The original predicate is still evaluated afterwards
      // (containment is necessary, not sufficient — Section 6.1).
      PatternNode* anchor = pattern.mutable_root();
      while (!anchor->children.empty()) {
        anchor = anchor->children.back().get();
      }
      for (const PushdownPredicate& pred : it->second) {
        PatternNode* tail = anchor;
        if (pred.path_expr->path.has_value()) {
          for (const PathStep& step : pred.path_expr->path->steps()) {
            tail = tail->AddChild(PatternNode::Make(
                PatternNode::Test::kElementName,
                step.axis == PathStep::Axis::kChild
                    ? PatternNode::Axis::kChild
                    : PatternNode::Axis::kDescendant,
                step.name));
          }
        }
        // Bare-variable targets (CONTAINS(R, "w")) test the anchor itself.
        tail->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                         PatternNode::Axis::kSelf,
                                         pred.word));
      }
      pattern.Finalize();
    }
    return pattern;
  }

  // ---------------------------------------------------------------- bind

  /// Resolves a FROM source to documents: one for doc("url"), all
  /// matching for collection("prefix*") — possibly none.
  StatusOr<std::vector<const VersionedDocument*>> ResolveDocs(
      const FromItem& item) {
    std::vector<const VersionedDocument*> docs;
    if (!item.is_collection) {
      const VersionedDocument* doc = ctx_.store->FindByUrl(item.url);
      if (doc == nullptr) {
        return Status::NotFound("no document at '" + item.url + "'");
      }
      docs.push_back(doc);
      return docs;
    }
    std::string_view spec = item.url;
    bool prefix = !spec.empty() && spec.back() == '*';
    if (prefix) spec.remove_suffix(1);
    for (const VersionedDocument* doc : ctx_.store->AllDocuments()) {
      if (prefix ? StartsWith(doc->url(), spec) : doc->url() == spec) {
        docs.push_back(doc);
      }
    }
    return docs;
  }

  Status Bind(const FromPlan& plan, std::vector<Binding>* out) {
    // Run's precedence: an absent document fails first, and a source with
    // no documents binds nothing, whatever its pattern.
    TXML_RETURN_IF_ERROR(plan.docs.status());
    const std::vector<const VersionedDocument*>& docs = *plan.docs;
    if (docs.empty()) return Status::OK();
    TXML_RETURN_IF_ERROR(plan.pattern.status());
    TXML_RETURN_IF_ERROR(plan.time.status());
    const Pattern& pattern = *plan.pattern;

    // One scan over the source's documents serves all of them; its
    // matches are partitioned per document once, below.
    NoteScanPlan(*plan.scan);
    TXML_ASSIGN_OR_RETURN(std::vector<ScanMatch> matches, Scan(plan));
    const MatchesByDoc by_doc(matches);
    for (const VersionedDocument* doc : docs) {
      switch (plan.kind) {
        case ScanKind::kCurrent:
          TXML_RETURN_IF_ERROR(BindSnapshotMatches(
              by_doc.Of(*doc), pattern, *doc, plan.materialize,
              /*snapshot_version=*/doc->version_count(), out));
          break;
        case ScanKind::kSnapshot: {
          auto version = doc->delta_index().VersionAt(*plan.time);
          if (!version.has_value() || !doc->ExistsAt(*plan.time)) {
            continue;  // this document absent at t
          }
          TXML_RETURN_IF_ERROR(BindSnapshotMatches(by_doc.Of(*doc), pattern,
                                                   *doc, plan.materialize,
                                                   *version, out));
          break;
        }
        case ScanKind::kAll:
          TXML_RETURN_IF_ERROR(BindEveryMatches(
              by_doc.Of(*doc), pattern, *doc, plan.materialize, out));
          break;
      }
    }
    return Status::OK();
  }

  /// Runs the planned scan on the arm the planner picked: the FTI multiway
  /// join, or direct pattern matching over materialized trees (the only
  /// arm that works without an index).
  StatusOr<std::vector<ScanMatch>> Scan(const FromPlan& plan) {
    const bool traversal = plan.scan->strategy == ScanStrategy::kTraversal;
    const Pattern& pattern = *plan.pattern;
    const std::vector<const VersionedDocument*>& docs = *plan.docs;
    switch (plan.kind) {
      case ScanKind::kCurrent:
        return traversal ? PatternScanCurrentTraversal(ctx_, pattern, docs)
                         : PatternScanCurrent(ctx_, pattern, docs);
      case ScanKind::kSnapshot:
        return traversal
                   ? TPatternScanTraversal(ctx_, pattern, *plan.time, docs)
                   : TPatternScan(ctx_, pattern, *plan.time, docs);
      case ScanKind::kAll:
        return traversal ? TPatternScanAllTraversal(ctx_, pattern, docs)
                         : TPatternScanAll(ctx_, pattern, docs);
    }
    return Status::Internal("unreachable scan kind");
  }

  void NoteScanPlan(const ScanPlan& plan) {
    ++(plan.strategy == ScanStrategy::kTraversal ? stats_->scans_traversal
                                                 : stats_->scans_index);
    if (plan.fell_back) ++stats_->strategy_fallbacks;
  }

  /// Resolves the CREATE/DELETE TIME strategy for this context and tallies
  /// the decision.
  LifetimeStrategy LifetimePlan() {
    bool fell_back = false;
    LifetimeStrategy strategy =
        PlanLifetime(ctx_, options_.lifetime_strategy, &fell_back);
    if (fell_back) ++stats_->strategy_fallbacks;
    ++(strategy == LifetimeStrategy::kIndex ? stats_->lifetime_index_lookups
                                            : stats_->lifetime_traversals);
    return strategy;
  }

  /// `matches` are `doc`'s own.
  Status BindSnapshotMatches(std::span<const ScanMatch> matches,
                             const Pattern& pattern,
                             const VersionedDocument& doc, bool need_tree,
                             VersionNum snapshot_version,
                             std::vector<Binding>* out) {
    std::set<Xid> seen;
    for (const ScanMatch& match : matches) {
      Teid teid = match.ProjectedTeid(pattern);
      if (!seen.insert(teid.eid.xid).second) continue;  // distinct elements
      Binding binding;
      binding.teid = teid;
      binding.validity = match.validity;
      // Anchor the TEID inside the snapshot version, so version-navigation
      // and DIFF resolve the version the query actually asked about; the
      // materialized branch refines it to the element's own stamp.
      binding.teid.timestamp =
          doc.delta_index().TimestampOf(snapshot_version);
      if (need_tree) {
        TXML_ASSIGN_OR_RETURN(
            std::shared_ptr<const XmlNode> snapshot,
            SnapshotOf(doc, snapshot_version));
        const XmlNode* element = snapshot->xid() == teid.eid.xid
                                     ? snapshot.get()
                                     : snapshot->FindByXid(teid.eid.xid);
        if (element == nullptr) {
          return Status::Internal("scan match not present in snapshot");
        }
        // Alias into the cached snapshot: no per-element clone.
        binding.tree = std::shared_ptr<const XmlNode>(snapshot, element);
        binding.teid.timestamp = element->timestamp();
      }
      out->push_back(std::move(binding));
    }
    return Status::OK();
  }

  /// `matches` are `doc`'s own.
  Status BindEveryMatches(std::span<const ScanMatch> matches,
                          const Pattern& pattern,
                          const VersionedDocument& doc, bool need_tree,
                          std::vector<Binding>* out) {
    // [EVERY] binds one row per *element version* (Q3 lists the price
    // history per version of the restaurant element), so element histories
    // are always enumerated — TIME(), PREVIOUS() and DIFF() depend on that
    // granularity even when no content is read. All matched elements of
    // the document share one backward walk through the delta chain.
    std::map<Xid, std::vector<TimeInterval>> runs;
    for (const ScanMatch& match : matches) {
      runs[match.ProjectedTeid(pattern).eid.xid].push_back(match.validity);
    }
    TXML_ASSIGN_OR_RETURN(
        auto versions, ElementVersions(doc, std::move(runs), need_tree,
                                       &stats_->snapshot_reconstructions));
    // Emit oldest-first per element, elements in XID order.
    for (auto& [xid, history] : versions) {
      for (auto it = history.rbegin(); it != history.rend(); ++it) {
        out->push_back(Binding{it->teid, it->validity, std::move(it->tree)});
      }
    }
    return Status::OK();
  }

  /// Reconstruction cache: one materialized tree per (doc, version). The
  /// local map serves repeats within this execution; the shared cache of
  /// QueryContext (when present) serves repeats across executions and
  /// threads.
  StatusOr<std::shared_ptr<const XmlNode>> SnapshotOf(
      const VersionedDocument& doc, VersionNum version) {
    auto key = std::make_pair(doc.doc_id(), version);
    auto it = snapshot_cache_.find(key);
    if (it != snapshot_cache_.end()) return it->second;
    bool cache_hit = false;
    TXML_ASSIGN_OR_RETURN(std::shared_ptr<const XmlNode> shared,
                          SnapshotTree(ctx_, doc, version, &cache_hit));
    ++(cache_hit ? stats_->snapshot_cache_hits
                 : stats_->snapshot_reconstructions);
    snapshot_cache_[key] = shared;
    return shared;
  }

  // ---------------------------------------------------------------- eval

  StatusOr<XmlDocument> Evaluate(const Query& query) {
    bool aggregate = false;
    for (const auto& expr : query.select) {
      if (expr->kind == Expr::Kind::kAggregate) aggregate = true;
    }
    if (aggregate && query.select.size() != 1) {
      for (const auto& expr : query.select) {
        if (expr->kind != Expr::Kind::kAggregate) {
          return Status::InvalidArgument(
              "cannot mix aggregates and plain expressions without grouping");
        }
      }
    }

    auto results = XmlNode::Element("results");
    std::set<std::string> distinct_seen;
    std::vector<std::vector<Value>> aggregate_inputs(query.select.size());

    Row row(bindings_.size(), nullptr);
    Status status = Status::OK();
    // Nested-loop cross product with WHERE filtering.
    ForEachRow(0, &row, [&](const Row& complete) {
      if (!status.ok()) return;
      ++stats_->rows_considered;
      if (query.where != nullptr) {
        auto pass = EvalPredicate(*query.where, complete);
        if (!pass.ok()) {
          status = pass.status();
          return;
        }
        if (!*pass) return;
      }
      if (aggregate) {
        for (size_t i = 0; i < query.select.size(); ++i) {
          const Expr& arg = *query.select[i]->lhs;
          if (arg.kind == Expr::Kind::kVar &&
              BindingOf(arg.var, complete).tree == nullptr) {
            // Counting-style aggregate over an unmaterialized binding:
            // each row contributes one element (the Q2 fast path).
            aggregate_inputs[i].push_back(Value::Number(1));
            continue;
          }
          auto value = Eval(arg, complete);
          if (!value.ok()) {
            status = value.status();
            return;
          }
          aggregate_inputs[i].push_back(std::move(*value));
        }
        return;
      }
      auto result = RenderRow(query, complete);
      if (!result.ok()) {
        status = result.status();
        return;
      }
      if (query.distinct) {
        std::string fingerprint = SerializeXml(**result);
        if (!distinct_seen.insert(fingerprint).second) return;
      }
      ++stats_->rows_emitted;
      results->AddChild(std::move(*result));
    });
    TXML_RETURN_IF_ERROR(status);

    if (aggregate) {
      auto result = XmlNode::Element("result");
      for (size_t i = 0; i < query.select.size(); ++i) {
        TXML_ASSIGN_OR_RETURN(
            Value value,
            Aggregate(query.select[i]->agg, aggregate_inputs[i]));
        AppendValue(value, result.get());
      }
      ++stats_->rows_emitted;
      results->AddChild(std::move(result));
    }
    return XmlDocument(std::move(results));
  }

  template <typename Fn>
  void ForEachRow(size_t depth, Row* row, Fn&& fn) {
    if (depth == bindings_.size()) {
      fn(*row);
      return;
    }
    for (const Binding& binding : bindings_[depth]) {
      (*row)[depth] = &binding;
      ForEachRow(depth + 1, row, fn);
    }
    (*row)[depth] = nullptr;
  }

  StatusOr<std::unique_ptr<XmlNode>> RenderRow(const Query& query,
                                               const Row& row) {
    auto result = XmlNode::Element("result");
    for (const auto& expr : query.select) {
      TXML_ASSIGN_OR_RETURN(Value value, Eval(*expr, row));
      AppendValue(value, result.get());
    }
    return result;
  }

  void AppendValue(const Value& value, XmlNode* result) {
    switch (value.kind) {
      case Value::Kind::kNull:
        result->AddChild(XmlNode::Element("null"));
        return;
      case Value::Kind::kString:
      case Value::Kind::kNumber:
      case Value::Kind::kTime:
        result->AddChild(XmlNode::Text(ScalarsOf(value)[0]));
        return;
      case Value::Kind::kNodes:
        for (const XmlNode* node : value.nodes) {
          if (node->is_attribute()) {
            auto holder = XmlNode::Element("attribute");
            holder->AddChild(XmlNode::Attribute("name", node->name()));
            holder->AddChild(XmlNode::Text(node->value()));
            result->AddChild(std::move(holder));
          } else {
            result->AddChild(node->Clone());
          }
        }
        return;
    }
  }

  const Binding& BindingOf(const std::string& var, const Row& row) const {
    return *row[var_index_.at(var)];
  }

  StatusOr<bool> EvalPredicate(const Expr& expr, const Row& row) {
    if (expr.kind == Expr::Kind::kNot) {
      TXML_ASSIGN_OR_RETURN(bool inner, EvalPredicate(*expr.lhs, row));
      return !inner;
    }
    if (expr.kind == Expr::Kind::kContains) {
      TXML_ASSIGN_OR_RETURN(Value target, Eval(*expr.lhs, row));
      std::vector<std::string> words = TokenizeWords(expr.rhs->str);
      for (const XmlNode* node : target.nodes) {
        bool all = true;
        for (const std::string& word : words) {
          bool has;
          if (node->is_element()) {
            has = ElementDirectlyContainsWord(*node, word);
          } else {
            has = false;
            for (const std::string& token : TokenizeWords(node->value())) {
              if (token == word) {
                has = true;
                break;
              }
            }
          }
          if (!has) {
            all = false;
            break;
          }
        }
        if (all) return true;  // existential over the node set
      }
      return false;
    }
    if (expr.kind == Expr::Kind::kBinary) {
      if (expr.op == Expr::Op::kAnd) {
        TXML_ASSIGN_OR_RETURN(bool lhs, EvalPredicate(*expr.lhs, row));
        if (!lhs) return false;
        return EvalPredicate(*expr.rhs, row);
      }
      if (expr.op == Expr::Op::kOr) {
        TXML_ASSIGN_OR_RETURN(bool lhs, EvalPredicate(*expr.lhs, row));
        if (lhs) return true;
        return EvalPredicate(*expr.rhs, row);
      }
      if (expr.op == Expr::Op::kIdEq) {
        // Node identity: EID comparison (Section 7.4's '==').
        if (expr.lhs->kind != Expr::Kind::kVar ||
            expr.rhs->kind != Expr::Kind::kVar) {
          return Status::InvalidArgument(
              "'==' compares binding variables (EID identity)");
        }
        return BindingOf(expr.lhs->var, row).teid.eid ==
               BindingOf(expr.rhs->var, row).teid.eid;
      }
      TXML_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.lhs, row));
      TXML_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.rhs, row));
      return CompareValues(lhs, rhs, expr.op);
    }
    TXML_ASSIGN_OR_RETURN(Value value, Eval(expr, row));
    return value.kind != Value::Kind::kNull &&
           (value.kind != Value::Kind::kNodes || !value.nodes.empty());
  }

  StatusOr<Value> Eval(const Expr& expr, const Row& row) {
    switch (expr.kind) {
      case Expr::Kind::kString:
        return Value::String(expr.str);
      case Expr::Kind::kNumber:
        return Value::Number(expr.number);
      case Expr::Kind::kDate:
        return Value::Time(expr.date);
      case Expr::Kind::kNow:
        return Value::Time(options_.now);
      case Expr::Kind::kTimeArith: {
        TXML_ASSIGN_OR_RETURN(Value base, Eval(*expr.lhs, row));
        if (base.kind != Value::Kind::kTime) {
          return Status::InvalidArgument(
              "time arithmetic needs a time operand");
        }
        return Value::Time(base.time.AddMicros(expr.duration_micros));
      }
      case Expr::Kind::kVar: {
        const Binding& binding = BindingOf(expr.var, row);
        if (binding.tree == nullptr) {
          return Status::Internal("binding for " + expr.var +
                                  " was not materialized");
        }
        Value value;
        value.kind = Value::Kind::kNodes;
        value.nodes = {binding.tree.get()};
        return value;
      }
      case Expr::Kind::kPath: {
        const Binding& binding = BindingOf(expr.var, row);
        if (binding.tree == nullptr) {
          return Status::Internal("binding for " + expr.var +
                                  " was not materialized");
        }
        Value value;
        value.kind = Value::Kind::kNodes;
        value.nodes = expr.path->EvaluateRelative(*binding.tree);
        return value;
      }
      case Expr::Kind::kTimeOf:
        return Value::Time(BindingOf(expr.var, row).teid.timestamp);
      case Expr::Kind::kCreateTime: {
        TXML_ASSIGN_OR_RETURN(Timestamp ts,
                              CreTime(ctx_, BindingOf(expr.var, row).teid,
                                      LifetimePlan()));
        return Value::Time(ts);
      }
      case Expr::Kind::kDeleteTime: {
        TXML_ASSIGN_OR_RETURN(
            std::optional<Timestamp> ts,
            DelTime(ctx_, BindingOf(expr.var, row).teid, LifetimePlan()));
        if (!ts.has_value()) return Value::Null();
        return Value::Time(*ts);
      }
      case Expr::Kind::kNav:
        return EvalNav(expr, row);
      case Expr::Kind::kDiff:
        return EvalDiff(expr, row);
      case Expr::Kind::kAggregate:
        return Status::InvalidArgument(
            "aggregate in unexpected position: " + expr.ToString());
      case Expr::Kind::kBinary:
      case Expr::Kind::kNot:
      case Expr::Kind::kContains: {
        TXML_ASSIGN_OR_RETURN(bool pass, EvalPredicate(expr, row));
        return Value::Number(pass ? 1 : 0);
      }
    }
    return Status::Internal("unreachable expression kind");
  }

  /// The version CURRENT/PREVIOUS/NEXT(var) names, through the delta
  /// index (Section 7.3.7): its timestamp, or nullopt when there is none.
  StatusOr<std::optional<Timestamp>> NavTarget(const Expr& expr,
                                               const Binding& binding) {
    switch (expr.nav) {
      case Expr::Nav::kCurrent:
        return CurrentTS(ctx_, binding.teid.eid);
      case Expr::Nav::kPrevious:
        return PreviousTS(ctx_, binding.teid);
      case Expr::Nav::kNext:
        return NextTS(ctx_, binding.teid);
    }
    return Status::Internal("unreachable navigation");
  }

  /// CURRENT/PREVIOUS/NEXT(R): resolve the target timestamp, Reconstruct,
  /// and optionally apply a trailing path.
  StatusOr<Value> EvalNav(const Expr& expr, const Row& row) {
    const Binding& binding = BindingOf(expr.var, row);
    TXML_ASSIGN_OR_RETURN(std::optional<Timestamp> target,
                          NavTarget(expr, binding));
    if (!target.has_value()) return Value::Null();
    auto tree = Reconstruct(ctx_, Teid{binding.teid.eid, *target});
    if (tree.status().IsNotFound()) {
      return Value::Null();  // element absent in that version
    }
    if (!tree.ok()) return tree.status();
    Value value;
    value.kind = Value::Kind::kNodes;
    std::shared_ptr<const XmlNode> owned(tree->release());
    value.owned.push_back(owned);
    if (expr.path.has_value()) {
      value.nodes = expr.path->EvaluateRelative(*owned);
    } else {
      value.nodes = {owned.get()};
    }
    return value;
  }

  StatusOr<Value> EvalDiff(const Expr& expr, const Row& row) {
    auto teid_of = [&](const Expr& operand) -> StatusOr<Teid> {
      if (operand.kind == Expr::Kind::kVar) {
        return BindingOf(operand.var, row).teid;
      }
      if (operand.kind == Expr::Kind::kNav && !operand.path.has_value()) {
        const Binding& binding = BindingOf(operand.var, row);
        TXML_ASSIGN_OR_RETURN(std::optional<Timestamp> target,
                              NavTarget(operand, binding));
        if (!target.has_value()) {
          return Status::NotFound("no such version for DIFF operand");
        }
        return Teid{binding.teid.eid, *target};
      }
      return Status::InvalidArgument(
          "DIFF operands must be variables or CURRENT/PREVIOUS/NEXT(var)");
    };
    auto from = teid_of(*expr.lhs);
    if (!from.ok()) {
      if (from.status().IsNotFound()) return Value::Null();
      return from.status();
    }
    auto to = teid_of(*expr.rhs);
    if (!to.ok()) {
      if (to.status().IsNotFound()) return Value::Null();
      return to.status();
    }
    TXML_ASSIGN_OR_RETURN(XmlDocument delta, DiffOp(ctx_, *from, *to));
    Value value;
    value.kind = Value::Kind::kNodes;
    std::shared_ptr<const XmlNode> owned(delta.ReleaseRoot().release());
    value.owned.push_back(owned);
    value.nodes = {owned.get()};
    return value;
  }

  StatusOr<Value> Aggregate(Expr::Agg agg, const std::vector<Value>& inputs) {
    if (agg == Expr::Agg::kCount) {
      size_t count = 0;
      for (const Value& value : inputs) {
        if (value.kind == Value::Kind::kNodes) {
          count += value.nodes.size();
        } else if (value.kind != Value::Kind::kNull) {
          ++count;
        }
      }
      return Value::Number(static_cast<double>(count));
    }
    // SUM over node sets that are not numbers degenerates to a count —
    // this is how the paper's Q2 `SELECT SUM(R)` counts restaurants.
    double sum = 0, min = 0, max = 0;
    size_t numeric = 0, non_numeric = 0;
    for (const Value& value : inputs) {
      for (const std::string& scalar : ScalarsOf(value)) {
        double n;
        if (TryParseNumber(scalar, &n)) {
          if (numeric == 0 || n < min) min = n;
          if (numeric == 0 || n > max) max = n;
          sum += n;
          ++numeric;
        } else {
          ++non_numeric;
        }
      }
    }
    switch (agg) {
      case Expr::Agg::kSum:
        if (numeric == 0) {
          return Value::Number(static_cast<double>(non_numeric));
        }
        return Value::Number(sum);
      case Expr::Agg::kMin:
        if (numeric == 0) return Value::Null();
        return Value::Number(min);
      case Expr::Agg::kMax:
        if (numeric == 0) return Value::Null();
        return Value::Number(max);
      case Expr::Agg::kAvg:
        if (numeric == 0) return Value::Null();
        return Value::Number(sum / static_cast<double>(numeric));
      case Expr::Agg::kCount:
        break;  // handled above
    }
    return Status::Internal("unreachable aggregate");
  }

  QueryContext ctx_;
  const ExecOptions& options_;
  ExecStats* stats_;

  std::unordered_map<std::string, size_t> var_index_;
  std::set<std::string> needs_tree_;
  std::unordered_map<std::string, std::vector<PushdownPredicate>> pushdowns_;
  std::vector<std::vector<Binding>> bindings_;
  std::map<std::pair<DocId, VersionNum>, std::shared_ptr<const XmlNode>>
      snapshot_cache_;
};

}  // namespace

StatusOr<XmlDocument> QueryExecutor::Execute(std::string_view query_text,
                                             ExecStats* stats) const {
  TXML_ASSIGN_OR_RETURN(Query query, ParseQuery(query_text));
  return Execute(query, stats);
}

StatusOr<XmlDocument> QueryExecutor::Execute(const Query& query,
                                             ExecStats* stats) const {
  Execution execution(ctx_, options_, stats);
  return execution.Run(query);
}

StatusOr<std::string> QueryExecutor::Explain(
    std::string_view query_text) const {
  TXML_ASSIGN_OR_RETURN(Query query, ParseQuery(query_text));
  return Explain(query);
}

StatusOr<std::string> QueryExecutor::Explain(const Query& query) const {
  // Planning counts nothing: the counters tally what a Run executes.
  ExecStats stats;
  Execution execution(ctx_, options_, &stats);
  return execution.Explain(query);
}

}  // namespace txml
