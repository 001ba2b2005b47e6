#include "src/lang/parser.h"

#include <utility>

#include "src/lang/lexer.h"
#include "src/util/macros.h"

namespace txml {
namespace {

/// Hard cap on expression nesting. Every recursive production
/// (parenthesised conditions, NOT chains, nested DIFF/aggregate/CONTAINS
/// arguments) descends through ParseComparison or ParsePrimary; without a
/// cap, an input like "SELECT SUM(SUM(SUM(…" recurses once per byte and
/// overflows the stack. 64 is far beyond any legitimate query (the test
/// corpus never exceeds depth 6) while keeping worst-case stack use a few
/// hundred KiB below typical 8 MiB limits. The AST destructor recurses to
/// the same depth, so this bound also caps destruction.
constexpr int kMaxParseDepth = 64;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Query> Parse() {
    Query query;
    TXML_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    if (AtKeyword("DISTINCT")) {
      Advance();
      query.distinct = true;
    }
    while (true) {
      auto item = ParseComparison();
      if (!item.ok()) return item.status();
      query.select.push_back(std::move(*item));
      if (!At(TokenKind::kComma)) break;
      Advance();
    }
    TXML_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    while (true) {
      auto item = ParseFromItem();
      if (!item.ok()) return item.status();
      query.from.push_back(std::move(*item));
      if (!At(TokenKind::kComma)) break;
      Advance();
    }
    if (AtKeyword("WHERE")) {
      Advance();
      auto cond = ParseOr();
      if (!cond.ok()) return cond.status();
      query.where = std::move(*cond);
    }
    if (!At(TokenKind::kEnd)) {
      return Error("unexpected trailing input '" + Peek().text + "'");
    }
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool At(TokenKind kind) const { return Peek().kind == kind; }
  bool AtKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kKeyword && Peek().text == kw;
  }
  Token Advance() {
    // The kEnd sentinel is never consumed by a well-behaved caller (every
    // Advance is behind an At/AtKeyword check that kEnd fails), but a slip
    // must stay in bounds rather than index past the vector.
    if (pos_ + 1 >= tokens_.size()) return tokens_.back();
    return tokens_[pos_++];
  }

  /// RAII depth guard for the recursive productions; Enter() non-OK means
  /// the query nests beyond kMaxParseDepth.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser* parser) : parser_(parser) {
      ++parser_->depth_;
    }
    ~DepthGuard() { --parser_->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

    Status Enter() const {
      if (parser_->depth_ > kMaxParseDepth) {
        return parser_->Error("query nesting exceeds the depth limit of " +
                              std::to_string(kMaxParseDepth));
      }
      return Status::OK();
    }

   private:
    Parser* parser_;
  };

  Status Error(const std::string& message) const {
    return Status::ParseError("query offset " +
                              std::to_string(Peek().offset) + ": " + message);
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!AtKeyword(kw)) {
      return Error("expected " + std::string(kw));
    }
    Advance();
    return Status::OK();
  }

  Status Expect(TokenKind kind, const std::string& what) {
    if (!At(kind)) return Error("expected " + what);
    Advance();
    return Status::OK();
  }

  /// Parses a location path written as tokens: [/|//] name ([/|//] name)*
  /// [/@name]. Returns the reassembled text for PathExpr::Parse.
  StatusOr<PathExpr> ParsePathTokens(bool require_leading_slash) {
    std::string text;
    bool first = true;
    while (true) {
      if (At(TokenKind::kSlash)) {
        text += "/";
        Advance();
      } else if (At(TokenKind::kSlashSlash)) {
        text += "//";
        Advance();
      } else if (first && !require_leading_slash) {
        // Relative path may start directly with a name.
      } else {
        break;
      }
      if (At(TokenKind::kAt)) {
        Advance();
        if (!At(TokenKind::kIdent) && !At(TokenKind::kKeyword)) {
          return Error("expected attribute name after '@'");
        }
        text += "@";
        text += Advance().text;
        break;
      }
      if (At(TokenKind::kStar)) {
        text += "*";
        Advance();
      } else if (At(TokenKind::kIdent)) {
        text += Advance().text;
      } else if (first && !require_leading_slash) {
        return Error("expected path");
      } else {
        return Error("expected name in path");
      }
      first = false;
      if (!At(TokenKind::kSlash) && !At(TokenKind::kSlashSlash)) break;
    }
    if (text.empty()) return Error("expected path");
    return PathExpr::Parse(text);
  }

  StatusOr<FromItem> ParseFromItem() {
    FromItem item;
    if (AtKeyword("COLLECTION")) {
      Advance();
      item.is_collection = true;
    } else {
      TXML_RETURN_IF_ERROR(ExpectKeyword("DOC"));
    }
    TXML_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    if (!At(TokenKind::kString)) return Error("expected document URL string");
    item.url = Advance().text;
    TXML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));

    if (At(TokenKind::kLBracket)) {
      Advance();
      if (AtKeyword("EVERY")) {
        Advance();
        item.mode = FromItem::Mode::kEvery;
      } else {
        item.mode = FromItem::Mode::kSnapshot;
        auto time_expr = ParseAdditive();
        if (!time_expr.ok()) return time_expr.status();
        item.snapshot_time = std::move(*time_expr);
      }
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
    }

    auto path = ParsePathTokens(/*require_leading_slash=*/true);
    if (!path.ok()) return path.status();
    item.path = std::move(*path);

    if (AtKeyword("AS")) Advance();
    if (!At(TokenKind::kIdent)) {
      return Error("expected binding variable after FROM path");
    }
    item.var = Advance().text;
    return item;
  }

  StatusOr<std::unique_ptr<Expr>> ParseOr() {
    auto lhs = ParseAnd();
    if (!lhs.ok()) return lhs;
    while (AtKeyword("OR")) {
      Advance();
      auto rhs = ParseAnd();
      if (!rhs.ok()) return rhs;
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = Expr::Op::kOr;
      node->lhs = std::move(*lhs);
      node->rhs = std::move(*rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<Expr>> ParseAnd() {
    auto lhs = ParseComparison();
    if (!lhs.ok()) return lhs;
    while (AtKeyword("AND")) {
      Advance();
      auto rhs = ParseComparison();
      if (!rhs.ok()) return rhs;
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kBinary;
      node->op = Expr::Op::kAnd;
      node->lhs = std::move(*lhs);
      node->rhs = std::move(*rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<Expr>> ParseComparison() {
    DepthGuard depth(this);
    TXML_RETURN_IF_ERROR(depth.Enter());
    if (AtKeyword("NOT")) {
      Advance();
      auto inner = ParseComparison();
      if (!inner.ok()) return inner;
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNot;
      node->lhs = std::move(*inner);
      return node;
    }
    if (At(TokenKind::kLParen)) {
      // Could be a parenthesised condition.
      Advance();
      auto inner = ParseOr();
      if (!inner.ok()) return inner;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    auto lhs = ParseAdditive();
    if (!lhs.ok()) return lhs;
    Expr::Op op;
    switch (Peek().kind) {
      case TokenKind::kEq: op = Expr::Op::kEq; break;
      case TokenKind::kNe: op = Expr::Op::kNe; break;
      case TokenKind::kLt: op = Expr::Op::kLt; break;
      case TokenKind::kLe: op = Expr::Op::kLe; break;
      case TokenKind::kGt: op = Expr::Op::kGt; break;
      case TokenKind::kGe: op = Expr::Op::kGe; break;
      case TokenKind::kIdEq: op = Expr::Op::kIdEq; break;
      case TokenKind::kSim: op = Expr::Op::kSim; break;
      default:
        return lhs;  // bare expression (e.g. in SELECT list)
    }
    Advance();
    auto rhs = ParseAdditive();
    if (!rhs.ok()) return rhs;
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kBinary;
    node->op = op;
    node->lhs = std::move(*lhs);
    node->rhs = std::move(*rhs);
    return node;
  }

  /// Time arithmetic: base (+|-) N unit, e.g. NOW - 14 DAYS.
  StatusOr<std::unique_ptr<Expr>> ParseAdditive() {
    auto lhs = ParsePrimary();
    if (!lhs.ok()) return lhs;
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      int sign = At(TokenKind::kPlus) ? 1 : -1;
      Advance();
      if (!At(TokenKind::kNumber)) {
        return Error("expected number in time arithmetic");
      }
      double count = Advance().number;
      if (!At(TokenKind::kKeyword)) {
        return Error("expected time unit (DAYS, WEEKS, ...)");
      }
      std::string unit = Advance().text;
      int64_t micros_per_unit;
      if (unit == "DAY" || unit == "DAYS") {
        micros_per_unit = kMicrosPerDay;
      } else if (unit == "WEEK" || unit == "WEEKS") {
        micros_per_unit = 7 * kMicrosPerDay;
      } else if (unit == "HOUR" || unit == "HOURS") {
        micros_per_unit = 3600 * kMicrosPerSecond;
      } else if (unit == "MINUTE" || unit == "MINUTES") {
        micros_per_unit = 60 * kMicrosPerSecond;
      } else if (unit == "SECOND" || unit == "SECONDS") {
        micros_per_unit = kMicrosPerSecond;
      } else {
        return Error("unknown time unit " + unit);
      }
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kTimeArith;
      node->lhs = std::move(*lhs);
      node->duration_micros =
          sign * static_cast<int64_t>(count * static_cast<double>(micros_per_unit));
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<Expr>> ParsePrimary() {
    DepthGuard depth(this);
    TXML_RETURN_IF_ERROR(depth.Enter());
    auto node = std::make_unique<Expr>();
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kString:
        node->kind = Expr::Kind::kString;
        node->str = Advance().text;
        return node;
      case TokenKind::kNumber:
        node->kind = Expr::Kind::kNumber;
        node->number = Advance().number;
        return node;
      case TokenKind::kDate:
        node->kind = Expr::Kind::kDate;
        node->date = Advance().date;
        return node;
      case TokenKind::kIdent: {
        // Variable, possibly with a path: R or R/price or R//name.
        node->kind = Expr::Kind::kVar;
        node->var = Advance().text;
        if (At(TokenKind::kSlash) || At(TokenKind::kSlashSlash)) {
          auto path = ParsePathTokens(/*require_leading_slash=*/true);
          if (!path.ok()) return path.status();
          node->kind = Expr::Kind::kPath;
          node->path = std::move(*path);
        }
        return node;
      }
      case TokenKind::kLParen: {
        // Grouped expression in a value position. WHERE-level parentheses
        // are consumed by ParseComparison before ParseAdditive ever runs,
        // so this case covers value contexts: the time-slice bracket and
        // argument lists. ToString() renders time arithmetic as
        // "(NOW - 3 DAYS)", so this case is also what makes the
        // printer/parser round trip close (found by fuzzing).
        Advance();
        auto inner = ParseOr();
        if (!inner.ok()) return inner;
        TXML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kKeyword:
        return ParseKeywordPrimary();
      default:
        return Error("unexpected token '" + token.text + "'");
    }
  }

  StatusOr<std::unique_ptr<Expr>> ParseKeywordPrimary() {
    auto node = std::make_unique<Expr>();
    std::string kw = Advance().text;
    if (kw == "NOW") {
      node->kind = Expr::Kind::kNow;
      return node;
    }
    if (kw == "TIME") {
      node->kind = Expr::Kind::kTimeOf;
      return FinishVarCall(std::move(node));
    }
    if (kw == "CREATE" || kw == "DELETE") {
      // Two-word functions CREATE TIME(R) / DELETE TIME(R).
      if (!AtKeyword("TIME")) return Error("expected TIME after " + kw);
      Advance();
      node->kind = kw == "CREATE" ? Expr::Kind::kCreateTime
                                  : Expr::Kind::kDeleteTime;
      return FinishVarCall(std::move(node));
    }
    if (kw == "CURRENT" || kw == "PREVIOUS" || kw == "NEXT") {
      node->kind = Expr::Kind::kNav;
      node->nav = kw == "CURRENT"    ? Expr::Nav::kCurrent
                  : kw == "PREVIOUS" ? Expr::Nav::kPrevious
                                     : Expr::Nav::kNext;
      auto with_var = FinishVarCall(std::move(node));
      if (!with_var.ok()) return with_var;
      // Optional trailing path: CURRENT(R)/name.
      if (At(TokenKind::kSlash) || At(TokenKind::kSlashSlash)) {
        auto path = ParsePathTokens(/*require_leading_slash=*/true);
        if (!path.ok()) return path.status();
        (*with_var)->path = std::move(*path);
      }
      return with_var;
    }
    if (kw == "CONTAINS") {
      // CONTAINS(R[/path], "words"): true when the addressed element
      // directly contains every word of the literal.
      node->kind = Expr::Kind::kContains;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      auto target = ParsePrimary();
      if (!target.ok()) return target;
      if ((*target)->kind != Expr::Kind::kVar &&
          (*target)->kind != Expr::Kind::kPath) {
        return Error("CONTAINS expects a variable or path as first operand");
      }
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      if (!At(TokenKind::kString)) {
        return Error("CONTAINS expects a string literal as second operand");
      }
      auto words = std::make_unique<Expr>();
      words->kind = Expr::Kind::kString;
      words->str = Advance().text;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      node->lhs = std::move(*target);
      node->rhs = std::move(words);
      return node;
    }
    if (kw == "DIFF") {
      node->kind = Expr::Kind::kDiff;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      auto lhs = ParsePrimary();
      if (!lhs.ok()) return lhs;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kComma, "','"));
      auto rhs = ParsePrimary();
      if (!rhs.ok()) return rhs;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      node->lhs = std::move(*lhs);
      node->rhs = std::move(*rhs);
      return node;
    }
    if (kw == "SUM" || kw == "COUNT" || kw == "MIN" || kw == "MAX" ||
        kw == "AVG") {
      node->kind = Expr::Kind::kAggregate;
      node->agg = kw == "SUM"     ? Expr::Agg::kSum
                  : kw == "COUNT" ? Expr::Agg::kCount
                  : kw == "MIN"   ? Expr::Agg::kMin
                  : kw == "MAX"   ? Expr::Agg::kMax
                                  : Expr::Agg::kAvg;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      auto arg = ParsePrimary();
      if (!arg.ok()) return arg;
      TXML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      node->lhs = std::move(*arg);
      return node;
    }
    return Error("unexpected keyword " + kw);
  }

  /// Parses "( IDENT )" after a one-variable function keyword.
  StatusOr<std::unique_ptr<Expr>> FinishVarCall(std::unique_ptr<Expr> node) {
    TXML_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    if (!At(TokenKind::kIdent)) return Error("expected variable");
    node->var = Advance().text;
    TXML_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return node;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<Query> ParseQuery(std::string_view text) {
  auto tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  return Parser(std::move(*tokens)).Parse();
}

}  // namespace txml
