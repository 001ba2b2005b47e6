#include "src/lang/ast.h"

namespace txml {
namespace {

std::string OpText(Expr::Op op) {
  switch (op) {
    case Expr::Op::kEq: return "=";
    case Expr::Op::kNe: return "!=";
    case Expr::Op::kLt: return "<";
    case Expr::Op::kLe: return "<=";
    case Expr::Op::kGt: return ">";
    case Expr::Op::kGe: return ">=";
    case Expr::Op::kIdEq: return "==";
    case Expr::Op::kSim: return "~";
    case Expr::Op::kAnd: return "AND";
    case Expr::Op::kOr: return "OR";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kString:
      return "\"" + str + "\"";
    case Kind::kNumber: {
      std::string text = std::to_string(number);
      // Trim trailing zeros for readability.
      while (!text.empty() && text.back() == '0') text.pop_back();
      if (!text.empty() && text.back() == '.') text.pop_back();
      return text;
    }
    case Kind::kDate:
      return date.ToString();
    case Kind::kNow:
      return "NOW";
    case Kind::kVar:
      return var;
    case Kind::kPath:
      // Paths after a variable are parsed as absolute, so ToString already
      // starts with '/'.
      return var + (path ? path->ToString() : "");
    case Kind::kTimeOf:
      return "TIME(" + var + ")";
    case Kind::kCreateTime:
      return "CREATE TIME(" + var + ")";
    case Kind::kDeleteTime:
      return "DELETE TIME(" + var + ")";
    case Kind::kNav: {
      std::string name = nav == Nav::kCurrent    ? "CURRENT"
                         : nav == Nav::kPrevious ? "PREVIOUS"
                                                 : "NEXT";
      std::string out = name + "(" + var + ")";
      if (path) out += path->ToString();
      return out;
    }
    case Kind::kDiff:
      return "DIFF(" + lhs->ToString() + ", " + rhs->ToString() + ")";
    case Kind::kAggregate: {
      std::string name = agg == Agg::kSum     ? "SUM"
                         : agg == Agg::kCount ? "COUNT"
                         : agg == Agg::kMin   ? "MIN"
                         : agg == Agg::kMax   ? "MAX"
                                              : "AVG";
      return name + "(" + lhs->ToString() + ")";
    }
    case Kind::kBinary: {
      std::string out = "(";
      out += lhs->ToString();
      out += " ";
      out += OpText(op);
      out += " ";
      out += rhs->ToString();
      out += ")";
      return out;
    }
    case Kind::kNot:
      return "NOT " + lhs->ToString();
    case Kind::kContains:
      return "CONTAINS(" + lhs->ToString() + ", " + rhs->ToString() + ")";
    case Kind::kTimeArith: {
      int64_t days = duration_micros / kMicrosPerDay;
      std::string out = "(";
      out += lhs->ToString();
      out += duration_micros >= 0 ? " + " : " - ";
      out += std::to_string(days < 0 ? -days : days);
      out += " DAYS)";
      return out;
    }
  }
  return "?";
}

std::string Query::ToString() const {
  std::string out = "SELECT ";
  if (distinct) out += "DISTINCT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) out += ", ";
    out += select[i]->ToString();
  }
  out += " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    const FromItem& item = from[i];
    out += (item.is_collection ? "collection(\"" : "doc(\"") + item.url +
           "\")";
    if (item.mode == FromItem::Mode::kEvery) {
      out += "[EVERY]";
    } else if (item.mode == FromItem::Mode::kSnapshot) {
      out += "[";
      out += item.snapshot_time->ToString();
      out += "]";
    }
    out += item.path.ToString() + " " + item.var;
  }
  if (where != nullptr) out += " WHERE " + where->ToString();
  return out;
}

}  // namespace txml
