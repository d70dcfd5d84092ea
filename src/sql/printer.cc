#include "sql/printer.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/time_util.h"
#include "expr/agg_function.h"
#include "sql/lexer.h"

namespace photon {
namespace sql {
namespace {

// ---------------------------------------------------------------------------
// Literal and type rendering
// ---------------------------------------------------------------------------

std::string SqlTypeName(const DataType& t) {
  switch (t.id()) {
    case TypeId::kBoolean:
      return "BOOLEAN";
    case TypeId::kInt32:
      return "INT";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kFloat64:
      return "DOUBLE";
    case TypeId::kDate32:
      return "DATE";
    case TypeId::kTimestamp:
      return "TIMESTAMP";
    case TypeId::kString:
      return "STRING";
    case TypeId::kDecimal128:
      return "DECIMAL(" + std::to_string(t.precision()) + "," +
             std::to_string(t.scale()) + ")";
  }
  return "?";
}

std::string QuoteString(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

/// Renders `v` (of static type `t`) as a literal that re-lowers to exactly
/// LiteralExpr(v, t). Every type except int32 gets an explicit type prefix;
/// untagged forms would lower to a different type (e.g. a bare integer in
/// int64 range still fits int32 → wrong type) or not parse at all.
std::string LiteralToSql(const Value& v, const DataType& t) {
  if (v.is_null()) return "CAST(NULL AS " + SqlTypeName(t) + ")";
  switch (t.id()) {
    case TypeId::kBoolean:
      return v.boolean() ? "TRUE" : "FALSE";
    case TypeId::kInt32:
      return std::to_string(v.i32());
    case TypeId::kInt64:
      return "BIGINT '" + std::to_string(v.i64()) + "'";
    case TypeId::kFloat64: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.f64());
      return "DOUBLE '" + std::string(buf) + "'";
    }
    case TypeId::kDate32:
      return "DATE '" + FormatDate(v.i32()) + "'";
    case TypeId::kTimestamp:
      return "TIMESTAMP '" + std::to_string(v.i64()) + "'";
    case TypeId::kString:
      return QuoteString(v.str());
    case TypeId::kDecimal128:
      return SqlTypeName(t) + " " + QuoteString(v.ToString(t));
  }
  return "?";
}

const char* CmpOpSql(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpSql(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Expression → SQL with precedence-driven parenthesization
// ---------------------------------------------------------------------------

// Binding powers, mirroring the parser: OR=1, AND=2, NOT=3, predicates
// (comparison, BETWEEN, IN, LIKE, IS NULL)=4, +|-=5, *|/|%=6, primary=7.
constexpr int kOr = 1;
constexpr int kAnd = 2;
constexpr int kPred = 4;
constexpr int kAdd = 5;
constexpr int kMul = 6;
constexpr int kPrimary = 7;

/// Renders `e` and wraps it in parentheses when its own precedence is
/// below `min_level` (the binding power the surrounding context requires).
/// Right operands of left-associative binary operators render at
/// level + 1, so right-nested same-precedence trees keep their explicit
/// parentheses and the round trip reproduces the tree shape exactly.
std::string Render(const Expr& e, const std::vector<std::string>& names,
                   int min_level);

std::string RenderAt(int level, std::string text, int min_level) {
  if (level < min_level) return "(" + std::move(text) + ")";
  return text;
}

std::string Render(const Expr& e, const std::vector<std::string>& names,
                   int min_level) {
  if (auto* col = dynamic_cast<const ColumnRefExpr*>(&e)) {
    PHOTON_CHECK(col->index() >= 0 &&
                 col->index() < static_cast<int>(names.size()));
    return names[col->index()];
  }
  if (auto* lit = dynamic_cast<const LiteralExpr*>(&e)) {
    std::string text = LiteralToSql(lit->value(), lit->type());
    // A negative int32 renders as unary minus applied to a positive
    // literal; the analyzer folds that back into one literal. Every other
    // form is a primary.
    bool negative = !text.empty() && text[0] == '-';
    return RenderAt(negative ? kPred : kPrimary, std::move(text),
                    min_level);
  }
  if (auto* arith = dynamic_cast<const ArithmeticExpr*>(&e)) {
    std::vector<ExprPtr> kids = arith->children();
    int level =
        (arith->op() == ArithOp::kAdd || arith->op() == ArithOp::kSub)
            ? kAdd
            : kMul;
    std::string text = Render(*kids[0], names, level) + " " +
                       ArithOpSql(arith->op()) + " " +
                       Render(*kids[1], names, level + 1);
    return RenderAt(level, std::move(text), min_level);
  }
  if (auto* cmp = dynamic_cast<const ComparisonExpr*>(&e)) {
    std::vector<ExprPtr> kids = cmp->children();
    std::string text = Render(*kids[0], names, kPred + 1) + " " +
                       CmpOpSql(cmp->op()) + " " +
                       Render(*kids[1], names, kPred + 1);
    return RenderAt(kPred, std::move(text), min_level);
  }
  if (auto* between = dynamic_cast<const BetweenExpr*>(&e)) {
    std::vector<ExprPtr> kids = between->children();
    std::string text = Render(*kids[0], names, kPred + 1) + " BETWEEN " +
                       Render(*kids[1], names, kPred + 1) + " AND " +
                       Render(*kids[2], names, kPred + 1);
    return RenderAt(kPred, std::move(text), min_level);
  }
  if (auto* boolean = dynamic_cast<const BooleanExpr*>(&e)) {
    std::vector<ExprPtr> kids = boolean->children();
    int level = boolean->op() == BoolOp::kAnd ? kAnd : kOr;
    const char* op = boolean->op() == BoolOp::kAnd ? " AND " : " OR ";
    std::string text = Render(*kids[0], names, level) + op +
                       Render(*kids[1], names, level + 1);
    return RenderAt(level, std::move(text), min_level);
  }
  if (dynamic_cast<const NotExpr*>(&e) != nullptr) {
    // Always parenthesize the operand: NOT binds between AND and the
    // predicates, and the parentheses keep the round trip exact.
    std::string text =
        "NOT (" + Render(*e.children()[0], names, kOr) + ")";
    return RenderAt(3, std::move(text), min_level);
  }
  if (auto* is_null = dynamic_cast<const IsNullExpr*>(&e)) {
    std::string text = Render(*e.children()[0], names, kPred + 1) +
                       (is_null->negated() ? " IS NOT NULL" : " IS NULL");
    return RenderAt(kPred, std::move(text), min_level);
  }
  if (dynamic_cast<const CastExpr*>(&e) != nullptr) {
    return "CAST(" + Render(*e.children()[0], names, kOr) + " AS " +
           SqlTypeName(e.type()) + ")";
  }
  if (auto* cw = dynamic_cast<const CaseWhenExpr*>(&e)) {
    std::string text = "CASE";
    for (const auto& b : cw->branches()) {
      text += " WHEN " + Render(*b.first, names, kOr) + " THEN " +
              Render(*b.second, names, kOr);
    }
    if (cw->else_expr()) {
      text += " ELSE " + Render(*cw->else_expr(), names, kOr);
    }
    text += " END";
    return text;
  }
  if (auto* in = dynamic_cast<const InListExpr*>(&e)) {
    std::string text = Render(*e.children()[0], names, kPred + 1) + " IN (";
    const DataType& vt = e.children()[0]->type();
    for (size_t i = 0; i < in->list().size(); i++) {
      if (i > 0) text += ", ";
      text += LiteralToSql(in->list()[i], vt);
    }
    text += ")";
    return RenderAt(kPred, std::move(text), min_level);
  }
  if (auto* call = dynamic_cast<const CallExpr*>(&e)) {
    if (call->name() == "like" && call->args().size() == 2) {
      auto* pattern = dynamic_cast<const LiteralExpr*>(call->args()[1].get());
      if (pattern != nullptr && pattern->type().is_string() &&
          !pattern->value().is_null()) {
        std::string text = Render(*call->args()[0], names, kPred + 1) +
                           " LIKE " + QuoteString(pattern->value().str());
        return RenderAt(kPred, std::move(text), min_level);
      }
    }
    std::string text = call->name() + "(";
    for (size_t i = 0; i < call->args().size(); i++) {
      if (i > 0) text += ", ";
      text += Render(*call->args()[i], names, kOr);
    }
    text += ")";
    return text;
  }
  PHOTON_CHECK(false);  // unreachable: all Expr subclasses handled
  return "";
}

std::string AggCallSql(const AggregateSpec& spec,
                       const std::vector<std::string>& names) {
  if (spec.kind == AggKind::kCountStar) return "count(*)";
  return std::string(AggKindName(spec.kind)) + "(" +
         Render(*spec.arg, names, kOr) + ")";
}

bool IsPlainIdent(const std::string& s) {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_') {
    return false;
  }
  for (char c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      return false;
    }
  }
  return !IsReservedWord(s);
}

/// Equal-literal equality conjuncts (the `1 = 1` constant-key device) are
/// semantic no-ops; both the printer and the fingerprint drop them.
bool IsTrivialLiteralPair(const Expr& probe, const Expr& build) {
  auto* a = dynamic_cast<const LiteralExpr*>(&probe);
  auto* b = dynamic_cast<const LiteralExpr*>(&build);
  return a != nullptr && b != nullptr && a->type() == b->type() &&
         a->value() == b->value();
}

// ---------------------------------------------------------------------------
// Plan → SQL
// ---------------------------------------------------------------------------

class PlanPrinter {
 public:
  explicit PlanPrinter(const Catalog& catalog) : catalog_(catalog) {}

  Result<std::string> Print(const plan::PlanNode& node) {
    switch (node.kind) {
      case plan::PlanKind::kScan:
      case plan::PlanKind::kDeltaScan: {
        // A bare leaf at this position only occurs at the top level (or
        // under Sort/Limit); elsewhere it is embedded by ChildRef.
        std::vector<std::string> names;
        Result<std::string> ref = ChildRef(node, "c", &names);
        if (!ref.ok()) return ref;
        return "SELECT * FROM " + *ref;
      }
      case plan::PlanKind::kFilter: {
        std::vector<std::string> names;
        Result<std::string> ref = ChildRef(*node.children[0], "c", &names);
        if (!ref.ok()) return ref;
        return "SELECT * FROM " + *ref + " WHERE " +
               Render(*node.predicate, names, kOr);
      }
      case plan::PlanKind::kProject: {
        std::vector<std::string> names;
        Result<std::string> ref = ChildRef(*node.children[0], "c", &names);
        if (!ref.ok()) return ref;
        std::string out = "SELECT ";
        for (size_t i = 0; i < node.exprs.size(); i++) {
          if (i > 0) out += ", ";
          out += Render(*node.exprs[i], names, kOr) + " AS " +
                 OutputName(node.names[i], i);
        }
        return out + " FROM " + *ref;
      }
      case plan::PlanKind::kAggregate:
        return PrintAggregate(node);
      case plan::PlanKind::kJoin:
        return PrintJoin(node);
      case plan::PlanKind::kSort:
        return PrintSort(node, /*limit=*/-1);
      case plan::PlanKind::kLimit: {
        const plan::PlanNode& child = *node.children[0];
        if (child.kind == plan::PlanKind::kSort) {
          return PrintSort(child, node.limit);
        }
        std::vector<std::string> names;
        Result<std::string> ref = ChildRef(child, "c", &names);
        if (!ref.ok()) return ref;
        return "SELECT * FROM " + *ref + " LIMIT " +
               std::to_string(node.limit);
      }
    }
    return Status::InvalidArgument("unknown plan kind");
  }

 private:
  /// Renders `child` as a FROM-clause table reference with a fresh alias
  /// and positional column aliases `<prefix>0..`, which become the names
  /// the surrounding SELECT uses in its expressions.
  Result<std::string> ChildRef(const plan::PlanNode& child,
                               const std::string& prefix,
                               std::vector<std::string>* names) {
    std::string alias = "t" + std::to_string(next_alias_++);
    int width = child.output_schema.num_fields();
    names->clear();
    for (int i = 0; i < width; i++) {
      names->push_back(prefix + std::to_string(i));
    }
    std::string cols = " (";
    for (int i = 0; i < width; i++) {
      if (i > 0) cols += ", ";
      cols += (*names)[i];
    }
    cols += ")";
    if (child.kind == plan::PlanKind::kScan ||
        child.kind == plan::PlanKind::kDeltaScan) {
      std::string table = catalog_.NameOf(&child);
      if (table.empty()) {
        return Status::InvalidArgument(
            "PlanToSql: leaf plan node is not registered in the catalog");
      }
      return table + " AS " + alias + cols;
    }
    Result<std::string> sub = Print(child);
    if (!sub.ok()) return sub;
    return "(" + *sub + ") AS " + alias + cols;
  }

  Result<std::string> PrintAggregate(const plan::PlanNode& node) {
    std::vector<std::string> names;
    Result<std::string> ref = ChildRef(*node.children[0], "c", &names);
    if (!ref.ok()) return ref;
    std::string out = "SELECT ";
    std::vector<std::string> key_sql;
    for (size_t i = 0; i < node.group_keys.size(); i++) {
      key_sql.push_back(Render(*node.group_keys[i], names, kOr));
      if (i > 0) out += ", ";
      out += key_sql.back() + " AS " + OutputName(node.key_names[i], i);
    }
    for (size_t i = 0; i < node.aggregates.size(); i++) {
      if (i > 0 || !node.group_keys.empty()) out += ", ";
      out += AggCallSql(node.aggregates[i], names) + " AS " +
             OutputName(node.aggregates[i].name,
                        node.group_keys.size() + i);
    }
    out += " FROM " + *ref;
    if (!key_sql.empty()) {
      out += " GROUP BY ";
      for (size_t i = 0; i < key_sql.size(); i++) {
        if (i > 0) out += ", ";
        out += key_sql[i];
      }
    }
    return out;
  }

  Result<std::string> PrintJoin(const plan::PlanNode& node) {
    const plan::PlanNode& left = *node.children[0];
    const plan::PlanNode& right = *node.children[1];
    std::vector<std::string> left_names, right_names;
    Result<std::string> lref = ChildRef(left, "c", &left_names);
    if (!lref.ok()) return lref;
    Result<std::string> rref = ChildRef(right, "d", &right_names);
    if (!rref.ok()) return rref;
    std::vector<std::string> combined = left_names;
    combined.insert(combined.end(), right_names.begin(), right_names.end());

    std::vector<std::string> conds;
    for (size_t i = 0; i < node.left_keys.size(); i++) {
      if (IsTrivialLiteralPair(*node.left_keys[i], *node.right_keys[i])) {
        continue;
      }
      conds.push_back(Render(*node.left_keys[i], left_names, kPred + 1) +
                      " = " +
                      Render(*node.right_keys[i], right_names, kPred + 1));
    }
    if (node.residual != nullptr) {
      // Split the left-associative AND spine; the analyzer refolds the
      // conjunct list in order, reproducing the tree.
      std::vector<const Expr*> stack;
      std::vector<const Expr*> conjuncts;
      const Expr* cur = node.residual.get();
      while (true) {
        auto* b = dynamic_cast<const BooleanExpr*>(cur);
        if (b != nullptr && b->op() == BoolOp::kAnd) {
          stack.push_back(b->children()[1].get());
          cur = b->children()[0].get();
          continue;
        }
        conjuncts.push_back(cur);
        while (!stack.empty()) {
          conjuncts.push_back(stack.back());
          stack.pop_back();
        }
        break;
      }
      for (const Expr* c : conjuncts) {
        conds.push_back(Render(*c, combined, kAnd + 1));
      }
    }

    const char* kind = nullptr;
    switch (node.join_type) {
      case JoinType::kInner:
        kind = "INNER JOIN";
        break;
      case JoinType::kLeftOuter:
        kind = "LEFT OUTER JOIN";
        break;
      case JoinType::kLeftSemi:
        kind = "LEFT SEMI JOIN";
        break;
      case JoinType::kLeftAnti:
        kind = "LEFT ANTI JOIN";
        break;
    }
    std::string on;
    if (conds.empty()) {
      on = "1 = 1";  // constant-key join; fingerprints drop it either way
    } else {
      for (size_t i = 0; i < conds.size(); i++) {
        if (i > 0) on += " AND ";
        on += conds[i];
      }
    }
    return "SELECT * FROM " + *lref + " " + kind + " " + *rref + " ON " + on;
  }

  Result<std::string> PrintSort(const plan::PlanNode& node, int64_t limit) {
    std::vector<std::string> names;
    Result<std::string> ref = ChildRef(*node.children[0], "c", &names);
    if (!ref.ok()) return ref;
    std::string out = "SELECT * FROM " + *ref + " ORDER BY ";
    for (size_t i = 0; i < node.sort_keys.size(); i++) {
      const SortKey& k = node.sort_keys[i];
      if (i > 0) out += ", ";
      out += Render(*k.expr, names, kOr);
      out += k.ascending ? " ASC" : " DESC";
      out += k.nulls_first ? " NULLS FIRST" : " NULLS LAST";
    }
    if (limit >= 0) out += " LIMIT " + std::to_string(limit);
    return out;
  }

  std::string OutputName(const std::string& name, size_t position) {
    // Output names never affect round-trip fingerprints (they are
    // positional); fall back to a synthetic alias when the stored name
    // would not lex as an identifier.
    if (IsPlainIdent(name)) return name;
    return "_c" + std::to_string(position);
  }

  const Catalog& catalog_;
  int next_alias_ = 0;
};

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Canonical form of an expression; column references shift by
/// `col_offset` so build-side join keys canonicalize in the combined
/// [left, right] index space.
std::string CanonExpr(const Expr& e, int col_offset) {
  if (auto* col = dynamic_cast<const ColumnRefExpr*>(&e)) {
    return "c" + std::to_string(col->index() + col_offset);
  }
  if (auto* lit = dynamic_cast<const LiteralExpr*>(&e)) {
    return "lit[" + e.type().ToString() + ":" +
           LiteralToSql(lit->value(), e.type()) + "]";
  }
  auto join_children = [&](const std::string& head) {
    std::string out = head + "(";
    std::vector<ExprPtr> kids = e.children();
    for (size_t i = 0; i < kids.size(); i++) {
      if (i > 0) out += ",";
      out += CanonExpr(*kids[i], col_offset);
    }
    return out + ")";
  };
  if (auto* arith = dynamic_cast<const ArithmeticExpr*>(&e)) {
    return join_children("arith" +
                         std::to_string(static_cast<int>(arith->op())) +
                         "@" + e.type().ToString());
  }
  if (auto* cmp = dynamic_cast<const ComparisonExpr*>(&e)) {
    return join_children("cmp" +
                         std::to_string(static_cast<int>(cmp->op())));
  }
  if (dynamic_cast<const BetweenExpr*>(&e) != nullptr) {
    return join_children("between");
  }
  if (auto* boolean = dynamic_cast<const BooleanExpr*>(&e)) {
    return join_children(boolean->op() == BoolOp::kAnd ? "and" : "or");
  }
  if (dynamic_cast<const NotExpr*>(&e) != nullptr) {
    return join_children("not");
  }
  if (auto* is_null = dynamic_cast<const IsNullExpr*>(&e)) {
    return join_children(is_null->negated() ? "isnotnull" : "isnull");
  }
  if (dynamic_cast<const CastExpr*>(&e) != nullptr) {
    return join_children("cast@" + e.type().ToString());
  }
  if (auto* cw = dynamic_cast<const CaseWhenExpr*>(&e)) {
    std::string out = "case@" + e.type().ToString() + "(";
    for (const auto& b : cw->branches()) {
      out += CanonExpr(*b.first, col_offset) + "->" +
             CanonExpr(*b.second, col_offset) + ";";
    }
    out += cw->else_expr() ? CanonExpr(*cw->else_expr(), col_offset) : "-";
    return out + ")";
  }
  if (auto* in = dynamic_cast<const InListExpr*>(&e)) {
    std::string out = "in(" + CanonExpr(*e.children()[0], col_offset);
    const DataType& vt = e.children()[0]->type();
    for (const Value& v : in->list()) out += "," + LiteralToSql(v, vt);
    return out + ")";
  }
  if (auto* call = dynamic_cast<const CallExpr*>(&e)) {
    return join_children("call:" + call->name());
  }
  PHOTON_CHECK(false);
  return "";
}

/// The join condition as an order- and orientation-insensitive conjunct
/// set: key pairs and residual equality conjuncts are interchangeable
/// lowerings of the same ON clause, so both normalize to the same strings.
std::string JoinConditionCanon(const plan::PlanNode& node) {
  int left_width = node.children[0]->output_schema.num_fields();
  std::vector<std::string> conjuncts;
  auto add_eq = [&](const std::string& a, const std::string& b) {
    conjuncts.push_back("cmp0(" + std::min(a, b) + "," + std::max(a, b) +
                        ")");
  };
  for (size_t i = 0; i < node.left_keys.size(); i++) {
    if (IsTrivialLiteralPair(*node.left_keys[i], *node.right_keys[i])) {
      continue;
    }
    add_eq(CanonExpr(*node.left_keys[i], 0),
           CanonExpr(*node.right_keys[i], left_width));
  }
  if (node.residual != nullptr) {
    std::vector<const Expr*> stack;
    const Expr* cur = node.residual.get();
    while (true) {
      auto* b = dynamic_cast<const BooleanExpr*>(cur);
      if (b != nullptr && b->op() == BoolOp::kAnd) {
        stack.push_back(b->children()[1].get());
        cur = b->children()[0].get();
        continue;
      }
      auto* cmp = dynamic_cast<const ComparisonExpr*>(cur);
      if (cmp != nullptr && cmp->op() == CmpOp::kEq) {
        std::vector<ExprPtr> kids = cmp->children();
        if (IsTrivialLiteralPair(*kids[0], *kids[1])) {
          // dropped, same as a trivial key pair
        } else {
          add_eq(CanonExpr(*kids[0], 0), CanonExpr(*kids[1], 0));
        }
      } else {
        conjuncts.push_back(CanonExpr(*cur, 0));
      }
      if (stack.empty()) break;
      cur = stack.back();
      stack.pop_back();
    }
  }
  std::sort(conjuncts.begin(), conjuncts.end());
  std::string out;
  for (const std::string& c : conjuncts) out += c + "&";
  return out;
}

std::string Fingerprint(const plan::PlanNode& node) {
  char buf[32];
  switch (node.kind) {
    case plan::PlanKind::kScan:
      std::snprintf(buf, sizeof(buf), "scan@%p",
                    static_cast<const void*>(node.table));
      return buf;
    case plan::PlanKind::kDeltaScan:
      // Node identity: mode-7 round trips re-use the original leaf node
      // through the catalog, so pointer equality is exactly "same scan".
      std::snprintf(buf, sizeof(buf), "delta@%p",
                    static_cast<const void*>(&node));
      return buf;
    case plan::PlanKind::kFilter:
      return "filter(" + Fingerprint(*node.children[0]) + ";" +
             CanonExpr(*node.predicate, 0) + ")";
    case plan::PlanKind::kProject: {
      std::string out = "project(" + Fingerprint(*node.children[0]) + ";";
      for (const auto& e : node.exprs) out += CanonExpr(*e, 0) + ",";
      return out + ")";
    }
    case plan::PlanKind::kAggregate: {
      std::string out = "agg(" + Fingerprint(*node.children[0]) + ";keys=";
      for (const auto& k : node.group_keys) out += CanonExpr(*k, 0) + ",";
      out += ";aggs=";
      for (const auto& a : node.aggregates) {
        out += std::to_string(static_cast<int>(a.kind)) + ":";
        out += a.arg ? CanonExpr(*a.arg, 0) : "*";
        out += ",";
      }
      return out + ")";
    }
    case plan::PlanKind::kJoin:
      return "join" + std::to_string(static_cast<int>(node.join_type)) +
             "(" + JoinConditionCanon(node) + ";" +
             Fingerprint(*node.children[0]) + ";" +
             Fingerprint(*node.children[1]) + ")";
    case plan::PlanKind::kSort: {
      std::string out = "sort(" + Fingerprint(*node.children[0]) + ";";
      for (const SortKey& k : node.sort_keys) {
        out += CanonExpr(*k.expr, 0) + (k.ascending ? "a" : "d") +
               (k.nulls_first ? "f" : "l") + ",";
      }
      return out + ")";
    }
    case plan::PlanKind::kLimit:
      return "limit(" + Fingerprint(*node.children[0]) + ";" +
             std::to_string(node.limit) + ")";
  }
  return "?";
}

}  // namespace

Result<std::string> PlanToSql(const plan::PlanPtr& plan,
                              const Catalog& catalog) {
  PHOTON_CHECK(plan != nullptr);
  PlanPrinter printer(catalog);
  return printer.Print(*plan);
}

std::string PlanFingerprint(const plan::PlanPtr& plan) {
  PHOTON_CHECK(plan != nullptr);
  return Fingerprint(*plan);
}

}  // namespace sql
}  // namespace photon
