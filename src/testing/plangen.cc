#include "testing/plangen.h"

#include <algorithm>
#include <string>
#include <utility>

#include "expr/builder.h"

namespace photon {
namespace testing {
namespace {

bool IsNumeric(const DataType& t) {
  return t.id() == TypeId::kInt32 || t.id() == TypeId::kInt64 ||
         t.id() == TypeId::kFloat64 || t.is_decimal();
}

bool IsIntegral(const DataType& t) {
  return t.id() == TypeId::kInt32 || t.id() == TypeId::kInt64;
}

/// Whether MakeCmp can align the two operand types.
bool Comparable(const DataType& a, const DataType& b) {
  if (a.id() == b.id() && !a.is_decimal()) return true;
  if (a.is_decimal() && b.is_decimal()) return true;
  return IsNumeric(a) && IsNumeric(b);
}

}  // namespace

ExprPtr PlanGen::RandomLiteral() {
  switch (rng_.Uniform(0, 3)) {
    case 0:
      return eb::Lit(static_cast<int32_t>(rng_.Uniform(-500, 500)));
    case 1:
      return eb::Lit(rng_.Uniform(-100000, 100000));
    case 2:
      return eb::Lit((rng_.NextDouble() - 0.5) * 1000.0);
    default:
      return eb::DecimalLit(std::to_string(rng_.Uniform(-9999, 9999)) + ".5",
                            12, 2);
  }
}

ExprPtr PlanGen::RandomLeaf(const Schema& schema) {
  if (schema.num_fields() > 0 && !rng_.NextBool(0.2)) {
    int c = static_cast<int>(rng_.Uniform(0, schema.num_fields() - 1));
    return eb::Col(c, schema.field(c).type);
  }
  return RandomLiteral();
}

ExprPtr PlanGen::RandomExpr(const Schema& schema, int depth, bool want_bool) {
  if (!want_bool && (depth <= 0 || rng_.NextBool(0.35))) {
    return RandomLeaf(schema);
  }
  for (int attempt = 0; attempt < 24; attempt++) {
    if (want_bool) {
      switch (rng_.Uniform(0, 6)) {
        case 0: {  // comparison
          ExprPtr a = RandomExpr(schema, depth - 1, false);
          ExprPtr b = RandomExpr(schema, depth - 1, false);
          if (!Comparable(a->type(), b->type())) break;
          switch (rng_.Uniform(0, 5)) {
            case 0:
              return eb::Lt(a, b);
            case 1:
              return eb::Le(a, b);
            case 2:
              return eb::Gt(a, b);
            case 3:
              return eb::Eq(a, b);
            default:
              return eb::Ne(a, b);
          }
        }
        case 1: {
          if (depth <= 1) break;
          ExprPtr a = RandomExpr(schema, depth - 1, true);
          ExprPtr b = RandomExpr(schema, depth - 1, true);
          return rng_.NextBool() ? eb::And(a, b) : eb::Or(a, b);
        }
        case 2:
          if (depth <= 1) break;
          return eb::Not(RandomExpr(schema, depth - 1, true));
        case 3: {
          ExprPtr a = RandomExpr(schema, depth - 1, false);
          return rng_.NextBool() ? eb::IsNull(a) : eb::IsNotNull(a);
        }
        case 4: {  // LIKE over a string column
          ExprPtr a = RandomLeaf(schema);
          if (!a->type().is_string()) break;
          return eb::Like(a, rng_.NextBool() ? "s-1%" : "%2%");
        }
        default: {  // BETWEEN over integral operands
          ExprPtr v = RandomLeaf(schema);
          if (!IsIntegral(v->type())) break;
          int64_t lo = rng_.Uniform(-400, 200);
          return eb::Between(v, eb::Lit(lo),
                             eb::Lit(lo + rng_.Uniform(0, 500)));
        }
      }
      continue;
    }
    // Scalar position.
    ExprPtr a = RandomExpr(schema, depth - 1, false);
    ExprPtr b = RandomExpr(schema, depth - 1, false);
    switch (rng_.Uniform(0, 7)) {
      case 0:
        if (IsNumeric(a->type()) && IsNumeric(b->type())) {
          switch (rng_.Uniform(0, 3)) {
            case 0:
              return eb::Add(a, b);
            case 1:
              return eb::Sub(a, b);
            default:
              return eb::Mul(a, b);
          }
        }
        break;
      case 1:  // div/mod: div-by-zero -> NULL must agree across engines
        if (IsIntegral(a->type()) && IsIntegral(b->type())) {
          return rng_.NextBool() ? eb::Div(a, b) : eb::Mod(a, b);
        }
        if (a->type().is_decimal() && b->type().is_decimal()) {
          return eb::Div(a, b);
        }
        break;
      case 2:
        if (a->type().is_string()) {
          return eb::Call(rng_.NextBool() ? "upper" : "lower", {a});
        }
        break;
      case 3:
        if (a->type().is_string()) return eb::Call("length", {a});
        break;
      case 4:  // substr with adversarial start/len (incl. negatives)
        if (a->type().is_string()) {
          return eb::Call(
              "substr",
              {a, eb::Lit(static_cast<int32_t>(rng_.Uniform(-6, 8))),
               eb::Lit(static_cast<int32_t>(rng_.Uniform(-2, 10)))});
        }
        break;
      case 5:
        if (a->type().is_string() && b->type().is_string()) {
          return eb::Call("concat", {a, b});
        }
        break;
      default:
        if (a->type() == b->type() && depth > 1) {
          return eb::If(RandomExpr(schema, depth - 1, true), a, b);
        }
        break;
    }
  }
  // Fallback leaves.
  if (want_bool) return eb::IsNotNull(RandomLeaf(schema));
  return RandomLeaf(schema);
}

plan::PlanPtr PlanGen::RandomSource() {
  const FuzzInput* input =
      inputs_[rng_.Uniform(0, static_cast<int64_t>(inputs_.size()) - 1)];
  if (input->delta.has_value() && rng_.NextBool(0.5)) {
    // Lakehouse path: optionally push a key-range predicate down so file
    // skipping (zone maps) participates in the differential check. The
    // pushdown is only a *skipping hint* — engines may differ on which
    // non-matching rows survive it — so the same predicate is applied as
    // a real Filter above the scan, like a planner would.
    ExprPtr pushdown;
    if (rng_.NextBool(0.3)) {
      const Schema& s = input->delta->schema;
      pushdown = eb::Le(eb::Col(0, s.field(0).type), eb::Lit(int64_t{30}));
    }
    plan::PlanPtr scan =
        plan::DeltaScan(input->store, *input->delta, {}, pushdown);
    if (pushdown != nullptr) {
      const Schema& s = scan->output_schema;
      scan = plan::Filter(
          scan, eb::Le(eb::Col(0, s.field(0).type), eb::Lit(int64_t{30})));
    }
    return scan;
  }
  plan::PlanPtr scan = plan::Scan(input->table);
  plan::TableStatsPtr& stats = stats_cache_[input->table];
  if (stats == nullptr) stats = plan::ComputeTableStats(*input->table);
  scan->stats = stats;
  return scan;
}

plan::PlanPtr PlanGen::RandomUnaryChain(plan::PlanPtr p, int max_ops) {
  int ops = static_cast<int>(rng_.Uniform(0, max_ops));
  for (int i = 0; i < ops; i++) {
    if (rng_.NextBool(0.55)) {
      p = plan::Filter(p, RandomExpr(p->output_schema, 2, true));
    } else {
      // Projection keeps a prefix of pass-through columns (so joins above
      // still find key columns) and appends 1-2 computed columns.
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      int keep = static_cast<int>(
          rng_.Uniform(1, p->output_schema.num_fields()));
      for (int c = 0; c < keep; c++) {
        exprs.push_back(eb::Col(c, p->output_schema.field(c).type));
        names.push_back(p->output_schema.field(c).name);
      }
      int computed = static_cast<int>(rng_.Uniform(1, 2));
      for (int c = 0; c < computed; c++) {
        exprs.push_back(RandomExpr(p->output_schema, 2, false));
        names.push_back("x" + std::to_string(name_seq_++));
      }
      p = plan::Project(p, std::move(exprs), std::move(names));
    }
  }
  return p;
}

plan::PlanPtr PlanGen::RandomAggregate(plan::PlanPtr p, bool join_free) {
  const Schema& s = p->output_schema;
  std::vector<ExprPtr> keys;
  std::vector<std::string> key_names;
  int num_keys = static_cast<int>(rng_.Uniform(0, 2));
  std::vector<int> key_cols;
  for (int k = 0; k < num_keys; k++) {
    int c = static_cast<int>(rng_.Uniform(0, s.num_fields() - 1));
    // A duplicate key column adds no grouping power and breaks the SQL
    // round trip's structural identity (the analyzer canonicalizes it
    // away), so keep keys distinct.
    if (std::find(key_cols.begin(), key_cols.end(), c) != key_cols.end()) {
      continue;
    }
    key_cols.push_back(c);
    keys.push_back(eb::Col(c, s.field(c).type));
    key_names.push_back("g" + std::to_string(name_seq_++));
  }
  std::vector<AggregateSpec> aggs;
  aggs.push_back(AggregateSpec{AggKind::kCountStar, nullptr,
                               "n" + std::to_string(name_seq_++)});
  int extra = static_cast<int>(rng_.Uniform(1, 3));
  for (int a = 0; a < extra; a++) {
    int c = static_cast<int>(rng_.Uniform(0, s.num_fields() - 1));
    ExprPtr arg = eb::Col(c, s.field(c).type);
    const DataType& t = arg->type();
    std::vector<AggKind> viable = {AggKind::kCount, AggKind::kMin,
                                   AggKind::kMax};
    // Exclude float sum/avg: per-morsel partial sums are not bit-identical
    // to the sequential sum (FP non-associativity), which would be a
    // harness false positive, not an engine bug.
    if (IsIntegral(t) || t.is_decimal()) {
      viable.push_back(AggKind::kSum);
      viable.push_back(AggKind::kAvg);
    }
    // collect_list is order-sensitive: only valid where the input row
    // order is engine-deterministic, i.e. not downstream of a join (the
    // two baseline join impls emit matches in different orders).
    if (t.is_string() && join_free) viable.push_back(AggKind::kCollectList);
    AggKind kind =
        viable[rng_.Uniform(0, static_cast<int64_t>(viable.size()) - 1)];
    // Skip duplicate (kind, column) specs for the same reason as duplicate
    // keys: SQL names one aggregate per distinct call.
    bool duplicate = false;
    for (const AggregateSpec& existing : aggs) {
      auto* col = dynamic_cast<ColumnRefExpr*>(existing.arg.get());
      if (existing.kind == kind && col != nullptr && col->index() == c) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    aggs.push_back(
        AggregateSpec{kind, arg, "a" + std::to_string(name_seq_++)});
  }
  return plan::Aggregate(p, std::move(keys), std::move(key_names),
                         std::move(aggs));
}

plan::PlanPtr PlanGen::RandomSide(int depth) {
  plan::PlanPtr p = RandomUnaryChain(RandomSource(), 2);
  if (depth > 0 && rng_.NextBool(0.2)) {
    p = RandomAggregate(p, /*join_free=*/true);  // subplan under a join
  }
  return p;
}

plan::PlanPtr PlanGen::MaybeSortLimit(plan::PlanPtr p) {
  if (!rng_.NextBool(0.5)) return p;
  const Schema& s = p->output_schema;
  bool total = rng_.NextBool(0.5);
  std::vector<SortKey> keys;
  if (total) {
    // Sort on every column: a total order (up to fully duplicate rows),
    // which makes a Limit above it engine-deterministic.
    for (int c = 0; c < s.num_fields(); c++) {
      keys.push_back(
          SortKey{eb::Col(c, s.field(c).type), rng_.NextBool(), rng_.NextBool()});
    }
  } else {
    int n = static_cast<int>(rng_.Uniform(1, std::min(2, s.num_fields())));
    for (int k = 0; k < n; k++) {
      int c = static_cast<int>(rng_.Uniform(0, s.num_fields() - 1));
      keys.push_back(
          SortKey{eb::Col(c, s.field(c).type), rng_.NextBool(), rng_.NextBool()});
    }
  }
  p = plan::Sort(p, std::move(keys));
  if (total && rng_.NextBool(0.6)) {
    p = plan::Limit(p, rng_.Uniform(0, 200));
  }
  return p;
}

plan::PlanPtr PlanGen::RandomPlan() {
  plan::PlanPtr p;
  bool has_join = false;
  if (rng_.NextBool(0.55)) {
    has_join = true;
    // Join plan: equi-join on each side's leading Int64 key column (the
    // generator guarantees column 0 survives RandomSide's projections).
    plan::PlanPtr left = RandomSide(1);
    plan::PlanPtr right = RandomSide(1);
    JoinType types[] = {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti};
    JoinType jt = types[rng_.Uniform(0, 3)];
    ExprPtr lk = eb::Col(0, left->output_schema.field(0).type);
    ExprPtr rk = eb::Col(0, right->output_schema.field(0).type);
    if (!IsIntegral(lk->type()) ||
        lk->type().id() != rk->type().id()) {
      // An aggregate side may have replaced the key column with its group
      // key or an aggregate result, leaving a non-integral type — or two
      // integral columns of different widths, which the engines do not
      // coerce (an int64-vs-int32 equi-join is ill-typed; found by soak
      // seed 136). Fall back to plain sources so both keys are the int64
      // leading key column.
      left = RandomUnaryChain(RandomSource(), 1);
      right = RandomSource();
      lk = eb::Col(0, left->output_schema.field(0).type);
      rk = eb::Col(0, right->output_schema.field(0).type);
    }
    ExprPtr residual;
    if (rng_.NextBool(0.25)) {
      // Residual over [left cols, right cols], for every join type: semi
      // and anti joins test it per candidate pair like the other two.
      Schema combined = left->output_schema;
      for (const Field& f : right->output_schema.fields()) {
        combined.AddField(f);
      }
      residual = RandomExpr(combined, 2, true);
    }
    p = plan::Join(left, right, jt, {lk}, {rk}, residual);
    p = RandomUnaryChain(p, 2);
  } else {
    p = RandomUnaryChain(RandomSource(), 3);
  }
  if (rng_.NextBool(0.45)) {
    p = RandomAggregate(p, /*join_free=*/!has_join);
    p = RandomUnaryChain(p, 1);
  }
  return MaybeSortLimit(p);
}

}  // namespace testing
}  // namespace photon
