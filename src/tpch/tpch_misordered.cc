#include "tpch/tpch_misordered.h"

#include "expr/builder.h"

namespace photon {
namespace tpch {
namespace {

using plan::ColOf;
using plan::PlanPtr;

PlanPtr F(PlanPtr p, ExprPtr pred) { return plan::Filter(std::move(p), pred); }

ExprPtr C(const PlanPtr& p, const std::string& name) { return ColOf(p, name); }

PlanPtr Keep(PlanPtr p, const std::vector<std::string>& cols) {
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (const std::string& name : cols) {
    exprs.push_back(ColOf(p, name));
    names.push_back(name);
  }
  return plan::Project(std::move(p), std::move(exprs), std::move(names));
}

ExprPtr Revenue(const PlanPtr& p) {
  return eb::Mul(C(p, "l_extendedprice"),
                 eb::Sub(eb::Lit(int32_t{1}), C(p, "l_discount")));
}

AggregateSpec Agg(AggKind kind, ExprPtr arg, std::string name) {
  return AggregateSpec{kind, std::move(arg), std::move(name)};
}

SortKey Asc(ExprPtr e) { return SortKey{std::move(e), true, true}; }
SortKey Desc(ExprPtr e) { return SortKey{std::move(e), false, true}; }

// Every query below keeps its aggregate/sort/limit tail identical to the
// hand-ordered tpch_queries.cc version — only the join tree underneath is
// pessimized — so recovered results are directly checksum-comparable.
// Inner-join build sides deliberately scan full-width tables (comment
// strings included). Driver::Run prunes every plan, so those columns never
// reach a hash build; the penalty the optimizer recovers is the join order
// itself: high-cardinality builds and selective predicates applied last.

/// Q3: orders⋈lineitem with unfiltered lineitem as build, both date
/// filters above the join, BUILDING-segment semi-join at the very top.
PlanPtr Q3Misordered(const TpchData& d) {
  PlanPtr o = plan::Scan(&d.orders);
  PlanPtr l = plan::Scan(&d.lineitem);
  PlanPtr j = plan::Join(o, l, JoinType::kInner, {C(o, "o_orderkey")},
                         {C(l, "l_orderkey")});
  j = F(j, eb::And(eb::Lt(C(j, "o_orderdate"), eb::DateLit("1995-03-15")),
                   eb::Gt(C(j, "l_shipdate"), eb::DateLit("1995-03-15"))));
  PlanPtr c = plan::Scan(&d.customer);
  c = Keep(F(c, eb::Eq(C(c, "c_mktsegment"), eb::Lit("BUILDING"))),
           {"c_custkey"});
  j = plan::Join(j, c, JoinType::kLeftSemi, {C(j, "o_custkey")},
                 {C(c, "c_custkey")});
  PlanPtr agg = plan::Aggregate(
      j, {C(j, "l_orderkey"), C(j, "o_orderdate"), C(j, "o_shippriority")},
      {"l_orderkey", "o_orderdate", "o_shippriority"},
      {Agg(AggKind::kSum, Revenue(j), "revenue")});
  agg = plan::Sort(agg,
                   {Desc(C(agg, "revenue")), Asc(C(agg, "o_orderdate"))});
  return plan::Limit(agg, 10);
}

/// Q5: the whole five-way chain joined before any predicate applies —
/// lineitem as the first build side, the order-date filter above four
/// joins, and the ASIA region reduction as a top-level semi-join.
PlanPtr Q5Misordered(const TpchData& d) {
  PlanPtr o = plan::Scan(&d.orders);
  PlanPtr l = plan::Scan(&d.lineitem);
  PlanPtr j = plan::Join(o, l, JoinType::kInner, {C(o, "o_orderkey")},
                         {C(l, "l_orderkey")});
  PlanPtr s = plan::Scan(&d.supplier);
  j = plan::Join(j, s, JoinType::kInner, {C(j, "l_suppkey")},
                 {C(s, "s_suppkey")});
  // The spec's s_nationkey = c_nationkey condition rides the customer join
  // as a composite key, exactly as in the hand-ordered plan.
  PlanPtr c = plan::Scan(&d.customer);
  j = plan::Join(j, c, JoinType::kInner,
                 {C(j, "o_custkey"), C(j, "s_nationkey")},
                 {C(c, "c_custkey"), C(c, "c_nationkey")});
  PlanPtr n = plan::Scan(&d.nation);
  j = plan::Join(j, n, JoinType::kInner, {C(j, "c_nationkey")},
                 {C(n, "n_nationkey")});
  j = F(j, eb::And(eb::Ge(C(j, "o_orderdate"), eb::DateLit("1994-01-01")),
                   eb::Lt(C(j, "o_orderdate"), eb::DateLit("1995-01-01"))));
  PlanPtr r = plan::Scan(&d.region);
  r = Keep(F(r, eb::Eq(C(r, "r_name"), eb::Lit("ASIA"))), {"r_regionkey"});
  j = plan::Join(j, r, JoinType::kLeftSemi, {C(j, "n_regionkey")},
                 {C(r, "r_regionkey")});
  PlanPtr agg =
      plan::Aggregate(j, {C(j, "n_name")}, {"n_name"},
                      {Agg(AggKind::kSum, Revenue(j), "revenue")});
  return plan::Sort(agg, {Desc(C(agg, "revenue"))});
}

/// Q9: partsupp⋈lineitem first with lineitem as build, then orders,
/// supplier, and nation stacked on top, with the %green% part reduction
/// applied last.
PlanPtr Q9Misordered(const TpchData& d) {
  PlanPtr ps = plan::Scan(&d.partsupp);
  PlanPtr l = plan::Scan(&d.lineitem);
  PlanPtr j = plan::Join(ps, l, JoinType::kInner,
                         {C(ps, "ps_partkey"), C(ps, "ps_suppkey")},
                         {C(l, "l_partkey"), C(l, "l_suppkey")});
  PlanPtr o = plan::Scan(&d.orders);
  j = plan::Join(j, o, JoinType::kInner, {C(j, "l_orderkey")},
                 {C(o, "o_orderkey")});
  PlanPtr s = plan::Scan(&d.supplier);
  j = plan::Join(j, s, JoinType::kInner, {C(j, "l_suppkey")},
                 {C(s, "s_suppkey")});
  PlanPtr n = plan::Scan(&d.nation);
  j = plan::Join(j, n, JoinType::kInner, {C(j, "s_nationkey")},
                 {C(n, "n_nationkey")});
  PlanPtr p = plan::Scan(&d.part);
  p = Keep(F(p, eb::Like(C(p, "p_name"), "%green%")), {"p_partkey"});
  j = plan::Join(j, p, JoinType::kLeftSemi, {C(j, "l_partkey")},
                 {C(p, "p_partkey")});
  ExprPtr amount = eb::Sub(
      Revenue(j), eb::Mul(C(j, "ps_supplycost"), C(j, "l_quantity")));
  PlanPtr proj = plan::Project(
      j, {C(j, "n_name"), eb::Call("year", {C(j, "o_orderdate")}), amount},
      {"nation", "o_year", "amount"});
  PlanPtr agg = plan::Aggregate(
      proj, {C(proj, "nation"), C(proj, "o_year")}, {"nation", "o_year"},
      {Agg(AggKind::kSum, C(proj, "amount"), "sum_profit")});
  return plan::Sort(agg, {Asc(C(agg, "nation")), Desc(C(agg, "o_year"))});
}

/// Q10: customer⋈nation, then unfiltered orders and lineitem as
/// successive build sides, with both selective filters (order-date
/// window, returnflag = 'R') above the complete join tree.
PlanPtr Q10Misordered(const TpchData& d) {
  PlanPtr c = plan::Scan(&d.customer);
  PlanPtr n = plan::Scan(&d.nation);
  PlanPtr j = plan::Join(c, n, JoinType::kInner, {C(c, "c_nationkey")},
                         {C(n, "n_nationkey")});
  PlanPtr o = plan::Scan(&d.orders);
  j = plan::Join(j, o, JoinType::kInner, {C(j, "c_custkey")},
                 {C(o, "o_custkey")});
  PlanPtr l = plan::Scan(&d.lineitem);
  j = plan::Join(j, l, JoinType::kInner, {C(j, "o_orderkey")},
                 {C(l, "l_orderkey")});
  j = F(j, eb::And(
               eb::And(eb::Ge(C(j, "o_orderdate"), eb::DateLit("1993-10-01")),
                       eb::Lt(C(j, "o_orderdate"), eb::DateLit("1994-01-01"))),
               eb::Eq(C(j, "l_returnflag"), eb::Lit("R"))));
  PlanPtr agg = plan::Aggregate(
      j,
      {C(j, "c_custkey"), C(j, "c_name"), C(j, "c_acctbal"), C(j, "c_phone"),
       C(j, "n_name"), C(j, "c_address"), C(j, "c_comment")},
      {"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address",
       "c_comment"},
      {Agg(AggKind::kSum, Revenue(j), "revenue")});
  agg = plan::Sort(agg, {Desc(C(agg, "revenue"))});
  return plan::Limit(agg, 20);
}

}  // namespace

Result<plan::PlanPtr> TpchMisorderedQuery(int q, const TpchData& d) {
  switch (q) {
    case 3:
      return Q3Misordered(d);
    case 5:
      return Q5Misordered(d);
    case 9:
      return Q9Misordered(d);
    case 10:
      return Q10Misordered(d);
    default:
      return Status::InvalidArgument(
          "no misordered variant for TPC-H query " + std::to_string(q));
  }
}

}  // namespace tpch
}  // namespace photon
