#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "plan/converter.h"
#include "plan/logical_plan.h"

namespace photon {
namespace {

using eb::Col;
using eb::Lit;
using plan::PlanPtr;

Table MakeSales(int n, uint64_t seed = 7) {
  Schema schema({Field("store", DataType::Int64()),
                 Field("item", DataType::String()),
                 Field("amount", DataType::Decimal(12, 2)),
                 Field("qty", DataType::Int32())});
  TableBuilder builder(schema);
  Rng rng(seed);
  for (int i = 0; i < n; i++) {
    builder.AppendRow(
        {Value::Int64(rng.Uniform(0, 20)),
         Value::String("item-" + std::to_string(rng.Uniform(0, 50))),
         rng.Uniform(0, 20) == 0
             ? Value::Null()
             : Value::Decimal(Decimal128::FromInt64(rng.Uniform(1, 99999))),
         Value::Int32(static_cast<int32_t>(rng.Uniform(1, 10)))});
  }
  return builder.Finish();
}

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size(); i++) {
                int c = (a[i].is_null() && b[i].is_null()) ? 0
                        : a[i].is_null()                   ? -1
                        : b[i].is_null()                   ? 1
                                         : a[i].Compare(b[i]);
                if (c != 0) return c < 0;
              }
              return false;
            });
  return rows;
}

/// Runs a plan through both engines and asserts identical result sets.
/// This is the end-to-end consistency testing of §5.6.
void ExpectEnginesAgree(const PlanPtr& p) {
  Result<OperatorPtr> photon_op = plan::CompilePhoton(p);
  ASSERT_TRUE(photon_op.ok()) << photon_op.status().ToString();
  Result<Table> photon_result = CollectAll(photon_op->get());
  ASSERT_TRUE(photon_result.ok()) << photon_result.status().ToString();

  for (plan::BaselineJoinImpl impl : {plan::BaselineJoinImpl::kSortMerge,
                                      plan::BaselineJoinImpl::kShuffledHash}) {
    Result<baseline::RowOperatorPtr> base_op = plan::CompileBaseline(p, impl);
    ASSERT_TRUE(base_op.ok()) << base_op.status().ToString();
    Result<Table> base_result = baseline::CollectAllRows(base_op->get());
    ASSERT_TRUE(base_result.ok()) << base_result.status().ToString();

    EXPECT_EQ(photon_result->num_rows(), base_result->num_rows());
    EXPECT_EQ(Sorted(photon_result->ToRows()), Sorted(base_result->ToRows()))
        << "engines diverge (join impl " << static_cast<int>(impl) << ")";
  }
}

TEST(PlanConsistencyTest, FilterProjectAggregate) {
  Table sales = MakeSales(5000);
  PlanPtr p = plan::Scan(&sales);
  p = plan::Filter(p, eb::Gt(plan::ColOf(p, "qty"), Lit(int32_t{2})));
  p = plan::Aggregate(
      p, {plan::ColOf(p, "store")}, {"store"},
      {AggregateSpec{AggKind::kSum, plan::ColOf(p, "amount"), "total"},
       AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kMax, plan::ColOf(p, "item"), "max_item"},
       AggregateSpec{AggKind::kAvg, plan::ColOf(p, "qty"), "avg_qty"}});
  ExpectEnginesAgree(p);
}

TEST(PlanConsistencyTest, JoinShapes) {
  Table sales = MakeSales(2000, 1);
  Table dim = MakeSales(300, 2);
  for (JoinType type : {JoinType::kInner, JoinType::kLeftOuter,
                        JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    PlanPtr probe = plan::Scan(&sales);
    PlanPtr build = plan::Scan(&dim);
    // Rename build columns so inner/louter output names stay unique.
    build = plan::Project(
        build, {plan::ColOf(build, "store"), plan::ColOf(build, "qty")},
        {"d_store", "d_qty"});
    PlanPtr j = plan::Join(probe, build, type,
                           {plan::ColOf(probe, "store")},
                           {plan::ColOf(build, "d_store")});
    ExpectEnginesAgree(j);
  }
}

TEST(PlanConsistencyTest, SortWithExpressionsAndStrings) {
  Table sales = MakeSales(1500, 3);
  PlanPtr p = plan::Scan(&sales);
  std::vector<SortKey> keys;
  keys.push_back({plan::ColOf(p, "item"), true, true});
  keys.push_back({plan::ColOf(p, "amount"), false, false});
  p = plan::Sort(p, std::move(keys));
  p = plan::Limit(p, 100);
  // Limit after a total sort is deterministic (ties broken by stable sort
  // over identical input order in both engines).
  Result<OperatorPtr> photon_op = plan::CompilePhoton(p);
  ASSERT_TRUE(photon_op.ok());
  Result<Table> a = CollectAll(photon_op->get());
  ASSERT_TRUE(a.ok());
  Result<baseline::RowOperatorPtr> base_op = plan::CompileBaseline(p);
  ASSERT_TRUE(base_op.ok());
  Result<Table> b = baseline::CollectAllRows(base_op->get());
  ASSERT_TRUE(b.ok());
  // Compare *in order*: sort output order must match.
  EXPECT_EQ(a->ToRows(), b->ToRows());
}

TEST(PlanConsistencyTest, StringExpressionsThroughProject) {
  Table sales = MakeSales(1000, 4);
  PlanPtr p = plan::Scan(&sales);
  p = plan::Project(
      p,
      {eb::Call("upper", {plan::ColOf(p, "item")}),
       eb::Call("substr",
                {plan::ColOf(p, "item"), Lit(int32_t{1}), Lit(int32_t{4})}),
       eb::If(eb::Like(plan::ColOf(p, "item"), "item-1%"), Lit("one"),
              Lit("other"))},
      {"u", "s", "c"});
  ExpectEnginesAgree(p);
}

// --- Plan conversion (§5.1/§5.2) -------------------------------------------

TEST(ConverterTest, FullPhotonPlanGetsOneTransition) {
  Table sales = MakeSales(500, 5);
  PlanPtr p = plan::Scan(&sales);
  p = plan::Filter(p, eb::Gt(plan::ColOf(p, "qty"), Lit(int32_t{5})));
  p = plan::Aggregate(p, {plan::ColOf(p, "store")}, {"store"},
                      {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  Result<plan::ConversionResult> converted = plan::ConvertPlan(p);
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ(converted->photon_nodes, 3);
  EXPECT_EQ(converted->legacy_nodes, 0);
  EXPECT_EQ(converted->transitions, 1);
  EXPECT_EQ(converted->adapters, 1);

  Result<Table> mixed = baseline::CollectAllRows(converted->root.get());
  ASSERT_TRUE(mixed.ok());

  Result<baseline::RowOperatorPtr> pure = plan::CompileBaseline(p);
  ASSERT_TRUE(pure.ok());
  Result<Table> expected = baseline::CollectAllRows(pure->get());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Sorted(mixed->ToRows()), Sorted(expected->ToRows()));
}

TEST(ConverterTest, UnsupportedNodeFallsBackAboveTransition) {
  Table sales = MakeSales(500, 6);
  PlanPtr p = plan::Scan(&sales);
  p = plan::Filter(p, eb::Gt(plan::ColOf(p, "qty"), Lit(int32_t{3})));
  p = plan::Aggregate(p, {plan::ColOf(p, "store")}, {"store"},
                      {AggregateSpec{AggKind::kSum, plan::ColOf(p, "qty"),
                                     "total"}});
  p = plan::Sort(p, {SortKey{plan::ColOf(p, "store"), true, true}});

  // Photon "does not support" aggregation in this configuration (§3.5's
  // partial rollout): the scan+filter run in Photon, a transition pivots,
  // and aggregate+sort run in the legacy engine.
  auto support = [](const plan::PlanNode& node) {
    return node.kind != plan::PlanKind::kAggregate;
  };
  Result<plan::ConversionResult> converted = plan::ConvertPlan(p, {}, support);
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ(converted->photon_nodes, 2);   // scan, filter
  EXPECT_EQ(converted->legacy_nodes, 2);   // aggregate, sort
  EXPECT_EQ(converted->transitions, 1);

  Result<Table> mixed = baseline::CollectAllRows(converted->root.get());
  ASSERT_TRUE(mixed.ok());
  Result<baseline::RowOperatorPtr> pure = plan::CompileBaseline(p);
  ASSERT_TRUE(pure.ok());
  Result<Table> expected = baseline::CollectAllRows(pure->get());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(mixed->ToRows(), expected->ToRows());
}

TEST(ConverterTest, NothingSupportedMeansPureLegacy) {
  Table sales = MakeSales(100, 8);
  PlanPtr p = plan::Scan(&sales);
  p = plan::Limit(p, 10);
  auto support = [](const plan::PlanNode&) { return false; };
  Result<plan::ConversionResult> converted = plan::ConvertPlan(p, {}, support);
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ(converted->photon_nodes, 0);
  EXPECT_EQ(converted->transitions, 0);
  EXPECT_EQ(converted->adapters, 0);
  Result<Table> result = baseline::CollectAllRows(converted->root.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 10);
}

// --- Driver / stages ----------------------------------------------------------

TEST(DriverTest, PartitionedAggregateMatchesSingleTask) {
  Table sales = MakeSales(20000, 9);
  PlanPtr p = plan::Scan(&sales);
  std::vector<ExprPtr> keys = {plan::ColOf(p, "store")};
  std::vector<AggregateSpec> aggs = {
      AggregateSpec{AggKind::kSum, plan::ColOf(p, "amount"), "total"},
      AggregateSpec{AggKind::kCountStar, nullptr, "n"}};
  PlanPtr agg_plan = plan::Aggregate(p, keys, {"store"}, aggs);

  exec::Driver reference(1);
  Result<Table> single = reference.RunSingleTask(agg_plan);
  ASSERT_TRUE(single.ok());
  std::vector<std::vector<Value>> first;
  for (int threads : {1, 2, 8}) {
    exec::Driver driver(threads);
    std::vector<exec::StageInfo> stages;
    Result<Table> parallel = driver.Run(agg_plan, {}, &stages);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    // Partial stage over the morsels, then the partitioned final merge.
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_GT(stages[0].num_tasks, threads > 1 ? 1 : 0);
    EXPECT_GE(stages[1].num_tasks, threads > 1 ? 2 : 1);
    EXPECT_EQ(Sorted(parallel->ToRows()), Sorted(single->ToRows()));
    if (first.empty()) first = parallel->ToRows();
    EXPECT_EQ(parallel->ToRows(), first) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace photon
