#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "expr/builder.h"
#include "ops/filter.h"
#include "ops/hash_aggregate.h"
#include "ops/hash_join.h"
#include "ops/limit.h"
#include "ops/project.h"
#include "ops/scan.h"
#include "ops/shuffle.h"
#include "ops/sort.h"
#include "vector/table.h"
#include "vector/vector_serde.h"

namespace photon {
namespace {

using eb::Col;
using eb::Lit;

Table MakeIntTable(const std::vector<std::pair<int64_t, int64_t>>& rows,
                   int batch_size = 4) {
  Schema schema(
      {Field("k", DataType::Int64()), Field("v", DataType::Int64())});
  TableBuilder builder(schema, batch_size);
  for (const auto& [k, v] : rows) {
    builder.AppendRow({Value::Int64(k), Value::Int64(v)});
  }
  return builder.Finish();
}

ExprPtr K() { return Col(0, DataType::Int64(), "k"); }
ExprPtr V() { return Col(1, DataType::Int64(), "v"); }

TEST(ScanFilterProjectTest, Pipeline) {
  Table t = MakeIntTable({{1, 10}, {2, 20}, {3, 30}, {4, 40}, {5, 50}});
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  auto filter = std::make_unique<FilterOperator>(
      std::move(scan), eb::Gt(V(), Lit(int64_t{15})));
  std::vector<ExprPtr> exprs = {eb::Add(K(), V()),
                                eb::Mul(K(), Lit(int64_t{2}))};
  auto project = std::make_unique<ProjectOperator>(
      std::move(filter), exprs, std::vector<std::string>{"sum", "k2"});

  Result<Table> result = CollectAll(project.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 4);
  EXPECT_EQ(result->GetRow(0)[0], Value::Int64(22));
  EXPECT_EQ(result->GetRow(0)[1], Value::Int64(4));
  EXPECT_EQ(result->GetRow(3)[0], Value::Int64(55));
}

TEST(ScanTest, DoesNotMutateSourceTable) {
  Table t = MakeIntTable({{1, 1}, {2, 2}, {3, 3}});
  {
    auto scan = std::make_unique<InMemoryScanOperator>(&t);
    auto filter = std::make_unique<FilterOperator>(
        std::move(scan), eb::Eq(K(), Lit(int64_t{2})));
    Result<Table> r1 = CollectAll(filter.get());
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(r1->num_rows(), 1);
  }
  // Source still intact: scanning again yields all rows.
  auto scan2 = std::make_unique<InMemoryScanOperator>(&t);
  Result<Table> r2 = CollectAll(scan2.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_rows(), 3);
}

TEST(LimitTest, TruncatesAcrossBatches) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int i = 0; i < 20; i++) rows.push_back({i, i});
  Table t = MakeIntTable(rows, /*batch_size=*/6);
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  auto limit = std::make_unique<LimitOperator>(std::move(scan), 8);
  Result<Table> result = CollectAll(limit.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 8);
}

// --- Aggregation -----------------------------------------------------------

TEST(HashAggregateTest, GroupBySumCountMinMax) {
  Table t = MakeIntTable(
      {{1, 10}, {2, 20}, {1, 30}, {3, 5}, {2, 40}, {1, 2}});
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kSum, V(), "sum_v"});
  aggs.push_back({AggKind::kCountStar, nullptr, "cnt"});
  aggs.push_back({AggKind::kMin, V(), "min_v"});
  aggs.push_back({AggKind::kMax, V(), "max_v"});
  aggs.push_back({AggKind::kAvg, V(), "avg_v"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(scan), std::vector<ExprPtr>{K()},
      std::vector<std::string>{"k"}, std::move(aggs));

  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3);
  std::map<int64_t, std::vector<Value>> by_key;
  for (auto& row : result->ToRows()) by_key[row[0].i64()] = row;
  EXPECT_EQ(by_key[1][1], Value::Int64(42));
  EXPECT_EQ(by_key[1][2], Value::Int64(3));
  EXPECT_EQ(by_key[1][3], Value::Int64(2));
  EXPECT_EQ(by_key[1][4], Value::Int64(30));
  EXPECT_EQ(by_key[1][5], Value::Float64(14.0));
  EXPECT_EQ(by_key[3][1], Value::Int64(5));
}

TEST(HashAggregateTest, ScalarAggregationEmptyInput) {
  Table t = MakeIntTable({});
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "cnt"});
  aggs.push_back({AggKind::kSum, V(), "sum_v"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(scan), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs));
  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1);  // scalar agg yields one row even empty
  EXPECT_EQ(result->GetRow(0)[0], Value::Int64(0));
  EXPECT_TRUE(result->GetRow(0)[1].is_null());  // SUM over nothing is NULL
}

TEST(HashAggregateTest, NullKeysFormOneGroup) {
  Schema schema(
      {Field("k", DataType::Int64()), Field("v", DataType::Int64())});
  TableBuilder builder(schema, 4);
  builder.AppendRow({Value::Null(), Value::Int64(1)});
  builder.AppendRow({Value::Int64(7), Value::Int64(2)});
  builder.AppendRow({Value::Null(), Value::Int64(3)});
  Table t = builder.Finish();
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kSum, V(), "s"});
  aggs.push_back({AggKind::kCount, V(), "c"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(scan), std::vector<ExprPtr>{K()},
      std::vector<std::string>{"k"}, std::move(aggs));
  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2);
  for (auto& row : result->ToRows()) {
    if (row[0].is_null()) {
      EXPECT_EQ(row[1], Value::Int64(4));
      EXPECT_EQ(row[2], Value::Int64(2));
    } else {
      EXPECT_EQ(row[1], Value::Int64(2));
    }
  }
}

TEST(HashAggregateTest, CollectList) {
  Schema schema(
      {Field("k", DataType::Int64()), Field("s", DataType::String())});
  TableBuilder builder(schema, 4);
  builder.AppendRow({Value::Int64(1), Value::String("a")});
  builder.AppendRow({Value::Int64(2), Value::String("b")});
  builder.AppendRow({Value::Int64(1), Value::String("c")});
  builder.AppendRow({Value::Int64(1), Value::Null()});  // skipped
  Table t = builder.Finish();
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  std::vector<AggregateSpec> aggs;
  aggs.push_back(
      {AggKind::kCollectList, Col(1, DataType::String(), "s"), "lst"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(scan), std::vector<ExprPtr>{K()},
      std::vector<std::string>{"k"}, std::move(aggs));
  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok());
  std::map<int64_t, std::string> by_key;
  for (auto& row : result->ToRows()) by_key[row[0].i64()] = row[1].str();
  EXPECT_EQ(by_key[1], "[a, c]");
  EXPECT_EQ(by_key[2], "[b]");
}

TEST(HashAggregateTest, ManyGroupsAcrossBatches) {
  Rng rng(5);
  std::vector<std::pair<int64_t, int64_t>> rows;
  std::map<int64_t, int64_t> oracle;
  for (int i = 0; i < 10000; i++) {
    int64_t k = rng.Uniform(0, 999);
    int64_t v = rng.Uniform(-100, 100);
    rows.push_back({k, v});
    oracle[k] += v;
  }
  Table t = MakeIntTable(rows, kDefaultBatchSize);
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kSum, V(), "s"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(scan), std::vector<ExprPtr>{K()},
      std::vector<std::string>{"k"}, std::move(aggs));
  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), static_cast<int64_t>(oracle.size()));
  for (auto& row : result->ToRows()) {
    EXPECT_EQ(row[1].i64(), oracle[row[0].i64()]);
  }
}

TEST(HashAggregateTest, SpillingProducesSameResult) {
  // Force spilling with a tiny memory budget and check the merged output
  // matches the unspilled run.
  Rng rng(11);
  std::vector<std::pair<int64_t, int64_t>> rows;
  std::map<int64_t, int64_t> oracle;
  for (int i = 0; i < 20000; i++) {
    int64_t k = rng.Uniform(0, 4999);
    rows.push_back({k, 1});
    oracle[k] += 1;
  }
  Table t = MakeIntTable(rows, kDefaultBatchSize);

  MemoryManager mgr(600 * 1024);  // deliberately small
  ExecContext ectx;
  ectx.memory_manager = &mgr;
  ectx.spill_prefix = "test-spill-agg";
  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kSum, V(), "s"});
  aggs.push_back({AggKind::kCountStar, nullptr, "c"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(scan), std::vector<ExprPtr>{K()},
      std::vector<std::string>{"k"}, std::move(aggs), ectx);

  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(agg->op_metrics().Value(obs::Metric::kSpillCount), 0)
      << "test must actually spill";
  ASSERT_EQ(result->num_rows(), static_cast<int64_t>(oracle.size()));
  for (auto& row : result->ToRows()) {
    EXPECT_EQ(row[1].i64(), oracle[row[0].i64()]) << row[0].i64();
    EXPECT_EQ(row[2].i64(), oracle[row[0].i64()]);
  }
}

// --- Hash join ---------------------------------------------------------------

Table MakeTable2(const Schema& schema,
                 const std::vector<std::vector<Value>>& rows,
                 int batch_size = 4) {
  TableBuilder builder(schema, batch_size);
  for (const auto& row : rows) builder.AppendRow(row);
  return builder.Finish();
}

TEST(HashJoinTest, InnerJoinWithDuplicates) {
  Schema bs({Field("bk", DataType::Int64()), Field("bv", DataType::String())});
  Schema ps({Field("pk", DataType::Int64()), Field("pv", DataType::Int64())});
  Table build = MakeTable2(bs, {{Value::Int64(1), Value::String("one")},
                                {Value::Int64(2), Value::String("two")},
                                {Value::Int64(2), Value::String("TWO")},
                                {Value::Int64(3), Value::String("three")}});
  Table probe = MakeTable2(ps, {{Value::Int64(2), Value::Int64(100)},
                                {Value::Int64(4), Value::Int64(200)},
                                {Value::Int64(1), Value::Int64(300)}});
  auto join = std::make_unique<HashJoinOperator>(
      std::make_unique<InMemoryScanOperator>(&build),
      std::make_unique<InMemoryScanOperator>(&probe),
      std::vector<ExprPtr>{Col(0, DataType::Int64(), "bk")},
      std::vector<ExprPtr>{Col(0, DataType::Int64(), "pk")},
      JoinType::kInner);
  Result<Table> result = CollectAll(join.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // pk=2 matches twice, pk=1 once, pk=4 none.
  ASSERT_EQ(result->num_rows(), 3);
  std::multimap<int64_t, std::string> got;
  for (auto& row : result->ToRows()) {
    got.emplace(row[0].i64(), row[3].str());
  }
  EXPECT_EQ(got.count(2), 2u);
  EXPECT_EQ(got.count(1), 1u);
  EXPECT_EQ(got.find(1)->second, "one");
}

TEST(HashJoinTest, LeftOuterEmitsUnmatchedWithNulls) {
  Schema bs({Field("bk", DataType::Int64()), Field("bv", DataType::Int64())});
  Schema ps({Field("pk", DataType::Int64())});
  Table build = MakeTable2(bs, {{Value::Int64(1), Value::Int64(11)}});
  Table probe =
      MakeTable2(ps, {{Value::Int64(1)}, {Value::Int64(2)}, {Value::Null()}});
  auto join = std::make_unique<HashJoinOperator>(
      std::make_unique<InMemoryScanOperator>(&build),
      std::make_unique<InMemoryScanOperator>(&probe),
      std::vector<ExprPtr>{Col(0, DataType::Int64())},
      std::vector<ExprPtr>{Col(0, DataType::Int64())},
      JoinType::kLeftOuter);
  Result<Table> result = CollectAll(join.get());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 3);
  int nulls = 0;
  for (auto& row : result->ToRows()) {
    if (row[2].is_null()) nulls++;
  }
  EXPECT_EQ(nulls, 2);  // pk=2 and pk=NULL have no match
}

TEST(HashJoinTest, SemiAndAnti) {
  Schema bs({Field("bk", DataType::Int64())});
  Schema ps({Field("pk", DataType::Int64())});
  Table build = MakeTable2(bs, {{Value::Int64(1)},
                                {Value::Int64(1)},  // dup should not dup semi
                                {Value::Int64(3)}});
  Table probe = MakeTable2(
      ps, {{Value::Int64(1)}, {Value::Int64(2)}, {Value::Int64(3)},
           {Value::Null()}});
  {
    auto semi = std::make_unique<HashJoinOperator>(
        std::make_unique<InMemoryScanOperator>(&build),
        std::make_unique<InMemoryScanOperator>(&probe),
        std::vector<ExprPtr>{Col(0, DataType::Int64())},
        std::vector<ExprPtr>{Col(0, DataType::Int64())},
        JoinType::kLeftSemi);
    Result<Table> result = CollectAll(semi.get());
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_rows(), 2);  // 1 and 3
  }
  {
    auto anti = std::make_unique<HashJoinOperator>(
        std::make_unique<InMemoryScanOperator>(&build),
        std::make_unique<InMemoryScanOperator>(&probe),
        std::vector<ExprPtr>{Col(0, DataType::Int64())},
        std::vector<ExprPtr>{Col(0, DataType::Int64())},
        JoinType::kLeftAnti);
    Result<Table> result = CollectAll(anti.get());
    ASSERT_TRUE(result.ok());
    // 2 and NULL (NULL never matches, so anti keeps it — Spark's
    // left_anti with null-safe-off semantics keeps null-keyed rows).
    ASSERT_EQ(result->num_rows(), 2);
  }
}

TEST(HashJoinTest, SemiWithResidualCondition) {
  // EXISTS (... AND l2.suppkey <> l1.suppkey) — the Q21 shape.
  Schema bs({Field("bo", DataType::Int64()), Field("bsupp", DataType::Int64())});
  Schema ps({Field("po", DataType::Int64()), Field("psupp", DataType::Int64())});
  Table build = MakeTable2(bs, {{Value::Int64(1), Value::Int64(10)},
                                {Value::Int64(1), Value::Int64(20)},
                                {Value::Int64(2), Value::Int64(10)}});
  Table probe = MakeTable2(ps, {{Value::Int64(1), Value::Int64(10)},
                                {Value::Int64(2), Value::Int64(10)},
                                {Value::Int64(3), Value::Int64(10)}});
  // Residual sees [probe cols..., build cols...] = [po, psupp, bo, bsupp].
  ExprPtr residual = eb::Ne(Col(3, DataType::Int64(), "bsupp"),
                            Col(1, DataType::Int64(), "psupp"));
  auto semi = std::make_unique<HashJoinOperator>(
      std::make_unique<InMemoryScanOperator>(&build),
      std::make_unique<InMemoryScanOperator>(&probe),
      std::vector<ExprPtr>{Col(0, DataType::Int64())},
      std::vector<ExprPtr>{Col(0, DataType::Int64())}, JoinType::kLeftSemi,
      ExecContext{}, residual);
  Result<Table> result = CollectAll(semi.get());
  ASSERT_TRUE(result.ok());
  // po=1: build has (1,20) with supp != 10 -> keep. po=2: only (2,10), same
  // supp -> drop. po=3: no match -> drop.
  ASSERT_EQ(result->num_rows(), 1);
  EXPECT_EQ(result->GetRow(0)[0], Value::Int64(1));
}

TEST(HashJoinTest, LargeJoinMatchesOracle) {
  Rng rng(21);
  Schema bs({Field("bk", DataType::Int64()), Field("bv", DataType::Int64())});
  Schema ps({Field("pk", DataType::Int64())});
  std::vector<std::vector<Value>> build_rows, probe_rows;
  std::multimap<int64_t, int64_t> oracle;
  for (int i = 0; i < 3000; i++) {
    int64_t k = rng.Uniform(0, 799);
    build_rows.push_back({Value::Int64(k), Value::Int64(i)});
    oracle.emplace(k, i);
  }
  int64_t expected_pairs = 0;
  for (int i = 0; i < 2000; i++) {
    int64_t k = rng.Uniform(0, 999);
    probe_rows.push_back({Value::Int64(k)});
    expected_pairs += static_cast<int64_t>(oracle.count(k));
  }
  Table build = MakeTable2(bs, build_rows, kDefaultBatchSize);
  Table probe = MakeTable2(ps, probe_rows, kDefaultBatchSize);
  auto join = std::make_unique<HashJoinOperator>(
      std::make_unique<InMemoryScanOperator>(&build),
      std::make_unique<InMemoryScanOperator>(&probe),
      std::vector<ExprPtr>{Col(0, DataType::Int64())},
      std::vector<ExprPtr>{Col(0, DataType::Int64())}, JoinType::kInner);
  Result<Table> result = CollectAll(join.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), expected_pairs);
}

TEST(HashJoinTest, CompactionTriggersOnSparseProbes) {
  // A selective filter upstream of the probe makes batches sparse; the
  // join should adaptively compact them (§4.6).
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int i = 0; i < 8192; i++) rows.push_back({i, i});
  Table big = MakeIntTable(rows, kDefaultBatchSize);
  Table small = MakeIntTable({{0, 0}, {64, 1}, {128, 2}});

  auto probe_scan = std::make_unique<InMemoryScanOperator>(&big);
  auto sparse_filter = std::make_unique<FilterOperator>(
      std::move(probe_scan),
      eb::Eq(eb::Mod(K(), Lit(int64_t{64})), Lit(int64_t{0})));
  auto join = std::make_unique<HashJoinOperator>(
      std::make_unique<InMemoryScanOperator>(&small),
      std::move(sparse_filter), std::vector<ExprPtr>{K()},
      std::vector<ExprPtr>{K()}, JoinType::kInner);
  HashJoinOperator* join_ptr = join.get();
  Result<Table> result = CollectAll(join.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3);
  EXPECT_GT(join_ptr->compacted_batches(), 0);
}

// --- Sort ------------------------------------------------------------------

TEST(SortTest, MultiKeyWithDirectionAndNulls) {
  Schema schema(
      {Field("a", DataType::Int64()), Field("b", DataType::String())});
  Table t = MakeTable2(schema, {{Value::Int64(2), Value::String("x")},
                                {Value::Int64(1), Value::String("z")},
                                {Value::Null(), Value::String("m")},
                                {Value::Int64(1), Value::String("a")},
                                {Value::Int64(2), Value::Null()}});
  std::vector<SortKey> keys;
  keys.push_back({Col(0, DataType::Int64(), "a"), /*asc=*/true,
                  /*nulls_first=*/true});
  keys.push_back({Col(1, DataType::String(), "b"), /*asc=*/false,
                  /*nulls_first=*/false});
  auto sort = std::make_unique<SortOperator>(
      std::make_unique<InMemoryScanOperator>(&t), std::move(keys));
  Result<Table> result = CollectAll(sort.get());
  ASSERT_TRUE(result.ok());
  auto rows = result->ToRows();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_TRUE(rows[0][0].is_null());                 // NULL first
  EXPECT_EQ(rows[1][1], Value::String("z"));         // a=1, b desc
  EXPECT_EQ(rows[2][1], Value::String("a"));
  EXPECT_EQ(rows[3][1], Value::String("x"));         // a=2, b desc, null last
  EXPECT_TRUE(rows[4][1].is_null());
}

TEST(SortTest, LargeSortMatchesStdSort) {
  Rng rng(77);
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int i = 0; i < 20000; i++) {
    rows.push_back({rng.Uniform(-10000, 10000), i});
  }
  Table t = MakeIntTable(rows, kDefaultBatchSize);
  std::vector<SortKey> keys;
  keys.push_back({K(), true, true});
  auto sort = std::make_unique<SortOperator>(
      std::make_unique<InMemoryScanOperator>(&t), std::move(keys));
  Result<Table> result = CollectAll(sort.get());
  ASSERT_TRUE(result.ok());
  std::vector<int64_t> expected;
  for (auto& [k, v] : rows) expected.push_back(k);
  std::sort(expected.begin(), expected.end());
  auto got = result->ToRows();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i][0].i64(), expected[i]) << i;
  }
}

TEST(SortTest, SpillingExternalSortMatchesInMemory) {
  Rng rng(13);
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int i = 0; i < 20000; i++) rows.push_back({rng.Uniform(0, 1000000), i});
  Table t = MakeIntTable(rows, kDefaultBatchSize);

  MemoryManager mgr(200 * 1024);
  ExecContext ectx;
  ectx.memory_manager = &mgr;
  ectx.spill_prefix = "test-spill-sort";
  std::vector<SortKey> keys;
  keys.push_back({K(), true, true});
  auto sort = std::make_unique<SortOperator>(
      std::make_unique<InMemoryScanOperator>(&t), std::move(keys), ectx);
  SortOperator* sort_ptr = sort.get();
  Result<Table> result = CollectAll(sort.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(sort_ptr->op_metrics().Value(obs::Metric::kSpillCount), 0)
      << "must actually spill";
  ASSERT_EQ(result->num_rows(), 20000);
  auto got = result->ToRows();
  for (size_t i = 1; i < got.size(); i++) {
    EXPECT_LE(got[i - 1][0].i64(), got[i][0].i64()) << i;
  }
}

// --- Shuffle -----------------------------------------------------------------

TEST(ShuffleTest, WriteReadRoundTripPreservesRows) {
  Rng rng(31);
  std::vector<std::pair<int64_t, int64_t>> rows;
  std::map<int64_t, int64_t> oracle;
  for (int i = 0; i < 5000; i++) {
    int64_t k = rng.Uniform(0, 400);
    rows.push_back({k, 1});
    oracle[k]++;
  }
  Table t = MakeIntTable(rows, kDefaultBatchSize);
  ShuffleOptions options;
  options.num_partitions = 8;
  auto write = std::make_unique<ShuffleWriteOperator>(
      std::make_unique<InMemoryScanOperator>(&t), std::vector<ExprPtr>{K()},
      "test-shuffle-1", options);
  ASSERT_TRUE(write->Open().ok());
  Result<ColumnBatch*> sink = write->GetNext();
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  EXPECT_EQ(*sink, nullptr);
  EXPECT_GT(write->blocks_written(), 0);

  // Each key lands in exactly one partition; reading all partitions
  // recovers every row.
  int64_t total = 0;
  std::map<int64_t, int64_t> got;
  std::map<int64_t, int> key_partition;
  for (int p = 0; p < 8; p++) {
    auto read = std::make_unique<ShuffleReadOperator>(t.schema(),
                                                      "test-shuffle-1", p);
    Result<Table> part = CollectAll(read.get());
    ASSERT_TRUE(part.ok());
    for (auto& row : part->ToRows()) {
      got[row[0].i64()]++;
      total += 1;
      auto it = key_partition.find(row[0].i64());
      if (it == key_partition.end()) {
        key_partition[row[0].i64()] = p;
      } else {
        EXPECT_EQ(it->second, p) << "key split across partitions";
      }
    }
  }
  EXPECT_EQ(total, 5000);
  EXPECT_EQ(got, oracle);
  DeleteShuffle("test-shuffle-1");
}

TEST(ShuffleTest, AdaptiveUuidEncodingShrinksShuffle) {
  Schema schema({Field("u", DataType::String())});
  TableBuilder builder(schema, kDefaultBatchSize);
  Rng rng(17);
  for (int i = 0; i < 4000; i++) {
    uint8_t bin[16];
    for (int b = 0; b < 16; b++) bin[b] = static_cast<uint8_t>(rng.Next());
    char text[36];
    FormatUuid(bin, text);
    builder.AppendRow({Value::String(std::string(text, 36))});
  }
  Table t = builder.Finish();

  auto run = [&](bool adaptive, const std::string& id) {
    ShuffleOptions options;
    options.num_partitions = 4;
    options.adaptive_encoding = adaptive;
    auto write = std::make_unique<ShuffleWriteOperator>(
        std::make_unique<InMemoryScanOperator>(&t),
        std::vector<ExprPtr>{Col(0, DataType::String(), "u")}, id, options);
    EXPECT_TRUE(write->Open().ok());
    EXPECT_TRUE(write->GetNext().ok());
    return write->bytes_written();
  };
  int64_t plain = run(false, "test-shuffle-plain");
  int64_t adaptive = run(true, "test-shuffle-adaptive");
  // Table 1 of the paper reports >2x data reduction; random UUIDs are
  // incompressible so the ratio here is driven purely by the encoding.
  EXPECT_LT(adaptive * 2, plain);

  // Round trip must still reproduce the strings.
  auto read = std::make_unique<ShuffleReadOperator>(schema,
                                                    "test-shuffle-adaptive");
  Result<Table> result = CollectAll(read.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 4000);
  DeleteShuffle("test-shuffle-plain");
  DeleteShuffle("test-shuffle-adaptive");
}

}  // namespace
}  // namespace photon
