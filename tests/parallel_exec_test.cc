// Tests for morsel-parallel plan execution through the generalized Driver:
// result equivalence against the baseline engine at 1/2/4/8 threads,
// memory-manager correctness under concurrent tasks (including spilling
// under pressure), and the stage-planner / morsel-queue building blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/driver.h"
#include "exec/morsel.h"
#include "expr/builder.h"
#include "io/block_cache.h"
#include "memory/memory_manager.h"
#include "obs/profile.h"
#include "plan/converter.h"
#include "plan/logical_plan.h"
#include "plan/stage_planner.h"
#include "storage/delta.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace photon {
namespace {

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

/// (k, v, s): grouped key, unique value, low-cardinality string.
Table MakeTable(int rows, int batch_size, uint64_t seed = 7) {
  Schema schema({Field("k", DataType::Int64()), Field("v", DataType::Int64()),
                 Field("s", DataType::String())});
  TableBuilder builder(schema, batch_size);
  Rng rng(seed);
  for (int i = 0; i < rows; i++) {
    builder.AppendRow({Value::Int64(rng.Uniform(0, 99)), Value::Int64(i),
                       Value::String("s" + std::to_string(i % 37))});
  }
  return builder.Finish();
}

ExprPtr ColK() { return eb::Col(0, DataType::Int64(), "k"); }
ExprPtr ColV() { return eb::Col(1, DataType::Int64(), "v"); }
ExprPtr ColS() { return eb::Col(2, DataType::String(), "s"); }

/// Runs `plan` on the baseline row engine (the oracle) and through drivers
/// at 1/2/4/8 threads; asserts every run matches the oracle's row set and
/// that all runs are identical to each other, row order included
/// (thread-count independence). With `ordered_like_serial` the order must
/// also equal the converter's all-Photon plan, whose self-building joins
/// hash their whole build in one task (plans whose output is one
/// streaming fragment over a table scan, e.g. a join: that pins
/// duplicate-key chain order to a serial build's).
void ExpectParallelMatchesOracle(const plan::PlanPtr& plan,
                                 ExecContext ctx = {},
                                 bool ordered_like_serial = false) {
  Result<baseline::RowOperatorPtr> oracle_op = plan::CompileBaseline(plan);
  ASSERT_TRUE(oracle_op.ok()) << oracle_op.status().ToString();
  Result<Table> oracle = baseline::CollectAllRows(oracle_op->get());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  const std::vector<std::vector<Value>> expected = Sorted(oracle->ToRows());

  std::vector<std::vector<std::vector<Value>>> parallel_rows;
  for (int threads : {1, 2, 4, 8}) {
    exec::Driver driver(threads);
    std::vector<exec::StageInfo> stages;
    Result<Table> out = driver.Run(plan, ctx, &stages);
    ASSERT_TRUE(out.ok()) << "threads=" << threads << ": "
                          << out.status().ToString();
    EXPECT_EQ(Sorted(out->ToRows()), expected) << "threads=" << threads;
    ASSERT_FALSE(stages.empty());
    for (const exec::StageInfo& s : stages) EXPECT_GE(s.num_tasks, 1);
    parallel_rows.push_back(out->ToRows());
  }
  // Morsel decomposition is input-derived, so thread count must not change
  // anything — not even row order.
  for (size_t i = 1; i < parallel_rows.size(); i++) {
    EXPECT_EQ(parallel_rows[0], parallel_rows[i]) << "run " << i;
  }
  if (ordered_like_serial) {
    Result<plan::ConversionResult> converted = plan::ConvertPlan(plan, ctx);
    ASSERT_TRUE(converted.ok()) << converted.status().ToString();
    Result<Table> serial = baseline::CollectAllRows(converted->root.get());
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(parallel_rows[0], serial->ToRows());
  }
}

// --- Building blocks --------------------------------------------------------

TEST(MorselTest, SplitIsInputDerived) {
  std::vector<exec::Morsel> m = exec::SplitMorsels(20, 8);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].begin, 0);
  EXPECT_EQ(m[0].end, 8);
  EXPECT_EQ(m[2].begin, 16);
  EXPECT_EQ(m[2].end, 20);
  // Empty input still yields one (empty) morsel: stages always run a task.
  m = exec::SplitMorsels(0, 8);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].begin, m[0].end);
}

TEST(MorselTest, QueueHandsOutEachMorselExactlyOnce) {
  exec::MorselQueue queue(1000);
  std::vector<std::atomic<int>> claimed(1000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&] {
      for (int m = queue.Next(); m >= 0; m = queue.Next()) {
        claimed[m].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 1000; i++) EXPECT_EQ(claimed[i].load(), 1) << i;
}

TEST(StagePlannerTest, BreakerKinds) {
  EXPECT_TRUE(plan::IsPipelineBreaker(plan::PlanKind::kAggregate));
  EXPECT_TRUE(plan::IsPipelineBreaker(plan::PlanKind::kSort));
  EXPECT_TRUE(plan::IsPipelineBreaker(plan::PlanKind::kLimit));
  EXPECT_FALSE(plan::IsPipelineBreaker(plan::PlanKind::kScan));
  EXPECT_FALSE(plan::IsPipelineBreaker(plan::PlanKind::kFilter));
  EXPECT_FALSE(plan::IsPipelineBreaker(plan::PlanKind::kJoin));
}

TEST(StagePlannerTest, CutsThroughProbeSideAndStopsAtBreakers) {
  Table probe = MakeTable(100, 32);
  Table build = MakeTable(10, 32);
  plan::PlanPtr p = plan::Filter(
      plan::Join(plan::Filter(plan::Scan(&probe),
                              eb::Gt(ColV(), eb::Lit(int64_t{10}))),
                 plan::Scan(&build), JoinType::kInner, {ColK()}, {ColK()}),
      eb::Gt(eb::Col(1, DataType::Int64(), "v"), eb::Lit(int64_t{20})));
  plan::FragmentCut cut = plan::CutFragment(p);
  // Root-first chain: Filter, Join, Filter; leaf is the probe-side scan.
  ASSERT_EQ(cut.nodes.size(), 3u);
  EXPECT_EQ(cut.nodes[0]->kind, plan::PlanKind::kFilter);
  EXPECT_EQ(cut.nodes[1]->kind, plan::PlanKind::kJoin);
  EXPECT_EQ(cut.nodes[2]->kind, plan::PlanKind::kFilter);
  EXPECT_EQ(cut.leaf_kind, plan::FragmentLeaf::kTable);
  EXPECT_EQ(cut.leaf->table, &probe);

  // An aggregate below a filter becomes a staged input, not chain interior.
  plan::PlanPtr agg = plan::Aggregate(
      plan::Scan(&probe), {ColK()}, {"k"},
      {AggregateSpec{AggKind::kSum, ColV(), "sv"}});
  plan::PlanPtr above = plan::Filter(
      agg, eb::Gt(eb::Col(1, DataType::Int64(), "sv"), eb::Lit(int64_t{0})));
  cut = plan::CutFragment(above);
  ASSERT_EQ(cut.nodes.size(), 1u);
  EXPECT_EQ(cut.leaf_kind, plan::FragmentLeaf::kStage);
  EXPECT_EQ(cut.leaf.get(), agg.get());
}

// --- Equivalence: parallel vs the baseline oracle ----------------------------

TEST(ParallelEquivalenceTest, GroupedAggregate) {
  Table t = MakeTable(20000, 256);  // 79 batches -> 10 morsels
  plan::PlanPtr p = plan::Aggregate(
      plan::Filter(plan::Scan(&t), eb::Gt(ColV(), eb::Lit(int64_t{1000}))),
      {ColK()}, {"k"},
      {AggregateSpec{AggKind::kSum, ColV(), "sv"},
       AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kAvg, ColV(), "av"},
       AggregateSpec{AggKind::kMin, ColS(), "smin"},
       AggregateSpec{AggKind::kMax, ColS(), "smax"}});
  ExpectParallelMatchesOracle(p);
}

TEST(ParallelEquivalenceTest, ScalarAggregate) {
  Table t = MakeTable(20000, 256);
  plan::PlanPtr p = plan::Aggregate(
      plan::Scan(&t), {}, {},
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kSum, ColV(), "sv"},
       AggregateSpec{AggKind::kAvg, ColV(), "av"}});
  ExpectParallelMatchesOracle(p);
}

TEST(ParallelEquivalenceTest, ScalarAggregateOverEmptyInput) {
  Table t = MakeTable(1000, 256);
  // Nothing survives the filter; count must still be one row of 0.
  plan::PlanPtr p = plan::Aggregate(
      plan::Filter(plan::Scan(&t), eb::Gt(ColV(), eb::Lit(int64_t{1 << 30}))),
      {}, {}, {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  exec::Driver driver(4);
  Result<Table> out = driver.Run(p);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->num_rows(), 1);
  EXPECT_EQ(out->GetRow(0)[0], Value::Int64(0));
}

TEST(ParallelEquivalenceTest, HashJoinSharedBuild) {
  Table probe = MakeTable(20000, 256, 7);
  Table build = MakeTable(500, 64, 11);
  plan::PlanPtr p = plan::Join(
      plan::Filter(plan::Scan(&probe), eb::Gt(ColV(), eb::Lit(int64_t{50}))),
      plan::Filter(plan::Scan(&build), eb::Lt(ColV(), eb::Lit(int64_t{400}))),
      JoinType::kInner, {ColK()}, {ColK()});
  ExpectParallelMatchesOracle(p);
}

TEST(ParallelEquivalenceTest, LeftOuterAndSemiJoins) {
  Table probe = MakeTable(8000, 128, 3);
  Table build = MakeTable(300, 64, 5);
  // Build keys cover only part of the probe key domain.
  plan::PlanPtr build_side =
      plan::Filter(plan::Scan(&build), eb::Lt(ColK(), eb::Lit(int64_t{40})));
  for (JoinType jt :
       {JoinType::kLeftOuter, JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    plan::PlanPtr p = plan::Join(plan::Scan(&probe), build_side, jt, {ColK()},
                                 {ColK()});
    ExpectParallelMatchesOracle(p);
  }
}

// --- Partition-parallel join builds ----------------------------------------

/// (k, v, s) like MakeTable, with k NULL on every 7th row.
Table MakeNullableTable(int rows, int batch_size, uint64_t seed) {
  Schema schema({Field("k", DataType::Int64(), true),
                 Field("v", DataType::Int64()),
                 Field("s", DataType::String())});
  TableBuilder builder(schema, batch_size);
  Rng rng(seed);
  for (int i = 0; i < rows; i++) {
    Value k = i % 7 == 3 ? Value::Null() : Value::Int64(rng.Uniform(0, 59));
    builder.AppendRow({k, Value::Int64(i),
                       Value::String("s" + std::to_string(i % 37))});
  }
  return builder.Finish();
}

TEST(PartitionedBuildTest, DuplicateHeavyBuildKeepsChainOrder) {
  // 4k build rows on 50 keys: chains of ~80 entries spread over every
  // build morsel. The probe streams over a plain scan, so the parallel
  // output must reproduce a serial build's chain order exactly.
  Table probe = MakeTable(600, 64, 7);
  Table build = MakeTable(4000, 128, 9);
  plan::PlanPtr p = plan::Join(
      plan::Scan(&probe),
      plan::Filter(plan::Scan(&build), eb::Lt(ColK(), eb::Lit(int64_t{50}))),
      JoinType::kInner, {ColK()}, {ColK()});
  ExpectParallelMatchesOracle(p, {}, /*ordered_like_serial=*/true);
}

TEST(PartitionedBuildTest, NullKeysWithResidualEveryJoinType) {
  Table probe = MakeNullableTable(1500, 128, 3);
  Table build = MakeNullableTable(1200, 64, 5);
  // Residual over [probe (k, v, s), build (k, v, s)]: probe.v > build.v.
  ExprPtr residual = eb::Gt(eb::Col(1, DataType::Int64(), "v"),
                            eb::Col(4, DataType::Int64(), "bv"));
  for (JoinType jt : {JoinType::kInner, JoinType::kLeftOuter,
                      JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    SCOPED_TRACE(static_cast<int>(jt));
    plan::PlanPtr p = plan::Join(plan::Scan(&probe), plan::Scan(&build), jt,
                                 {ColK()}, {ColK()}, residual);
    ExpectParallelMatchesOracle(p, {}, /*ordered_like_serial=*/true);
  }
}

TEST(PartitionedBuildTest, EveryBuildRowOnOneKey) {
  // One partition receives the whole build; the others stay empty.
  Schema schema({Field("k", DataType::Int64()), Field("w", DataType::Int64())});
  TableBuilder builder(schema, 128);
  for (int i = 0; i < 2500; i++) {
    builder.AppendRow({Value::Int64(42), Value::Int64(i)});
  }
  Table build = builder.Finish();
  Table probe = MakeTable(1000, 128, 11);
  for (JoinType jt : {JoinType::kInner, JoinType::kLeftAnti}) {
    plan::PlanPtr p = plan::Join(plan::Scan(&probe), plan::Scan(&build), jt,
                                 {ColK()}, {ColK()});
    ExpectParallelMatchesOracle(p, {}, /*ordered_like_serial=*/true);
  }
}

TEST(PartitionedBuildTest, StringKeys) {
  Table probe = MakeTable(2000, 128, 13);
  Table build = MakeTable(300, 16, 17);
  plan::PlanPtr p = plan::Join(plan::Scan(&probe), plan::Scan(&build),
                               JoinType::kInner, {ColS()}, {ColS()});
  ExpectParallelMatchesOracle(p, {}, /*ordered_like_serial=*/true);
  // String group keys through the partitioned merge, too.
  ExpectParallelMatchesOracle(plan::Aggregate(
      p, {eb::Col(2, DataType::String(), "s")}, {"s"},
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kMax, eb::Col(4, DataType::Int64(), "bv"),
                     "max_bv"}}));
}

TEST(PartitionedBuildTest, EmptyBuild) {
  Table probe = MakeTable(3000, 256, 19);
  Table build = MakeTable(2000, 256, 23);
  plan::PlanPtr empty =
      plan::Filter(plan::Scan(&build), eb::Lt(ColV(), eb::Lit(int64_t{0})));
  for (JoinType jt : {JoinType::kInner, JoinType::kLeftOuter,
                      JoinType::kLeftSemi, JoinType::kLeftAnti}) {
    plan::PlanPtr p =
        plan::Join(plan::Scan(&probe), empty, jt, {ColK()}, {ColK()});
    ExpectParallelMatchesOracle(p, {}, /*ordered_like_serial=*/true);
  }
}

/// Walks a profile, collecting the stage ids of nodes named `name`.
void StagesOf(const obs::ProfileNode& node, const std::string& name,
              std::vector<int>* out) {
  if (node.name == name) out->push_back(node.stage_id);
  for (const obs::ProfileNode& child : node.children) {
    StagesOf(child, name, out);
  }
}

/// The large join builds and grouped final merges of the heaviest TPC-H
/// queries run as multi-task stages. A build whose input is one morsel
/// inserts all its partitions in one task, and the only single-task merge
/// left is Q17's scalar aggregate.
TEST(PartitionedBuildTest, HeavyTpchQueriesHaveNoSingleTaskLargeBuildOrMerge) {
  constexpr double kScale = 0.01;
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kScale));
  exec::Driver driver(4);
  int multi_task_builds = 0;
  for (int q : {17, 18, 21}) {
    SCOPED_TRACE("q" + std::to_string(q));
    Result<plan::PlanPtr> p = tpch::TpchQuery(q, *data, kScale);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    std::vector<exec::StageInfo> stages;
    obs::QueryProfile profile;
    Result<Table> out = driver.Run(*p, {}, &stages, &profile);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    auto stage_of = [&](int stage_id) {
      for (const exec::StageInfo& s : stages) {
        if (s.stage_id == stage_id) return s;
      }
      return exec::StageInfo{};
    };
    auto tasks_of = [&](int stage_id) { return stage_of(stage_id).num_tasks; };
    auto rows_of = [&](int stage_id) { return stage_of(stage_id).rows_out(); };
    std::vector<int> builds;
    std::vector<int> merges;
    StagesOf(profile.root, "HashJoinBuild", &builds);
    StagesOf(profile.root, "HashAggregateFinal", &merges);
    EXPECT_FALSE(builds.empty());
    for (int stage : builds) {
      if (tasks_of(stage) == 4) {
        multi_task_builds++;
        continue;
      }
      // One morsel: at most 8 full batches (the driver's kMorselBatches).
      EXPECT_EQ(tasks_of(stage), 1) << stage;
      EXPECT_LE(rows_of(stage), 8 * kDefaultBatchSize) << stage;
    }
    int single_task_merges = 0;
    for (int stage : merges) {
      if (tasks_of(stage) == 1) single_task_merges++;
    }
    if (q != 21) {
      EXPECT_GE(merges.size(), 1u);
    }
    EXPECT_EQ(single_task_merges, q == 17 ? 1 : 0);
  }
  EXPECT_GE(multi_task_builds, 1);
}

TEST(ParallelEquivalenceTest, SortedRunsMerge) {
  Table t = MakeTable(20000, 256);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{ColK(), true, true});
  keys.push_back(SortKey{ColV(), false, true});  // v unique -> total order
  plan::PlanPtr p = plan::Sort(
      plan::Filter(plan::Scan(&t), eb::Gt(ColV(), eb::Lit(int64_t{100}))),
      keys);
  ExpectParallelMatchesOracle(p);

  // The merged output must actually be ordered.
  exec::Driver driver(8);
  Result<Table> out = driver.Run(p);
  ASSERT_TRUE(out.ok());
  std::vector<std::vector<Value>> rows = out->ToRows();
  for (size_t i = 1; i < rows.size(); i++) {
    int64_t k0 = rows[i - 1][0].i64(), k1 = rows[i][0].i64();
    ASSERT_LE(k0, k1) << "row " << i;
    if (k0 == k1) {
      ASSERT_GE(rows[i - 1][1].i64(), rows[i][1].i64());
    }
  }
}

TEST(ParallelEquivalenceTest, LimitOverSort) {
  Table t = MakeTable(20000, 256);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{ColV(), false, true});  // unique key: stable prefix
  plan::PlanPtr p = plan::Limit(plan::Sort(plan::Scan(&t), keys), 100);
  exec::Driver reference(1);
  Result<Table> single = reference.Run(p);
  ASSERT_TRUE(single.ok());
  for (int threads : {1, 2, 8}) {
    exec::Driver driver(threads);
    Result<Table> out = driver.Run(p);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->num_rows(), 100);
    EXPECT_EQ(out->ToRows(), single->ToRows()) << "threads=" << threads;
  }
}

TEST(ParallelEquivalenceTest, DeltaScanWithDataSkipping) {
  Schema schema(
      {Field("id", DataType::Int64()), Field("v", DataType::Int64())});
  ObjectStore store;
  Result<std::unique_ptr<DeltaTable>> dt =
      DeltaTable::Create(&store, "dl/t", schema);
  ASSERT_TRUE(dt.ok());
  Rng rng(13);
  for (int f = 0; f < 6; f++) {
    TableBuilder builder(schema, 512);
    for (int i = 0; i < 2000; i++) {
      builder.AppendRow({Value::Int64(f * 2000 + i),
                         Value::Int64(rng.Uniform(0, 999))});
    }
    FormatWriteOptions options;
    options.row_group_rows = 500;
    ASSERT_TRUE((*dt)->Append(builder.Finish(), options).ok());
  }
  Result<DeltaSnapshot> snap = (*dt)->Snapshot();
  ASSERT_TRUE(snap.ok());

  ThreadPool scan_pool(2);
  io::BlockCache cache;
  io::IoOptions io;
  io.cache = &cache;
  io.prefetch_pool = &scan_pool;  // driver reroutes to its own IO pool
  ExprPtr pred = eb::Between(eb::Col(0, DataType::Int64(), "id"),
                             eb::Lit(int64_t{3000}), eb::Lit(int64_t{8999}));
  plan::PlanPtr p = plan::Aggregate(
      plan::DeltaScan(&store, *snap, {}, pred, io), {}, {},
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"},
       AggregateSpec{AggKind::kSum, eb::Col(1, DataType::Int64(), "v"),
                     "sv"}});
  ExpectParallelMatchesOracle(p);

  // File pruning + row-group skipping survive the parallel path: only the
  // 4 overlapping files are read, and the non-overlapping row groups of
  // the two boundary files are skipped.
  exec::Driver driver(4);
  std::vector<exec::StageInfo> stages;
  Result<Table> out = driver.Run(p, {}, &stages);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[0], Value::Int64(6000));
  int64_t files_read = 0, row_groups_skipped = 0;
  for (const exec::StageInfo& s : stages) {
    files_read += s.files_read();
    row_groups_skipped += s.row_groups_skipped();
  }
  EXPECT_EQ(files_read, 4);
  EXPECT_EQ(row_groups_skipped, 4);
}

/// Every TPC-H query at 1/2/4/8 threads must reproduce the baseline's
/// result — the acceptance bar for the morsel-parallel driver.
class TpchParallelTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchParallelTest, MatchesBaseline) {
  constexpr double kScale = 0.002;
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kScale));
  int q = GetParam();
  Result<plan::PlanPtr> p = tpch::TpchQuery(q, *data, kScale);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ExpectParallelMatchesOracle(*p);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchParallelTest,
                         ::testing::Range(1, 23));

// --- Memory manager under concurrent tasks ----------------------------------

TEST(ParallelMemoryTest, ConcurrentAggregateSpillsUnderPressure) {
  Table t = MakeTable(60000, 512);
  plan::PlanPtr p = plan::Aggregate(
      plan::Scan(&t), {ColV()}, {"v"},  // v unique: 60k groups, real memory
      {AggregateSpec{AggKind::kSum, ColK(), "sk"},
       AggregateSpec{AggKind::kMax, ColS(), "smax"}});

  exec::Driver reference(1);
  Result<Table> unlimited = reference.Run(p);
  ASSERT_TRUE(unlimited.ok());

  // Below a single morsel task's working set (~4k unique groups), so
  // spilling is forced regardless of how tasks overlap in time.
  MemoryManager mm(192 * 1024);
  ExecContext ctx;
  ctx.memory_manager = &mm;
  ctx.spill_prefix = "ptest/agg-pressure";
  exec::Driver driver(4);
  Result<Table> out = driver.Run(p, ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), unlimited->num_rows());
  EXPECT_EQ(Sorted(out->ToRows()), Sorted(unlimited->ToRows()));
  // The limit actually forced spilling, and every task released what it
  // reserved (no leaked reservations once the query is done).
  EXPECT_GT(mm.spill_count(), 0);
  EXPECT_EQ(mm.reserved(), 0);
}

TEST(ParallelMemoryTest, LargeGroupBySpillsInsideMergeTasks) {
  Table t = MakeTable(160000, 1024);
  plan::PlanPtr p = plan::Aggregate(
      plan::Scan(&t), {ColV()}, {"v"},  // v unique: 160k groups
      {AggregateSpec{AggKind::kSum, ColK(), "sk"},
       AggregateSpec{AggKind::kMax, ColS(), "smax"}});
  exec::Driver reference(1);
  Result<Table> unlimited = reference.Run(p);
  ASSERT_TRUE(unlimited.ok());
  const std::vector<std::vector<Value>> expected = Sorted(unlimited->ToRows());

  // ~10k groups per merge partition is far above the budget, so every
  // merge task spills whatever runs beside it.
  MemoryManager mm(512 * 1024);
  ExecContext ctx;
  ctx.memory_manager = &mm;
  ctx.spill_prefix = "ptest/merge-spill";
  std::vector<std::vector<Value>> first;
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::Driver driver(threads);
    std::vector<exec::StageInfo> stages;
    obs::QueryProfile profile;
    Result<Table> out = driver.Run(p, ctx, &stages, &profile);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(stages.size(), 2u);
    const exec::StageInfo& merge = stages[1];
    EXPECT_EQ(merge.num_tasks,
              std::min(threads, HashAggregateOperator::kNumPartitions));
    EXPECT_GT(merge.spill_bytes(), 0);
    EXPECT_EQ(Sorted(out->ToRows()), expected);
    if (first.empty()) first = out->ToRows();
    EXPECT_EQ(out->ToRows(), first);
    EXPECT_EQ(mm.reserved(), 0);
    EXPECT_TRUE(ObjectStore::Default().List("ptest/merge-spill").empty());
  }
}

TEST(ParallelMemoryTest, ConcurrentSortSpillsUnderPressure) {
  Table t = MakeTable(60000, 512);
  std::vector<SortKey> keys;
  keys.push_back(SortKey{ColV(), true, true});
  plan::PlanPtr p = plan::Sort(plan::Scan(&t), keys);

  exec::Driver reference(1);
  Result<Table> unlimited = reference.Run(p);
  ASSERT_TRUE(unlimited.ok());

  // Below a single morsel task's materialized input, so every task spills
  // at least one run no matter the overlap.
  MemoryManager mm(128 * 1024);
  ExecContext ctx;
  ctx.memory_manager = &mm;
  ctx.spill_prefix = "ptest/sort-pressure";
  exec::Driver driver(4);
  Result<Table> out = driver.Run(p, ctx);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows(), unlimited->num_rows());
  EXPECT_EQ(Sorted(out->ToRows()), Sorted(unlimited->ToRows()));
  EXPECT_GT(mm.spill_count(), 0);
  EXPECT_EQ(mm.reserved(), 0);
}

TEST(ParallelMemoryTest, TaskGroupsIsolateSpillVictims) {
  // Two consumers in different task groups: pressure from group 1 must
  // spill group-1 consumers (or spill-safe ones), never group 2's.
  MemoryManager mm(1000);

  class Recorder : public MemoryConsumer {
   public:
    Recorder(std::string name, MemoryManager* mm)
        : MemoryConsumer(std::move(name)), mm_(mm) {}
    int64_t Spill(int64_t) override {
      spilled = true;
      int64_t r = held;
      held = 0;
      mm_->Release(this, r);
      return r;
    }
    bool spilled = false;
    int64_t held = 0;

   private:
    MemoryManager* mm_;
  };

  Recorder own("own", &mm);
  own.set_task_group(1);
  Recorder other("other", &mm);
  other.set_task_group(2);
  mm.RegisterConsumer(&own);
  mm.RegisterConsumer(&other);
  ASSERT_TRUE(mm.Reserve(&own, 400).ok());
  own.held = 400;
  ASSERT_TRUE(mm.Reserve(&other, 400).ok());
  other.held = 400;

  Recorder requester("req", &mm);
  requester.set_task_group(1);
  mm.RegisterConsumer(&requester);
  // 200 free; needs 400 more -> must evict `own` (same group), not `other`.
  ASSERT_TRUE(mm.Reserve(&requester, 600).ok());
  EXPECT_TRUE(own.spilled);
  EXPECT_FALSE(other.spilled);

  mm.Release(&requester, 600);
  mm.Release(&other, 400);
  mm.UnregisterConsumer(&own);
  mm.UnregisterConsumer(&other);
  mm.UnregisterConsumer(&requester);
}

}  // namespace
}  // namespace photon
