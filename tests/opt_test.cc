#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/compactor.h"
#include "exec/driver.h"
#include "memory/memory_manager.h"
#include "expr/builder.h"
#include "opt/optimizer.h"
#include "opt/stats.h"
#include "plan/logical_plan.h"
#include "storage/ndv_sketch.h"
#include "testing/datagen.h"
#include "testing/differ.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_misordered.h"
#include "tpch/tpch_queries.h"
#include "tpch/tpch_sql.h"

namespace photon {
namespace {

constexpr double kTestScale = 0.002;

const tpch::TpchData& Data() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kTestScale));
  return *data;
}

// ---------------------------------------------------------------------------
// Misordered-plan recovery: the optimizer must turn each deliberately
// pessimal Q3/Q5/Q9/Q10 join tree back into something that produces
// checksum-identical rows to the hand-ordered plan — on one worker and
// morsel-parallel at 8 threads.
// ---------------------------------------------------------------------------

class MisorderedRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(MisorderedRecoveryTest, OptimizerRecoversHandOrderedResults) {
  int q = GetParam();
  Result<plan::PlanPtr> hand = tpch::TpchQuery(q, Data(), kTestScale);
  ASSERT_TRUE(hand.ok()) << hand.status().ToString();
  Result<plan::PlanPtr> mis = tpch::TpchMisorderedQuery(q, Data());
  ASSERT_TRUE(mis.ok()) << mis.status().ToString();

  exec::Driver single(1);
  Result<Table> want = single.Run(*hand);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // Sanity: the pessimal plan is *correct* even unoptimized.
  Result<Table> raw = single.Run(*mis);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(testing::Canonicalize(*want), testing::Canonicalize(*raw))
      << "Q" << q << " misordered plan is not semantically equivalent";

  ExecContext ctx;
  ctx.optimizer = OptimizerPolicy::kOn;
  Result<Table> opt1 = single.Run(*mis, ctx);
  ASSERT_TRUE(opt1.ok()) << opt1.status().ToString();
  EXPECT_EQ(testing::Canonicalize(*want), testing::Canonicalize(*opt1))
      << "Q" << q << " optimizer-recovered 1-worker results diverge";

  exec::Driver parallel(8);
  Result<Table> opt8 = parallel.Run(*mis, ctx);
  ASSERT_TRUE(opt8.ok()) << opt8.status().ToString();
  EXPECT_EQ(testing::Canonicalize(*want), testing::Canonicalize(*opt8))
      << "Q" << q << " optimizer-recovered 8-thread results diverge";
}

INSTANTIATE_TEST_SUITE_P(Queries, MisorderedRecoveryTest,
                         ::testing::Values(3, 5, 9, 10));

// ---------------------------------------------------------------------------
// All 22 hand-built TPC-H plans must be optimizer-invariant: optimizer on
// produces checksum-identical rows to optimizer off.
// ---------------------------------------------------------------------------

class TpchOptimizerInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchOptimizerInvarianceTest, OptimizedPlanMatches) {
  int q = GetParam();
  Result<plan::PlanPtr> hand = tpch::TpchQuery(q, Data(), kTestScale);
  ASSERT_TRUE(hand.ok()) << hand.status().ToString();

  exec::Driver single(1);
  Result<Table> off = single.Run(*hand);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  ExecContext ctx;
  ctx.optimizer = OptimizerPolicy::kOn;
  Result<Table> on = single.Run(*hand, ctx);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(testing::Canonicalize(*off), testing::Canonicalize(*on))
      << "Q" << q << " diverges with the optimizer on";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchOptimizerInvarianceTest,
                         ::testing::Range(1, 23));

// ---------------------------------------------------------------------------
// SQL-derived plans (whose join order is whatever the user typed) routed
// through the optimizer must also stay checksum-equal to the hand plans.
// ---------------------------------------------------------------------------

class TpchSqlOptimizerTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchSqlOptimizerTest, SqlPlanMatchesWithOptimizerOn) {
  int q = GetParam();
  Result<plan::PlanPtr> hand = tpch::TpchQuery(q, Data(), kTestScale);
  ASSERT_TRUE(hand.ok()) << hand.status().ToString();
  Result<plan::PlanPtr> from_sql = tpch::TpchSqlQuery(q, Data(), kTestScale);
  ASSERT_TRUE(from_sql.ok()) << from_sql.status().ToString();

  exec::Driver single(1);
  Result<Table> want = single.Run(*hand);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ExecContext ctx;
  ctx.optimizer = OptimizerPolicy::kOn;
  Result<Table> got = single.Run(*from_sql, ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(testing::Canonicalize(*want), testing::Canonicalize(*got))
      << "SQL Q" << q << " diverges with the optimizer on";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchSqlOptimizerTest,
                         ::testing::Range(1, 23));

// ---------------------------------------------------------------------------
// Optimizer contract: purity and determinism.
// ---------------------------------------------------------------------------

TEST(OptimizerTest, PureAndDeterministic) {
  Result<plan::PlanPtr> mis = tpch::TpchMisorderedQuery(9, Data());
  ASSERT_TRUE(mis.ok());
  std::string before = (*mis)->ToString();
  plan::PlanPtr a = opt::Optimize(*mis);
  EXPECT_EQ(before, (*mis)->ToString()) << "Optimize mutated its input";
  plan::PlanPtr b = opt::Optimize(*mis);
  EXPECT_EQ(a->ToString(), b->ToString()) << "Optimize is nondeterministic";
  EXPECT_NE(a->ToString(), before) << "expected the pessimal Q9 to change";
}

/// A join whose parent demands no column at all (count(*) above it) still
/// keeps one column to carry its row count, and that column must exist in
/// the pruned probe even when it is not a join key.
TEST(PruneColumnsTest, CountStarOverJoinKeepsRowCount) {
  const tpch::TpchData& d = Data();
  plan::PlanPtr nation = plan::Scan(&d.nation);
  plan::PlanPtr region = plan::Scan(&d.region);
  plan::PlanPtr join = plan::Join(nation, region, JoinType::kInner,
                                  {plan::ColOf(nation, "n_regionkey")},
                                  {plan::ColOf(region, "r_regionkey")});
  plan::PlanPtr p = plan::Aggregate(
      join, {}, {}, {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  ASSERT_NE(opt::PruneColumns(p)->ToString(), p->ToString())
      << "expected the join's inputs to narrow";

  exec::Driver single(1);
  Result<Table> out = single.Run(p);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->GetRow(0)[0].i64(), d.nation.num_rows());
}

// ---------------------------------------------------------------------------
// Targeted rule checks over small hand-built plans.
// ---------------------------------------------------------------------------

/// Filters must never sink below a zero-key (scalar) aggregate: it emits
/// one row even over empty input. Found by differ mode 8 on the fuzz
/// corpus (seed 13); also pinned in fuzz_regression_test.cc.
TEST(OptimizerTest, ScalarAggregateBlocksPushdown) {
  const tpch::TpchData& d = Data();
  plan::PlanPtr scan = plan::Scan(&d.nation);
  plan::PlanPtr agg = plan::Aggregate(
      scan, {}, {},
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  // Constant-false predicate above the scalar aggregate.
  plan::PlanPtr p = plan::Filter(
      agg, eb::Eq(eb::Lit(int64_t{1}), eb::Lit(int64_t{2})));

  exec::Driver single(1);
  Result<Table> off = single.Run(p);
  ASSERT_TRUE(off.ok());
  ASSERT_EQ(off->num_rows(), 0);

  ExecContext ctx;
  ctx.optimizer = OptimizerPolicy::kOn;
  Result<Table> on = single.Run(p, ctx);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(on->num_rows(), 0)
      << "constant filter leaked below a scalar aggregate";
}

TEST(OptimizerTest, PushdownMergesIntoDeltaScanPredicate) {
  ObjectStore store;
  testing::DataGen gen(42);
  Schema schema = gen.RandomSchema("t_", 3, 3);
  Table table = gen.RandomTable(schema, 500);
  auto snapshot = gen.WriteDelta(&store, "/opt/pushdown", table);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  plan::PlanPtr scan = plan::DeltaScan(&store, *snapshot);
  ExprPtr pred = eb::Le(eb::Col(0, scan->output_schema.field(0).type),
                        eb::Lit(int64_t{10}));
  plan::PlanPtr p = plan::Filter(scan, pred);

  plan::PlanPtr optimized = opt::Optimize(p);
  EXPECT_EQ(optimized->kind, plan::PlanKind::kDeltaScan)
      << "filter was not merged into the scan:\n"
      << optimized->ToString();
  EXPECT_NE(optimized->scan_predicate, nullptr);

  exec::Driver single(1);
  Result<Table> off = single.Run(p);
  ASSERT_TRUE(off.ok());
  Result<Table> on = single.Run(optimized);
  ASSERT_TRUE(on.ok());
  EXPECT_EQ(testing::Canonicalize(*off), testing::Canonicalize(*on));
}

/// Driver::Run prunes every plan, the optimizer off included: a hand-built
/// DeltaScan→Sort→Project decodes and sorts only the projected column, so
/// its sort reserves exactly what the plan narrowed by hand reserves.
TEST(PruneColumnsTest, DriverNarrowsHandBuiltDeltaScan) {
  ObjectStore store;
  testing::DataGen gen(7);
  Schema schema = gen.RandomSchema("t_", 5, 5);
  Table table = gen.RandomTable(schema, 300);
  auto snapshot = gen.WriteDelta(&store, "/opt/prune", table);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  const DataType type = schema.field(1).type;
  auto sorted_column = [&](plan::PlanPtr scan, int col) {
    return plan::Project(
        plan::Sort(scan, {SortKey{eb::Col(col, type), true, false}}),
        {eb::Col(col, type)}, {"only"});
  };
  plan::PlanPtr wide = plan::DeltaScan(&store, *snapshot);
  plan::PlanPtr hand = sorted_column(wide, 1);
  plan::PlanPtr narrowed_by_hand =
      sorted_column(plan::DeltaScan(&store, *snapshot, {1}), 0);

  plan::PlanPtr pruned = opt::PruneColumns(hand);
  const plan::PlanNode* node = pruned.get();
  while (node->kind != plan::PlanKind::kDeltaScan) {
    ASSERT_FALSE(node->children.empty());
    node = node->children[0].get();
  }
  EXPECT_EQ(node->scan_columns, std::vector<int>{1})
      << "scan not narrowed:\n"
      << pruned->ToString();

  // The sort reserves per row for every column it stores.
  exec::Driver single(1);
  auto sort_reservation = [&](const plan::PlanPtr& plan, Table* out) {
    MemoryManager mm(int64_t{1} << 30);
    ExecContext ctx;
    ctx.memory_manager = &mm;
    std::vector<exec::StageInfo> stages;
    Result<Table> t = single.Run(plan, ctx, &stages);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    int64_t peak = 0;
    for (const exec::StageInfo& stage : stages) {
      peak = std::max(peak, stage.m[obs::Metric::kPeakReservedBytes]);
    }
    if (t.ok()) *out = std::move(*t);
    return peak;
  };
  Table hand_rows(hand->output_schema), narrowed_rows(hand->output_schema),
      wide_rows(schema);
  const int64_t hand_bytes = sort_reservation(hand, &hand_rows);
  const int64_t narrowed_bytes =
      sort_reservation(narrowed_by_hand, &narrowed_rows);
  const int64_t wide_bytes = sort_reservation(
      plan::Sort(wide, {SortKey{eb::Col(1, type), true, false}}), &wide_rows);
  EXPECT_GT(narrowed_bytes, 0);
  EXPECT_EQ(hand_bytes, narrowed_bytes);
  EXPECT_LT(hand_bytes, wide_bytes);
  EXPECT_EQ(testing::Canonicalize(hand_rows),
            testing::Canonicalize(narrowed_rows));
}

// ---------------------------------------------------------------------------
// Statistics plumbing: NDV sketches and snapshot-derived TableStats.
// ---------------------------------------------------------------------------

TEST(NdvSketchTest, EstimatesWithinHllError) {
  NdvSketch sketch;
  Rng rng(99);
  constexpr int kDistinct = 5000;
  for (int i = 0; i < kDistinct; i++) {
    uint64_t h = rng.Next();
    sketch.Add(h);
    sketch.Add(h);  // duplicates must not move the estimate
  }
  double est = sketch.Estimate();
  // 256 registers -> ~6.5% standard error; allow 4 sigma.
  EXPECT_GT(est, kDistinct * 0.74);
  EXPECT_LT(est, kDistinct * 1.26);
}

TEST(NdvSketchTest, MergeMatchesUnion) {
  NdvSketch a, b, both;
  Rng rng(123);
  for (int i = 0; i < 2000; i++) {
    uint64_t h = rng.Next();
    if (i % 2 == 0) a.Add(h);
    if (i % 2 == 1) b.Add(h);
    both.Add(h);
  }
  a.Merge(b);
  EXPECT_EQ(a, both);
}

TEST(TableStatsTest, DeltaScanCarriesSnapshotStats) {
  ObjectStore store;
  testing::DataGen gen(5);
  Schema schema = gen.RandomSchema("t_", 3, 3);
  Table table = gen.RandomTable(schema, 400);
  auto snapshot = gen.WriteDelta(&store, "/opt/stats", table);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  plan::PlanPtr scan = plan::DeltaScan(&store, *snapshot);
  ASSERT_NE(scan->stats, nullptr);
  EXPECT_EQ(scan->stats->row_count, table.num_rows());
  ASSERT_EQ(static_cast<int>(scan->stats->columns.size()),
            scan->output_schema.num_fields());
  // Key column 0 is distinct-ish in generated tables; the sketch estimate
  // must at least be present and positive.
  EXPECT_GT(scan->stats->columns[0].ndv, 0);
  EXPECT_TRUE(scan->stats->columns[0].has_min_max);

  opt::PlanEstimate est = opt::EstimatePlan(*scan);
  EXPECT_EQ(est.rows, static_cast<double>(table.num_rows()));
}

TEST(TableStatsTest, CompactionPreservesSnapshotStats) {
  // Rewrite-path adds persist the same zone maps + HLL NDV sketches as
  // Append, so StatsFromSnapshot must reconstruct identical statistics
  // after the compactor has coalesced the small files (HLL register merge
  // is a pure function of the value set, so estimates match exactly).
  ObjectStore store;
  testing::DataGen gen(11);
  Schema schema = gen.RandomSchema("c_", 3, 3);
  auto created = DeltaTable::Create(&store, "/opt/compact-stats", schema);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  DeltaTable* table = created->get();
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(table->Append(gen.RandomTable(schema, 50)).ok());
  }
  auto before_snap = table->Snapshot();
  ASSERT_TRUE(before_snap.ok());
  plan::TableStatsPtr before = plan::StatsFromSnapshot(*before_snap);

  exec::Compactor::Options options;
  options.small_file_rows = 100;
  options.target_file_rows = 300;
  exec::Compactor compactor(table, options);
  ASSERT_TRUE(compactor.RunOncePass().ok());
  ASSERT_GT(compactor.stats().files_compacted, 0);

  auto after_snap = table->Snapshot();
  ASSERT_TRUE(after_snap.ok());
  ASSERT_LT(after_snap->files.size(), before_snap->files.size());
  plan::TableStatsPtr after = plan::StatsFromSnapshot(*after_snap);

  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->row_count, before->row_count);
  ASSERT_EQ(after->columns.size(), before->columns.size());
  for (size_t c = 0; c < before->columns.size(); c++) {
    const plan::ColumnStats& b = before->columns[c];
    const plan::ColumnStats& a = after->columns[c];
    EXPECT_EQ(a.ndv, b.ndv) << "column " << c;
    EXPECT_EQ(a.null_count, b.null_count) << "column " << c;
    EXPECT_EQ(a.has_min_max, b.has_min_max) << "column " << c;
    if (b.has_min_max) {
      EXPECT_TRUE(a.min.Equals(b.min)) << "column " << c;
      EXPECT_TRUE(a.max.Equals(b.max)) << "column " << c;
    }
  }
}

TEST(TableStatsTest, ComputeTableStatsIsExact) {
  const tpch::TpchData& d = Data();
  plan::TableStatsPtr stats = plan::ComputeTableStats(d.nation);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, d.nation.num_rows());
  // n_nationkey is unique.
  EXPECT_DOUBLE_EQ(stats->columns[0].ndv,
                   static_cast<double>(d.nation.num_rows()));
}

}  // namespace
}  // namespace photon
