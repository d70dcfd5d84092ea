#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/rng.h"
#include "exec/driver.h"
#include "exec/thread_pool.h"
#include "expr/builder.h"
#include "memory/memory_manager.h"
#include "ops/file_scan.h"
#include "ops/filter.h"
#include "ops/hash_aggregate.h"
#include "ops/scan.h"
#include "plan/logical_plan.h"
#include "storage/format.h"

namespace photon {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; i++) {
    futures.push_back(pool.Submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(sum, 99 * 100);  // 2 * (0 + 1 + ... + 99)
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  std::future<int> f =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; i++) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }  // join
  EXPECT_EQ(done.load(), 20);
}

// --- Per-operator metrics (§3.3 observability) -----------------------------

TEST(MetricsTest, OperatorsReportPerOperatorCounts) {
  Schema schema({Field("x", DataType::Int64())});
  TableBuilder builder(schema);
  for (int i = 0; i < 1000; i++) builder.AppendRow({Value::Int64(i)});
  Table t = builder.Finish();

  auto scan = std::make_unique<InMemoryScanOperator>(&t);
  auto filter = std::make_unique<FilterOperator>(
      std::move(scan),
      eb::Lt(eb::Col(0, DataType::Int64(), "x"), eb::Lit(int64_t{100})));
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "n"});
  auto agg = std::make_unique<HashAggregateOperator>(
      std::move(filter), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs));

  Result<Table> result = CollectAll(agg.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetRow(0)[0], Value::Int64(100));

  // Operator-level metrics survive because operator boundaries survive.
  EXPECT_EQ(agg->op_metrics().Value(obs::Metric::kRowsOut), 1);
  EXPECT_GT(agg->op_metrics().Value(obs::Metric::kWallNs), 0);
}

// --- FileScan row-group skipping --------------------------------------------

TEST(FileScanTest, SkipsRowGroupsByStats) {
  // One file, clustered ids, small row groups -> the predicate should skip
  // most groups without decoding them.
  Schema schema({Field("id", DataType::Int64())});
  TableBuilder builder(schema);
  for (int64_t i = 0; i < 10000; i++) builder.AppendRow({Value::Int64(i)});
  Table t = builder.Finish();

  ObjectStore store;
  FormatWriteOptions options;
  options.row_group_rows = 1000;  // 10 groups
  Result<FileMeta> meta =
      WriteTableToStore(t, &store, "skip/test.pho", options);
  ASSERT_TRUE(meta.ok());

  ExprPtr pred = eb::Between(eb::Col(0, DataType::Int64(), "id"),
                             eb::Lit(int64_t{4500}), eb::Lit(int64_t{4600}));
  auto scan = std::make_unique<FileScanOperator>(
      &store, std::vector<std::string>{"skip/test.pho"}, schema,
      std::vector<int>{}, pred);
  Result<Table> result = CollectAll(scan.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 101);
  EXPECT_EQ(scan->op_metrics().Value(obs::Metric::kRowGroupsSkipped), 9)
      << "only group [4000,5000) should be read";
}

TEST(FileScanTest, MultipleFilesAndProjection) {
  Schema schema({Field("id", DataType::Int64()),
                 Field("payload", DataType::String())});
  ObjectStore store;
  for (int f = 0; f < 3; f++) {
    TableBuilder builder(schema);
    for (int i = 0; i < 100; i++) {
      builder.AppendRow({Value::Int64(f * 100 + i),
                         Value::String("p" + std::to_string(i))});
    }
    Table t = builder.Finish();
    ASSERT_TRUE(
        WriteTableToStore(t, &store, "multi/f" + std::to_string(f)).ok());
  }
  auto scan = std::make_unique<FileScanOperator>(
      &store,
      std::vector<std::string>{"multi/f0", "multi/f1", "multi/f2"}, schema,
      std::vector<int>{0});  // ids only
  Result<Table> result = CollectAll(scan.get());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 300);
  EXPECT_EQ(result->schema().num_fields(), 1);
  EXPECT_EQ(scan->op_metrics().Value(obs::Metric::kFilesRead), 3);
}

// --- Metrics through the driver ----------------------------------------------

/// A multi-morsel grouped aggregate runs a partial stage and a
/// hash-partitioned final merge stage; the merge runs its partitions on
/// the workers (capped by the thread count), and rows and order do not
/// depend on the thread count.
TEST(DriverMetricsTest, PartitionedAggregateStages) {
  Schema schema(
      {Field("k", DataType::Int64()), Field("v", DataType::Int64())});
  TableBuilder builder(schema, 256);
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    builder.AppendRow({Value::Int64(i % 1000), Value::Int64(rng.Uniform(0, 99))});
  }
  Table t = builder.Finish();  // 40 batches -> 5 morsels; 1000 groups
  plan::PlanPtr scan = plan::Scan(&t);
  plan::PlanPtr p = plan::Aggregate(
      scan, {plan::ColOf(scan, "k")}, {"k"},
      {AggregateSpec{AggKind::kSum, plan::ColOf(scan, "v"), "s"}});

  std::vector<std::vector<Value>> first;
  for (int threads : {1, 2, 8}) {
    exec::Driver driver(threads);
    std::vector<exec::StageInfo> stages;
    Result<Table> result = driver.Run(p, {}, &stages);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->num_rows(), 1000);
    ASSERT_EQ(stages.size(), 2u);
    EXPECT_EQ(stages[0].num_tasks, std::min(threads, 5));
    EXPECT_EQ(stages[1].num_tasks,
              std::min(threads, HashAggregateOperator::kNumPartitions));
    EXPECT_GT(stages[0].wall_ns(), 0);
    EXPECT_GT(stages[1].wall_ns(), 0);
    if (first.empty()) first = result->ToRows();
    EXPECT_EQ(result->ToRows(), first) << "threads=" << threads;
  }
}

/// A merge task that fails mid-spill (an injected object-store write
/// failure under a tiny budget) fails the query and leaks neither spill
/// objects nor reservations.
TEST(DriverAggregateTest, FailedMergeTaskLeaksNothing) {
  Schema schema(
      {Field("k", DataType::Int64()), Field("v", DataType::Int64())});
  TableBuilder builder(schema, 64);
  for (int i = 0; i < 60000; i++) {
    builder.AppendRow({Value::Int64(i), Value::Int64(i % 7)});
  }
  Table t = builder.Finish();
  plan::PlanPtr scan = plan::Scan(&t);
  plan::PlanPtr p = plan::Aggregate(
      scan, {plan::ColOf(scan, "k")}, {"k"},
      {AggregateSpec{AggKind::kSum, plan::ColOf(scan, "v"), "s"}});

  // One worker: the per-morsel partials (512 groups each) fit the budget
  // and never spill, so the first object-store write — the one that
  // fails — is a merge task's spill (3.75k groups per partition).
  MemoryManager mm(128 * 1024);
  mm.set_reserve_timeout_ms(50);
  ExecContext ctx;
  ctx.memory_manager = &mm;
  ctx.spill_prefix = "exec-test/failed-merge";
  ObjectStore::Default().FailNextPuts(1);
  exec::Driver driver(1);
  Result<Table> result = driver.Run(p, ctx);
  ObjectStore::Default().FailNextPuts(0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError)
      << result.status().ToString();
  EXPECT_TRUE(ObjectStore::Default().List("exec-test/").empty());
  EXPECT_EQ(mm.reserved(), 0);

  // The same plan and budget succeed once writes work, spilling in the
  // merge tasks, and clean up after themselves.
  Result<Table> retry = driver.Run(p, ctx);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->num_rows(), 60000);
  EXPECT_GT(mm.spill_count(), 0);
  EXPECT_TRUE(ObjectStore::Default().List("exec-test/").empty());
  EXPECT_EQ(mm.reserved(), 0);
}

/// Scans lend a table's vectors to every query that reads it, so a
/// kernel's cached batch metadata must never land in the table. Each batch
/// mixes ASCII and UTF-8 strings: an upper() over only the ASCII rows must
/// not leave an all-ASCII verdict behind that sends a later full upper()
/// down the ASCII kernel (which would turn "été" into "éTé").
TEST(LentScanTest, FilteredUpperLeavesTableMetadataAlone) {
  Schema schema(
      {Field("id", DataType::Int64()), Field("s", DataType::String())});
  TableBuilder builder(schema, 64);
  constexpr int kRows = 4096;  // 64 batches -> 8 morsels
  auto text = [](int i, bool upper) {
    std::string base = i % 2 == 0 ? (upper ? "ABC" : "abc")
                                  : (upper ? "ÉTÉ" : "été");
    return base + std::to_string(i);
  };
  for (int i = 0; i < kRows; i++) {
    builder.AppendRow({Value::Int64(i), Value::String(text(i, false))});
  }
  Table t = builder.Finish();
  plan::PlanPtr scan = plan::Scan(&t);
  ExprPtr id = plan::ColOf(scan, "id");
  auto upper_of = [&](const plan::PlanPtr& child) {
    return plan::Project(
        child, {id, eb::Call("upper", {plan::ColOf(scan, "s")})}, {"id", "u"});
  };
  plan::PlanPtr ascii_only = upper_of(
      plan::Filter(scan, eb::Eq(eb::Mod(id, eb::Lit(int64_t{2})),
                                eb::Lit(int64_t{0}))));
  plan::PlanPtr full = upper_of(scan);

  auto check = [&](const Result<Table>& r, int expected_rows) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), expected_rows);
    for (const std::vector<Value>& row : r->ToRows()) {
      int i = static_cast<int>(row[0].i64());
      ASSERT_EQ(row[1].str(), text(i, true)) << "row " << i;
    }
  };
  for (int threads : {1, 8}) {
    exec::Driver driver(threads);
    check(driver.Run(ascii_only), kRows / 2);
    check(driver.Run(full), kRows);
  }

  // Concurrent readers of one table: under TSan, any metadata write into
  // a lent vector is a reported race.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      exec::Driver driver(2);
      for (int k = 0; k < 3; k++) {
        if (r == 0) {
          check(driver.Run(ascii_only), kRows / 2);
        } else {
          check(driver.Run(full), kRows);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();

  for (int b = 0; b < t.num_batches(); b++) {
    EXPECT_EQ(t.batch(b).column(1)->all_ascii(), TriState::kNo) << b;
    EXPECT_EQ(t.batch(b).column(0)->has_nulls(), TriState::kNo) << b;
  }
}

}  // namespace
}  // namespace photon
