// Tests for the query-profile observability subsystem (src/obs): metric
// counters and their merge semantics, trace spans and Chrome-trace export,
// profile-tree assembly, registry behavior under concurrent task updates
// (the TSan target), and end-to-end QueryProfile emission for every TPC-H
// plan — including the thread-count-independence regression: a plan's
// profile must report identical rows/batches per operator at 1 and 8
// threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"
#include "vector/table.h"

namespace photon {
namespace {

using obs::Metric;

// --- Metric counters ---------------------------------------------------------

TEST(MetricSetTest, AddSetMaxAndValue) {
  obs::MetricSet s;
  s.Add(Metric::kRowsOut, 10);
  s.Add(Metric::kRowsOut, 5);
  s.SetMax(Metric::kPeakReservedBytes, 100);
  s.SetMax(Metric::kPeakReservedBytes, 40);  // lower: must not regress
  s.SetMax(Metric::kPeakReservedBytes, 250);
  EXPECT_EQ(s.Value(Metric::kRowsOut), 15);
  EXPECT_EQ(s.Value(Metric::kPeakReservedBytes), 250);
  EXPECT_EQ(s.Value(Metric::kSpillBytes), 0);
}

TEST(MetricSetTest, MergeSumsFlowAndMaxesPeak) {
  obs::MetricSet a;
  obs::MetricSet b;
  a.Add(Metric::kRowsOut, 100);
  a.SetMax(Metric::kPeakReservedBytes, 70);
  b.Add(Metric::kRowsOut, 50);
  b.SetMax(Metric::kPeakReservedBytes, 90);
  a.MergeFrom(b);
  EXPECT_EQ(a.Value(Metric::kRowsOut), 150);
  EXPECT_EQ(a.Value(Metric::kPeakReservedBytes), 90)
      << "peaks merge by max, not sum";
}

TEST(MetricSetTest, ResourceMergeSkipsFlowMetrics) {
  obs::MetricSet op;
  op.Add(Metric::kRowsOut, 1000);   // flow: per-operator only
  op.Add(Metric::kWallNs, 12345);   // flow: would double-count in a tree
  op.Add(Metric::kBytesRead, 4096); // resource: folds into stage totals
  op.Add(Metric::kSpillBytes, 512);
  op.SetMax(Metric::kPeakReservedBytes, 777);

  obs::MetricSet stage;
  stage.MergeResourceFrom(op);
  EXPECT_EQ(stage.Value(Metric::kRowsOut), 0);
  EXPECT_EQ(stage.Value(Metric::kWallNs), 0);
  EXPECT_EQ(stage.Value(Metric::kBytesRead), 4096);
  EXPECT_EQ(stage.Value(Metric::kSpillBytes), 512);
  EXPECT_EQ(stage.Value(Metric::kPeakReservedBytes), 777);
}

TEST(MetricSetTest, EveryMetricHasAUniqueName) {
  std::vector<std::string> names;
  for (int m = 0; m < obs::kNumMetrics; m++) {
    const char* name = obs::MetricName(static_cast<Metric>(m));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
    for (const std::string& prev : names) EXPECT_NE(prev, name);
    names.push_back(name);
  }
}

// 8 tasks hammering one shared MetricSet plus per-task ProfileBuilder
// shards: the TSan-verified concurrency contract of the registry.
TEST(MetricSetTest, ConcurrentUpdatesFromEightTasks) {
  constexpr int kTasks = 8;
  constexpr int kIters = 20000;
  obs::MetricSet shared;
  obs::ProfileBuilder builder;
  int node = builder.AddNode("Shared", -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kTasks; t++) {
    threads.emplace_back([&, t] {
      int64_t task = builder.NewTaskId();
      obs::MetricSet* shard = builder.TaskShard(node, task);
      for (int i = 0; i < kIters; i++) {
        shared.Add(Metric::kRowsOut, 1);
        shared.SetMax(Metric::kPeakReservedBytes, t * kIters + i);
        shard->Add(Metric::kRowsOut, 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(shared.Value(Metric::kRowsOut), kTasks * kIters);
  EXPECT_EQ(shared.Value(Metric::kPeakReservedBytes),
            (kTasks - 1) * kIters + kIters - 1);
  obs::QueryProfile profile = builder.Finish(1, kTasks);
  EXPECT_EQ(profile.root.Sum(Metric::kRowsOut), kTasks * kIters);
  EXPECT_EQ(profile.root.num_tasks, kTasks);
  EXPECT_EQ(profile.root.metrics[0].min, kIters);
  EXPECT_EQ(profile.root.metrics[0].max, kIters);
}

// --- Trace spans -------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  obs::Tracer::SetEnabled(false);
  obs::Tracer::Reset();
  { obs::TraceSpan span("ignored", 1); }
  obs::Tracer::Record("also-ignored", 2, 0, 10);
  EXPECT_TRUE(obs::Tracer::Snapshot().empty());
}

TEST(TracerTest, NestedSpansRecordWithContainment) {
  obs::Tracer::SetEnabled(true);
  obs::Tracer::Reset();
  {
    obs::TraceSpan outer("outer", 1);
    {
      obs::TraceSpan inner("inner", 2);
    }
  }
  obs::Tracer::SetEnabled(false);
  std::vector<obs::TraceEvent> events = obs::Tracer::Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start: outer starts first, and the inner span nests inside.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(TracerTest, ChromeTraceJsonShape) {
  obs::Tracer::SetEnabled(true);
  obs::Tracer::Reset();
  const char* interned = obs::Tracer::InternName(std::string("morsel"));
  obs::Tracer::Record(interned, 3, 1000, 2000);
  obs::Tracer::SetEnabled(false);
  std::string json = obs::Tracer::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"morsel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
}

TEST(TracerTest, InternedNamesAreStableAcrossCopies) {
  std::string name = "operator-name";
  const char* a = obs::Tracer::InternName(name);
  name[0] = 'X';  // mutate the source string
  const char* b = obs::Tracer::InternName(std::string("operator-name"));
  EXPECT_EQ(a, b) << "same content must intern to the same pointer";
  EXPECT_STREQ(a, "operator-name");
}

// --- Profile tree assembly ---------------------------------------------------

TEST(ProfileBuilderTest, TaskShardsFoldIntoMinMaxSum) {
  obs::ProfileBuilder builder;
  int root = builder.AddNode("Agg", -1);
  int scan = builder.AddNode("Scan", root);
  builder.SetStage(root, 0);
  builder.SetStage(scan, 0);
  // Three tasks with skewed row counts.
  for (int64_t rows : {10, 20, 70}) {
    int64_t task = builder.NewTaskId();
    builder.TaskShard(scan, task)->Add(Metric::kRowsOut, rows);
    builder.TaskShard(scan, task)->SetMax(Metric::kPeakReservedBytes,
                                          rows * 8);
    builder.TaskShard(root, task)->Add(Metric::kRowsOut, 1);
  }
  obs::QueryProfile profile = builder.Finish(555, 3);
  EXPECT_EQ(profile.wall_ns, 555);
  EXPECT_EQ(profile.num_threads, 3);
  ASSERT_EQ(profile.root.children.size(), 1u);
  const obs::ProfileNode& scan_node = profile.root.children[0];
  EXPECT_EQ(scan_node.name, "Scan");
  EXPECT_EQ(scan_node.num_tasks, 3);
  EXPECT_EQ(scan_node.Sum(Metric::kRowsOut), 100);
  const obs::ProfileMetric& rows =
      scan_node.metrics[static_cast<int>(Metric::kRowsOut)];
  EXPECT_EQ(rows.min, 10);
  EXPECT_EQ(rows.max, 70);
  // Peak is max-aggregated: the skewed task's peak, not the sum.
  EXPECT_EQ(scan_node.Sum(Metric::kPeakReservedBytes), 560);
  // rows_in of the parent = children's rows_out.
  EXPECT_EQ(profile.root.rows_in, 100);
  EXPECT_EQ(profile.root.Sum(Metric::kRowsOut), 3);
}

TEST(ProfileBuilderTest, DetachedNodesLinkOnceParented) {
  obs::ProfileBuilder builder;
  int child = builder.AddNode("Filter", obs::ProfileBuilder::kDetached);
  int leaf = builder.AddNode("Scan", child);
  int root = builder.AddNode("Sort", -1);
  builder.SetParent(child, root);
  builder.TaskShard(leaf, builder.NewTaskId())->Add(Metric::kRowsOut, 5);
  obs::QueryProfile profile = builder.Finish(1, 1);
  ASSERT_EQ(profile.root.name, "Sort");
  ASSERT_EQ(profile.root.children.size(), 1u);
  ASSERT_EQ(profile.root.children[0].name, "Filter");
  ASSERT_EQ(profile.root.children[0].children.size(), 1u);
  EXPECT_EQ(profile.root.children[0].children[0].name, "Scan");
}

TEST(ProfileBuilderTest, JsonExportCarriesVocabulary) {
  obs::ProfileBuilder builder;
  int root = builder.AddNode("HashAggregate", -1);
  int64_t task = builder.NewTaskId();
  builder.TaskShard(root, task)->Add(Metric::kRowsOut, 42);
  builder.TaskShard(root, task)->Add(Metric::kBatches, 2);
  builder.TaskShard(root, task)->Add(Metric::kBatchRows, 60);
  builder.TaskShard(root, task)->Add(Metric::kWallNs, 1000);
  builder.TaskShard(root, task)->Add(Metric::kSpillBytes, 77);
  builder.TaskShard(root, task)->SetMax(Metric::kPeakReservedBytes, 4096);
  obs::QueryProfile profile = builder.Finish(2000, 4);
  profile.query = "q1";
  std::string json = profile.ToJson();
  for (const char* key :
       {"\"query\":\"q1\"", "\"wall_ns\":2000", "\"num_threads\":4",
        "\"name\":\"HashAggregate\"", "\"rows_out\":42",
        "\"peak_reserved_bytes\":4096", "\"spill_bytes\":77",
        "\"active_row_fraction\":0.7000", "\"metrics\"", "\"children\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key
                                                 << " in " << json;
  }
}

// --- End-to-end: Driver::Run profiles ---------------------------------------

Table MakeKvTable(int rows, int batch_size) {
  Schema schema(
      {Field("k", DataType::Int64()), Field("v", DataType::Int64())});
  TableBuilder builder(schema, batch_size);
  Rng rng(11);
  for (int i = 0; i < rows; i++) {
    builder.AppendRow(
        {Value::Int64(rng.Uniform(0, 9)), Value::Int64(i)});
  }
  return builder.Finish();
}

TEST(QueryProfileTest, AggregatePlanProducesPartialFinalTree) {
  Table t = MakeKvTable(20000, 512);  // 40 batches -> multiple morsels
  plan::PlanPtr p = plan::Aggregate(
      plan::Filter(plan::Scan(&t),
                   eb::Gt(eb::Col(1, DataType::Int64(), "v"),
                          eb::Lit(int64_t{100}))),
      {eb::Col(0, DataType::Int64(), "k")}, {"k"},
      {AggregateSpec{AggKind::kSum, eb::Col(1, DataType::Int64(), "v"),
                     "sv"}});
  exec::Driver driver(4);
  obs::QueryProfile profile;
  Result<Table> out = driver.Run(p, {}, nullptr, &profile);
  ASSERT_TRUE(out.ok());

  // Final <- Partial <- Filter <- TableScan, rows threading down the tree.
  const obs::ProfileNode& final_node = profile.root;
  EXPECT_EQ(final_node.name, "HashAggregateFinal");
  EXPECT_EQ(final_node.Sum(Metric::kRowsOut), out->num_rows());
  ASSERT_EQ(final_node.children.size(), 1u);
  const obs::ProfileNode& partial = final_node.children[0];
  EXPECT_EQ(partial.name, "HashAggregatePartial");
  EXPECT_GT(partial.num_tasks, 0);
  ASSERT_EQ(partial.children.size(), 1u);
  const obs::ProfileNode& filter = partial.children[0];
  EXPECT_EQ(filter.name, "Filter");
  EXPECT_EQ(filter.Sum(Metric::kRowsOut), 20000 - 101);
  ASSERT_EQ(filter.children.size(), 1u);
  const obs::ProfileNode& scan = filter.children[0];
  EXPECT_EQ(scan.name, "TableScan");
  EXPECT_EQ(scan.Sum(Metric::kRowsOut), 20000);
  EXPECT_EQ(filter.rows_in, 20000);
  // The filter's batches stay full-width; its active-row fraction reflects
  // the rows it passed.
  EXPECT_GT(filter.Sum(Metric::kBatchRows), 0);
  EXPECT_LT(filter.ActiveRowFraction(), 1.0);
  // Stages assigned: partial stage differs from the final-merge stage.
  EXPECT_GE(partial.stage_id, 0);
  EXPECT_GE(final_node.stage_id, 0);
  EXPECT_NE(partial.stage_id, final_node.stage_id);
  EXPECT_GT(profile.wall_ns, 0);
  EXPECT_EQ(profile.num_threads, 4);
}

TEST(QueryProfileTest, JoinBuildIsItsOwnStageUnderTheJoin) {
  Table probe = MakeKvTable(6000, 256);
  Table build = MakeKvTable(5000, 256);  // 20 batches -> 3 build morsels
  plan::PlanPtr p = plan::Join(
      plan::Scan(&probe),
      plan::Filter(plan::Scan(&build),
                   eb::Lt(eb::Col(1, DataType::Int64(), "v"),
                          eb::Lit(int64_t{4000}))),
      JoinType::kLeftSemi, {eb::Col(0, DataType::Int64(), "k")},
      {eb::Col(0, DataType::Int64(), "k")});
  exec::Driver driver(4);
  std::vector<exec::StageInfo> stages;
  obs::QueryProfile profile;
  Result<Table> out = driver.Run(p, {}, &stages, &profile);
  ASSERT_TRUE(out.ok());

  // HashJoin <- [TableScan (probe chain), HashJoinBuild <- Filter <- scan].
  const obs::ProfileNode& join = profile.root;
  EXPECT_EQ(join.name, "HashJoin");
  ASSERT_EQ(join.children.size(), 2u);
  EXPECT_EQ(join.children[0].name, "TableScan");
  const obs::ProfileNode& build_node = join.children[1];
  EXPECT_EQ(build_node.name, "HashJoinBuild");
  EXPECT_EQ(build_node.Sum(Metric::kRowsOut), 4000);  // rows hashed
  EXPECT_EQ(build_node.rows_in, 4000);
  EXPECT_GT(build_node.Sum(Metric::kWallNs), 0);
  EXPECT_GT(build_node.num_tasks, 0);
  ASSERT_EQ(build_node.children.size(), 1u);
  EXPECT_EQ(build_node.children[0].name, "Filter");

  // Stages complete in order: the build side's scan, the build, the probe.
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(build_node.stage_id, stages[1].stage_id);
  EXPECT_EQ(build_node.children[0].stage_id, stages[0].stage_id);
  EXPECT_EQ(join.stage_id, stages[2].stage_id);
  // Both build phases run on the workers: 3 hash morsels, then 16 table
  // partitions.
  EXPECT_EQ(stages[1].num_tasks, 4);
  EXPECT_EQ(stages[1].rows_out(), 4000);
  EXPECT_GT(stages[1].wall_ns(), 0);
  EXPECT_GT(stages[1].m[Metric::kPeakReservedBytes], 0);
}

/// Per-node (name, rows_out, batches, child-shape) fingerprint, excluding
/// wall/cpu/memory, which legitimately vary run to run.
void ExpectSameFlowProfile(const obs::ProfileNode& a,
                           const obs::ProfileNode& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.Sum(Metric::kRowsOut), b.Sum(Metric::kRowsOut))
      << "node " << a.name;
  EXPECT_EQ(a.Sum(Metric::kBatches), b.Sum(Metric::kBatches))
      << "node " << a.name;
  EXPECT_EQ(a.Sum(Metric::kBatchRows), b.Sum(Metric::kBatchRows))
      << "node " << a.name;
  EXPECT_EQ(a.rows_in, b.rows_in) << "node " << a.name;
  ASSERT_EQ(a.children.size(), b.children.size()) << "node " << a.name;
  for (size_t i = 0; i < a.children.size(); i++) {
    ExpectSameFlowProfile(a.children[i], b.children[i]);
  }
}

/// Satellite regression: the profile's flow counters are a function of the
/// plan and input only — 1 thread and 8 threads must report identical
/// rows/batches on every node (wall time excluded by construction).
TEST(QueryProfileTest, FlowCountersIdenticalAcrossThreadCounts) {
  constexpr double kScale = 0.002;
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kScale));
  for (int q : {1, 3, 6, 18}) {
    Result<plan::PlanPtr> p = tpch::TpchQuery(q, *data, kScale);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    exec::Driver one(1);
    exec::Driver eight(8);
    obs::QueryProfile profile1;
    obs::QueryProfile profile8;
    Result<Table> out1 = one.Run(*p, {}, nullptr, &profile1);
    Result<Table> out8 = eight.Run(*p, {}, nullptr, &profile8);
    ASSERT_TRUE(out1.ok()) << "q" << q;
    ASSERT_TRUE(out8.ok()) << "q" << q;
    SCOPED_TRACE("q" + std::to_string(q));
    ExpectSameFlowProfile(profile1.root, profile8.root);
  }
}

TEST(QueryProfileTest, AllTpchPlansEmitProfiles) {
  constexpr double kScale = 0.002;
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kScale));
  exec::Driver driver(4);
  for (int q = 1; q <= 22; q++) {
    Result<plan::PlanPtr> p = tpch::TpchQuery(q, *data, kScale);
    ASSERT_TRUE(p.ok()) << "q" << q << ": " << p.status().ToString();
    std::vector<exec::StageInfo> stages;
    obs::QueryProfile profile;
    Result<Table> out = driver.Run(*p, {}, &stages, &profile);
    ASSERT_TRUE(out.ok()) << "q" << q << ": " << out.status().ToString();
    // The root operator's rows are the query result's rows, and the stage
    // list agrees with the profile's flow totals.
    EXPECT_EQ(profile.root.Sum(Metric::kRowsOut), out->num_rows())
        << "q" << q << " root=" << profile.root.name;
    EXPECT_GT(profile.wall_ns, 0) << "q" << q;
    ASSERT_FALSE(stages.empty()) << "q" << q;
    for (const exec::StageInfo& s : stages) {
      EXPECT_GT(s.num_tasks, 0) << "q" << q;
      EXPECT_GT(s.wall_ns(), 0) << "q" << q;
    }
    std::string json = profile.ToJson();
    EXPECT_NE(json.find("\"rows_out\""), std::string::npos) << "q" << q;
    EXPECT_NE(json.find("\"wall_ns\""), std::string::npos) << "q" << q;
  }
}

TEST(QueryProfileTest, ProfileAndTraceFilesAreWritten) {
  Table t = MakeKvTable(5000, 256);
  plan::PlanPtr p = plan::Aggregate(
      plan::Scan(&t), {eb::Col(0, DataType::Int64(), "k")}, {"k"},
      {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  exec::Driver driver(4);
  obs::Tracer::SetEnabled(true);
  obs::Tracer::Reset();
  obs::QueryProfile profile;
  Result<Table> out = driver.Run(p, {}, nullptr, &profile);
  obs::Tracer::SetEnabled(false);
  ASSERT_TRUE(out.ok());

  // Span capture saw the driver's instrumentation points.
  std::vector<obs::TraceEvent> events = obs::Tracer::Snapshot();
  bool saw_morsel = false, saw_operator = false;
  for (const obs::TraceEvent& ev : events) {
    if (std::string(ev.name) == "morsel") saw_morsel = true;
    if (std::string(ev.name) == "PhotonHashAggregate") saw_operator = true;
  }
  EXPECT_TRUE(saw_morsel);
  EXPECT_TRUE(saw_operator);

  std::string dir = ::testing::TempDir();
  std::string profile_path = dir + "/photon_profile.json";
  std::string trace_path = dir + "/photon_trace.json";
  ASSERT_TRUE(profile.WriteJson(profile_path));
  ASSERT_TRUE(obs::Tracer::WriteChromeTrace(trace_path));
  for (const std::string& path : {profile_path, trace_path}) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << path;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 2) << path;
    std::fclose(f);
  }
  std::remove(profile_path.c_str());
  std::remove(trace_path.c_str());
}

}  // namespace
}  // namespace photon
