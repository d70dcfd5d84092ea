// Concurrency tests for the writable lakehouse: the optimistic commit
// protocol (no lost commits, exactly one winner per log version), DML
// conflict-retry convergence, compaction racing writers, and time-travel
// reads staying pinned across DML history. The interesting assertions run
// multi-threaded — this test is on the TSan verify line (ROADMAP.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "exec/compactor.h"
#include "exec/dml.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "service/query_service.h"
#include "storage/delta.h"
#include "storage/object_store.h"

namespace photon {
namespace {

using eb::Col;
using eb::Lit;

Schema KvSchema() {
  return Schema({Field("id", DataType::Int64()),
                 Field("val", DataType::Int64())});
}

Table KvTable(int64_t begin, int64_t end, int64_t val_bias = 0) {
  TableBuilder builder(KvSchema());
  for (int64_t i = begin; i < end; i++) {
    builder.AppendRow({Value::Int64(i), Value::Int64(i + val_bias)});
  }
  return builder.Finish();
}

ExprPtr IdCol() { return Col(0, DataType::Int64(), "id"); }
ExprPtr ValCol() { return Col(1, DataType::Int64(), "val"); }

/// Sorted (id, val) pairs of the table at `version` (-1 = latest).
std::vector<std::pair<int64_t, int64_t>> ScanRows(DeltaTable* table,
                                                  exec::Driver* driver,
                                                  int64_t version = -1) {
  auto snapshot = table->Snapshot(version);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto result = driver->Run(
      plan::DeltaScan(table->store(), *std::move(snapshot)));
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (const std::vector<Value>& row : result->ToRows()) {
    rows.emplace_back(row[0].i64(), row[1].i64());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Every data-file key referenced by any committed version. After all
/// writers finish, the store must hold exactly these keys under data/ —
/// anything extra is a staged file some aborted transaction leaked.
std::set<std::string> CommittedDataKeys(DeltaTable* table) {
  std::set<std::string> keys;
  auto latest = table->LatestVersion();
  EXPECT_TRUE(latest.ok());
  for (int64_t v = 0; v <= *latest; v++) {
    auto snap = table->Snapshot(v);
    EXPECT_TRUE(snap.ok());
    for (const DeltaFileEntry& f : snap->files) keys.insert(f.key);
  }
  return keys;
}

void ExpectNoLeakedDataFiles(ObjectStore* store, DeltaTable* table) {
  std::set<std::string> committed = CommittedDataKeys(table);
  for (const std::string& key : store->List(table->path() + "/data/")) {
    EXPECT_TRUE(committed.count(key)) << "leaked staged file: " << key;
  }
}

// --- Commit protocol ---------------------------------------------------------

TEST(DeltaCommitTest, CreateRaceHasExactlyOneWinner) {
  ObjectStore store;
  constexpr int kThreads = 8;
  std::atomic<int> winners{0};
  std::atomic<int> losers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      auto table = DeltaTable::Create(&store, "tables/race", KvSchema());
      if (table.ok()) {
        winners.fetch_add(1);
      } else {
        EXPECT_TRUE(table.status().IsInvalidArgument())
            << table.status().ToString();
        losers.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(losers.load(), kThreads - 1);
  // The winner's table is intact and writable.
  auto table = DeltaTable::Open(&store, "tables/race");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->Append(KvTable(0, 10)).ok());
}

TEST(DeltaCommitTest, AppendSchemaMismatchIsInvalidArgument) {
  ObjectStore store;
  auto table = DeltaTable::Create(&store, "tables/schema", KvSchema());
  ASSERT_TRUE(table.ok());
  TableBuilder builder(Schema({Field("other", DataType::Int32())}));
  builder.AppendRow({Value::Int32(1)});
  Table wrong = builder.Finish();
  auto version = (*table)->Append(wrong);
  ASSERT_FALSE(version.ok());
  EXPECT_TRUE(version.status().IsInvalidArgument())
      << version.status().ToString();
}

TEST(DeltaCommitTest, ConcurrentAppendsLoseNoCommits) {
  ObjectStore store;
  ASSERT_TRUE(DeltaTable::Create(&store, "tables/appends", KvSchema()).ok());
  constexpr int kThreads = 8;
  constexpr int kAppendsEach = 4;
  constexpr int kRowsEach = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Separate handle per thread: commits race across handles too.
      auto table = DeltaTable::Open(&store, "tables/appends");
      ASSERT_TRUE(table.ok());
      for (int a = 0; a < kAppendsEach; a++) {
        int64_t base = (t * kAppendsEach + a) * kRowsEach;
        auto version = (*table)->Append(KvTable(base, base + kRowsEach));
        ASSERT_TRUE(version.ok()) << version.status().ToString();
      }
    });
  }
  for (auto& t : threads) t.join();

  auto table = DeltaTable::Open(&store, "tables/appends");
  ASSERT_TRUE(table.ok());
  // Exactly one commit per version: the log is contiguous and every
  // append landed (the lost-commit bug dropped versions silently).
  auto latest = (*table)->LatestVersion();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, kThreads * kAppendsEach);
  auto snapshot = (*table)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->num_rows(), kThreads * kAppendsEach * kRowsEach);
  // Row counts grow monotonically version to version (each append +10).
  for (int64_t v = 1; v <= *latest; v++) {
    auto s = (*table)->Snapshot(v);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->num_rows(), v * kRowsEach);
  }
}

TEST(DeltaCommitTest, RacingRewritesOfOneFileHaveOneWinner) {
  ObjectStore store;
  auto created = DeltaTable::Create(&store, "tables/rw", KvSchema());
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*created)->Append(KvTable(0, 100)).ok());
  auto snapshot = (*created)->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  const std::string key = snapshot->files[0].key;

  constexpr int kThreads = 6;
  std::atomic<int> winners{0};
  std::atomic<int> conflicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto table = DeltaTable::Open(&store, "tables/rw");
      ASSERT_TRUE(table.ok());
      auto version = (*table)->Rewrite({key}, KvTable(0, 100, 1000 + t));
      if (version.ok()) {
        winners.fetch_add(1);
      } else {
        EXPECT_TRUE(version.status().IsCommitConflict())
            << version.status().ToString();
        conflicts.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // remove/remove: exactly one rewrite of the same file can win.
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(conflicts.load(), kThreads - 1);
  auto table = DeltaTable::Open(&store, "tables/rw");
  ASSERT_TRUE(table.ok());
  ExpectNoLeakedDataFiles(&store, table->get());
}

// --- DML semantics -----------------------------------------------------------

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto created = DeltaTable::Create(&store_, "tables/dml", KvSchema());
    ASSERT_TRUE(created.ok());
    table_ = std::move(*created);
  }

  ObjectStore store_;
  std::unique_ptr<DeltaTable> table_;
  exec::Driver driver_{2};
  ExecContext ctx_;
};

TEST_F(DmlTest, DeleteRewritesOnlyMatchingFiles) {
  ASSERT_TRUE(table_->Append(KvTable(0, 100)).ok());
  ASSERT_TRUE(table_->Append(KvTable(100, 200)).ok());
  ASSERT_TRUE(table_->Append(KvTable(200, 300)).ok());

  auto result = dml::ExecuteDelete(table_.get(),
                                   eb::Lt(IdCol(), Lit(int64_t{50})),
                                   &driver_, ctx_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 50);
  EXPECT_EQ(result->files_rewritten, 1);
  // Zone maps prove files 2 and 3 hold no id < 50.
  EXPECT_EQ(result->files_pruned, 2);
  EXPECT_EQ(result->version, 4);

  auto rows = ScanRows(table_.get(), &driver_);
  ASSERT_EQ(rows.size(), 250u);
  EXPECT_EQ(rows.front().first, 50);
  EXPECT_EQ(rows.back().first, 299);
  ExpectNoLeakedDataFiles(&store_, table_.get());
}

TEST_F(DmlTest, DeleteMatchingNothingCommitsNothing) {
  ASSERT_TRUE(table_->Append(KvTable(0, 100)).ok());
  auto result = dml::ExecuteDelete(table_.get(),
                                   eb::Gt(IdCol(), Lit(int64_t{1000})),
                                   &driver_, ctx_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 0);
  EXPECT_EQ(result->version, 1);  // snapshot version, no new commit
  auto latest = table_->LatestVersion();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 1);
}

TEST_F(DmlTest, DeleteOfEveryRowInAFileDropsTheFile) {
  ASSERT_TRUE(table_->Append(KvTable(0, 50)).ok());
  ASSERT_TRUE(table_->Append(KvTable(50, 100)).ok());
  auto result = dml::ExecuteDelete(table_.get(),
                                   eb::Lt(IdCol(), Lit(int64_t{50})),
                                   &driver_, ctx_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 50);
  auto snapshot = table_->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  // The emptied file is removed without a replacement add.
  EXPECT_EQ(snapshot->files.size(), 1u);
  EXPECT_EQ(snapshot->num_rows(), 50);
}

TEST_F(DmlTest, UpdateAppliesAssignmentsToMatchedRowsOnly) {
  ASSERT_TRUE(table_->Append(KvTable(0, 100)).ok());
  // UPDATE dml SET val = val + 1000 WHERE id >= 90
  std::vector<dml::UpdateAssignment> set;
  set.push_back({1, eb::Add(ValCol(), Lit(int64_t{1000}))});
  auto result = dml::ExecuteUpdate(table_.get(), set,
                                   eb::Ge(IdCol(), Lit(int64_t{90})),
                                   &driver_, ctx_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 10);
  EXPECT_EQ(result->files_rewritten, 1);

  auto rows = ScanRows(table_.get(), &driver_);
  ASSERT_EQ(rows.size(), 100u);
  for (const auto& [id, val] : rows) {
    EXPECT_EQ(val, id >= 90 ? id + 1000 : id) << "id " << id;
  }
}

TEST_F(DmlTest, UnqualifiedUpdateTouchesEveryRow) {
  ASSERT_TRUE(table_->Append(KvTable(0, 30)).ok());
  ASSERT_TRUE(table_->Append(KvTable(30, 60)).ok());
  std::vector<dml::UpdateAssignment> set;
  set.push_back({1, Lit(int64_t{7})});
  auto result = dml::ExecuteUpdate(table_.get(), set, nullptr, &driver_,
                                   ctx_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows_affected, 60);
  EXPECT_EQ(result->files_rewritten, 2);
  for (const auto& [id, val] : ScanRows(table_.get(), &driver_)) {
    EXPECT_EQ(val, 7) << "id " << id;
  }
}

TEST_F(DmlTest, MergeUpdatesMatchesAndInsertsRest) {
  ASSERT_TRUE(table_->Append(KvTable(0, 50)).ok());
  ASSERT_TRUE(table_->Append(KvTable(50, 100)).ok());
  // Source: ids 90..110 → 10 matched (90..99), 10 inserted (100..109),
  // all with val = id + 5000.
  Table source = KvTable(90, 110, 5000);

  dml::MergeSpec spec;
  spec.source = plan::Scan(&source);
  spec.target_keys = {0};
  spec.source_keys = {0};
  // WHEN MATCHED THEN UPDATE SET val = source.val: exprs over
  // [target id, target val, source id, source val].
  spec.matched_exprs = {Col(0, DataType::Int64(), "id"),
                        Col(3, DataType::Int64(), "val")};
  // WHEN NOT MATCHED THEN INSERT (id, val) VALUES (s.id, s.val): over the
  // source columns.
  spec.insert_exprs = {Col(0, DataType::Int64(), "id"),
                       Col(1, DataType::Int64(), "val")};
  auto result = dml::ExecuteMerge(table_.get(), spec, &driver_, ctx_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_affected, 10);
  EXPECT_EQ(result->rows_inserted, 10);
  EXPECT_EQ(result->files_rewritten, 1);  // only the 50..100 file matched

  auto rows = ScanRows(table_.get(), &driver_);
  ASSERT_EQ(rows.size(), 110u);
  for (const auto& [id, val] : rows) {
    EXPECT_EQ(val, id >= 90 ? id + 5000 : id) << "id " << id;
  }
  ExpectNoLeakedDataFiles(&store_, table_.get());
}

TEST_F(DmlTest, CancelledDmlStagesNothing) {
  ASSERT_TRUE(table_->Append(KvTable(0, 100)).ok());
  QueryControl control;
  control.Cancel();
  ExecContext ctx = ctx_;
  ctx.control = &control;
  auto result = dml::ExecuteDelete(table_.get(),
                                   eb::Lt(IdCol(), Lit(int64_t{50})),
                                   &driver_, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  auto latest = table_->LatestVersion();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(*latest, 1);  // nothing committed
  ExpectNoLeakedDataFiles(&store_, table_.get());
}

TEST_F(DmlTest, FailedStagingWriteReleasesAndSurfacesError) {
  ASSERT_TRUE(table_->Append(KvTable(0, 100)).ok());
  store_.FailNextPuts(1);
  auto result = dml::ExecuteDelete(table_.get(),
                                   eb::Lt(IdCol(), Lit(int64_t{50})),
                                   &driver_, ctx_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError()) << result.status().ToString();
  ExpectNoLeakedDataFiles(&store_, table_.get());
}

// --- Conflict retry convergence ---------------------------------------------

TEST(DeltaDmlRaceTest, DisjointDeletesAllConvergeUnderRetry) {
  ObjectStore store;
  {
    auto created = DeltaTable::Create(&store, "tables/deletes", KvSchema());
    ASSERT_TRUE(created.ok());
    // One wide file every DELETE touches: every pair of deletes conflicts
    // (remove/remove) and must converge through retries.
    ASSERT_TRUE((*created)->Append(KvTable(0, 400)).ok());
  }
  constexpr int kThreads = 4;
  std::atomic<int64_t> retries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto table = DeltaTable::Open(&store, "tables/deletes");
      ASSERT_TRUE(table.ok());
      exec::Driver driver(1);
      // DELETE WHERE id in [t*100, t*100+50): disjoint row ranges, same
      // physical file.
      ExprPtr pred = eb::And(eb::Ge(IdCol(), Lit(int64_t{t * 100})),
                             eb::Lt(IdCol(), Lit(int64_t{t * 100 + 50})));
      dml::DmlOptions options;
      options.max_retries = 32;
      auto result =
          dml::ExecuteDelete(table->get(), pred, &driver,
                             ExecContext{}, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->rows_affected, 50);
      retries.fetch_add(result->conflicts_retried);
    });
  }
  for (auto& t : threads) t.join();

  auto table = DeltaTable::Open(&store, "tables/deletes");
  ASSERT_TRUE(table.ok());
  exec::Driver driver(1);
  auto rows = ScanRows(table->get(), &driver);
  ASSERT_EQ(rows.size(), 200u);
  for (const auto& [id, val] : rows) {
    EXPECT_GE(id % 100, 50) << "id " << id << " should have been deleted";
  }
  ExpectNoLeakedDataFiles(&store, table->get());
}

// --- Compaction --------------------------------------------------------------

TEST(CompactorTest, CoalescesSmallFilesWithoutChangingRows) {
  ObjectStore store;
  auto created = DeltaTable::Create(&store, "tables/compact", KvSchema());
  ASSERT_TRUE(created.ok());
  DeltaTable* table = created->get();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(table->Append(KvTable(i * 10, (i + 1) * 10)).ok());
  }
  exec::Driver driver(1);
  auto before = ScanRows(table, &driver);

  exec::Compactor::Options options;
  options.small_file_rows = 100;
  options.target_file_rows = 40;
  exec::Compactor compactor(table, options);
  ASSERT_TRUE(compactor.RunOncePass().ok());

  auto snapshot = table->Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(snapshot->files.size(), 2u);  // 8 × 10 rows → 2 × 40 rows
  EXPECT_EQ(ScanRows(table, &driver), before);
  EXPECT_EQ(compactor.stats().commits, 2);
  EXPECT_EQ(compactor.stats().files_compacted, 8);
}

TEST(CompactorTest, BackgroundCompactionCoexistsWithWriters) {
  ObjectStore store;
  ASSERT_TRUE(DeltaTable::Create(&store, "tables/bg", KvSchema()).ok());
  auto handle = DeltaTable::Open(&store, "tables/bg");
  ASSERT_TRUE(handle.ok());

  exec::Compactor::Options options;
  options.small_file_rows = 1000;
  options.target_file_rows = 200;
  options.interval_ms = 1;
  exec::Compactor compactor(handle->get(), options);
  compactor.Start();

  constexpr int kThreads = 4;
  constexpr int kAppendsEach = 8;
  constexpr int kRows = 10;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      auto table = DeltaTable::Open(&store, "tables/bg");
      ASSERT_TRUE(table.ok());
      for (int a = 0; a < kAppendsEach; a++) {
        int64_t base = (t * kAppendsEach + a) * kRows;
        ASSERT_TRUE((*table)->Append(KvTable(base, base + kRows)).ok());
      }
    });
  }
  for (auto& t : writers) t.join();
  // A few more passes so the tail of small files coalesces too.
  ASSERT_TRUE(compactor.RunOncePass().ok());
  compactor.Stop();

  exec::Driver driver(1);
  auto rows = ScanRows(handle->get(), &driver);
  ASSERT_EQ(rows.size(),
            static_cast<size_t>(kThreads * kAppendsEach * kRows));
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i].first, static_cast<int64_t>(i));
  }
  ExpectNoLeakedDataFiles(&store, handle->get());
}

// --- Time travel across DML history ------------------------------------------

TEST(DeltaTimeTravelTest, VersionsStayPinnedAcrossDmlHistory) {
  ObjectStore store;
  auto created = DeltaTable::Create(&store, "tables/tt", KvSchema());
  ASSERT_TRUE(created.ok());
  DeltaTable* table = created->get();
  exec::Driver driver(2);
  ExecContext ctx;

  // Build a history: append, append, delete, update, merge — recording
  // the full table contents at every committed version.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> history;
  auto record = [&] { history.push_back(ScanRows(table, &driver)); };

  ASSERT_TRUE(table->Append(KvTable(0, 50)).ok());
  record();
  ASSERT_TRUE(table->Append(KvTable(50, 100)).ok());
  record();
  ASSERT_TRUE(dml::ExecuteDelete(table, eb::Lt(IdCol(), Lit(int64_t{10})),
                                 &driver, ctx)
                  .ok());
  record();
  std::vector<dml::UpdateAssignment> set;
  set.push_back({1, eb::Mul(ValCol(), Lit(int64_t{2}))});
  ASSERT_TRUE(dml::ExecuteUpdate(table, set,
                                 eb::Ge(IdCol(), Lit(int64_t{95})), &driver,
                                 ctx)
                  .ok());
  record();
  Table source = KvTable(98, 105, 9000);
  dml::MergeSpec spec;
  spec.source = plan::Scan(&source);
  spec.target_keys = {0};
  spec.source_keys = {0};
  spec.matched_exprs = {Col(0, DataType::Int64(), "id"),
                        Col(3, DataType::Int64(), "val")};
  spec.insert_exprs = {Col(0, DataType::Int64(), "id"),
                       Col(1, DataType::Int64(), "val")};
  ASSERT_TRUE(dml::ExecuteMerge(table, spec, &driver, ctx).ok());
  record();

  // Every recorded version still reads exactly what it read then.
  auto latest = table->LatestVersion();
  ASSERT_TRUE(latest.ok());
  ASSERT_EQ(*latest, static_cast<int64_t>(history.size()));
  for (size_t i = 0; i < history.size(); i++) {
    EXPECT_EQ(ScanRows(table, &driver, static_cast<int64_t>(i + 1)),
              history[i])
        << "version " << (i + 1) << " drifted";
  }
}

// --- DML through the query service -------------------------------------------

TEST(ServiceWriteTest, DmlRunsAsWriteSessionWithCancellation) {
  ObjectStore store;
  auto created = DeltaTable::Create(&store, "tables/svc", KvSchema());
  ASSERT_TRUE(created.ok());
  DeltaTable* table = created->get();
  ASSERT_TRUE(table->Append(KvTable(0, 100)).ok());

  service::QueryService svc;
  auto session = svc.SubmitWrite(
      [table](exec::Driver* driver, const ExecContext& ctx)
          -> Result<Table> {
        PHOTON_ASSIGN_OR_RETURN(
            dml::DmlResult result,
            dml::ExecuteDelete(table, eb::Lt(IdCol(), Lit(int64_t{20})),
                               driver, ctx));
        TableBuilder out(Schema({Field("rows_affected",
                                       DataType::Int64())}));
        out.AppendRow({Value::Int64(result.rows_affected)});
        return out.Finish();
      });
  ASSERT_TRUE(session->Wait().ok());
  EXPECT_EQ(session->table().ToRows()[0][0].i64(), 20);

  // A cancelled write session unwinds without committing or leaking.
  auto cancelled = svc.SubmitWrite(
      [table](exec::Driver* driver, const ExecContext& ctx)
          -> Result<Table> {
        PHOTON_ASSIGN_OR_RETURN(
            dml::DmlResult result,
            dml::ExecuteDelete(table, eb::Ge(IdCol(), Lit(int64_t{50})),
                               driver, ctx));
        (void)result;
        return Table(Schema());
      },
      [] {
        service::SessionOptions o;
        o.deadline_ms = 0;  // expires immediately
        return o;
      }());
  Status status = cancelled->Wait();
  if (!status.ok()) {
    EXPECT_TRUE(status.IsCancelled() || status.IsDeadlineExceeded())
        << status.ToString();
  }
  svc.Drain();
  ExpectNoLeakedDataFiles(&store, table);
}

}  // namespace
}  // namespace photon
