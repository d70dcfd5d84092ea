// Tests for the multi-tenant query service (src/service/): fair
// cross-query task scheduling, FIFO-with-priority admission control,
// cooperative cancellation and deadlines, and resource cleanup —
// cancelled or failed sessions must leak no memory reservations, no
// spill artifacts, and no cache pins. Run under TSan (see ROADMAP.md):
// every concurrent path here is exercised with real thread interleaving.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/macros.h"
#include "common/rng.h"
#include "exec/driver.h"
#include "exec/task_scheduler.h"
#include "expr/builder.h"
#include "io/block_cache.h"
#include "memory/memory_manager.h"
#include "plan/logical_plan.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "storage/delta.h"
#include "storage/object_store.h"

namespace photon {
namespace {

using service::AdmissionController;
using service::AdmissionOptions;
using service::QueryService;
using service::QuerySession;
using service::ServiceOptions;
using service::SessionOptions;
using service::SessionState;

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

// --- TaskScheduler ----------------------------------------------------------

TEST(TaskSchedulerTest, RoundRobinAcrossQueries) {
  // One worker so execution order is exactly claim order. A blocker task
  // holds the worker while both queries' backlogs are enqueued; the claim
  // order afterwards must alternate between the queries even though q1
  // enqueued its whole backlog first.
  exec::TaskScheduler sched(1);
  int64_t q1 = sched.RegisterQuery();
  int64_t q2 = sched.RegisterQuery();

  std::mutex mu;
  std::vector<std::string> order;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto record = [&](const char* tag) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(tag);
  };

  std::vector<std::future<void>> futures;
  futures.push_back(sched.Submit(q1, [&, opened] {
    opened.wait();
    record("q1.a");
  }));
  futures.push_back(sched.Submit(q1, [&] { record("q1.b"); }));
  futures.push_back(sched.Submit(q1, [&] { record("q1.c"); }));
  futures.push_back(sched.Submit(q2, [&] { record("q2.a"); }));
  futures.push_back(sched.Submit(q2, [&] { record("q2.b"); }));
  gate.set_value();
  for (auto& f : futures) f.get();

  // After q1.a the cursor moves past q1, so q2 gets every other slot
  // despite its later enqueue: no starvation behind q1's backlog.
  std::vector<std::string> expected = {"q1.a", "q2.a", "q1.b", "q2.b",
                                       "q1.c"};
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.tasks_executed(), 5);

  sched.UnregisterQuery(q1);
  sched.UnregisterQuery(q2);
}

TEST(TaskSchedulerTest, ManyQueriesManyWorkers) {
  exec::TaskScheduler sched(4);
  constexpr int kQueries = 6;
  constexpr int kTasksPer = 50;
  std::vector<int64_t> ids;
  for (int q = 0; q < kQueries; q++) ids.push_back(sched.RegisterQuery());

  std::atomic<int64_t> sum{0};
  std::vector<std::future<void>> futures;
  for (int q = 0; q < kQueries; q++) {
    for (int t = 0; t < kTasksPer; t++) {
      futures.push_back(sched.Submit(
          ids[q], [&sum, q, t] { sum.fetch_add(q * 1000 + t); }));
    }
  }
  for (auto& f : futures) f.get();
  int64_t expected = 0;
  for (int q = 0; q < kQueries; q++) {
    for (int t = 0; t < kTasksPer; t++) expected += q * 1000 + t;
  }
  EXPECT_EQ(sum.load(), expected);
  for (int64_t id : ids) sched.UnregisterQuery(id);
}

// --- AdmissionController ----------------------------------------------------

TEST(AdmissionTest, OversizeRejectedImmediately) {
  AdmissionOptions opts;
  opts.max_running = 2;
  opts.memory_budget_bytes = 100;
  AdmissionController adm(opts);
  Status s = adm.Admit(101, 0, nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(adm.rejected_total(), 1);
  EXPECT_EQ(adm.queued(), 0);
}

TEST(AdmissionTest, MemoryCapQueuesSecondQuery) {
  AdmissionOptions opts;
  opts.max_running = 8;  // memory, not slots, is the binding constraint
  opts.memory_budget_bytes = 100;
  AdmissionController adm(opts);
  ASSERT_TRUE(adm.Admit(60, 0, nullptr).ok());

  std::atomic<bool> second_in{false};
  std::thread t([&] {
    ASSERT_TRUE(adm.Admit(60, 0, nullptr).ok());
    second_in.store(true);
    adm.Release(60);
  });
  while (adm.queued() == 0) std::this_thread::yield();
  EXPECT_FALSE(second_in.load());
  EXPECT_EQ(adm.running(), 1);
  adm.Release(60);
  t.join();
  EXPECT_TRUE(second_in.load());
  EXPECT_EQ(adm.running(), 0);
  EXPECT_EQ(adm.reserved_bytes(), 0);
  EXPECT_GE(adm.waited_total(), 1);
}

TEST(AdmissionTest, PriorityOrdersQueueFifoWithinBand) {
  AdmissionOptions opts;
  opts.max_running = 1;
  opts.memory_budget_bytes = 1000;
  AdmissionController adm(opts);
  ASSERT_TRUE(adm.Admit(10, 0, nullptr).ok());  // occupy the only slot

  std::mutex mu;
  std::vector<std::string> admit_order;
  auto admit_and_hold = [&](const char* tag, int priority) {
    ASSERT_TRUE(adm.Admit(10, priority, nullptr).ok());
    {
      std::lock_guard<std::mutex> lock(mu);
      admit_order.push_back(tag);
    }
    adm.Release(10);
  };

  // Queue low-priority first, then high, then another low; admit order
  // must be high, low1, low2 (priority first, FIFO within a band).
  std::thread low1([&] { admit_and_hold("low1", 0); });
  while (adm.queued() < 1) std::this_thread::yield();
  std::thread high([&] { admit_and_hold("high", 5); });
  while (adm.queued() < 2) std::this_thread::yield();
  std::thread low2([&] { admit_and_hold("low2", 0); });
  while (adm.queued() < 3) std::this_thread::yield();

  adm.Release(10);  // free the slot; the queue drains one at a time
  low1.join();
  high.join();
  low2.join();
  std::vector<std::string> expected = {"high", "low1", "low2"};
  EXPECT_EQ(admit_order, expected);
  EXPECT_EQ(adm.admitted_total(), 4);
}

TEST(AdmissionTest, CancelWhileQueued) {
  AdmissionOptions opts;
  opts.max_running = 1;
  opts.memory_budget_bytes = 1000;
  AdmissionController adm(opts);
  ASSERT_TRUE(adm.Admit(10, 0, nullptr).ok());

  QueryControl control;
  std::thread t([&] {
    Status s = adm.Admit(10, 0, &control);
    EXPECT_TRUE(s.IsCancelled()) << s.ToString();
  });
  while (adm.queued() == 0) std::this_thread::yield();
  control.Cancel();
  t.join();
  EXPECT_EQ(adm.queued(), 0);  // cancelled waiter left the queue
  adm.Release(10);
  EXPECT_EQ(adm.running(), 0);
}

TEST(AdmissionTest, DeadlineWhileQueued) {
  AdmissionOptions opts;
  opts.max_running = 1;
  opts.memory_budget_bytes = 1000;
  AdmissionController adm(opts);
  ASSERT_TRUE(adm.Admit(10, 0, nullptr).ok());

  QueryControl control;
  control.SetDeadlineAfterMs(20);
  Status s = adm.Admit(10, 0, &control);  // never admitted: slot is held
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  adm.Release(10);
}

// --- QueryService: correct results under concurrency ------------------------

TEST(QueryServiceTest, ConcurrentSessionsMatchSerialReference) {
  Table table = MakeTable(20000, 512);
  // More sessions than running slots, mixed plan shapes, tiny-ish memory:
  // queueing, fair scheduling and spilling all engage at once.
  std::vector<plan::PlanPtr> plans = {
      plan::Aggregate(plan::Scan(&table), {ColK()}, {"k"},
                      {AggregateSpec{AggKind::kSum, ColV(), "sv"},
                       AggregateSpec{AggKind::kCountStar, nullptr, "n"}}),
      plan::Sort(plan::Filter(plan::Scan(&table),
                              eb::Lt(ColV(), eb::Lit(int64_t{5000}))),
                 {SortKey{ColV(), /*ascending=*/false}}),
      plan::Aggregate(plan::Scan(&table), {}, {},
                      {AggregateSpec{AggKind::kMin, ColV(), "mn"},
                       AggregateSpec{AggKind::kMax, ColV(), "mx"}}),
      plan::Limit(plan::Sort(plan::Scan(&table), {SortKey{ColV(), true}}),
                  100),
  };

  // Serial references, one worker.
  std::vector<Table> expected;
  for (const auto& p : plans) {
    exec::Driver reference(1);
    Result<Table> r = reference.Run(p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(*r));
  }

  ServiceOptions options;
  options.worker_threads = 4;
  options.max_concurrent_queries = 2;
  options.memory_limit_bytes = 64LL << 20;
  QueryService svc(options);
  std::vector<std::shared_ptr<QuerySession>> sessions;
  for (int rep = 0; rep < 3; rep++) {
    for (size_t i = 0; i < plans.size(); i++) {
      SessionOptions so;
      so.memory_bytes = 8LL << 20;
      sessions.push_back(svc.Submit(plans[i], so));
    }
  }
  for (size_t s = 0; s < sessions.size(); s++) {
    Status st = sessions[s]->Wait();
    ASSERT_TRUE(st.ok()) << "session " << s << ": " << st.ToString();
    EXPECT_EQ(sessions[s]->state(), SessionState::kSucceeded);
    const Table& got = sessions[s]->table();
    const Table& want = expected[s % plans.size()];
    EXPECT_EQ(got.num_rows(), want.num_rows()) << "session " << s;
    EXPECT_EQ(Sorted(got.ToRows()), Sorted(want.ToRows()))
        << "session " << s;
    // Profile came back under the session's id.
    EXPECT_EQ(sessions[s]->profile().query,
              "q" + std::to_string(sessions[s]->id()));
    EXPECT_GT(sessions[s]->profile().wall_ns, 0);
  }
  QueryService::Stats stats = svc.stats();
  EXPECT_EQ(stats.submitted, static_cast<int64_t>(sessions.size()));
  EXPECT_EQ(stats.succeeded, static_cast<int64_t>(sessions.size()));
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.cancelled, 0);
  // All sessions finished: the shared pool holds no reservations and no
  // admission slots are occupied.
  EXPECT_EQ(svc.memory_manager()->reserved(), 0);
  EXPECT_EQ(svc.admission().running(), 0);
}

TEST(QueryServiceTest, FinishedSessionsAreReleased) {
  // 240 sessions in rounds of 8: each round's handles are waited on and
  // dropped, so every later Launch may join and release them. Without
  // reaping the service would hold all 240 results and threads.
  Table table = MakeTable(2000, 256);
  plan::PlanPtr p =
      plan::Aggregate(plan::Scan(&table), {ColK()}, {"k"},
                      {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  ServiceOptions options;
  options.worker_threads = 2;
  QueryService svc(options);
  size_t most_retained = 0;
  for (int round = 0; round < 30; round++) {
    std::vector<std::shared_ptr<QuerySession>> handles;
    for (int i = 0; i < 8; i++) {
      handles.push_back(svc.Submit(p));
      most_retained = std::max(most_retained, svc.retained_sessions());
    }
    for (auto& h : handles) ASSERT_TRUE(h->Wait().ok());
  }
  // A round's 8 sessions plus the previous rounds' not-yet-exited threads.
  EXPECT_LE(most_retained, 32u);
  svc.Drain();
  EXPECT_EQ(svc.retained_sessions(), 0u);
  EXPECT_EQ(svc.stats().succeeded, 240);
}

TEST(QueryServiceTest, HandleDroppedBeforeSessionFinishes) {
  // The caller lets go of a session that is still running: the service's
  // reference keeps it alive until its thread is joined, on a thread other
  // than the session's own.
  Table table = MakeTable(2000, 256);
  plan::PlanPtr p =
      plan::Aggregate(plan::Scan(&table), {}, {},
                      {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> bodies_done{0};
  QueryService svc;
  auto blocked_write = [&](exec::Driver* driver, const ExecContext& ctx) {
    released.wait();
    Result<Table> out = driver->Run(p, ctx);
    bodies_done.fetch_add(1);
    return out;
  };
  svc.SubmitWrite(blocked_write);  // handle dropped at once
  svc.SubmitWrite(blocked_write);
  EXPECT_EQ(svc.retained_sessions(), 2u);
  release.set_value();
  while (svc.stats().succeeded < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The next Launch joins and releases both once their threads exit; the
  // destructors run here, not on the sessions' threads.
  for (int i = 0; i < 200 && svc.retained_sessions() > 1; i++) {
    auto h = svc.Submit(p);
    ASSERT_TRUE(h->Wait().ok());
  }
  EXPECT_LE(svc.retained_sessions(), 1u);
  EXPECT_EQ(bodies_done.load(), 2);

  // Dropped while running, then drained by the destructor.
  std::promise<void> go;
  std::shared_future<void> gate = go.get_future().share();
  {
    QueryService scoped;
    scoped.SubmitWrite([&](exec::Driver* driver, const ExecContext& ctx) {
      gate.wait();
      return driver->Run(p, ctx);
    });
    go.set_value();
  }
}

TEST(QueryServiceTest, OversizeSubmissionFailsCleanly) {
  Table table = MakeTable(100, 64);
  plan::PlanPtr p =
      plan::Aggregate(plan::Scan(&table), {}, {},
                      {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  ServiceOptions options;
  options.memory_limit_bytes = 1 << 20;
  QueryService svc(options);
  SessionOptions so;
  so.memory_bytes = 2 << 20;  // more than the whole budget
  auto session = svc.Submit(p, so);
  Status st = session->Wait();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(session->state(), SessionState::kFailed);
  EXPECT_EQ(svc.stats().failed, 1);
}

// --- Cancellation: no leaked reservations, spills, or pins ------------------

/// Delta-backed test fixture: 6 files of 2000 rows each, scanned through
/// a test-owned BlockCache so pin leaks are observable.
struct DeltaFixture {
  Schema schema{{Field("id", DataType::Int64()),
                 Field("v", DataType::Int64())}};
  ObjectStore store;
  std::unique_ptr<DeltaTable> delta;
  io::BlockCache cache;
  DeltaSnapshot snapshot;

  DeltaFixture() {
    auto dt = DeltaTable::Create(&store, "dl/t", schema);
    PHOTON_CHECK(dt.ok());
    delta = std::move(*dt);
    Rng rng(13);
    for (int f = 0; f < 6; f++) {
      TableBuilder builder(schema, 512);
      for (int i = 0; i < 2000; i++) {
        builder.AppendRow({Value::Int64(f * 2000 + i),
                           Value::Int64(rng.Uniform(0, 999))});
      }
      FormatWriteOptions options;
      options.row_group_rows = 500;
      PHOTON_CHECK(delta->Append(builder.Finish(), options).ok());
    }
    auto snap = delta->Snapshot();
    PHOTON_CHECK(snap.ok());
    snapshot = std::move(*snap);
  }

  plan::PlanPtr ScanAggPlan() {
    io::IoOptions io;
    io.cache = &cache;
    return plan::Aggregate(
        plan::DeltaScan(&store, snapshot, {}, nullptr, io), {}, {},
        {AggregateSpec{AggKind::kSum, eb::Col(1, DataType::Int64(), "v"),
                       "sv"},
         AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  }
};

/// Asserts the session released everything: no reservation left in the
/// service's memory pool, no spill artifacts under its prefix, no pinned
/// cache blocks, no admission slot held.
void ExpectNoLeaks(QueryService& svc, const QuerySession& session,
                   const io::BlockCache* cache) {
  EXPECT_EQ(svc.memory_manager()->reserved(), 0);
  EXPECT_EQ(svc.admission().running(), 0);
  std::string prefix = "service/q" + std::to_string(session.id()) + "/";
  EXPECT_TRUE(ObjectStore::Default().List(prefix).empty()) << prefix;
  if (cache != nullptr) EXPECT_EQ(cache->pinned_entries(), 0);
}

/// Runs `plan` in a fresh service whose query self-cancels after `checks`
/// checkpoints. Every landing spot must yield a clean terminal state:
/// either kCancelled with nothing leaked, or — when the query outran the
/// trigger — kSucceeded with the reference result. Returns whether the
/// query completed.
bool RunCancelledAfter(const plan::PlanPtr& plan, int worker_threads,
                       int64_t memory_limit, const io::BlockCache* cache,
                       const Table* expected, int checks) {
  ServiceOptions options;
  options.worker_threads = worker_threads;
  options.memory_limit_bytes = memory_limit;
  QueryService svc(options);
  SessionOptions so;
  so.memory_bytes = memory_limit / 2;
  auto session = svc.Submit(plan, so);
  session->control()->CancelAfterChecks(checks);
  Status st = session->Wait();
  if (st.ok()) {
    EXPECT_EQ(session->state(), SessionState::kSucceeded);
    if (expected != nullptr) {
      EXPECT_EQ(Sorted(session->table().ToRows()), Sorted(expected->ToRows()))
          << "checks=" << checks;
    }
  } else {
    EXPECT_TRUE(st.IsCancelled()) << st.ToString();
    EXPECT_EQ(session->state(), SessionState::kCancelled);
  }
  svc.Drain();
  ExpectNoLeaks(svc, *session, cache);
  return st.ok();
}

/// Sweeps CancelAfterChecks over a range of checkpoint counts, so the
/// cancel lands in a different phase of the query every iteration (during
/// admission, at a morsel claim, between batch pulls, at a barrier, past
/// the end).
void SweepCancellationPoints(const plan::PlanPtr& plan, int worker_threads,
                             int64_t memory_limit,
                             const io::BlockCache* cache,
                             const Table* expected) {
  int completed = 0;
  int cancelled = 0;
  for (int checks = 1; checks <= 31; checks += 3) {
    if (RunCancelledAfter(plan, worker_threads, memory_limit, cache,
                          expected, checks)) {
      completed++;
    } else {
      cancelled++;
    }
  }
  // The sweep must actually exercise cancellation (short-trigger end) —
  // whether the longest trigger outruns the query is timing-dependent.
  EXPECT_GT(cancelled, 0) << "completed=" << completed;
}

TEST(CancellationTest, MidScanReleasesEverything) {
  DeltaFixture fx;
  plan::PlanPtr plan = fx.ScanAggPlan();
  exec::Driver reference(1);
  Result<Table> expected = reference.Run(plan);
  ASSERT_TRUE(expected.ok());
  for (int threads : {1, 8}) {
    SweepCancellationPoints(plan, threads, 64LL << 20, &fx.cache,
                            &*expected);
  }
}

TEST(CancellationTest, MidBuildReleasesEverything) {
  // Join whose build side is large enough that its hash-table reservation
  // is live when the cancel lands.
  Table probe = MakeTable(8000, 512, /*seed=*/3);
  Table build = MakeTable(8000, 512, /*seed=*/4);
  plan::PlanPtr plan = plan::Aggregate(
      plan::Join(plan::Scan(&probe), plan::Scan(&build), JoinType::kInner,
                 {ColK()}, {ColK()}),
      {}, {}, {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  exec::Driver reference(1);
  Result<Table> expected = reference.Run(plan);
  ASSERT_TRUE(expected.ok());
  for (int threads : {1, 8}) {
    SweepCancellationPoints(plan, threads, 64LL << 20, nullptr, &*expected);
  }
}

TEST(CancellationTest, EveryCheckpointOfPartitionedBuildAndMerge) {
  // A join whose build is a partition-parallel stage (hash morsels, then
  // one insert task per table partition) under a grouped aggregate whose
  // final merge runs one task per hash partition. Every task claim in
  // those stages is a checkpoint: walking the cancel through each
  // checkpoint in turn until the query outruns it lands it in every phase
  // of both stages.
  Table probe = MakeTable(6000, 256, /*seed=*/6);
  Table build = MakeTable(4000, 256, /*seed=*/7);
  plan::PlanPtr plan = plan::Aggregate(
      plan::Join(plan::Scan(&probe), plan::Scan(&build), JoinType::kInner,
                 {ColV()}, {ColV()}),
      {ColK()}, {"k"}, {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
  exec::Driver reference(1);
  Result<Table> expected = reference.Run(plan);
  ASSERT_TRUE(expected.ok());
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // The trigger is armed just after Submit, so a query that races ahead
    // can outrun a small one: stop only after three completions in a row.
    int cancelled = 0;
    int completed_in_a_row = 0;
    for (int checks = 1; checks <= 2000 && completed_in_a_row < 3; checks++) {
      if (RunCancelledAfter(plan, threads, 64LL << 20, nullptr, &*expected,
                            checks)) {
        completed_in_a_row++;
      } else {
        cancelled++;
        completed_in_a_row = 0;
      }
    }
    EXPECT_EQ(completed_in_a_row, 3);
    // Beyond the 16 insert and 16 merge claims alone.
    EXPECT_GT(cancelled, 32);
  }
}

TEST(CancellationTest, MidSpillReleasesEverything) {
  // Tiny memory pool: the sort spills runs, so cancels land while spill
  // artifacts exist under the session's prefix — all must be deleted.
  Table table = MakeTable(30000, 512, /*seed=*/5);
  plan::PlanPtr plan =
      plan::Sort(plan::Scan(&table), {SortKey{ColV(), true}});
  exec::Driver reference(1);
  Result<Table> expected = reference.Run(plan);
  ASSERT_TRUE(expected.ok());
  for (int threads : {1, 8}) {
    SweepCancellationPoints(plan, threads, /*memory_limit=*/1 << 20,
                            nullptr, &*expected);
  }
}

TEST(CancellationTest, CancelFromAnotherThreadWhileRunning) {
  // Asynchronous cancel racing a running query (the production shape, vs
  // the deterministic check-counted sweeps above).
  Table table = MakeTable(50000, 512);
  plan::PlanPtr plan =
      plan::Sort(plan::Scan(&table), {SortKey{ColV(), true}});
  ServiceOptions options;
  options.worker_threads = 4;
  QueryService svc(options);
  for (int delay_us : {0, 50, 500, 5000}) {
    auto session = svc.Submit(plan);
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    session->Cancel();
    Status st = session->Wait();
    EXPECT_TRUE(st.ok() || st.IsCancelled()) << st.ToString();
    svc.Drain();
    ExpectNoLeaks(svc, *session, nullptr);
  }
}

TEST(CancellationTest, DeadlineCancelsSlowQuery) {
  Table table = MakeTable(50000, 512);
  plan::PlanPtr plan =
      plan::Sort(plan::Scan(&table), {SortKey{ColV(), true}});
  ServiceOptions options;
  options.worker_threads = 2;
  QueryService svc(options);

  SessionOptions tight;
  tight.deadline_ms = 1;
  auto slow = svc.Submit(plan, tight);
  Status st = slow->Wait();
  // 1ms is tight enough that the sort cannot finish; if a machine ever
  // does finish it, that's still a correct outcome.
  if (!st.ok()) {
    EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
    EXPECT_EQ(slow->state(), SessionState::kCancelled);
  }
  svc.Drain();
  ExpectNoLeaks(svc, *slow, nullptr);

  SessionOptions loose;
  loose.deadline_ms = 60000;
  auto fast = svc.Submit(plan, loose);
  EXPECT_TRUE(fast->Wait().ok());
  EXPECT_EQ(fast->state(), SessionState::kSucceeded);
}

// --- Per-query reserve timeout (ExecContext override) -----------------------

namespace {

/// Consumer that cannot spill: its doomed reservations must resolve by
/// timeout, not by freeing memory.
class Unspillable : public MemoryConsumer {
 public:
  explicit Unspillable(const char* name) : MemoryConsumer(name) {}
  int64_t Spill(int64_t) override { return 0; }
};

}  // namespace

TEST(ReserveTimeoutTest, PerQueryOverrideBeatsManagerDefault) {
  MemoryManager mm(1000);
  mm.set_reserve_timeout_ms(10000);  // pathological global default

  Unspillable holder("holder");
  holder.set_task_group(1);
  mm.RegisterConsumer(&holder);
  ASSERT_TRUE(mm.Reserve(&holder, 900).ok());

  // Per-query override (the ExecContext::reserve_timeout_ms path): the
  // doomed reservation fails fast despite the 10s manager default.
  Unspillable fast("fast");
  fast.set_task_group(2);
  fast.set_reserve_timeout_ms(50);
  mm.RegisterConsumer(&fast);
  auto t0 = std::chrono::steady_clock::now();
  Status s = mm.Reserve(&fast, 500);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(s.IsOutOfMemory()) << s.ToString();
  EXPECT_LT(elapsed.count(), 5000) << "override did not shorten the wait";

  // A cancelled query stops waiting on backpressure immediately.
  QueryControl control;
  Unspillable waiting("waiting");
  waiting.set_task_group(3);
  waiting.set_control(&control);
  mm.RegisterConsumer(&waiting);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    control.Cancel();
  });
  s = mm.Reserve(&waiting, 500);
  canceller.join();
  EXPECT_TRUE(s.IsCancelled()) << s.ToString();

  mm.Release(&holder, 900);
  mm.UnregisterConsumer(&holder);
  mm.UnregisterConsumer(&fast);
  mm.UnregisterConsumer(&waiting);
  EXPECT_EQ(mm.reserved(), 0);
}

}  // namespace
}  // namespace photon
