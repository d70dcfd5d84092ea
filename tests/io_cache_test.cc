// Tests for the src/io subsystem: BlockCache (sharded LRU + unified
// memory accounting), CachingStore (read-through, retry with backoff,
// single-flight), Prefetcher (async read-ahead, cancellation), and their
// wiring into FileScanOperator / DeltaTable / exec::StageInfo.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/driver.h"
#include "exec/thread_pool.h"
#include "expr/builder.h"
#include "io/block_cache.h"
#include "io/caching_store.h"
#include "io/prefetcher.h"
#include "ops/file_scan.h"
#include "storage/delta.h"
#include "storage/format.h"

namespace photon {
namespace {

std::shared_ptr<const std::string> Bytes(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

// --- BlockCache --------------------------------------------------------------

TEST(BlockCacheTest, InsertLookupAndLruEviction) {
  io::BlockCache::Options options;
  options.capacity_bytes = 3 * 200;  // room for ~2 entries + overhead
  options.num_shards = 1;            // deterministic LRU order
  io::BlockCache cache(options);

  cache.Insert("a", io::kWholeObject, Bytes(std::string(200, 'a')));
  cache.Insert("b", io::kWholeObject, Bytes(std::string(200, 'b')));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // touch "a": "b" is now LRU
  cache.Insert("c", io::kWholeObject, Bytes(std::string(200, 'c')));

  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr) << "LRU entry should be evicted";
  EXPECT_NE(cache.Lookup("c"), nullptr);

  io::BlockCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_GT(stats.hits, 0);
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.bytes_cached, 0);
  EXPECT_GT(stats.bytes_evicted, 0);
}

TEST(BlockCacheTest, BlocksOfSameObjectAreDistinct) {
  io::BlockCache cache;
  cache.Insert("file", 0, Bytes("rg0"));
  cache.Insert("file", 1, Bytes("rg1"));
  auto rg0 = cache.Lookup("file", 0);
  auto rg1 = cache.Lookup("file", 1);
  ASSERT_NE(rg0, nullptr);
  ASSERT_NE(rg1, nullptr);
  EXPECT_EQ(*rg0, "rg0");
  EXPECT_EQ(*rg1, "rg1");
  EXPECT_EQ(cache.Lookup("file", io::kWholeObject), nullptr);
}

TEST(BlockCacheTest, PinnedEntriesSurviveEviction) {
  io::BlockCache::Options options;
  options.capacity_bytes = 3 * 200;
  options.num_shards = 1;
  io::BlockCache cache(options);

  cache.Insert("pinned", io::kWholeObject, Bytes(std::string(200, 'p')));
  ASSERT_TRUE(cache.Pin("pinned"));
  // Flood: the pinned entry is the coldest but must not be evicted.
  for (int i = 0; i < 5; i++) {
    cache.Insert("k" + std::to_string(i), io::kWholeObject,
                 Bytes(std::string(200, 'x')));
  }
  EXPECT_NE(cache.Lookup("pinned"), nullptr);
  cache.Unpin("pinned");
  EXPECT_FALSE(cache.Pin("absent"));
}

TEST(BlockCacheTest, ChargesMemoryManagerAndSpillsUnderPressure) {
  MemoryManager mgr(10000);
  io::BlockCache::Options options;
  options.capacity_bytes = 1 << 20;  // cache capacity >> memory budget
  options.num_shards = 1;
  options.memory_manager = &mgr;
  io::BlockCache cache(options);

  cache.Insert("a", io::kWholeObject, Bytes(std::string(3000, 'a')));
  cache.Insert("b", io::kWholeObject, Bytes(std::string(3000, 'b')));
  int64_t reserved = mgr.reserved();
  EXPECT_GT(reserved, 6000) << "cached bytes must be reserved";

  // Another consumer wants most of the budget: the manager must ask the
  // cache to spill, which evicts blocks and returns their reservation.
  class Greedy : public MemoryConsumer {
   public:
    Greedy() : MemoryConsumer("greedy") {}
    int64_t Spill(int64_t) override { return 0; }
  } greedy;
  mgr.RegisterConsumer(&greedy);
  ASSERT_TRUE(mgr.Reserve(&greedy, 8000).ok());

  EXPECT_GT(mgr.spill_count(), 0);
  EXPECT_GT(cache.stats().evictions, 0);
  EXPECT_LT(cache.reserved_bytes(), reserved);
  mgr.Release(&greedy, 8000);
  mgr.UnregisterConsumer(&greedy);
}

// --- CachingStore ------------------------------------------------------------

TEST(CachingStoreTest, RetriesTransientGetFailuresWithBackoff) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", "payload").ok());

  io::IoOptions options;
  options.max_retries = 3;
  options.retry_backoff_us = 10;
  io::CachingStore io(&store, options);

  store.FailNextGets(2);
  Result<std::shared_ptr<const std::string>> r = io.Get("k");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(**r, "payload");
  EXPECT_EQ(io.stats().retries, 2);
}

TEST(CachingStoreTest, GivesUpAfterMaxRetries) {
  ObjectStore store;
  ASSERT_TRUE(store.Put("k", "payload").ok());

  io::IoOptions options;
  options.max_retries = 2;
  options.retry_backoff_us = 10;
  io::CachingStore io(&store, options);

  store.FailNextGets(10);  // more failures than retries
  Result<std::shared_ptr<const std::string>> r = io.Get("k");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_EQ(io.stats().retries, 2);
  store.FailNextGets(0);
}

TEST(CachingStoreTest, MissingKeyIsNotRetried) {
  ObjectStore store;
  io::CachingStore io(&store);
  Result<std::shared_ptr<const std::string>> r = io.Get("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
  EXPECT_EQ(io.stats().retries, 0) << "backoff cannot fix a missing object";
}

TEST(CachingStoreTest, SingleFlightCoalescesConcurrentMisses) {
  ObjectStore::Options store_options;
  store_options.get_latency_us = 2000;  // widen the race window
  ObjectStore store(store_options);
  ASSERT_TRUE(store.Put("hot", std::string(1000, 'h')).ok());

  io::BlockCache cache;
  io::IoOptions options;
  options.cache = &cache;
  io::CachingStore io(&store, options);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      Result<std::shared_ptr<const std::string>> r = io.Get("hot");
      if (r.ok() && (*r)->size() == 1000) ok++;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads);
  EXPECT_EQ(store.num_gets(), 1)
      << "concurrent misses must coalesce into one store GET";
}

// --- Scan helpers ------------------------------------------------------------

Schema TestSchema() {
  return Schema(
      {Field("id", DataType::Int64()), Field("payload", DataType::String())});
}

/// Writes `num_files` files of `rows_per_file` rows each under `prefix`.
void WriteFiles(ObjectStore* store, const std::string& prefix, int num_files,
                int rows_per_file, std::vector<std::string>* keys) {
  Schema schema = TestSchema();
  for (int f = 0; f < num_files; f++) {
    TableBuilder builder(schema);
    for (int i = 0; i < rows_per_file; i++) {
      builder.AppendRow(
          {Value::Int64(f * rows_per_file + i),
           Value::String("row-" + std::to_string(i % 97))});
    }
    Table t = builder.Finish();
    std::string key = prefix + "/f" + std::to_string(f);
    ASSERT_TRUE(WriteTableToStore(t, store, key).ok());
    keys->push_back(key);
  }
}

// --- FileScan through the IO subsystem ---------------------------------------

TEST(FileScanIoTest, WarmRescanServesFromCacheWithoutStoreGets) {
  ObjectStore store;
  std::vector<std::string> keys;
  WriteFiles(&store, "warm", 4, 500, &keys);

  io::BlockCache cache;
  io::IoOptions io;
  io.cache = &cache;

  auto scan_once = [&]() -> int64_t {
    FileScanOperator scan(&store, keys, TestSchema(), {}, nullptr, io);
    Result<Table> result = CollectAll(&scan);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->num_rows() : -1;
  };

  EXPECT_EQ(scan_once(), 2000);  // cold
  int64_t gets_after_cold = store.num_gets();
  EXPECT_EQ(gets_after_cold, 4);

  EXPECT_EQ(scan_once(), 2000);  // warm
  EXPECT_EQ(store.num_gets(), gets_after_cold)
      << "warm scan must not touch the object store";

  // Operator-level counters on a fresh warm scan.
  FileScanOperator scan(&store, keys, TestSchema(), {}, nullptr, io);
  Result<Table> result = CollectAll(&scan);
  ASSERT_TRUE(result.ok());
  scan.PublishMetrics();
  EXPECT_EQ(scan.op_metrics().Value(obs::Metric::kFilesRead), 4);
  EXPECT_EQ(scan.op_metrics().Value(obs::Metric::kCacheHits), 4);
  EXPECT_GT(scan.op_metrics().Value(obs::Metric::kBytesRead), 0);
}

TEST(FileScanIoTest, PrefetchedScanMatchesSynchronousScan) {
  ObjectStore::Options store_options;
  store_options.get_latency_us = 1000;
  ObjectStore store(store_options);
  std::vector<std::string> keys;
  WriteFiles(&store, "pf", 6, 300, &keys);

  FileScanOperator sync_scan(&store, keys, TestSchema());
  Result<Table> expected = CollectAll(&sync_scan);
  ASSERT_TRUE(expected.ok());

  ThreadPool pool(3);
  io::BlockCache cache;
  io::IoOptions io;
  io.cache = &cache;
  io.prefetch_pool = &pool;
  io.prefetch_depth = 3;
  FileScanOperator scan(&store, keys, TestSchema(), {}, nullptr, io);
  Result<Table> result = CollectAll(&scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), expected->num_rows());
  scan.PublishMetrics();
  EXPECT_EQ(scan.op_metrics().Value(obs::Metric::kFilesRead), 6);
  EXPECT_GE(scan.op_metrics().Value(obs::Metric::kPrefetchWaitNs), 0);
}

TEST(FileScanIoTest, CloseCancelsOutstandingPrefetch) {
  ObjectStore::Options store_options;
  store_options.get_latency_us = 2000;
  ObjectStore store(store_options);
  std::vector<std::string> keys;
  WriteFiles(&store, "cancel", 8, 200, &keys);

  ThreadPool pool(2);
  io::IoOptions io;
  io.prefetch_pool = &pool;
  io.prefetch_depth = 4;
  auto scan =
      std::make_unique<FileScanOperator>(&store, keys, TestSchema(),
                                         std::vector<int>{}, nullptr, io);
  ASSERT_TRUE(scan->Open().ok());
  Result<ColumnBatch*> batch = scan->GetNext();
  ASSERT_TRUE(batch.ok());
  ASSERT_NE(*batch, nullptr);
  scan->Close();  // abandon mid-scan: must drain read-aheads, not hang
  scan.reset();
  // The pool outlives the scan; destruction must find no orphan tasks.
}

TEST(FileScanIoTest, StageInfoCarriesIoCounters) {
  ObjectStore store;
  std::vector<std::string> keys;
  WriteFiles(&store, "stage", 3, 400, &keys);

  io::BlockCache cache;
  io::IoOptions io;
  io.cache = &cache;

  // Warm the cache, then measure a warm scan's stage-level counters.
  {
    FileScanOperator warmup(&store, keys, TestSchema(), {}, nullptr, io);
    ASSERT_TRUE(CollectAll(&warmup).ok());
  }
  FileScanOperator scan(&store, keys, TestSchema(), {}, nullptr, io);
  ASSERT_TRUE(CollectAll(&scan).ok());

  // IO counters fold into a stage-style snapshot through the same
  // publish-and-merge path the driver uses at stage barriers.
  obs::MetricSet stage_set;
  stage_set.MergeResourceFrom(scan.op_metrics());
  exec::StageInfo stage;
  stage.m = stage_set.Snapshot();
  EXPECT_EQ(stage.files_read(), 3);
  EXPECT_EQ(stage.cache_hits(), 3);
  EXPECT_GT(stage.bytes_read(), 0);
  EXPECT_EQ(stage.prefetch_wait_ns(), 0);  // no prefetcher attached
}

// --- Concurrency: N threads, one shared cache --------------------------------

TEST(IoConcurrencyTest, SharedCacheConcurrentScansAreCorrectAndLoadOnce) {
  ObjectStore::Options store_options;
  store_options.get_latency_us = 500;  // give racing threads time to pile up
  ObjectStore store(store_options);
  std::vector<std::string> keys;
  WriteFiles(&store, "conc", 4, 500, &keys);

  io::BlockCache cache;
  io::IoOptions io;
  io.cache = &cache;

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> correct{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      FileScanOperator scan(&store, keys, TestSchema(), {}, nullptr, io);
      Result<Table> result = CollectAll(&scan);
      if (result.ok() && result->num_rows() == 2000) correct++;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(correct.load(), kThreads);
  EXPECT_EQ(store.num_gets(), 4)
      << "shared cache + single flight: each file loads exactly once";
}

TEST(IoConcurrencyTest, TinyCacheUnderConcurrencyStaysCorrect) {
  ObjectStore store;
  std::vector<std::string> keys;
  WriteFiles(&store, "tiny", 4, 500, &keys);

  io::BlockCache::Options cache_options;
  cache_options.capacity_bytes = 1024;  // smaller than any file: thrashes
  cache_options.num_shards = 2;
  io::BlockCache cache(cache_options);
  io::IoOptions io;
  io.cache = &cache;

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> correct{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      FileScanOperator scan(&store, keys, TestSchema(), {}, nullptr, io);
      Result<Table> result = CollectAll(&scan);
      if (result.ok() && result->num_rows() == 2000) correct++;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(correct.load(), kThreads);
  EXPECT_EQ(cache.stats().bytes_cached, 0) << "nothing fits in 1KB";
}

// --- Memory pressure mid-scan ------------------------------------------------

TEST(IoMemoryTest, BudgetShrinkMidScanEvictsCacheAndScanStaysCorrect) {
  ObjectStore store;
  std::vector<std::string> keys;
  WriteFiles(&store, "shrink", 4, 2000, &keys);
  int64_t file_bytes = store.bytes_written();

  MemoryManager mgr(file_bytes + 4096);  // fits all files, barely
  io::BlockCache::Options cache_options;
  cache_options.capacity_bytes = 4 * file_bytes;
  cache_options.memory_manager = &mgr;
  io::BlockCache cache(cache_options);
  io::IoOptions io;
  io.cache = &cache;

  FileScanOperator scan(&store, keys, TestSchema(), {}, nullptr, io);
  ASSERT_TRUE(scan.Open().ok());
  int64_t rows = 0;
  int batches = 0;
  class Greedy : public MemoryConsumer {
   public:
    Greedy() : MemoryConsumer("query") {}
    int64_t Spill(int64_t) override { return 0; }
  } greedy;
  mgr.RegisterConsumer(&greedy);
  bool squeezed = false;
  while (true) {
    Result<ColumnBatch*> batch = scan.GetNext();
    ASSERT_TRUE(batch.ok()) << batch.status().message();
    if (*batch == nullptr) break;
    rows += (*batch)->num_active();
    // Mid-scan, a "query operator" grabs most of the unified budget: the
    // manager must squeeze the cache, not fail the query.
    if (++batches == 2 && !squeezed) {
      squeezed = true;
      ASSERT_TRUE(mgr.Reserve(&greedy, file_bytes).ok());
      EXPECT_GT(cache.stats().evictions, 0)
          << "cache must give memory back under pressure";
    }
  }
  scan.Close();
  EXPECT_EQ(rows, 8000);
  EXPECT_TRUE(squeezed);
  EXPECT_LE(mgr.reserved(), mgr.limit());
  mgr.Release(&greedy, greedy.reserved_bytes());
  mgr.UnregisterConsumer(&greedy);
}

// --- Delta log replay through the cache --------------------------------------

TEST(DeltaIoTest, LogReplayIsCachedAcrossSnapshots) {
  ObjectStore store;
  Schema schema = TestSchema();
  Result<std::unique_ptr<DeltaTable>> table =
      DeltaTable::Create(&store, "tables/cached", schema);
  ASSERT_TRUE(table.ok());
  for (int commit = 0; commit < 3; commit++) {
    TableBuilder builder(schema);
    for (int i = 0; i < 100; i++) {
      builder.AppendRow({Value::Int64(commit * 100 + i), Value::String("x")});
    }
    ASSERT_TRUE((*table)->Append(builder.Finish()).ok());
  }

  io::BlockCache cache;
  (*table)->SetIoCache(&cache);

  Result<DeltaSnapshot> first = (*table)->Snapshot();
  ASSERT_TRUE(first.ok());
  int64_t gets_after_first = store.num_gets();

  Result<DeltaSnapshot> second = (*table)->Snapshot();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(store.num_gets(), gets_after_first)
      << "warm log replay must be served from the block cache";
  EXPECT_EQ(second->num_rows(), 300);
  EXPECT_EQ(second->version, first->version);

  // And the full Lakehouse read path: DeltaScan via the logical plan with
  // the same cache also avoids data-file re-reads when warm.
  io::IoOptions io;
  io.cache = &cache;
  exec::Driver driver(2);
  plan::PlanPtr plan = plan::DeltaScan(&store, *second, {}, nullptr, io);
  std::vector<exec::StageInfo> cold_stages;
  Result<Table> cold = driver.Run(plan, {}, &cold_stages);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold_stages.size(), 1u);  // one scan fragment, one stage
  const exec::StageInfo& cold_stage = cold_stages[0];
  EXPECT_EQ(cold->num_rows(), 300);
  EXPECT_EQ(cold_stage.rows_out(), 300);
  EXPECT_EQ(cold_stage.cache_hits(), 0);

  int64_t gets_before_warm = store.num_gets();
  std::vector<exec::StageInfo> warm_stages;
  Result<Table> warm = driver.Run(plan, {}, &warm_stages);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm_stages.size(), 1u);
  const exec::StageInfo& warm_stage = warm_stages[0];
  EXPECT_EQ(warm->num_rows(), 300);
  EXPECT_EQ(store.num_gets(), gets_before_warm);
  EXPECT_EQ(warm_stage.cache_hits(), warm_stage.files_read());
  EXPECT_GT(warm_stage.bytes_read(), 0);
}

}  // namespace
}  // namespace photon
