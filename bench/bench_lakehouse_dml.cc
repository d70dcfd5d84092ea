// Mixed lakehouse read/write workload (DESIGN.md §15): W writer threads
// drive MERGE upserts through the copy-on-write executors while R reader
// threads scan the latest snapshot, once with the background compactor
// off and once with it on. Reports upsert throughput, commit conflicts,
// reader scan latency (p50/p95/max), and the final file count + cold
// full-scan time of each configuration — the compaction run should end
// with far fewer files and a faster scan at equal logical contents.
//
// Correctness gates (exit nonzero on violation, the ctest smoke relies
// on them):
//   - every committed version is claimed by exactly one transaction
//     (writer or compactor) — a duplicate is a lost commit;
//   - final row count == initial rows + total MERGE-inserted rows
//     (merges never delete, inserts are unique by key);
//   - both configurations end with identical logical row counts.
//
// Usage: bench_lakehouse_dml [--rows N] [--writers W] [--ops N]
//                            [--batch B] [--readers R] [--json PATH]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/compactor.h"
#include "exec/dml.h"
#include "expr/builder.h"
#include "storage/delta.h"
#include "storage/object_store.h"

namespace {

using namespace photon;

Schema KvSchema() {
  return Schema({Field("id", DataType::Int64()),
                 Field("val", DataType::Int64())});
}

Table KvRows(int64_t begin, int64_t end, int64_t bias) {
  TableBuilder b(KvSchema(), static_cast<int>(end - begin));
  for (int64_t i = begin; i < end; i++) {
    b.AppendRow({Value::Int64(i), Value::Int64(i + bias)});
  }
  return b.Finish();
}

struct RunStats {
  int64_t wall_ns = 0;
  int64_t commits = 0;
  int64_t rows_upserted = 0;
  int64_t rows_inserted = 0;
  int64_t conflicts = 0;
  int64_t reader_scans = 0;
  int64_t reader_p50_ns = 0;
  int64_t reader_p95_ns = 0;
  int64_t reader_max_ns = 0;
  int64_t final_files = 0;
  int64_t final_rows = 0;
  int64_t final_version = 0;
  int64_t compactor_commits = 0;
  int64_t files_compacted = 0;
  int64_t post_scan_ns = 0;
  std::string failure;  // empty = all invariants held
};

/// One full workload against a fresh table. Writer w's op j upserts a
/// batch-sized key range starting at initial_rows - batch/2 and sliding
/// right by batch/2 per op index, so every MERGE straddles the table's
/// edge: the front half matches existing keys (an earlier batch's inserts
/// or the seed data), the back half inserts new ones — both paths stay
/// exercised and the inserts produce the small files compaction targets.
RunStats RunWorkload(int64_t initial_rows, int writers, int ops,
                     int64_t batch, int readers, bool compact) {
  RunStats out;
  ObjectStore store;
  auto created = DeltaTable::Create(&store, "bench/kv", KvSchema());
  PHOTON_CHECK(created.ok());
  std::unique_ptr<DeltaTable> table = std::move(*created);
  constexpr int64_t kSeedChunk = 16384;
  for (int64_t lo = 0; lo < initial_rows; lo += kSeedChunk) {
    auto v = table->Append(KvRows(lo, std::min(lo + kSeedChunk, initial_rows),
                                  /*bias=*/0));
    PHOTON_CHECK(v.ok());
  }

  std::mutex mu;
  std::set<int64_t> versions;  // every committed version, writer or compactor
  auto record_version = [&](int64_t v) {
    std::lock_guard<std::mutex> lock(mu);
    if (!versions.insert(v).second && out.failure.empty()) {
      out.failure = "version " + std::to_string(v) +
                    " committed by two transactions (lost commit)";
    }
  };

  exec::Compactor::Options copts;
  copts.small_file_rows = batch;
  copts.target_file_rows = batch * 8;
  copts.interval_ms = 5;
  exec::Compactor compactor(table.get(), copts);
  compactor.set_commit_listener(record_version);
  if (compact) compactor.Start();

  std::atomic<bool> writers_done{false};
  std::vector<std::vector<int64_t>> reader_lat(readers);
  std::vector<std::thread> reader_threads;
  for (int r = 0; r < readers; r++) {
    reader_threads.emplace_back([&, r] {
      exec::Driver driver(1, 1);
      auto opened = DeltaTable::Open(&store, "bench/kv");
      PHOTON_CHECK(opened.ok());
      while (!writers_done.load(std::memory_order_acquire)) {
        int64_t t0 = bench::NowNs();
        auto snap = (*opened)->Snapshot();
        PHOTON_CHECK(snap.ok());
        auto result = driver.Run(
            plan::DeltaScan(&store, *std::move(snap)));
        PHOTON_CHECK(result.ok());
        reader_lat[r].push_back(bench::NowNs() - t0);
      }
    });
  }

  int64_t t0 = bench::NowNs();
  std::vector<std::thread> writer_threads;
  std::vector<RunStats> per_writer(writers);
  for (int w = 0; w < writers; w++) {
    writer_threads.emplace_back([&, w] {
      exec::Driver driver(1, 1);
      auto opened = DeltaTable::Open(&store, "bench/kv");
      PHOTON_CHECK(opened.ok());
      dml::DmlOptions options;
      options.max_retries = 256;  // MERGE reads all files; contention is high
      RunStats* mine = &per_writer[w];
      for (int j = 0; j < ops; j++) {
        int64_t base = static_cast<int64_t>(w) * ops + j;
        int64_t lo = initial_rows - batch / 2 + base * batch / 2;
        Table source = KvRows(lo, lo + batch, /*bias=*/1000 + base);
        dml::MergeSpec spec;
        spec.source = plan::Scan(&source);
        spec.target_keys = {0};
        spec.source_keys = {0};
        spec.matched_exprs = {eb::Col(0, DataType::Int64()),
                              eb::Col(3, DataType::Int64())};
        spec.insert_exprs = {eb::Col(0, DataType::Int64()),
                             eb::Col(1, DataType::Int64())};
        auto result = dml::ExecuteMerge(opened->get(), spec, &driver,
                                        ExecContext(), options);
        PHOTON_CHECK(result.ok());
        record_version(result->version);
        mine->commits++;
        mine->rows_upserted += result->rows_affected + result->rows_inserted;
        mine->rows_inserted += result->rows_inserted;
        mine->conflicts += result->conflicts_retried;
      }
    });
  }
  for (auto& t : writer_threads) t.join();
  out.wall_ns = bench::NowNs() - t0;
  writers_done.store(true, std::memory_order_release);
  for (auto& t : reader_threads) t.join();
  if (compact) {
    PHOTON_CHECK(compactor.RunOncePass().ok());  // drain the small-file tail
    compactor.Stop();
  }

  for (const RunStats& w : per_writer) {
    out.commits += w.commits;
    out.rows_upserted += w.rows_upserted;
    out.rows_inserted += w.rows_inserted;
    out.conflicts += w.conflicts;
  }
  std::vector<int64_t> lat;
  for (const auto& r : reader_lat) lat.insert(lat.end(), r.begin(), r.end());
  std::sort(lat.begin(), lat.end());
  out.reader_scans = static_cast<int64_t>(lat.size());
  if (!lat.empty()) {
    out.reader_p50_ns = lat[lat.size() / 2];
    out.reader_p95_ns = lat[lat.size() * 95 / 100];
    out.reader_max_ns = lat.back();
  }
  exec::Compactor::Stats cstats = compactor.stats();
  out.compactor_commits = cstats.commits;
  out.files_compacted = cstats.files_compacted;

  auto snap = table->Snapshot();
  PHOTON_CHECK(snap.ok());
  out.final_files = static_cast<int64_t>(snap->files.size());
  out.final_version = snap->version;
  exec::Driver driver(1, 1);
  int64_t s0 = bench::NowNs();
  auto full = driver.Run(plan::DeltaScan(&store, *snap));
  out.post_scan_ns = bench::NowNs() - s0;
  PHOTON_CHECK(full.ok());
  out.final_rows = full->num_rows();

  if (out.failure.empty() && out.final_rows != initial_rows + out.rows_inserted) {
    out.failure = "row conservation violated: " +
                  std::to_string(out.final_rows) + " rows != " +
                  std::to_string(initial_rows) + " initial + " +
                  std::to_string(out.rows_inserted) + " inserted";
  }
  return out;
}

void Report(const char* label, const RunStats& s) {
  double wall_s = static_cast<double>(s.wall_ns) / 1e9;
  std::printf("  %-12s %7.2fs wall  %5lld commits (%lld conflicts retried)  "
              "%8.0f rows/s upserted\n",
              label, wall_s, static_cast<long long>(s.commits),
              static_cast<long long>(s.conflicts),
              static_cast<double>(s.rows_upserted) / wall_s);
  std::printf("  %-12s readers: %lld scans, p50 %.2fms p95 %.2fms max %.2fms\n",
              "", static_cast<long long>(s.reader_scans),
              bench::Ms(s.reader_p50_ns), bench::Ms(s.reader_p95_ns),
              bench::Ms(s.reader_max_ns));
  std::printf("  %-12s final: v%lld, %lld files, %lld rows, full scan "
              "%.2fms  (compactor: %lld commits, %lld files coalesced)\n",
              "", static_cast<long long>(s.final_version),
              static_cast<long long>(s.final_files),
              static_cast<long long>(s.final_rows), bench::Ms(s.post_scan_ns),
              static_cast<long long>(s.compactor_commits),
              static_cast<long long>(s.files_compacted));
}

void JsonRun(photon::bench::JsonWriter* json, const char* name,
             const RunStats& s) {
  json->BeginObject();
  json->Field("config", std::string(name));
  json->Field("wall_ms", bench::Ms(s.wall_ns));
  json->Field("commits", s.commits);
  json->Field("conflicts_retried", s.conflicts);
  json->Field("rows_upserted", s.rows_upserted);
  json->Field("rows_inserted", s.rows_inserted);
  json->Field("reader_scans", s.reader_scans);
  json->Field("reader_p50_ms", bench::Ms(s.reader_p50_ns));
  json->Field("reader_p95_ms", bench::Ms(s.reader_p95_ns));
  json->Field("reader_max_ms", bench::Ms(s.reader_max_ns));
  json->Field("final_files", s.final_files);
  json->Field("final_rows", s.final_rows);
  json->Field("full_scan_ms", bench::Ms(s.post_scan_ns));
  json->Field("files_compacted", s.files_compacted);
  json->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace photon;
  int64_t rows = 200000;
  if (const char* v = bench::FlagValue(argc, argv, "--rows")) {
    rows = std::atoll(v);
  }
  int writers = 4;
  if (const char* v = bench::FlagValue(argc, argv, "--writers")) {
    writers = std::atoi(v);
  }
  int ops = 16;
  if (const char* v = bench::FlagValue(argc, argv, "--ops")) {
    ops = std::atoi(v);
  }
  int64_t batch = 2000;
  if (const char* v = bench::FlagValue(argc, argv, "--batch")) {
    batch = std::atoll(v);
  }
  int readers = 2;
  if (const char* v = bench::FlagValue(argc, argv, "--readers")) {
    readers = std::atoi(v);
  }
  const char* json_path = bench::FlagValue(argc, argv, "--json");

  std::printf("Lakehouse DML: %lld initial rows, %d writers x %d MERGE ops "
              "(%lld-row batches), %d readers\n",
              static_cast<long long>(rows), writers, ops,
              static_cast<long long>(batch), readers);

  RunStats off = RunWorkload(rows, writers, ops, batch, readers,
                             /*compact=*/false);
  Report("compact=off", off);
  RunStats on = RunWorkload(rows, writers, ops, batch, readers,
                            /*compact=*/true);
  Report("compact=on", on);

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("lakehouse_dml"));
  json.Field("rows", rows);
  json.Field("writers", static_cast<int64_t>(writers));
  json.Field("ops", static_cast<int64_t>(ops));
  json.Field("batch", batch);
  json.BeginArray("runs");
  JsonRun(&json, "compact_off", off);
  JsonRun(&json, "compact_on", on);
  json.EndArray();
  json.EndObject();
  if (json_path != nullptr) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 1;
    }
    std::printf("  wrote %s\n", json_path);
  }

  int rc = 0;
  for (const RunStats* s : {&off, &on}) {
    if (!s->failure.empty()) {
      std::printf("  FAIL: %s\n", s->failure.c_str());
      rc = 1;
    }
  }
  // Both configurations ran the same upsert schedule, so they must agree
  // on logical contents even though the physical layouts differ.
  if (off.final_rows != on.final_rows) {
    std::printf("  FAIL: compact=off ended with %lld rows, compact=on with "
                "%lld\n",
                static_cast<long long>(off.final_rows),
                static_cast<long long>(on.final_rows));
    rc = 1;
  }
  return rc;
}
