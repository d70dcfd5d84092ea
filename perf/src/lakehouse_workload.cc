// lakehouse-mixed: one QueryService with 4 workers over Delta tables in an
// object store with a ~1 ms GET, read through one BlockCache smaller than
// the data. Three closed-loop reader clients compile TPC-H SQL text,
// optimize it and submit it; one closed-loop writer upserts into a
// separate key/value Delta table with MERGE, and at fixed op counts in the
// same loop runs a range DELETE and a compaction pass — no background
// timer, so the write schedule is the same on every run.

#include <algorithm>
#include <atomic>
#include <climits>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "exec/compactor.h"
#include "exec/dml.h"
#include "exec/thread_pool.h"
#include "expr/builder.h"
#include "io/block_cache.h"
#include "opt/optimizer.h"
#include "service/query_service.h"
#include "sql/analyzer.h"
#include "sql/catalog.h"
#include "storage/delta.h"
#include "storage/object_store.h"
#include "tpch/tpch_sql.h"
#include "workloads.h"

namespace perf {

namespace {

using photon::DataType;
using photon::DeltaSnapshot;
using photon::DeltaTable;
using photon::ExecContext;
using photon::Field;
using photon::ObjectStore;
using photon::Result;
using photon::Schema;
using photon::Status;
using photon::Table;
using photon::Value;
namespace dml = photon::dml;
namespace eb = photon::eb;
namespace exec = photon::exec;
namespace io = photon::io;
namespace obs = photon::obs;
namespace plan = photon::plan;
namespace service = photon::service;
namespace sql = photon::sql;
namespace tpch = photon::tpch;

constexpr int kSetupReps = 3;
constexpr int kWorkers = 4;
constexpr int kReaders = 3;
constexpr int64_t kGetLatencyUs = 1000;
/// About half of the ~31 MB of TPC-H data files, so misses cost time.
constexpr int64_t kCacheBytes = 16LL << 20;
constexpr int64_t kMemoryPoolBytes = 512LL << 20;
constexpr int64_t kRowGroupRows = 8192;
/// 12 batches of 2048 rows: ~24.6k rows per data file, so lineitem spans
/// 25 files (13 morsels of 2 files) and the 4 workers all get scan work.
constexpr int kBatchesPerFile = 12;
/// Key/value table: about this many live rows at all times. Each MERGE
/// upserts a window of kMergeKeys keys sliding by half a window, so half
/// update the previous insert and half insert; every kDeleteEvery merges a
/// range DELETE retires the oldest keys, so the table neither grows nor
/// shrinks and write cost does not drift with run length.
constexpr int64_t kKvRows = 50'000;
constexpr int64_t kKvFileRows = 10'000;
constexpr int64_t kMergeKeys = 1'000;
constexpr int kDeleteEvery = 4;
constexpr int kCompactEvery = 8;
/// The timed phase never outlasts this (see tpch_workloads.cc).
constexpr int64_t kMaxTimedNs = 120'000'000'000;

Schema KvSchema() {
  return Schema(
      {Field("id", DataType::Int64()), Field("val", DataType::Int64())});
}

Table KvRows(int64_t lo, int64_t hi, int64_t bias) {
  photon::TableBuilder b(KvSchema());
  for (int64_t k = lo; k < hi; k++) {
    b.AppendRow({Value::Int64(k), Value::Int64(k + bias)});
  }
  return b.Finish();
}

/// Batches [begin, end) of `t` as a table of their own: one data file.
Table Slice(const Table& t, int begin, int end) {
  Table out(t.schema());
  for (int b = begin; b < end; b++) {
    out.AppendBatch(photon::CompactBatch(t.batch(b)));
  }
  return out;
}

/// What the key/value table must hold: the value of every live key.
class KvModel {
 public:
  static constexpr int64_t kAbsent = INT64_MIN;

  KvModel() : vals_(kKvRows) {
    for (int64_t k = 0; k < kKvRows; k++) vals_[k] = k;
    live_ = kKvRows;
  }

  /// Upserts keys [lo, hi) with value key + bias; returns {updated, inserted}.
  std::pair<int64_t, int64_t> Upsert(int64_t lo, int64_t hi, int64_t bias) {
    if (static_cast<int64_t>(vals_.size()) < hi) vals_.resize(hi, kAbsent);
    int64_t updated = 0;
    for (int64_t k = lo; k < hi; k++) {
      (vals_[k] == kAbsent ? live_ : updated)++;
      vals_[k] = k + bias;
    }
    return {updated, hi - lo - updated};
  }

  /// Deletes keys [lo, hi); returns the rows removed.
  int64_t Delete(int64_t lo, int64_t hi) {
    int64_t removed = 0;
    for (int64_t k = lo; k < std::min<int64_t>(hi, vals_.size()); k++) {
      if (vals_[k] == kAbsent) continue;
      vals_[k] = kAbsent;
      removed++;
    }
    live_ -= removed;
    return removed;
  }

  int64_t live() const { return live_; }

  Table Contents() const {
    photon::TableBuilder b(KvSchema());
    for (int64_t k = 0; k < static_cast<int64_t>(vals_.size()); k++) {
      if (vals_[k] == kAbsent) continue;
      b.AppendRow({Value::Int64(k), Value::Int64(vals_[k])});
    }
    return b.Finish();
  }

 private:
  std::vector<int64_t> vals_;
  int64_t live_ = 0;
};

/// Everything one set-up builds. Declaration order is dependency order, so
/// destruction tears down users before what they use: the cache before the
/// service whose memory pool it is charged to, the service before the store.
struct Lakehouse {
  std::unique_ptr<tpch::TpchData> data;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<service::QueryService> svc;
  std::unique_ptr<io::BlockCache> cache;
  /// A non-null IoOptions::prefetch_pool turns scan read-ahead on; service
  /// drivers replace it with the service's shared IO pool.
  std::unique_ptr<photon::ThreadPool> prefetch_marker;
  std::vector<std::unique_ptr<DeltaTable>> tpch_tables;
  std::unique_ptr<DeltaTable> kv;
  sql::Catalog catalog;
  std::unique_ptr<exec::Compactor> compactor;
  std::vector<std::string> sql_text;
};

struct SetupTimes {
  int64_t total_ns = 0;
  int64_t datagen_ns = 0;
  int64_t table_write_ns = 0;
};

/// Compiles, optimizes and submits TPC-H query q as SQL. Fills the phase
/// times (compile, optimize) and returns the session, or null on a compile
/// error (recorded as a failure).
std::shared_ptr<service::QuerySession> SubmitSql(Run* run, Lakehouse* lh, int q,
                                                 int64_t trace_id,
                                                 int64_t* compile_ns,
                                                 int64_t* optimize_ns) {
  int64_t t0 = NowNs();
  Result<plan::PlanPtr> compiled = Status::Internal("not compiled");
  {
    ScopedSpan span(&run->spans, "sql.CompileSql", trace_id);
    compiled = sql::CompileSql(lh->sql_text[q - 1], lh->catalog);
  }
  int64_t t1 = NowNs();
  if (!compiled.ok()) {
    run->ledger.Fail("Q" + std::to_string(q) + " compile: " +
                     compiled.status().ToString());
    return nullptr;
  }
  plan::PlanPtr optimized;
  {
    ScopedSpan span(&run->spans, "opt.Optimize", trace_id);
    optimized = photon::opt::Optimize(*compiled);
  }
  int64_t t2 = NowNs();
  *compile_ns = t1 - t0;
  *optimize_ns = t2 - t1;
  service::SessionOptions options;
  options.name = "q" + std::to_string(q);
  ScopedSpan span(&run->spans, "service.Submit", trace_id);
  return lh->svc->Submit(optimized, options);
}

SetupTimes Build(Run* run, Lakehouse* lh) {
  SetupTimes times;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(&run->spans, "tpch.GenerateTpch", 0);
    lh->data = std::make_unique<tpch::TpchData>(
        tpch::GenerateTpch(kScaleFactor, run->cfg.seed));
  }
  times.datagen_ns = NowNs() - t0;

  ObjectStore::Options store_options;
  store_options.get_latency_us = kGetLatencyUs;
  lh->store = std::make_unique<ObjectStore>(store_options);
  service::ServiceOptions svc_options;
  svc_options.worker_threads = kWorkers;
  svc_options.max_concurrent_queries = kReaders + 1;
  // Room for four SF 0.1 queries (each peaks near 70 MB) plus the cache,
  // so a reservation never waits out its timeout on a slow machine.
  svc_options.memory_limit_bytes = kMemoryPoolBytes;
  lh->svc = std::make_unique<service::QueryService>(svc_options);
  io::BlockCache::Options cache_options;
  cache_options.capacity_bytes = kCacheBytes;
  cache_options.memory_manager = lh->svc->memory_manager();
  lh->cache = std::make_unique<io::BlockCache>(cache_options);
  lh->prefetch_marker = std::make_unique<photon::ThreadPool>(1);
  io::IoOptions scan_io;
  scan_io.cache = lh->cache.get();
  scan_io.prefetch_pool = lh->prefetch_marker.get();

  const int64_t w0 = NowNs();
  photon::FormatWriteOptions write_options;
  write_options.row_group_rows = kRowGroupRows;
  const tpch::TpchData& d = *lh->data;
  const std::pair<const char*, const Table*> tables[] = {
      {"region", &d.region},     {"nation", &d.nation},
      {"supplier", &d.supplier}, {"customer", &d.customer},
      {"part", &d.part},         {"partsupp", &d.partsupp},
      {"orders", &d.orders},     {"lineitem", &d.lineitem}};
  for (const auto& [name, table] : tables) {
    Result<std::unique_ptr<DeltaTable>> created = Status::Internal("");
    {
      ScopedSpan span(&run->spans, "storage.DeltaTable::Create", 0);
      created = DeltaTable::Create(lh->store.get(), std::string("tpch/") + name,
                                   table->schema());
    }
    PHOTON_CHECK(created.ok());
    DeltaTable* delta = created->get();
    delta->SetIoCache(lh->cache.get());
    for (int b = 0; b < table->num_batches(); b += kBatchesPerFile) {
      ScopedSpan span(&run->spans, "storage.DeltaTable::Append", 0);
      Table file = Slice(*table, b,
                         std::min(b + kBatchesPerFile, table->num_batches()));
      PHOTON_CHECK(delta->Append(file, write_options).ok());
    }
    PHOTON_CHECK(lh->catalog.RegisterDeltaTable(name, delta, scan_io).ok());
    lh->tpch_tables.push_back(std::move(*created));
  }
  {
    auto kv = DeltaTable::Create(lh->store.get(), "kv", KvSchema());
    PHOTON_CHECK(kv.ok());
    lh->kv = std::move(*kv);
    lh->kv->SetIoCache(lh->cache.get());
    for (int64_t lo = 0; lo < kKvRows; lo += kKvFileRows) {
      ScopedSpan span(&run->spans, "storage.DeltaTable::Append", 0);
      PHOTON_CHECK(lh->kv->Append(KvRows(lo, lo + kKvFileRows, 0)).ok());
    }
  }
  times.table_write_ns = NowNs() - w0;

  exec::Compactor::Options compactor_options;
  compactor_options.small_file_rows = kMergeKeys;
  compactor_options.target_file_rows = 8 * kMergeKeys;
  compactor_options.io.cache = lh->cache.get();
  lh->compactor =
      std::make_unique<exec::Compactor>(lh->kv.get(), compactor_options);
  for (int q = 1; q <= kNumQueries; q++) {
    Result<std::string> text = tpch::TpchSqlText(q, kScaleFactor);
    PHOTON_CHECK(text.ok());
    lh->sql_text.push_back(*text);
  }

  // Warm-up: every query once, all in flight together.
  std::vector<std::shared_ptr<service::QuerySession>> warm;
  for (int q = 1; q <= kNumQueries; q++) {
    int64_t compile_ns = 0;
    int64_t optimize_ns = 0;
    warm.push_back(SubmitSql(run, lh, q, 0, &compile_ns, &optimize_ns));
  }
  std::vector<Status> status;
  for (const auto& s : warm) status.push_back(s ? s->Wait() : Status::OK());
  times.total_ns = NowNs() - t0;
  for (int q = 1; q <= kNumQueries; q++) {
    if (warm[q - 1] == nullptr) continue;  // compile failure, counted
    run->ledger.CheckQuery(q, status[q - 1],
                           status[q - 1].ok() ? &warm[q - 1]->table() : nullptr,
                           run->oracle);
  }
  return times;
}

/// Closed-loop stop rule shared by all clients: at least --seconds, and
/// enough reads for a true p95 and writes for a true p90.
struct StopRule {
  int64_t min_end = 0;
  int64_t max_end = 0;
  int64_t need_reads = SamplesForTail(0.95);
  int64_t need_writes = SamplesForTail(0.90);
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> writes{0};

  bool Done() const {
    int64_t now = NowNs();
    return now >= max_end || (now >= min_end && reads.load() >= need_reads &&
                              writes.load() >= need_writes);
  }
};

struct ReaderStats {
  std::vector<std::vector<double>> per_query_ms =
      std::vector<std::vector<double>>(kNumQueries);
  std::vector<double> compile_ms;
  std::vector<double> optimize_ms;
  std::vector<double> wait_ms;
  std::vector<double> exec_ms;
  LayerTotals layers;
  std::map<int, obs::QueryProfile> last_profile;
};

void ReaderLoop(Run* run, Lakehouse* lh, int client, StopRule* stop,
                ReaderStats* out) {
  for (int i = 0; !stop->Done(); i++) {
    // Clients start 7 queries apart so they run a mix, not one query.
    const int q = (client * 7 + i) % kNumQueries + 1;
    const int64_t trace_id = run->spans.NewTraceId();
    ScopedSpan query_span(&run->spans, "query", trace_id);
    const int64_t t0 = NowNs();
    int64_t compile_ns = 0;
    int64_t optimize_ns = 0;
    std::shared_ptr<service::QuerySession> session =
        SubmitSql(run, lh, q, trace_id, &compile_ns, &optimize_ns);
    if (session == nullptr) continue;
    const int64_t submitted = t0 + compile_ns + optimize_ns;
    Status status;
    {
      ScopedSpan span(&run->spans, "service.Wait", trace_id);
      status = session->Wait();
    }
    const int64_t done = NowNs();
    stop->reads.fetch_add(1);
    const obs::QueryProfile& profile = session->profile();
    out->per_query_ms[q - 1].push_back(Ms(done - t0));
    out->compile_ms.push_back(Ms(compile_ns));
    out->optimize_ms.push_back(Ms(optimize_ns));
    out->wait_ms.push_back(Ms(done - submitted - profile.wall_ns));
    out->exec_ms.push_back(Ms(profile.wall_ns));
    run->ledger.CheckQuery(q, status, status.ok() ? &session->table() : nullptr,
                           run->oracle);
    if (run->cfg.trace) {
      out->layers.AddProfile(profile);
      out->layers.AddStages(StagesFromProfile(profile));
      out->last_profile[q] = profile;
    }
  }
}

struct WriterStats {
  std::vector<double> write_ms;
  std::vector<double> merge_ms;
  std::vector<double> pass_ms;
  int64_t dml_ops = 0;
  int64_t rows_written = 0;
  int64_t files_rewritten = 0;
  int64_t files_pruned = 0;
  int64_t conflicts = 0;
  int64_t passes = 0;
  int64_t files_compacted = 0;
};

/// Log versions the writer's transactions claimed: each must be the next
/// version, and none may be claimed twice (a lost commit).
struct VersionLog {
  int64_t last = -1;
  std::set<int64_t> claimed;

  bool Claim(int64_t version) {
    bool ok = version == last + 1 && claimed.insert(version).second;
    last = std::max(last, version);
    return ok;
  }
};

using DmlBody =
    std::function<Result<dml::DmlResult>(exec::Driver*, const ExecContext&)>;

/// Runs one DML statement as a write session and checks its outcome
/// against the model's expectation.
void Write(Run* run, Lakehouse* lh, const char* span_name, bool is_merge,
           DmlBody body, int64_t want_affected, int64_t want_inserted,
           VersionLog* versions, StopRule* stop, WriterStats* out) {
  const int64_t trace_id = run->spans.NewTraceId();
  ScopedSpan write_span(&run->spans, "write", trace_id);
  struct Outcome {
    Result<dml::DmlResult> result = Status::Internal("not run");
    int64_t ns = 0;
  };
  auto outcome = std::make_shared<Outcome>();
  SpanLog* spans = &run->spans;
  const int64_t parent = write_span.id();
  service::WriteFn fn = [=](exec::Driver* driver,
                            const ExecContext& ctx) -> Result<Table> {
    ScopedSpan span(spans, span_name, trace_id, parent);
    int64_t t0 = NowNs();
    outcome->result = body(driver, ctx);
    outcome->ns = NowNs() - t0;
    if (!outcome->result.ok()) return outcome->result.status();
    return Table(KvSchema());
  };
  const int64_t t0 = NowNs();
  std::shared_ptr<service::QuerySession> session;
  {
    ScopedSpan span(&run->spans, "service.SubmitWrite", trace_id);
    session = lh->svc->SubmitWrite(fn);
  }
  Status status;
  {
    ScopedSpan span(&run->spans, "service.Wait", trace_id);
    status = session->Wait();
  }
  out->write_ms.push_back(Ms(NowNs() - t0));
  stop->writes.fetch_add(1);
  const std::string label = std::string(is_merge ? "MERGE" : "DELETE") +
                            " #" + std::to_string(out->dml_ops);
  out->dml_ops++;
  if (!status.ok()) {
    run->ledger.Fail(label + ": " + status.ToString());
    return;
  }
  const dml::DmlResult& r = *outcome->result;
  if (is_merge) out->merge_ms.push_back(Ms(outcome->ns));
  out->rows_written += r.rows_affected + r.rows_inserted;
  out->files_rewritten += r.files_rewritten;
  out->files_pruned += r.files_pruned;
  out->conflicts += r.conflicts_retried;
  bool commits = want_affected + want_inserted > 0;
  if (r.rows_affected != want_affected || r.rows_inserted != want_inserted) {
    run->ledger.Fail(label + ": " + std::to_string(r.rows_affected) + "/" +
                     std::to_string(r.rows_inserted) +
                     " rows changed/inserted, model expects " +
                     std::to_string(want_affected) + "/" +
                     std::to_string(want_inserted));
  } else if (commits ? !versions->Claim(r.version)
                     : r.version != versions->last) {
    run->ledger.Fail(label + ": committed as log version " +
                     std::to_string(r.version) + " after version " +
                     std::to_string(versions->last));
  } else {
    run->ledger.Pass();
  }
}

void WriterLoop(Run* run, Lakehouse* lh, KvModel* model, VersionLog* versions,
                StopRule* stop, WriterStats* out) {
  // Merged values depend on the seed and the op, so every rewrite changes
  // the stored bytes.
  const int64_t seed_bias = static_cast<int64_t>(run->cfg.seed % 1000);
  int64_t deleted_below = 0;
  for (int64_t j = 0; !stop->Done(); j++) {
    const int64_t lo = kKvRows - kMergeKeys / 2 + j * (kMergeKeys / 2);
    const int64_t bias = (j + 1) * 1'000'000 + seed_bias;
    auto source = std::make_shared<Table>(KvRows(lo, lo + kMergeKeys, bias));
    dml::MergeSpec spec;
    spec.source = plan::Scan(source.get());
    spec.target_keys = {0};
    spec.source_keys = {0};
    // Matched rows over [target id, target val, source id, source val].
    spec.matched_exprs = {eb::Col(0, DataType::Int64()),
                          eb::Col(3, DataType::Int64())};
    spec.insert_exprs = {eb::Col(0, DataType::Int64()),
                         eb::Col(1, DataType::Int64())};
    auto [updated, inserted] = model->Upsert(lo, lo + kMergeKeys, bias);
    DeltaTable* kv = lh->kv.get();
    Write(run, lh, "dml.ExecuteMerge", true,
          [kv, spec, source](exec::Driver* driver, const ExecContext& ctx) {
            return dml::ExecuteMerge(kv, spec, driver, ctx);
          },
          updated, inserted, versions, stop, out);

    if ((j + 1) % kDeleteEvery == 0) {
      // Retire the oldest keys so about kKvRows stay live.
      const int64_t cutoff = lo + kMergeKeys - kKvRows;
      auto id = eb::Col(0, DataType::Int64());
      photon::ExprPtr pred = eb::And(eb::Ge(id, eb::Lit(deleted_below)),
                                     eb::Lt(id, eb::Lit(cutoff)));
      int64_t removed = model->Delete(deleted_below, cutoff);
      deleted_below = cutoff;
      Write(run, lh, "dml.ExecuteDelete", false,
            [kv, pred](exec::Driver* driver, const ExecContext& ctx) {
              return dml::ExecuteDelete(kv, pred, driver, ctx);
            },
            removed, 0, versions, stop, out);
    }

    if ((j + 1) % kCompactEvery == 0) {
      const int64_t trace_id = run->spans.NewTraceId();
      int64_t before = lh->compactor->stats().files_compacted;
      int64_t t0 = NowNs();
      Status st;
      {
        ScopedSpan span(&run->spans, "exec.Compactor::RunOncePass", trace_id);
        st = lh->compactor->RunOncePass();
      }
      out->pass_ms.push_back(Ms(NowNs() - t0));
      out->passes++;
      out->files_compacted += lh->compactor->stats().files_compacted - before;
      if (st.ok()) {
        run->ledger.Pass();
      } else {
        run->ledger.Fail("compaction pass: " + st.ToString());
      }
    }
  }
}

/// End-of-run invariants on the key/value table: its metadata and its
/// scanned contents equal the model, and every log version after set-up
/// was claimed by exactly one checked transaction.
void CheckKvTable(Run* run, Lakehouse* lh, const KvModel& model,
                  const VersionLog& versions, const DeltaSnapshot& snap) {
  Ledger& ledger = run->ledger;
  if (snap.version != versions.last) {
    ledger.Fail("kv log ends at version " + std::to_string(snap.version) +
                " but the last checked commit was " +
                std::to_string(versions.last));
  } else {
    ledger.Pass();
  }
  if (snap.num_rows() != model.live()) {
    ledger.Fail("kv snapshot holds " + std::to_string(snap.num_rows()) +
                " rows, model " + std::to_string(model.live()));
  } else {
    ledger.Pass();
  }
  exec::Driver driver(1);
  Result<Table> scanned = driver.Run(plan::DeltaScan(lh->store.get(), snap));
  Table want = model.Contents();
  if (!scanned.ok()) {
    ledger.Fail("kv scan: " + scanned.status().ToString());
  } else if (scanned->num_rows() != want.num_rows() ||
             OrderInsensitiveChecksum(*scanned) !=
                 OrderInsensitiveChecksum(want)) {
    ledger.Fail("kv table contents differ from the model");
  } else {
    ledger.Pass();
  }
}

}  // namespace

void RunLakehouse(Run* run) {
  const RunConfig& cfg = run->cfg;
  auto lh = std::make_unique<Lakehouse>();
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  std::vector<double> write_s;
  for (int rep = 0; rep < kSetupReps; rep++) {
    // Free the previous set-up first, so each starts from the same state.
    lh = std::make_unique<Lakehouse>();
    SetupTimes t = Build(run, lh.get());
    setup_s.push_back(t.total_ns / 1e9);
    datagen_s.push_back(t.datagen_ns / 1e9);
    write_s.push_back(t.table_write_ns / 1e9);
  }

  KvModel model;
  VersionLog versions;
  {
    Result<int64_t> v = lh->kv->LatestVersion();
    PHOTON_CHECK(v.ok());
    versions.last = *v;
  }
  lh->compactor->set_commit_listener([&](int64_t version) {
    if (!versions.Claim(version)) {
      run->ledger.Fail("compaction committed as log version " +
                       std::to_string(version));
    }
  });

  ObjectStore& store = *lh->store;
  const int64_t written0 = store.bytes_written();
  const int64_t gets0 = store.num_gets();
  const io::BlockCache::Stats cache0 = lh->cache->stats();
  const int64_t tasks0 = lh->svc->stats().tasks_executed;

  StopRule stop;
  const int64_t start = NowNs();
  stop.min_end = start + static_cast<int64_t>(cfg.seconds * 1e9);
  stop.max_end = start + kMaxTimedNs;
  std::vector<ReaderStats> readers(kReaders);
  WriterStats writer;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kReaders; c++) {
      clients.emplace_back(ReaderLoop, run, lh.get(), c, &stop, &readers[c]);
    }
    clients.emplace_back(WriterLoop, run, lh.get(), &model, &versions, &stop,
                         &writer);
    for (std::thread& t : clients) t.join();
  }
  const double wall_s = (NowNs() - start) / 1e9;
  lh->svc->Drain();

  const int64_t reads = stop.reads.load();
  const io::BlockCache::Stats cache1 = lh->cache->stats();
  const int64_t hits = cache1.hits - cache0.hits;
  const int64_t misses = cache1.misses - cache0.misses;
  Metrics& m = run->metrics;
  m.Set("storage.bytes_written_per_row",
        SafeDiv(store.bytes_written() - written0, writer.rows_written),
        "B/row");
  m.Set("storage.gets_per_query", SafeDiv(store.num_gets() - gets0, reads),
        "count");
  m.Set("io.cache_hit_ratio", SafeDiv(hits, hits + misses), "ratio");
  m.Set("io.cache_evictions",
        SafeDiv(cache1.evictions - cache0.evictions, reads), "count");
  m.Set("service.tasks_per_query",
        SafeDiv(lh->svc->stats().tasks_executed - tasks0, reads), "count");

  // The writer's table at the end: a timed snapshot, then the invariants.
  std::vector<double> snapshot_ms;
  Result<DeltaSnapshot> snap = Status::Internal("no snapshot");
  for (int i = 0; i < 5; i++) {
    ScopedSpan span(&run->spans, "storage.DeltaTable::Snapshot", 0);
    int64_t t0 = NowNs();
    snap = lh->kv->Snapshot();
    snapshot_ms.push_back(Ms(NowNs() - t0));
  }
  if (snap.ok()) {
    m.Set("storage.snapshot_ms", Median(snapshot_ms), "ms");
    m.Set("storage.log_versions", snap->version + 1, "count");
    m.Set("storage.files_live", snap->files.size(), "count");
    CheckKvTable(run, lh.get(), model, versions, *snap);
  } else {
    run->ledger.Fail("kv snapshot: " + snap.status().ToString());
  }

  std::vector<std::vector<double>> per_query(kNumQueries);
  std::vector<double> all, compile, optimize, wait, exec_ms;
  LayerTotals layers;
  for (ReaderStats& r : readers) {
    for (int q = 0; q < kNumQueries; q++) {
      per_query[q].insert(per_query[q].end(), r.per_query_ms[q].begin(),
                          r.per_query_ms[q].end());
      all.insert(all.end(), r.per_query_ms[q].begin(), r.per_query_ms[q].end());
    }
    compile.insert(compile.end(), r.compile_ms.begin(), r.compile_ms.end());
    optimize.insert(optimize.end(), r.optimize_ms.begin(), r.optimize_ms.end());
    wait.insert(wait.end(), r.wait_ms.begin(), r.wait_ms.end());
    exec_ms.insert(exec_ms.end(), r.exec_ms.begin(), r.exec_ms.end());
    layers.Merge(r.layers);
    for (auto& [q, profile] : r.last_profile) {
      run->profiles.push_back(std::move(profile));
    }
  }

  m.Set("setup_s", Median(setup_s), "s");
  m.Set("tpch.datagen_s", Median(datagen_s), "s");
  m.Set("storage.table_write_s", Median(write_s), "s");
  m.Set("query_geomean_ms", GeoMeanOfMedians(per_query), "ms");
  m.Set("query_p50_ms", Median(all), "ms");
  m.Set("query_p95_ms", TailPercentile(all, 0.95), "ms");
  m.Set("query_qps", SafeDiv(reads, wall_s), "1/s");
  m.Set("write_p50_ms", Median(writer.write_ms), "ms");
  m.Set("write_p90_ms", TailPercentile(writer.write_ms, 0.90), "ms");
  m.Set("write_rows_per_s", SafeDiv(writer.rows_written, wall_s), "rows/s");
  m.Set("sql.compile_ms", Median(compile), "ms");
  m.Set("opt.optimize_ms", Median(optimize), "ms");
  m.Set("service.wait_ms.p50", Median(wait), "ms");
  m.Set("service.wait_ms.p95", TailPercentile(wait, 0.95), "ms");
  m.Set("service.exec_ms", Median(exec_ms), "ms");
  m.Set("dml.merge_ms", Median(writer.merge_ms), "ms");
  m.Set("dml.files_rewritten_per_op",
        SafeDiv(writer.files_rewritten, writer.dml_ops), "count");
  m.Set("dml.files_pruned_per_op", SafeDiv(writer.files_pruned, writer.dml_ops),
        "count");
  m.Set("dml.conflicts_retried", writer.conflicts, "count");
  m.Set("compactor.pass_ms", Median(writer.pass_ms), "ms");
  m.Set("compactor.files_compacted",
        SafeDiv(writer.files_compacted, writer.passes), "count");
  if (cfg.trace) {
    EmitProfileLayers(layers, kWorkers * wall_s * 1e9, &m);
  }

  photon::JsonWriter& c = run->config;
  c.Field("workers", kWorkers);
  c.Field("clients", kReaders + 1);
  c.Field("setup_reps", kSetupReps);
  c.Field("store_get_latency_us", kGetLatencyUs);
  c.Field("cache_capacity_bytes", kCacheBytes);
  c.Field("memory_pool_bytes", kMemoryPoolBytes);
  c.Field("kv_rows", kKvRows);
  c.Field("merge_keys", kMergeKeys);
  c.Field("query_samples", reads);
  c.Field("write_samples", static_cast<int64_t>(writer.write_ms.size()));
  c.Field("compaction_passes", writer.passes);
  c.Field("timed_wall_s", wall_s);
  c.Field("lineitem_rows", lh->data->lineitem.num_rows());
}

}  // namespace perf
