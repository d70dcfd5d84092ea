#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "baseline/row_operator.h"
#include "plan/logical_plan.h"
#include "tpch/tpch_queries.h"

namespace perf {

using photon::Table;
using photon::obs::Metric;
using photon::obs::ProfileNode;
using photon::obs::QueryProfile;

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double TailPercentile(std::vector<double> v, double p, int min_beyond) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  int64_t n = static_cast<int64_t>(v.size());
  int64_t rank =
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n))) - 1;
  rank = std::min(rank, n - 1 - min_beyond);
  rank = std::clamp<int64_t>(rank, 0, n - 1);
  return v[static_cast<size_t>(rank)];
}

int64_t SamplesForTail(double p, int min_beyond) {
  // Smallest n with n - ceil(p n) >= min_beyond.
  int64_t n = 1;
  while (n - static_cast<int64_t>(std::ceil(p * static_cast<double>(n))) <
         min_beyond) {
    n++;
  }
  return n;
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  int n = 0;
  for (double x : v) {
    if (x <= 0) continue;
    log_sum += std::log(x);
    n++;
  }
  return n == 0 ? 0 : std::exp(log_sum / n);
}

double GeoMeanOfMedians(const std::vector<std::vector<double>>& per_query) {
  std::vector<double> medians;
  for (const std::vector<double>& samples : per_query) {
    if (!samples.empty()) medians.push_back(Median(samples));
  }
  return GeoMean(medians);
}

// ---------------------------------------------------------------------------
// Profile arithmetic
// ---------------------------------------------------------------------------

void ForEachSelfTime(
    const ProfileNode& root,
    const std::function<void(const ProfileNode&, int64_t)>& fn) {
  int64_t self = root.Sum(Metric::kWallNs);
  for (const ProfileNode& child : root.children) {
    if (child.stage_id == root.stage_id) self -= child.Sum(Metric::kWallNs);
    ForEachSelfTime(child, fn);
  }
  fn(root, self);
}

std::vector<StageSummary> StagesFromInfo(
    const std::vector<photon::exec::StageInfo>& stages) {
  std::vector<StageSummary> out;
  for (const photon::exec::StageInfo& s : stages) {
    out.push_back({s.num_tasks, s.wall_ns()});
  }
  return out;
}

namespace {

void CollectStages(const ProfileNode& node,
                   std::map<int, StageSummary>* stages) {
  if (node.stage_id >= 0) {
    StageSummary& s = (*stages)[node.stage_id];
    s.num_tasks = std::max(s.num_tasks, node.num_tasks);
    s.wall_ns = std::max(s.wall_ns, node.Sum(Metric::kWallNs));
  }
  for (const ProfileNode& child : node.children) CollectStages(child, stages);
}

}  // namespace

std::vector<StageSummary> StagesFromProfile(const QueryProfile& profile) {
  std::map<int, StageSummary> by_id;
  CollectStages(profile.root, &by_id);
  std::vector<StageSummary> out;
  for (const auto& [id, s] : by_id) out.push_back(s);
  return out;
}

OpGroup GroupOf(const std::string& name) {
  if (name == "TableScan" || name == "DeltaScan" || name == "StageScan") {
    return OpGroup::kScan;
  }
  if (name == "Filter" || name == "Project" || name == "FusedFilterProject") {
    return OpGroup::kFilterProject;
  }
  if (name == "HashJoin") return OpGroup::kHashJoin;
  if (name.rfind("HashAggregate", 0) == 0) return OpGroup::kHashAgg;
  if (name == "Sort" || name == "SortMerge") return OpGroup::kSort;
  return OpGroup::kOther;
}

void LayerTotals::AddProfile(const QueryProfile& profile) {
  queries++;
  ForEachSelfTime(profile.root, [this](const ProfileNode& n, int64_t self) {
    self_ns[static_cast<int>(GroupOf(n.name))] += self;
    rows_out += n.Sum(Metric::kRowsOut);
    batch_rows += n.Sum(Metric::kBatchRows);
    expr_fused_batches += n.Sum(Metric::kExprFusedBatches);
    expr_compiled_batches += n.Sum(Metric::kExprCompiledBatches);
    expr_tier_switches += n.Sum(Metric::kExprTierSwitches);
    scratch_hits += n.Sum(Metric::kScratchPoolHits);
    scratch_misses += n.Sum(Metric::kScratchPoolMisses);
    peak_reserved_bytes =
        std::max(peak_reserved_bytes, n.Sum(Metric::kPeakReservedBytes));
    reserve_wait_ns += n.Sum(Metric::kReserveWaitNs);
    spill_bytes += n.Sum(Metric::kSpillBytes);
    bytes_read += n.Sum(Metric::kBytesRead);
    prefetch_wait_ns += n.Sum(Metric::kPrefetchWaitNs);
    row_groups_skipped += n.Sum(Metric::kRowGroupsSkipped);
    files_pruned += n.Sum(Metric::kFilesPruned);
  });
}

void LayerTotals::AddStages(const std::vector<StageSummary>& list) {
  for (const StageSummary& s : list) {
    stages++;
    tasks += s.num_tasks;
    if (s.num_tasks == 1) serial_stage_ns += s.wall_ns;
  }
}

void LayerTotals::Merge(const LayerTotals& o) {
  queries += o.queries;
  for (int g = 0; g < kNumOpGroups; g++) self_ns[g] += o.self_ns[g];
  rows_out += o.rows_out;
  batch_rows += o.batch_rows;
  expr_fused_batches += o.expr_fused_batches;
  expr_compiled_batches += o.expr_compiled_batches;
  expr_tier_switches += o.expr_tier_switches;
  scratch_hits += o.scratch_hits;
  scratch_misses += o.scratch_misses;
  peak_reserved_bytes = std::max(peak_reserved_bytes, o.peak_reserved_bytes);
  reserve_wait_ns += o.reserve_wait_ns;
  spill_bytes += o.spill_bytes;
  bytes_read += o.bytes_read;
  prefetch_wait_ns += o.prefetch_wait_ns;
  row_groups_skipped += o.row_groups_skipped;
  files_pruned += o.files_pruned;
  stages += o.stages;
  tasks += o.tasks;
  serial_stage_ns += o.serial_stage_ns;
}

int64_t LayerTotals::total_self_ns() const {
  int64_t total = 0;
  for (int64_t ns : self_ns) total += ns;
  return total;
}

void EmitProfileLayers(const LayerTotals& t, double worker_capacity_ns,
                       Metrics* m) {
  const double q = static_cast<double>(t.queries);
  // Per 22 executions, i.e. per TPC-H pass.
  auto per_pass_ms = [&](int64_t ns) {
    return SafeDiv(Ms(ns) * kNumQueries, q);
  };
  auto per_query = [&](int64_t v) {
    return SafeDiv(static_cast<double>(v), q);
  };
  const auto& s = t.self_ns;
  m->Set("ops.scan_self_ms", per_pass_ms(s[0]), "ms");
  m->Set("ops.filter_project_self_ms", per_pass_ms(s[1]), "ms");
  m->Set("ops.hash_join_self_ms", per_pass_ms(s[2]), "ms");
  m->Set("ops.hash_agg_self_ms", per_pass_ms(s[3]), "ms");
  m->Set("ops.sort_self_ms", per_pass_ms(s[4]), "ms");
  m->Set("ops.active_row_fraction",
         SafeDiv(static_cast<double>(t.rows_out),
                 static_cast<double>(t.batch_rows)),
         "ratio");
  m->Set("expr.compiled_batch_share",
         SafeDiv(static_cast<double>(t.expr_compiled_batches),
                 static_cast<double>(t.expr_compiled_batches +
                                     t.expr_fused_batches)),
         "ratio");
  m->Set("expr.tier_switches",
         SafeDiv(static_cast<double>(t.expr_tier_switches) * kNumQueries, q),
         "count");
  m->Set("expr.scratch_pool_hit_ratio",
         SafeDiv(static_cast<double>(t.scratch_hits),
                 static_cast<double>(t.scratch_hits + t.scratch_misses)),
         "ratio");
  m->Set("memory.peak_reserved_mb",
         static_cast<double>(t.peak_reserved_bytes) / (1 << 20), "MB");
  m->Set("memory.reserve_wait_ms", SafeDiv(Ms(t.reserve_wait_ns), q), "ms");
  m->Set("memory.spill_bytes", per_query(t.spill_bytes), "B");
  m->Set("io.prefetch_wait_ms", SafeDiv(Ms(t.prefetch_wait_ns), q), "ms");
  m->Set("io.bytes_read_per_query", per_query(t.bytes_read), "B");
  m->Set("io.row_groups_skipped", per_query(t.row_groups_skipped), "count");
  m->Set("io.files_pruned", per_query(t.files_pruned), "count");
  m->Set("exec.worker_busy_ratio",
         SafeDiv(static_cast<double>(t.total_self_ns()), worker_capacity_ns),
         "ratio");
  m->Set("exec.serial_stage_ms", per_pass_ms(t.serial_stage_ns), "ms");
  m->Set("exec.stages_per_query", per_query(t.stages), "count");
  m->Set("exec.tasks_per_query", per_query(t.tasks), "count");
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

uint64_t OrderInsensitiveChecksum(const Table& t) {
  uint64_t sum = 0;
  for (const std::vector<photon::Value>& row : t.ToRows()) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    for (const photon::Value& v : row) {
      for (char c : v.ToString()) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
      }
      h ^= '|';
      h *= 1099511628211ull;
    }
    sum += h;
  }
  return sum;
}

Oracle ComputeOracle(const photon::tpch::TpchData& data, int threads) {
  Oracle oracle(kNumQueries);
  std::atomic<int> next{1};
  auto work = [&] {
    for (int q = next.fetch_add(1); q <= kNumQueries; q = next.fetch_add(1)) {
      auto plan = photon::tpch::TpchQuery(q, data, kScaleFactor);
      PHOTON_CHECK(plan.ok());
      auto op = photon::plan::CompileBaseline(*plan);
      PHOTON_CHECK(op.ok());
      auto result = photon::baseline::CollectAllRows(op->get());
      PHOTON_CHECK(result.ok());
      oracle[q - 1] = {result->num_rows(), OrderInsensitiveChecksum(*result)};
    }
  };
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; i++) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return oracle;
}

bool WriteOracle(const Oracle& oracle, const std::string& path) {
  std::ofstream out(path);
  for (size_t i = 0; i < oracle.size(); i++) {
    out << (i + 1) << ' ' << oracle[i].rows << ' ' << oracle[i].checksum
        << '\n';
  }
  return static_cast<bool>(out);
}

std::optional<Oracle> ReadOracle(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  Oracle oracle(kNumQueries);
  int q = 0;
  Expected e;
  int seen = 0;
  while (in >> q >> e.rows >> e.checksum) {
    if (q < 1 || q > kNumQueries) return std::nullopt;
    oracle[q - 1] = e;
    seen++;
  }
  if (seen != kNumQueries) return std::nullopt;
  return oracle;
}

void Ledger::Fail(const std::string& what) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(log_mu_);
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

bool Ledger::CheckQuery(int q, const photon::Status& status,
                        const Table* table, const Oracle& oracle) {
  const std::string label = "Q" + std::to_string(q);
  if (!status.ok()) {
    Fail(label + " error: " + status.ToString());
    return false;
  }
  const Expected& want = oracle[q - 1];
  if (table->num_rows() != want.rows ||
      OrderInsensitiveChecksum(*table) != want.checksum) {
    Fail(label + " result differs from the baseline engine (" +
         std::to_string(table->num_rows()) + " rows, expected " +
         std::to_string(want.rows) + ")");
    return false;
  }
  Pass();
  return true;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::optional<double> Metrics::Get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second.first;
  }
  return std::nullopt;
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); i++) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", items_[i].second.first);
    if (i > 0) out += ", ";
    out += "\"" + items_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  return out + "}";
}

std::string ResultLine(const Ledger& ledger, const Metrics& metrics) {
  return std::string("{\"correct\": ") +
         (ledger.failed() == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(ledger.attempted()) +
         ", \"failed\": " + std::to_string(ledger.failed()) +
         ", \"metrics\": " + metrics.ToJson() + "}";
}

void BeginConfig(const RunConfig& cfg, photon::JsonWriter* json) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int64_t cpus_allowed =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  json->BeginObject();
  json->Field("workload", cfg.workload);
  json->Field("seed", static_cast<int64_t>(cfg.seed));
  json->Field("seconds", cfg.seconds);
  json->Field("trace", static_cast<int64_t>(cfg.trace));
  json->Field("scale_factor", kScaleFactor);
  json->Field("nproc",
              static_cast<int64_t>(std::thread::hardware_concurrency()));
  json->Field("cpus_allowed", cpus_allowed);
  json->Field("compiler", std::string(PERF_COMPILER));
  json->Field("build_type", std::string(PERF_BUILD_TYPE));
  json->Field("commit", cfg.commit);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

namespace {
thread_local std::vector<int64_t> t_open_spans;
}  // namespace

int64_t SpanLog::Begin(const char* name, int64_t trace_id, int64_t parent) {
  if (parent == kInheritParent) {
    parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  }
  uint64_t thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, NowNs(), 0, parent, trace_id, thread});
  }
  t_open_spans.push_back(id);
  return id;
}

void SpanLog::End(int64_t span_id) {
  int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(span_id)].end_ns = now;
  }
  if (!t_open_spans.empty() && t_open_spans.back() == span_id) {
    t_open_spans.pop_back();
  }
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::map<uint64_t, int64_t> tids;
  photon::JsonWriter json;
  json.BeginObject();
  json.BeginArray("traceEvents");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    auto tid = tids.emplace(s.thread, static_cast<int64_t>(tids.size())).first;
    json.BeginObject();
    json.Field("name", std::string(s.name));
    json.Field("ph", std::string("X"));
    json.Field("ts", static_cast<double>(s.start_ns - origin) / 1e3);
    json.Field("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    json.Field("pid", int64_t{1});
    json.Field("tid", tid->second);
    json.BeginObject("args");
    json.Field("span", static_cast<int64_t>(i));
    json.Field("parent", s.parent);
    json.Field("trace", s.trace_id);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.WriteTo(path);
}

bool WriteTraceArtifacts(const RunConfig& cfg, const SpanLog& spans,
                         const std::vector<QueryProfile>& profiles,
                         const std::string& config_json,
                         const std::string& result_line) {
  if (cfg.out_dir.empty()) return true;
  bool ok = spans.WriteChromeTrace(cfg.out_dir + "/spans.json");
  std::string all = "[";
  for (size_t i = 0; i < profiles.size(); i++) {
    if (i > 0) all += ",\n";
    all += profiles[i].ToJson();
  }
  all += "]\n";
  std::ofstream(cfg.out_dir + "/profiles.json") << all;
  std::ofstream result(cfg.out_dir + "/result.json");
  result << "{\"config\": " << config_json << ", \"result\": " << result_line
         << "}\n";
  return ok && static_cast<bool>(result);
}

}  // namespace perf
