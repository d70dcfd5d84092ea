#ifndef PHOTON_PERF_HARNESS_H_
#define PHOTON_PERF_HARNESS_H_

// Shared pieces of the engine benchmark: statistics, the correctness
// oracle, the op ledger, metric output, spans, and the roll-up of query
// profiles into per-layer numbers. Everything here drives the engine
// through its public headers only.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "exec/driver.h"
#include "obs/profile.h"
#include "tpch/tpch_gen.h"
#include "vector/table.h"

namespace perf {

/// TPC-H scale of every workload: 0.1 = ~600k lineitem rows.
inline constexpr double kScaleFactor = 0.1;
inline constexpr int kNumQueries = 22;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Cached oracle file for (kScaleFactor, seed).
  std::string oracle_path;
  /// Where a traced run writes its spans, profiles and result; empty = none.
  std::string out_dir;
  /// Source revision, recorded in the config block.
  std::string commit = "unknown";
};

inline int64_t NowNs() { return photon::obs::WallNowNs(); }
inline double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Median; the mean of the two middle values for an even count. 0 if empty.
double Median(std::vector<double> v);

/// The nearest-rank p-quantile (p in (0,1)), lowered when needed so that at
/// least `min_beyond` samples lie after it: a tail percentile from too few
/// samples is reported at the highest rank the sample supports. 0 if empty.
double TailPercentile(std::vector<double> v, double p, int min_beyond = 10);

/// Sample count at which TailPercentile(p, min_beyond) is the true
/// nearest-rank p-quantile.
int64_t SamplesForTail(double p, int min_beyond = 10);

/// Geometric mean of positive values (non-positive ones are skipped).
double GeoMean(const std::vector<double>& v);

/// Geometric mean over queries of each query's median latency; queries
/// with no samples are skipped.
double GeoMeanOfMedians(const std::vector<std::vector<double>>& per_query);

/// Ratio with a zero denominator reading 0.
inline double SafeDiv(double num, double den) {
  return den != 0 ? num / den : 0;
}

// ---------------------------------------------------------------------------
// Profile arithmetic
// ---------------------------------------------------------------------------

/// Calls fn(node, self_ns) for every node of the tree. Self time is the
/// node's wall minus the wall of its children *in the same stage*. A child
/// in another stage — the stage behind a StageScan, a join's build side, the
/// partial aggregate under a final merge — ran before this node's stage
/// started, so its time was never part of this node's wall.
void ForEachSelfTime(
    const photon::obs::ProfileNode& root,
    const std::function<void(const photon::obs::ProfileNode&, int64_t)>& fn);

/// One executed stage: its task count and wall time.
struct StageSummary {
  int num_tasks = 0;
  int64_t wall_ns = 0;
};
std::vector<StageSummary> StagesFromInfo(
    const std::vector<photon::exec::StageInfo>& stages);
/// The same from a profile alone (the service returns no StageInfo): nodes
/// grouped by stage id; a stage's task count is its nodes' largest, and
/// its wall that of its top node, exact for single-task stages.
std::vector<StageSummary> StagesFromProfile(
    const photon::obs::QueryProfile& profile);

/// Operator families the per-layer `ops.*` metrics group profile nodes by.
enum class OpGroup {
  kScan,
  kFilterProject,
  kHashJoin,
  kHashAgg,
  kSort,
  kOther
};
inline constexpr int kNumOpGroups = 6;
OpGroup GroupOf(const std::string& node_name);

/// Sums over query profiles, from which the per-layer metrics derive.
struct LayerTotals {
  int64_t queries = 0;
  std::array<int64_t, kNumOpGroups> self_ns = {};
  int64_t rows_out = 0;
  int64_t batch_rows = 0;
  int64_t expr_fused_batches = 0;
  int64_t expr_compiled_batches = 0;
  int64_t expr_tier_switches = 0;
  int64_t scratch_hits = 0;
  int64_t scratch_misses = 0;
  int64_t peak_reserved_bytes = 0;  // max over queries
  int64_t reserve_wait_ns = 0;
  int64_t spill_bytes = 0;
  int64_t bytes_read = 0;
  int64_t prefetch_wait_ns = 0;
  int64_t row_groups_skipped = 0;
  int64_t files_pruned = 0;
  int64_t stages = 0;
  int64_t tasks = 0;
  int64_t serial_stage_ns = 0;

  void AddProfile(const photon::obs::QueryProfile& profile);
  void AddStages(const std::vector<StageSummary>& stages);
  void Merge(const LayerTotals& other);
  int64_t total_self_ns() const;
};

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

/// Order-insensitive content checksum: per-row FNV-1a over the printed
/// cells, summed across rows, so two engines that emit the same multiset
/// of rows in different orders agree.
uint64_t OrderInsensitiveChecksum(const photon::Table& t);

struct Expected {
  int64_t rows = -1;
  uint64_t checksum = 0;
};
/// Expected result of TPC-H query q at index q-1.
using Oracle = std::vector<Expected>;

/// Runs the 22 queries through the baseline row engine (the oracle; never
/// timed), `threads` queries at a time.
Oracle ComputeOracle(const photon::tpch::TpchData& data, int threads);
bool WriteOracle(const Oracle& oracle, const std::string& path);
std::optional<Oracle> ReadOracle(const std::string& path);

/// Thread-safe count of checked operations. A failed, mismatched or
/// invariant-violating op counts as failed and is logged to stderr; the run
/// goes on.
class Ledger {
 public:
  void Pass() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what);
  /// Checks one TPC-H result against the oracle and records the outcome.
  /// `table` is read only when `status` is OK.
  bool CheckQuery(int q, const photon::Status& status,
                  const photon::Table* table, const Oracle& oracle);
  bool CheckQuery(int q, const photon::Result<photon::Table>& result,
                  const Oracle& oracle) {
    return result.ok() ? CheckQuery(q, photon::Status::OK(), &*result, oracle)
                       : CheckQuery(q, result.status(), nullptr, oracle);
  }

  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }
  double fail_ratio() const {
    return SafeDiv(static_cast<double>(failed()),
                   static_cast<double>(attempted()));
  }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::mutex log_mu_;
};

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::optional<double> Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// The benchmark's result line: correct, attempted, failed, metrics.
std::string ResultLine(const Ledger& ledger, const Metrics& metrics);

/// Machine and configuration block: nproc, compiler, build type, SF, seed,
/// commit, plus workload-specific fields. Open object; caller closes it.
void BeginConfig(const RunConfig& cfg, photon::JsonWriter* json);

/// Process high-water resident set (VmHWM) in MB; 0 where unavailable.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// In-memory span log for traced runs. Each span has a name, start, end,
/// the span that caused it (the innermost open span on the same thread)
/// and the id shared by every span of one query or write. Written out as
/// a Chrome trace when the run ends. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int64_t NewTraceId() { return next_trace_.fetch_add(1) + 1; }
  /// Parent kInheritParent = the innermost open span of this thread.
  static constexpr int64_t kInheritParent = -2;
  int64_t Begin(const char* name, int64_t trace_id,
                int64_t parent = kInheritParent);
  void End(int64_t span_id);
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    int64_t trace_id;
    uint64_t thread;
  };
  const bool enabled_;
  std::atomic<int64_t> next_trace_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t trace_id,
             int64_t parent = SpanLog::kInheritParent)
      : log_(log),
        id_(log->enabled() ? log->Begin(name, trace_id, parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Span id, for children opened on another thread; -1 when disabled.
  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

/// Traced-run artifacts: spans, the kept query profiles, and the config
/// plus every metric, under cfg.out_dir. Returns false on a write error.
bool WriteTraceArtifacts(const RunConfig& cfg, const SpanLog& spans,
                         const std::vector<photon::obs::QueryProfile>& profiles,
                         const std::string& config_json,
                         const std::string& result_line);

// ---------------------------------------------------------------------------
// Per-layer metrics shared by all workloads
// ---------------------------------------------------------------------------

/// Emits the ops/expr/memory/io-profile/exec-stage metrics of `t`.
/// Amounts of time are reported per 22 query executions (one TPC-H pass).
/// `worker_capacity_ns` = workers x wall the queries ran in (busy ratio).
void EmitProfileLayers(const LayerTotals& t, double worker_capacity_ns,
                       Metrics* m);

}  // namespace perf

#endif  // PHOTON_PERF_HARNESS_H_
