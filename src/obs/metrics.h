#ifndef PHOTON_OBS_METRICS_H_
#define PHOTON_OBS_METRICS_H_

#include <atomic>
#include <cstdint>

namespace photon {
namespace obs {

/// The fixed metric vocabulary every operator (Photon and baseline), the
/// driver, the memory manager, and the IO layer report into — the
/// miniature analogue of Photon's integration with Spark's metrics system
/// (§5.2): rows, batches, time, peak memory, and spill activity for every
/// operator, uniformly. A small closed enum keeps a counter update one
/// relaxed atomic add on a task-local shard: no maps, no strings, no locks
/// on the hot path.
///
/// Ordering matters: metrics at or after kPeakReservedBytes are "resource"
/// metrics (IO, memory, spill) that roll up across a whole operator tree
/// into stage totals; metrics before it are per-operator flow metrics
/// (rows/batches/time) where summing across tree levels would double-count.
enum class Metric : uint8_t {
  kRowsOut = 0,        // active rows emitted
  kBatches,            // batches emitted
  kBatchRows,          // total batch slots incl. filtered-out rows; the
                       // paper's active-row fraction = rows_out/batch_rows
  kWallNs,             // wall time inside GetNext (includes children)
  kCpuNs,              // thread CPU time (recorded per task by the driver)
  kExprFusedBatches,   // batches run on the fused-interpreter expr tier
  kExprCompiledBatches,  // batches run with >= 1 compiled term or step
  kExprTierSwitches,   // always 0: the tier rule is static; kept because
                       // the benchmark harness still reads it
  kScratchPoolHits,    // EvalContext scratch vectors served from the pool
  kScratchPoolMisses,  // EvalContext scratch vectors freshly allocated
  // -- resource metrics (tree-foldable) from here down ----------------------
  kPeakReservedBytes,  // max-aggregated everywhere (never summed)
  kSpillCount,
  kSpillBytes,
  kReserveWaitNs,      // time blocked in MemoryManager::Reserve on other
                       // task groups' releases (§5.3 backpressure)
  kReserveWaits,
  kBytesRead,          // file payload pulled into scans (cache or store)
  kCacheHits,          // fetches served by the BlockCache
  kPrefetchWaitNs,     // time a scan blocked on an in-flight read-ahead
  kFilesRead,
  kRowGroupsSkipped,   // min/max stats skipping at row-group granularity
  kFilesPruned,        // Delta snapshot file pruning
  kShuffleBytes,
};

inline constexpr int kNumMetrics =
    static_cast<int>(Metric::kShuffleBytes) + 1;

/// Stable snake_case name used in exported JSON profiles.
const char* MetricName(Metric m);

/// Metrics merged by max instead of sum (a peak summed over tasks or tree
/// levels is meaningless).
inline constexpr bool IsMaxAggregated(Metric m) {
  return m == Metric::kPeakReservedBytes;
}

/// Metrics that fold across an operator tree into stage/query totals.
inline constexpr bool IsResourceMetric(Metric m) {
  return static_cast<int>(m) >= static_cast<int>(Metric::kPeakReservedBytes);
}

/// Monotonic wall clock in ns (steady_clock).
int64_t WallNowNs();

/// Per-thread CPU time in ns (CLOCK_THREAD_CPUTIME_ID; 0 where
/// unavailable). A syscall-priced clock, so it is sampled per task/morsel
/// by the driver, not per operator call.
int64_t ThreadCpuNs();

struct MetricSnapshot;

/// One shard of counters: a fixed array of relaxed atomics. Each operator
/// instance owns one (its task-local shard under morsel parallelism, since
/// operator chains are per-morsel), so updates never contend; merging
/// happens at stage barriers after the owning task finished. Atomics keep
/// concurrent readers (live metrics, TSan) safe without any locking.
class MetricSet {
 public:
  MetricSet() = default;
  MetricSet(const MetricSet&) = delete;
  MetricSet& operator=(const MetricSet&) = delete;

  void Add(Metric m, int64_t delta) {
    v_[static_cast<int>(m)].fetch_add(delta, std::memory_order_relaxed);
  }

  /// Raises the metric to at least `value` (for peaks/gauges).
  void SetMax(Metric m, int64_t value) {
    std::atomic<int64_t>& a = v_[static_cast<int>(m)];
    int64_t cur = a.load(std::memory_order_relaxed);
    while (value > cur &&
           !a.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  int64_t Value(Metric m) const {
    return v_[static_cast<int>(m)].load(std::memory_order_relaxed);
  }

  /// Folds `other` in: sum per metric, max for max-aggregated ones.
  void MergeFrom(const MetricSet& other);
  /// Folds only the resource metrics of `other` in (stage/tree roll-ups).
  void MergeResourceFrom(const MetricSet& other);

  MetricSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<int64_t> v_[kNumMetrics] = {};
};

/// A plain (non-atomic, copyable) view of a MetricSet — what StageInfo and
/// exported profiles carry once a stage's shards have been merged.
struct MetricSnapshot {
  int64_t v[kNumMetrics] = {};

  int64_t operator[](Metric m) const { return v[static_cast<int>(m)]; }
  int64_t& operator[](Metric m) { return v[static_cast<int>(m)]; }

  void MergeFrom(const MetricSnapshot& other);
  void MergeResourceFrom(const MetricSet& other);
};

}  // namespace obs
}  // namespace photon

#endif  // PHOTON_OBS_METRICS_H_
