#include "obs/metrics.h"

#include <chrono>
#include <ctime>

namespace photon {
namespace obs {

const char* MetricName(Metric m) {
  switch (m) {
    case Metric::kRowsOut:
      return "rows_out";
    case Metric::kBatches:
      return "batches";
    case Metric::kBatchRows:
      return "batch_rows";
    case Metric::kWallNs:
      return "wall_ns";
    case Metric::kCpuNs:
      return "cpu_ns";
    case Metric::kExprFusedBatches:
      return "expr_fused_batches";
    case Metric::kExprCompiledBatches:
      return "expr_compiled_batches";
    case Metric::kExprTierSwitches:
      return "expr_tier_switches";
    case Metric::kScratchPoolHits:
      return "scratch_pool_hits";
    case Metric::kScratchPoolMisses:
      return "scratch_pool_misses";
    case Metric::kPeakReservedBytes:
      return "peak_reserved_bytes";
    case Metric::kSpillCount:
      return "spill_count";
    case Metric::kSpillBytes:
      return "spill_bytes";
    case Metric::kReserveWaitNs:
      return "reserve_wait_ns";
    case Metric::kReserveWaits:
      return "reserve_waits";
    case Metric::kBytesRead:
      return "bytes_read";
    case Metric::kCacheHits:
      return "cache_hits";
    case Metric::kPrefetchWaitNs:
      return "prefetch_wait_ns";
    case Metric::kFilesRead:
      return "files_read";
    case Metric::kRowGroupsSkipped:
      return "row_groups_skipped";
    case Metric::kFilesPruned:
      return "files_pruned";
    case Metric::kShuffleBytes:
      return "shuffle_bytes";
  }
  return "unknown";
}

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  }
#endif
  return 0;
}

void MetricSet::MergeFrom(const MetricSet& other) {
  for (int i = 0; i < kNumMetrics; i++) {
    Metric m = static_cast<Metric>(i);
    int64_t v = other.Value(m);
    if (IsMaxAggregated(m)) {
      SetMax(m, v);
    } else if (v != 0) {
      Add(m, v);
    }
  }
}

void MetricSet::MergeResourceFrom(const MetricSet& other) {
  for (int i = 0; i < kNumMetrics; i++) {
    Metric m = static_cast<Metric>(i);
    if (!IsResourceMetric(m)) continue;
    int64_t v = other.Value(m);
    if (IsMaxAggregated(m)) {
      SetMax(m, v);
    } else if (v != 0) {
      Add(m, v);
    }
  }
}

MetricSnapshot MetricSet::Snapshot() const {
  MetricSnapshot snap;
  for (int i = 0; i < kNumMetrics; i++) {
    snap.v[i] = v_[i].load(std::memory_order_relaxed);
  }
  return snap;
}

void MetricSet::Reset() {
  for (int i = 0; i < kNumMetrics; i++) {
    v_[i].store(0, std::memory_order_relaxed);
  }
}

void MetricSnapshot::MergeFrom(const MetricSnapshot& other) {
  for (int i = 0; i < kNumMetrics; i++) {
    Metric m = static_cast<Metric>(i);
    if (IsMaxAggregated(m)) {
      if (other.v[i] > v[i]) v[i] = other.v[i];
    } else {
      v[i] += other.v[i];
    }
  }
}

}  // namespace obs
}  // namespace photon
