// Engine benchmark entry point. Normally started by run.py, which builds
// this program, provides the oracle file and relays the result line:
//
//   perf_bench --workload NAME --seed N --seconds S --trace 0|1
//              --oracle FILE [--out DIR] [--commit REV]
//   perf_bench --make-oracle FILE --seed N
//
// The last line of standard output is the result: one JSON object with
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones (see README.md).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "harness.h"
#include "workloads.h"

namespace {

using perf::Metrics;

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"query_geomean_ms", "ms"}, {"query_p50_ms", "ms"},
    {"query_p95_ms", "ms"},     {"query_qps", "1/s"},
};

// A layer a workload bypasses reads 0.
constexpr MetricName kPerLayer[] = {
    {"fail_ratio", "ratio"},
    {"write_p50_ms", "ms"},
    {"write_p90_ms", "ms"},
    {"write_rows_per_s", "rows/s"},
    {"tpch.datagen_s", "s"},
    {"storage.table_write_s", "s"},
    {"storage.snapshot_ms", "ms"},
    {"storage.log_versions", "count"},
    {"storage.files_live", "count"},
    {"storage.bytes_written_per_row", "B/row"},
    {"storage.gets_per_query", "count"},
    {"io.cache_hit_ratio", "ratio"},
    {"io.cache_evictions", "count"},
    {"io.prefetch_wait_ms", "ms"},
    {"io.bytes_read_per_query", "B"},
    {"io.row_groups_skipped", "count"},
    {"io.files_pruned", "count"},
    {"sql.compile_ms", "ms"},
    {"opt.optimize_ms", "ms"},
    {"service.wait_ms.p50", "ms"},
    {"service.wait_ms.p95", "ms"},
    {"service.exec_ms", "ms"},
    {"service.tasks_per_query", "count"},
    {"exec.worker_busy_ratio", "ratio"},
    {"exec.serial_stage_ms", "ms"},
    {"exec.stages_per_query", "count"},
    {"exec.tasks_per_query", "count"},
    {"dml.merge_ms", "ms"},
    {"dml.files_rewritten_per_op", "count"},
    {"dml.files_pruned_per_op", "count"},
    {"dml.conflicts_retried", "count"},
    {"compactor.pass_ms", "ms"},
    {"compactor.files_compacted", "count"},
    {"ops.scan_self_ms", "ms"},
    {"ops.filter_project_self_ms", "ms"},
    {"ops.hash_join_self_ms", "ms"},
    {"ops.hash_agg_self_ms", "ms"},
    {"ops.sort_self_ms", "ms"},
    {"ops.active_row_fraction", "ratio"},
    {"expr.compiled_batch_share", "ratio"},
    {"expr.tier_switches", "count"},
    {"expr.scratch_pool_hit_ratio", "ratio"},
    {"memory.peak_reserved_mb", "MB"},
    {"memory.reserve_wait_ms", "ms"},
    {"memory.spill_bytes", "B"},
    {"obs.profile_overhead_pct", "%"},
};

const char* Flag(int argc, char** argv, const char* name,
                 const char* fallback = nullptr) {
  for (int i = 1; i + 1 < argc; i++) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Copies the metrics `names` lists into `out`, in that order; a missing
/// one reads 0. Returns false when one is missing and `zero_if_missing`
/// is not set.
template <size_t N>
bool Select(const perf::Run& run, const MetricName (&names)[N],
            bool zero_if_missing, Metrics* out) {
  bool ok = true;
  for (const MetricName& m : names) {
    std::optional<double> v = run.metrics.Get(m.name);
    if (!v.has_value() && !zero_if_missing) {
      std::fprintf(stderr, "metric %s was not measured\n", m.name);
      ok = false;
    }
    out->Set(m.name, v.value_or(0), m.unit);
  }
  return ok;
}

int MakeOracle(const char* path, uint64_t seed) {
  photon::tpch::TpchData data =
      photon::tpch::GenerateTpch(perf::kScaleFactor, seed);
  perf::Oracle oracle = perf::ComputeOracle(data, /*threads=*/4);
  if (!perf::WriteOracle(oracle, path)) {
    std::fprintf(stderr, "cannot write oracle %s\n", path);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  perf::RunConfig cfg;
  cfg.seed = std::strtoull(Flag(argc, argv, "--seed", "1"), nullptr, 10);
  if (const char* path = Flag(argc, argv, "--make-oracle")) {
    return MakeOracle(path, cfg.seed);
  }
  cfg.workload = Flag(argc, argv, "--workload", "");
  cfg.seconds = std::atof(Flag(argc, argv, "--seconds", "10"));
  cfg.trace = std::atoi(Flag(argc, argv, "--trace", "0")) != 0;
  cfg.oracle_path = Flag(argc, argv, "--oracle", "");
  cfg.out_dir = Flag(argc, argv, "--out", "");
  cfg.commit = Flag(argc, argv, "--commit", "unknown");
  if (cfg.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::optional<perf::Oracle> oracle = perf::ReadOracle(cfg.oracle_path);
  if (!oracle.has_value()) {
    std::fprintf(stderr, "cannot read oracle file '%s'\n",
                 cfg.oracle_path.c_str());
    return 2;
  }

  perf::Run run(cfg, std::move(*oracle));
  perf::BeginConfig(run.cfg, &run.config);
  if (cfg.workload == "tpch-1t") {
    perf::RunTpch(&run, 1);
  } else if (cfg.workload == "tpch-4t") {
    perf::RunTpch(&run, 4);
  } else if (cfg.workload == "lakehouse-mixed") {
    perf::RunLakehouse(&run);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", cfg.workload.c_str());
    return 2;
  }
  run.metrics.Set("peak_rss_mb", perf::PeakRssMb(), "MB");
  run.metrics.Set("fail_ratio", run.ledger.fail_ratio(), "ratio");
  run.config.EndObject();

  Metrics report;
  bool complete = cfg.trace ? Select(run, kPerLayer, true, &report)
                            : Select(run, kEndToEnd, false, &report);
  if (!complete) return 1;
  std::string line = perf::ResultLine(run.ledger, report);
  if (cfg.trace) {
    Metrics everything;
    Select(run, kEndToEnd, true, &everything);
    Select(run, kPerLayer, true, &everything);
    if (!perf::WriteTraceArtifacts(run.cfg, run.spans, run.profiles,
                                   run.config.str(),
                                   perf::ResultLine(run.ledger, everything))) {
      std::fprintf(stderr, "cannot write trace artifacts to %s\n",
                   cfg.out_dir.c_str());
      return 1;
    }
  }
  std::printf("config %s\n", run.config.str().c_str());
  std::printf("%s\n", line.c_str());
  return 0;
}
