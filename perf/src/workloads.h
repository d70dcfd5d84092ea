#ifndef PHOTON_PERF_WORKLOADS_H_
#define PHOTON_PERF_WORKLOADS_H_

#include <vector>

#include "harness.h"

namespace perf {

/// State of one benchmark run, shared by the workloads.
struct Run {
  explicit Run(RunConfig c, Oracle o)
      : cfg(std::move(c)), oracle(std::move(o)), spans(cfg.trace) {}

  const RunConfig cfg;
  const Oracle oracle;
  Ledger ledger;
  /// End-to-end and per-layer metrics; main() prints the set the mode asks for.
  Metrics metrics;
  /// Config block, opened by main(); workloads add their own fields.
  photon::JsonWriter config;
  SpanLog spans;
  /// Query profiles kept for a traced run's artifacts.
  std::vector<photon::obs::QueryProfile> profiles;
};

/// tpch-1t / tpch-4t: the 22 hand-built plans through Driver::Run.
void RunTpch(Run* run, int workers);

/// lakehouse-mixed: SQL readers and a MERGE/DELETE/compaction writer on one
/// QueryService over Delta tables behind a cache smaller than the data.
void RunLakehouse(Run* run);

}  // namespace perf

#endif  // PHOTON_PERF_WORKLOADS_H_
