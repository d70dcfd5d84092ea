// tpch-1t and tpch-4t: one client runs serial passes of the 22 hand-built
// TPC-H plans over in-memory tables through a standalone Driver::Run with
// 1 or 4 workers. Only the engine core (exec, ops, expr, ht) is on the
// path; storage, io, sql, opt and the service are bypassed.

#include <memory>
#include <vector>

#include "tpch/tpch_queries.h"
#include "workloads.h"

namespace perf {

namespace {

using photon::Result;
using photon::Table;
namespace exec = photon::exec;
namespace obs = photon::obs;
namespace plan = photon::plan;
namespace tpch = photon::tpch;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// The timed phase never outlasts this, whatever --seconds and the
/// sample rule ask for, so a run ends well inside its time limit.
constexpr int64_t kMaxTimedNs = 120'000'000'000;

struct Setup {
  std::unique_ptr<tpch::TpchData> data;
  std::vector<plan::PlanPtr> plans;
  std::unique_ptr<exec::Driver> driver;
};

/// Data generation, plan building, driver start-up and one warm-up pass.
/// Returns the set-up wall; the warm-up results are checked afterwards.
int64_t BuildSetup(Run* run, int workers, Setup* s, int64_t* datagen_ns) {
  int64_t t0 = NowNs();
  {
    ScopedSpan span(&run->spans, "tpch.GenerateTpch", 0);
    s->data = std::make_unique<tpch::TpchData>(
        tpch::GenerateTpch(kScaleFactor, run->cfg.seed));
  }
  *datagen_ns = NowNs() - t0;
  for (int q = 1; q <= kNumQueries; q++) {
    Result<plan::PlanPtr> p = tpch::TpchQuery(q, *s->data, kScaleFactor);
    PHOTON_CHECK(p.ok());
    s->plans.push_back(*p);
  }
  s->driver = std::make_unique<exec::Driver>(workers);
  std::vector<Result<Table>> warm;
  for (const plan::PlanPtr& p : s->plans) {
    ScopedSpan span(&run->spans, "exec.Driver::Run", 0);
    warm.push_back(s->driver->Run(p));
  }
  int64_t elapsed = NowNs() - t0;
  for (int q = 1; q <= kNumQueries; q++) {
    run->ledger.CheckQuery(q, warm[q - 1], run->oracle);
  }
  return elapsed;
}

}  // namespace

void RunTpch(Run* run, int workers) {
  const RunConfig& cfg = run->cfg;
  Setup setup;
  std::vector<double> setup_s;
  std::vector<double> datagen_s;
  for (int rep = 0; rep < kSetupReps; rep++) {
    // Free the previous set-up first, so each starts from the same state.
    setup = Setup();
    int64_t datagen_ns = 0;
    setup_s.push_back(BuildSetup(run, workers, &setup, &datagen_ns) / 1e9);
    datagen_s.push_back(datagen_ns / 1e9);
  }

  // Timed phase: whole passes until --seconds have elapsed and the sample
  // supports a true p95. A traced run alternates plain and profiled passes,
  // so the profiling overhead is measured on the same process and data.
  std::vector<std::vector<double>> plain_ms(kNumQueries);
  std::vector<std::vector<double>> traced_ms(kNumQueries);
  int64_t plain_samples = 0;
  int64_t plain_ns = 0;
  int passes = 0;
  LayerTotals layers;
  double capacity_ns = 0;
  const int64_t needed = cfg.trace ? 2 * kNumQueries : SamplesForTail(0.95);
  const int64_t start = NowNs();
  while (true) {
    const bool traced = cfg.trace && passes % 2 == 1;
    std::vector<Result<Table>> results;
    std::vector<obs::QueryProfile> profiles(traced ? kNumQueries : 0);
    int64_t pass_t0 = NowNs();
    for (int q = 1; q <= kNumQueries; q++) {
      const plan::PlanPtr& p = setup.plans[q - 1];
      int64_t trace_id = run->spans.NewTraceId();
      ScopedSpan query_span(&run->spans, "query", trace_id);
      std::vector<exec::StageInfo> stages;
      int64_t t0 = NowNs();
      {
        ScopedSpan span(&run->spans, "exec.Driver::Run", trace_id);
        results.push_back(traced ? setup.driver->Run(p, {}, &stages,
                                                     &profiles[q - 1])
                                 : setup.driver->Run(p));
      }
      double ms = Ms(NowNs() - t0);
      if (traced) {
        traced_ms[q - 1].push_back(ms);
        profiles[q - 1].query = "q" + std::to_string(q);
        layers.AddStages(StagesFromInfo(stages));
      } else {
        plain_ms[q - 1].push_back(ms);
      }
    }
    if (!traced) {
      plain_ns += NowNs() - pass_t0;
      plain_samples += kNumQueries;
    }
    passes++;
    for (int q = 1; q <= kNumQueries; q++) {
      run->ledger.CheckQuery(q, results[q - 1], run->oracle);
    }
    if (traced) {
      for (const obs::QueryProfile& profile : profiles) {
        layers.AddProfile(profile);
        capacity_ns += static_cast<double>(workers) * profile.wall_ns;
      }
      run->profiles = std::move(profiles);
    }
    int64_t elapsed = NowNs() - start;
    bool enough = elapsed >= cfg.seconds * 1e9 && plain_samples >= needed &&
                  (!cfg.trace || layers.queries >= needed);
    if (enough || elapsed >= kMaxTimedNs) break;
  }

  std::vector<double> all;
  for (const std::vector<double>& q : plain_ms) {
    all.insert(all.end(), q.begin(), q.end());
  }
  Metrics& m = run->metrics;
  m.Set("setup_s", Median(setup_s), "s");
  m.Set("tpch.datagen_s", Median(datagen_s), "s");
  const double geomean = GeoMeanOfMedians(plain_ms);
  m.Set("query_geomean_ms", geomean, "ms");
  m.Set("query_p50_ms", Median(all), "ms");
  m.Set("query_p95_ms", TailPercentile(all, 0.95), "ms");
  m.Set("query_qps", SafeDiv(plain_samples, plain_ns / 1e9), "1/s");
  if (cfg.trace) {
    EmitProfileLayers(layers, capacity_ns, &m);
    m.Set("obs.profile_overhead_pct",
          (SafeDiv(GeoMeanOfMedians(traced_ms), geomean) - 1) * 100, "%");
  }

  photon::JsonWriter& c = run->config;
  c.Field("workers", workers);
  c.Field("clients", 1);
  c.Field("setup_reps", kSetupReps);
  c.Field("passes", passes);
  c.Field("query_samples", plain_samples);
  c.Field("traced_query_samples", layers.queries);
  c.Field("lineitem_rows", setup.data->lineitem.num_rows());
}

}  // namespace perf
