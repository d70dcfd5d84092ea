// Figure 8: all 22 TPC-H queries, Photon vs the baseline ("DBR") engine
// over identical logical plans. The paper (SF=3000 on an 8-node cluster)
// reports an average per-query speedup of ~4x with a 23x outlier on Q1,
// which is bottlenecked on decimal arithmetic (DBR falls back to
// BigDecimal above 18 digits of precision; Photon stays in native int128).
//
// This reproduction runs at a laptop scale factor; the *shape* — Photon
// wins everywhere, decimal-heavy scans win biggest — is the target, not
// the absolute numbers.
//
// Usage: bench_fig8_tpch [sf] [--sf F] [--threads N] [--json PATH]
//   --threads N  run Photon through the morsel-parallel driver with N
//                worker threads (default 1 = single task). Every parallel
//                result is verified against the single-task reference by
//                row count and order-insensitive checksum.
//   --json PATH  also write per-query results as JSON.
//   --profile DIR  write a QueryProfile JSON per query (profile-q<N>.json)
//                from a final profiled driver run.
//   --expr-policy P  pin the expression-evaluation tier (DESIGN.md §12):
//                compiled (default), fused, tree (pre-fusion interpreter).
//                Results must be bit-identical across policies; the
//                tree/compiled delta is the fusion win.
//   --optimize   run Photon with the cost-based optimizer (DESIGN.md §14)
//                rewriting each hand-ordered plan first. The hand plans
//                are already well-ordered, so this measures optimizer
//                invariance (results must match) and rewrite overhead,
//                not recovery — bench_opt_recovery measures recovery.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

int main(int argc, char** argv) {
  using namespace photon;
  double sf = 0.01;
  if (argc > 1 && argv[1][0] != '-') sf = std::atof(argv[1]);
  if (const char* v = bench::FlagValue(argc, argv, "--sf")) sf = std::atof(v);
  int threads = 1;
  if (const char* v = bench::FlagValue(argc, argv, "--threads")) {
    threads = std::atoi(v);
  }
  const char* json_path = bench::FlagValue(argc, argv, "--json");
  const char* profile_dir = bench::FlagValue(argc, argv, "--profile");
  ExecContext exec_ctx;
  const char* policy_name = "compiled";
  if (const char* v = bench::FlagValue(argc, argv, "--expr-policy")) {
    policy_name = v;
    if (std::strcmp(v, "tree") == 0) {
      exec_ctx.expr_policy = ExprPolicy::kTreeOnly;
    } else if (std::strcmp(v, "fused") == 0) {
      exec_ctx.expr_policy = ExprPolicy::kFusedOnly;
    } else if (std::strcmp(v, "compiled") == 0) {
      exec_ctx.expr_policy = ExprPolicy::kCompiledOnly;
    } else {
      std::fprintf(stderr, "unknown --expr-policy %s\n", v);
      return 1;
    }
  }

  bool optimize = bench::HasFlag(argc, argv, "--optimize");
  if (optimize) exec_ctx.optimizer = OptimizerPolicy::kOn;

  std::printf(
      "Figure 8: TPC-H SF=%.3f, Photon (%d thread%s, expr=%s%s) vs DBR (min "
      "of runs)\n",
      sf, threads, threads == 1 ? "" : "s", policy_name,
      optimize ? ", optimizer=on" : "");
  tpch::TpchData data = tpch::GenerateTpch(sf);
  std::printf("  lineitem rows: %lld\n",
              static_cast<long long>(data.lineitem.num_rows()));
  std::printf("  %4s %12s %12s %9s %8s\n", "Q", "Photon (ms)", "DBR (ms)",
              "speedup", "rows");

  exec::Driver driver(threads);
  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("fig8_tpch"));
  json.Field("sf", sf);
  json.Field("threads", threads);
  json.Field("expr_policy", std::string(policy_name));
  json.BeginArray("queries");

  double log_speedup_sum = 0;
  double max_speedup = 0;
  int max_q = 0;
  int count = 0;
  int mismatches = 0;
  for (int q = 1; q <= 22; q++) {
    Result<plan::PlanPtr> p = tpch::TpchQuery(q, data, sf);
    PHOTON_CHECK(p.ok());
    int64_t rows = 0;
    uint64_t checksum = 0;
    int64_t photon_ns;
    if (threads > 1) {
      photon_ns = bench::BestOf(2, [&] {
        return bench::TimeDriver(&driver, *p, &rows, &checksum, exec_ctx);
      });
      // The parallel plan must reproduce the single-task result exactly.
      int64_t ref_rows = 0;
      uint64_t ref_checksum = 0;
      bench::TimeSingleTask(&driver, *p, &ref_rows, &ref_checksum, exec_ctx);
      if (rows != ref_rows || checksum != ref_checksum) {
        std::printf("  Q%d MISMATCH: %lld rows (single-task %lld)\n", q,
                    static_cast<long long>(rows),
                    static_cast<long long>(ref_rows));
        mismatches++;
      }
    } else {
      photon_ns = bench::BestOf(2, [&] {
        return bench::TimeSingleTask(&driver, *p, &rows, &checksum, exec_ctx);
      });
    }
    int64_t dbr_ns =
        bench::BestOf(1, [&] { return bench::TimeBaseline(*p); });
    double speedup = static_cast<double>(dbr_ns) / photon_ns;
    std::printf("  %4d %12.1f %12.1f %8.2fx %8lld\n", q,
                bench::Ms(photon_ns), bench::Ms(dbr_ns), speedup,
                static_cast<long long>(rows));
    json.BeginObject();
    json.Field("q", q);
    json.Field("photon_ms", bench::Ms(photon_ns));
    json.Field("dbr_ms", bench::Ms(dbr_ns));
    json.Field("speedup", speedup);
    json.Field("rows", rows);
    json.Field("checksum", static_cast<int64_t>(checksum));
    json.EndObject();
    if (profile_dir != nullptr) {
      obs::QueryProfile profile;
      PHOTON_CHECK(driver.Run(*p, {}, nullptr, &profile).ok());
      profile.query = "q" + std::to_string(q);
      std::string path = std::string(profile_dir) + "/profile-q" +
                         std::to_string(q) + ".json";
      if (!profile.WriteJson(path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
      }
    }
    log_speedup_sum += std::log(speedup);
    if (speedup > max_speedup) {
      max_speedup = speedup;
      max_q = q;
    }
    count++;
  }
  double geomean = std::exp(log_speedup_sum / count);
  std::printf(
      "  geometric-mean speedup: %.2fx (paper arithmetic avg: ~4x); max: "
      "%.2fx on Q%d (paper: 23x on Q1)\n",
      geomean, max_speedup, max_q);
  if (mismatches > 0) {
    std::printf("  %d queries MISMATCHED the single-task reference\n",
                mismatches);
  }
  json.EndArray();
  json.Field("geomean_speedup", geomean);
  json.Field("mismatches", mismatches);
  json.EndObject();
  if (json_path != nullptr) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 1;
    }
    std::printf("  wrote %s\n", json_path);
  }
  return mismatches == 0 ? 0 : 1;
}
