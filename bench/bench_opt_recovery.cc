// Optimizer recovery: the deliberately pessimal TPC-H Q3/Q5/Q9/Q10 plans
// (src/tpch/tpch_misordered.cc — selective filters hoisted to the top,
// lineitem on build sides, semi-join reducers last) run with the
// cost-based optimizer (DESIGN.md §14) off and on, next to the
// hand-ordered TpchQuery plan. Each recovered result is checksum-verified
// against the hand-ordered one. Two ratios are reported:
//   recovery = misordered / recovered — how much the optimizer saves; it
//              also scales with executor speed (a faster join shrinks the
//              misordered plans most), so it is printed, not gated;
//   gap      = recovered / hand — how close the optimizer gets to the
//              hand-ordered plan; this is the optimizer's own quality.
//
// Usage: bench_opt_recovery [--sf F] [--threads N] [--reps N] [--gate]
//                           [--json PATH]
//   --gate  exit nonzero unless the geomean gap is at most 1.25 and every
//           query's gap at most 1.5 (the ctest smoke runs with it).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_misordered.h"
#include "tpch/tpch_queries.h"

int main(int argc, char** argv) {
  using namespace photon;
  double sf = 0.01;
  if (const char* v = bench::FlagValue(argc, argv, "--sf")) sf = std::atof(v);
  int threads = 1;
  if (const char* v = bench::FlagValue(argc, argv, "--threads")) {
    threads = std::atoi(v);
  }
  int reps = 2;
  if (const char* v = bench::FlagValue(argc, argv, "--reps")) {
    reps = std::atoi(v);
  }
  constexpr double kMaxGeomeanGap = 1.25;
  constexpr double kMaxQueryGap = 1.5;
  const bool gate = bench::HasFlag(argc, argv, "--gate");
  const char* json_path = bench::FlagValue(argc, argv, "--json");

  std::printf(
      "Optimizer recovery: misordered TPC-H SF=%.3f, %d thread%s (min of %d "
      "runs)\n",
      sf, threads, threads == 1 ? "" : "s", reps);
  tpch::TpchData data = tpch::GenerateTpch(sf);
  std::printf("  %4s %14s %13s %11s %10s %6s %6s\n", "Q", "misordered(ms)",
              "recovered(ms)", "hand(ms)", "recovery", "gap", "rows");

  exec::Driver driver(threads);
  ExecContext opt_off;
  ExecContext opt_on;
  opt_on.optimizer = OptimizerPolicy::kOn;

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("opt_recovery"));
  json.Field("sf", sf);
  json.Field("threads", threads);
  json.BeginArray("queries");

  const int kQueries[] = {3, 5, 9, 10};
  double log_recovery_sum = 0;
  double log_gap_sum = 0;
  double max_gap = 0;
  int count = 0;
  int mismatches = 0;
  for (int q : kQueries) {
    Result<plan::PlanPtr> mis = tpch::TpchMisorderedQuery(q, data);
    PHOTON_CHECK(mis.ok());
    Result<plan::PlanPtr> hand = tpch::TpchQuery(q, data, sf);
    PHOTON_CHECK(hand.ok());

    auto time = [&](const plan::PlanPtr& p, const ExecContext& ctx,
                    int64_t* rows, uint64_t* checksum) {
      return bench::BestOf(reps, [&] {
        return threads > 1
                   ? bench::TimeDriver(&driver, p, rows, checksum, ctx)
                   : bench::TimeSingleTask(&driver, p, rows, checksum, ctx);
      });
    };

    int64_t rows = 0, opt_rows = 0, hand_rows = 0;
    uint64_t sum = 0, opt_sum = 0, hand_sum = 0;
    int64_t mis_ns = time(*mis, opt_off, &rows, &sum);
    int64_t opt_ns = time(*mis, opt_on, &opt_rows, &opt_sum);
    int64_t hand_ns = time(*hand, opt_off, &hand_rows, &hand_sum);
    if (opt_rows != hand_rows || opt_sum != hand_sum || rows != hand_rows ||
        sum != hand_sum) {
      std::printf("  Q%d MISMATCH: misordered %lld / recovered %lld / hand "
                  "%lld rows\n",
                  q, static_cast<long long>(rows),
                  static_cast<long long>(opt_rows),
                  static_cast<long long>(hand_rows));
      mismatches++;
    }
    double recovery = static_cast<double>(mis_ns) / opt_ns;
    double gap = static_cast<double>(opt_ns) / hand_ns;
    std::printf("  %4d %14.1f %13.1f %11.1f %9.2fx %6.2f %6lld\n", q,
                bench::Ms(mis_ns), bench::Ms(opt_ns), bench::Ms(hand_ns),
                recovery, gap, static_cast<long long>(hand_rows));
    json.BeginObject();
    json.Field("q", q);
    json.Field("misordered_ms", bench::Ms(mis_ns));
    json.Field("recovered_ms", bench::Ms(opt_ns));
    json.Field("hand_ms", bench::Ms(hand_ns));
    json.Field("recovery", recovery);
    json.Field("gap", gap);
    json.Field("rows", hand_rows);
    json.EndObject();
    log_recovery_sum += std::log(recovery);
    log_gap_sum += std::log(gap);
    max_gap = std::max(max_gap, gap);
    count++;
  }
  double geomean = std::exp(log_recovery_sum / count);
  double geomean_gap = std::exp(log_gap_sum / count);
  std::printf("  geometric-mean recovery: %.2fx, gap to hand-ordered: %.2f "
              "(max %.2f)\n",
              geomean, geomean_gap, max_gap);
  json.EndArray();
  json.Field("geomean_recovery", geomean);
  json.Field("geomean_gap", geomean_gap);
  json.Field("max_gap", max_gap);
  json.Field("mismatches", mismatches);
  json.EndObject();
  if (json_path != nullptr) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 1;
    }
    std::printf("  wrote %s\n", json_path);
  }
  if (mismatches > 0) {
    std::printf("  %d queries MISMATCHED\n", mismatches);
    return 1;
  }
  if (gate && (geomean_gap > kMaxGeomeanGap || max_gap > kMaxQueryGap)) {
    std::printf("  FAIL: recovered/hand gap geomean %.2f (bound %.2f), max "
                "%.2f (bound %.2f)\n",
                geomean_gap, kMaxGeomeanGap, max_gap, kMaxQueryGap);
    return 1;
  }
  return 0;
}
