// Figure 5: SELECT collect_list(strcol) GROUP BY intcol, sweeping the
// number of integer groups.
//
// The baseline implements collect_list with per-group heap containers
// (DBR's Scala collections, which also disqualify it from code
// generation); Photon pools list nodes in a shared arena and resolves
// groups through the vectorized hash table. Paper: up to 5.7x.

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "expr/builder.h"

namespace photon {
namespace {

Table MakeStrTable(int64_t rows, int64_t groups, uint64_t seed) {
  Schema schema({Field("g", DataType::Int64(), false),
                 Field("s", DataType::String(), false)});
  TableBuilder builder(schema);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; i++) {
    builder.AppendRow({Value::Int64(rng.Uniform(0, groups - 1)),
                       Value::String(rng.NextAsciiString(12))});
  }
  return builder.Finish();
}

}  // namespace
}  // namespace photon

int main() {
  using namespace photon;
  const int64_t kRows = 400000;
  std::printf(
      "Figure 5: collect_list grouping aggregation (%lld rows, 12-char "
      "strings)\n",
      static_cast<long long>(kRows));
  std::printf("  %10s %14s %14s %9s\n", "groups", "Photon (ms)", "DBR (ms)",
              "speedup");

  exec::Driver driver(1);
  for (int64_t groups : {10, 100, 1000, 10000, 100000}) {
    Table t = MakeStrTable(kRows, groups, 42);
    plan::PlanPtr scan = plan::Scan(&t);
    plan::PlanPtr p = plan::Aggregate(
        scan, {plan::ColOf(scan, "g")}, {"g"},
        {AggregateSpec{AggKind::kCollectList, plan::ColOf(scan, "s"),
                       "lst"}});
    int64_t photon_ns =
        bench::BestOf(3, [&] { return bench::TimeDriver(&driver, p); });
    int64_t dbr_ns =
        bench::BestOf(1, [&] { return bench::TimeBaseline(p); });
    std::printf("  %10lld %14.1f %14.1f %8.2fx\n",
                static_cast<long long>(groups), bench::Ms(photon_ns),
                bench::Ms(dbr_ns),
                static_cast<double>(dbr_ns) / photon_ns);
  }
  std::printf("  (paper: up to 5.7x)\n");
  return 0;
}
