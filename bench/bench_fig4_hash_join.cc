// Figure 4: SELECT count(*) FROM t1, t2 WHERE t1.id = t2.id.
//
// Compares Photon's vectorized hash join against the baseline engine's
// sort-merge join (Spark's default) and shuffled hash join on two integer
// tables. The paper reports Photon ~3-3.5x over DBR, attributing the win
// to the batched probe's memory-level parallelism (§6.1).

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "expr/builder.h"
#include "tpch/tpch_gen.h"

namespace photon {
namespace {

Table MakeIdTable(int64_t rows, uint64_t seed) {
  Schema schema({Field("id", DataType::Int64(), false)});
  TableBuilder builder(schema);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; i++) {
    builder.AppendRow({Value::Int64(rng.Uniform(0, rows - 1))});
  }
  return builder.Finish();
}

plan::PlanPtr CountJoin(const Table& t1, const Table& t2) {
  plan::PlanPtr probe = plan::Scan(&t1);
  plan::PlanPtr build = plan::Scan(&t2);
  build = plan::Project(build, {plan::ColOf(build, "id")}, {"id2"});
  plan::PlanPtr j =
      plan::Join(probe, build, JoinType::kInner, {plan::ColOf(probe, "id")},
                 {plan::ColOf(build, "id2")});
  return plan::Aggregate(j, {}, {},
                         {AggregateSpec{AggKind::kCountStar, nullptr, "n"}});
}

}  // namespace
}  // namespace photon

int main() {
  using namespace photon;
  const int64_t kRows = 1000000;  // scaled from the paper's 1GB tables
  std::printf("Figure 4: hash join microbenchmark "
              "(count(*) join, %lld x %lld int64 rows)\n",
              static_cast<long long>(kRows), static_cast<long long>(kRows));

  Table t1 = MakeIdTable(kRows, 1);
  Table t2 = MakeIdTable(kRows, 2);
  plan::PlanPtr p = CountJoin(t1, t2);

  int64_t rows = 0;
  exec::Driver driver(1);
  int64_t photon_ns = bench::BestOf(
      3, [&] { return bench::TimeDriver(&driver, p, &rows); });
  std::printf("  Photon hash join:          %9.1f ms (result rows: %lld)\n",
              bench::Ms(photon_ns), static_cast<long long>(rows));

  int64_t smj_ns = bench::BestOf(1, [&] {
    return bench::TimeBaseline(p, &rows, plan::BaselineJoinImpl::kSortMerge);
  });
  std::printf("  DBR sort-merge join (SMJ): %9.1f ms\n", bench::Ms(smj_ns));

  int64_t shj_ns = bench::BestOf(1, [&] {
    return bench::TimeBaseline(p, &rows,
                               plan::BaselineJoinImpl::kShuffledHash);
  });
  std::printf("  DBR shuffled hash join:    %9.1f ms\n", bench::Ms(shj_ns));

  std::printf("  speedup vs SMJ: %.2fx  | vs SHJ: %.2fx   (paper: ~3-3.5x)\n",
              static_cast<double>(smj_ns) / photon_ns,
              static_cast<double>(shj_ns) / photon_ns);
  return 0;
}
