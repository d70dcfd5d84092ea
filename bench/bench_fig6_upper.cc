// Figure 6: upper(strcol) over ASCII data.
//
// Three configurations, as in the paper:
//   - DBR: row-at-a-time upper() through the baseline interpreter (which,
//     like DBR, has its own ASCII special case — but per-row, boxed);
//   - Photon without ASCII specialization: vectorized, but every string
//     goes through the generic codepoint-mapping path (the ICU stand-in);
//   - Photon adaptive: per-batch SIMD ASCII check + byte-wise kernel.
// Paper: adaptive Photon 3x over DBR and 4x over the generic path.

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "expr/builder.h"

namespace photon {
namespace {

Table MakeAsciiTable(int64_t rows, uint64_t seed) {
  Schema schema({Field("s", DataType::String(), false)});
  TableBuilder builder(schema);
  Rng rng(seed);
  for (int64_t i = 0; i < rows; i++) {
    builder.AppendRow({Value::String(
        rng.NextAsciiString(static_cast<int>(rng.Uniform(8, 24))))});
  }
  return builder.Finish();
}

plan::PlanPtr UpperPlan(const Table& t, const char* fn) {
  plan::PlanPtr scan = plan::Scan(&t);
  plan::PlanPtr proj = plan::Project(
      scan, {eb::Call(fn, {plan::ColOf(scan, "s")})}, {"u"});
  // Aggregate so the result doesn't dominate timing with materialization.
  return plan::Aggregate(
      proj, {}, {},
      {AggregateSpec{AggKind::kMax, plan::ColOf(proj, "u"), "m"}});
}

}  // namespace
}  // namespace photon

int main() {
  using namespace photon;
  const int64_t kRows = 2000000;
  std::printf("Figure 6: upper(str) over %lld ASCII strings\n",
              static_cast<long long>(kRows));
  Table t = MakeAsciiTable(kRows, 7);

  plan::PlanPtr adaptive = UpperPlan(t, "upper");
  plan::PlanPtr generic = UpperPlan(t, "upper_generic");

  int64_t dbr_ns =
      bench::BestOf(1, [&] { return bench::TimeBaseline(adaptive); });
  exec::Driver driver(1);
  int64_t generic_ns = bench::BestOf(
      3, [&] { return bench::TimeDriver(&driver, generic); });
  int64_t adaptive_ns = bench::BestOf(
      3, [&] { return bench::TimeDriver(&driver, adaptive); });

  std::printf("  DBR (row-at-a-time):            %9.1f ms\n",
              bench::Ms(dbr_ns));
  std::printf("  Photon, no ASCII specialization:%9.1f ms\n",
              bench::Ms(generic_ns));
  std::printf("  Photon, adaptive SIMD ASCII:    %9.1f ms\n",
              bench::Ms(adaptive_ns));
  std::printf("  adaptive vs DBR:     %.2fx   (paper: ~3x)\n",
              static_cast<double>(dbr_ns) / adaptive_ns);
  std::printf("  adaptive vs generic: %.2fx   (paper: ~4x)\n",
              static_cast<double>(generic_ns) / adaptive_ns);
  return 0;
}
