// Minimized reproductions of the engine bugs found by the differential
// plan fuzzer (tests/plan_fuzz_test.cc). Each test names the seed that
// first exposed the bug and pins the minimized plan shape deterministically
// so the regression stays covered even if the generator's grammar drifts.

#include <gtest/gtest.h>

#include <optional>

#include "exec/driver.h"
#include "expr/builder.h"
#include "plan/logical_plan.h"
#include "testing/differ.h"
#include "types/decimal.h"

namespace photon {
namespace {

using eb::Lit;
using plan::PlanPtr;

exec::Driver* SharedDriver() {
  static exec::Driver driver(8);
  return &driver;
}

/// Sweeps the plan through all four fuzzer modes (baseline both join
/// impls, Photon single-task, Photon 8-thread, Photon tiny-budget spill)
/// and asserts zero diffs.
void ExpectAllModesAgree(const PlanPtr& p) {
  testing::DifferentialOptions opts;
  opts.spill_prefix = "fuzz-regression-spill";
  std::string diff = testing::RunDifferential(p, SharedDriver(), opts);
  EXPECT_EQ(diff, "") << diff;
}

Table MakeKv(const std::vector<std::pair<int64_t, int64_t>>& rows,
             const char* key_name, const char* val_name) {
  Schema schema({Field(key_name, DataType::Int64()),
                 Field(val_name, DataType::Int64())});
  TableBuilder b(schema);
  for (const auto& kv : rows) {
    b.AppendRow({Value::Int64(kv.first), Value::Int64(kv.second)});
  }
  return b.Finish();
}

Table MakeDecimals(const std::vector<int128_t>& unscaled, int precision,
                   int scale) {
  Schema schema({Field("g", DataType::Int64()),
                 Field("d", DataType::Decimal(precision, scale))});
  TableBuilder b(schema);
  for (int128_t v : unscaled) {
    b.AppendRow({Value::Int64(1), Value::Decimal(Decimal128(v))});
  }
  return b.Finish();
}

// Fuzz seeds 39/48/62: Photon's left-outer hash join ignored the residual
// entirely (it was only applied for inner joins), emitting every key-equal
// pair; the baseline shuffled-hash join in turn dropped left rows whose
// candidates all failed the residual instead of NULL-padding them. Correct
// semantics: emit residual-passing pairs; a probe row with key matches but
// zero residual-passing candidates is unmatched and gets one NULL-padded
// row.
TEST(FuzzRegressionTest, LeftOuterResidualAllCandidatesFailNullPads) {
  Table left = MakeKv({{1, 10}, {1, 20}, {2, 5}, {3, 40}}, "k", "v");
  Table right = MakeKv({{1, 100}, {1, 7}, {2, 5}}, "rk", "w");
  PlanPtr probe = plan::Scan(&left);
  PlanPtr build = plan::Scan(&right);
  // Residual over the combined (k, v, rk, w) row: w > 50. Key 1 has one
  // passing candidate (w=100) and one failing (w=7); key 2's only
  // candidate fails; key 3 has no candidate at all.
  PlanPtr j = plan::Join(
      probe, build, JoinType::kLeftOuter, {plan::ColOf(probe, "k")},
      {plan::ColOf(build, "rk")},
      eb::Gt(eb::Col(3, DataType::Int64(), "w"), Lit(int64_t{50})));

  Result<Table> photon = SharedDriver()->RunSingleTask(j);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  testing::CanonicalResult rows = testing::Canonicalize(*photon);
  // (1,10,1,100), (1,20,1,100), (2,5,∅,∅), (3,40,∅,∅)
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0][3], "100");
  EXPECT_EQ(rows[1][3], "100");
  EXPECT_EQ(rows[2][2], "\xE2\x88\x85");  // NULL-padded build side
  EXPECT_EQ(rows[3][2], "\xE2\x88\x85");

  ExpectAllModesAgree(j);
}

// Fuzz seed 39 minimized further: a constant-false residual makes every
// left row unmatched — the join must degenerate to left-with-NULL-padding,
// not to an inner join ignoring the residual.
TEST(FuzzRegressionTest, LeftOuterConstantFalseResidualPadsEveryRow) {
  Table left = MakeKv({{1, 10}, {2, 20}, {2, 30}}, "k", "v");
  Table right = MakeKv({{1, 1}, {2, 2}, {2, 3}}, "rk", "w");
  PlanPtr probe = plan::Scan(&left);
  PlanPtr build = plan::Scan(&right);
  PlanPtr j = plan::Join(probe, build, JoinType::kLeftOuter,
                         {plan::ColOf(probe, "k")},
                         {plan::ColOf(build, "rk")},
                         eb::Gt(Lit(int64_t{0}), Lit(int64_t{1})));

  Result<Table> photon = SharedDriver()->RunSingleTask(j);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  testing::CanonicalResult rows = testing::Canonicalize(*photon);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_EQ(row[2], "\xE2\x88\x85") << "expected NULL-padded build side";
    EXPECT_EQ(row[3], "\xE2\x88\x85");
  }

  ExpectAllModesAgree(j);
}

// Residual-passing pairs must still flow through when mixed with failing
// ones across chained duplicate build keys (the hash-table chain path).
TEST(FuzzRegressionTest, LeftOuterResidualFiltersWithinChains) {
  std::vector<std::pair<int64_t, int64_t>> build_rows;
  for (int64_t i = 0; i < 40; i++) build_rows.push_back({7, i});
  Table left = MakeKv({{7, 1}, {8, 2}}, "k", "v");
  Table right = MakeKv(build_rows, "rk", "w");
  PlanPtr probe = plan::Scan(&left);
  PlanPtr build = plan::Scan(&right);
  PlanPtr j = plan::Join(
      probe, build, JoinType::kLeftOuter, {plan::ColOf(probe, "k")},
      {plan::ColOf(build, "rk")},
      eb::Lt(eb::Col(3, DataType::Int64(), "w"), Lit(int64_t{5})));

  Result<Table> photon = SharedDriver()->RunSingleTask(j);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  // Key 7: 5 of 40 candidates pass (w in 0..4); key 8: unmatched.
  EXPECT_EQ(photon->num_rows(), 6);

  ExpectAllModesAgree(j);
}

// The Q21 shape over the per-candidate-batch residual path: lineitem rows
// with an EXISTS (another supplier on the same order) and a NOT EXISTS
// (another supplier on the same order that was late), both `suppkey <>`
// residuals, over ~6-row duplicate chains with some NULL order keys. The
// row counts are checked against a brute-force nested loop, then every
// differ mode runs against the baseline oracle.
TEST(FuzzRegressionTest, Q21ExistsNotExistsResidualsOverDuplicateChains) {
  struct Line {
    std::optional<int64_t> order;
    int64_t supp;
    bool late;
  };
  std::vector<Line> lines;
  for (int64_t i = 0; i < 600; i++) {
    std::optional<int64_t> order;
    if (i % 17 != 0) order = i / 6;
    lines.push_back({order, (i * 7) % 5, i % 3 == 0});
  }
  Schema schema({Field("o", DataType::Int64()), Field("s", DataType::Int64()),
                 Field("late", DataType::Boolean())});
  TableBuilder b(schema);
  for (const Line& l : lines) {
    b.AppendRow({l.order ? Value::Int64(*l.order) : Value::Null(),
                 Value::Int64(l.supp), Value::Boolean(l.late)});
  }
  Table t = b.Finish();

  PlanPtr l1 = plan::Scan(&t);
  PlanPtr l2 = plan::Scan(&t);
  PlanPtr l3 = plan::Filter(plan::Scan(&t),
                            eb::Col(2, DataType::Boolean(), "late"));
  // Combined residual rows are [l1.o, l1.s, l1.late, lN.o, lN.s, lN.late].
  auto other_supplier = [] {
    return eb::Ne(eb::Col(4, DataType::Int64(), "s2"),
                  eb::Col(1, DataType::Int64(), "s"));
  };
  PlanPtr exists = plan::Join(l1, l2, JoinType::kLeftSemi,
                              {plan::ColOf(l1, "o")}, {plan::ColOf(l2, "o")},
                              other_supplier());
  PlanPtr both = plan::Join(exists, l3, JoinType::kLeftAnti,
                            {plan::ColOf(exists, "o")}, {plan::ColOf(l3, "o")},
                            other_supplier());

  auto has_other = [&](const Line& a, bool late_only) {
    for (const Line& c : lines) {
      if (a.order && c.order && *a.order == *c.order && c.supp != a.supp &&
          (!late_only || c.late)) {
        return true;
      }
    }
    return false;
  };
  int64_t expect_exists = 0, expect_both = 0;
  for (const Line& a : lines) {
    if (!has_other(a, false)) continue;
    expect_exists++;
    if (!has_other(a, true)) expect_both++;
  }
  ASSERT_GT(expect_both, 0);
  ASSERT_LT(expect_both, expect_exists);

  Result<Table> r1 = SharedDriver()->RunSingleTask(exists);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->num_rows(), expect_exists);
  Result<Table> r2 = SharedDriver()->RunSingleTask(both);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->num_rows(), expect_both);

  ExpectAllModesAgree(exists);
  ExpectAllModesAgree(both);
}

// Fuzz seeds 3/27: Photon's decimal sum wrapped its int128 accumulator
// silently past 38 digits where the baseline's exact BigDecimal sum
// finalizes to NULL (Spark non-ANSI overflow).
TEST(FuzzRegressionTest, DecimalSumOverflowFinalizesToNull) {
  int128_t max38 = Decimal128::MaxValueForPrecision(38);
  Table t = MakeDecimals({max38, max38, max38, max38}, 38, 6);
  PlanPtr p = plan::Scan(&t);
  p = plan::Aggregate(
      p, {}, {},
      {AggregateSpec{AggKind::kSum, plan::ColOf(p, "d"), "s"}});

  Result<Table> photon = SharedDriver()->RunSingleTask(p);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  testing::CanonicalResult rows = testing::Canonicalize(*photon);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "\xE2\x88\x85");

  ExpectAllModesAgree(p);
}

// Fuzz seed 32: mixed-sign near-max values wrap the int128 accumulator
// transiently but cancel back into range; because wrapping is arithmetic
// mod 2^128 the final accumulator value is exact, and the baseline's
// unbounded BigDecimal (which only checks the *final* value against 38
// digits) returns the true sum. A sticky overflow flag wrongly NULLed it.
TEST(FuzzRegressionTest, DecimalSumTransientWrapStaysExact) {
  int128_t max38 = Decimal128::MaxValueForPrecision(38);
  // Partial sums: max, 2*max (wraps +1), max (wraps back), 0, 123456.
  Table t = MakeDecimals({max38, max38, -max38, -max38, 123456}, 38, 6);
  PlanPtr p = plan::Scan(&t);
  p = plan::Aggregate(
      p, {}, {},
      {AggregateSpec{AggKind::kSum, plan::ColOf(p, "d"), "s"}});

  Result<Table> photon = SharedDriver()->RunSingleTask(p);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  testing::CanonicalResult rows = testing::Canonicalize(*photon);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0][0], "\xE2\x88\x85") << "transient wrap must not NULL";
  EXPECT_EQ(rows[0][0], Value::Decimal(Decimal128(123456)).ToString());

  ExpectAllModesAgree(p);
}

// The companion case: the accumulator ends wrapped (sum of three ~0.9e38
// values exceeds int128 range) yet the true sum and the avg quotient are
// derivable exactly — the baseline divides the unbounded sum, so the
// vectorized engine must reconstruct wraps * 2^128 + sum before dividing.
TEST(FuzzRegressionTest, DecimalAvgOfWrappedSumStaysExact) {
  // 20000 rows of 9e33: the sum (1.8e38) exceeds int128 range so the
  // accumulator ends wrapped, while the avg — 9e33, which is 9e37 unscaled
  // at avg's widened scale (+4) — still fits 38 digits.
  int128_t v = Decimal128::PowerOfTen(33) * 9;
  Table t = MakeDecimals(std::vector<int128_t>(20000, v), 38, 6);
  PlanPtr p = plan::Scan(&t);
  p = plan::Aggregate(
      p, {}, {},
      {AggregateSpec{AggKind::kSum, plan::ColOf(p, "d"), "s"},
       AggregateSpec{AggKind::kAvg, plan::ColOf(p, "d"), "a"}});

  Result<Table> photon = SharedDriver()->RunSingleTask(p);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  testing::CanonicalResult rows = testing::Canonicalize(*photon);
  ASSERT_EQ(rows.size(), 1u);
  // Sum = 2.7e38 unscaled > 38 digits -> NULL; avg = 9e37 is in range.
  EXPECT_EQ(rows[0][0], "\xE2\x88\x85");
  EXPECT_NE(rows[0][1], "\xE2\x88\x85") << "avg of wrapped sum must be exact";

  ExpectAllModesAgree(p);
}

Table MakeDecimalPairs(const std::vector<std::pair<int128_t, int128_t>>& rows,
                       DataType left, DataType right) {
  Schema schema({Field("l", left), Field("r", right)});
  TableBuilder b(schema);
  for (const auto& lr : rows) {
    b.AppendRow({Value::Decimal(Decimal128(lr.first)),
                 Value::Decimal(Decimal128(lr.second))});
  }
  return b.Finish();
}

// A precision-capped decimal product (dec(38,2) * dec(38,2) -> dec(38,4),
// at the natural scale) whose exact value is past 38 digits must be NULL
// in every tier, whether the int128 product overflows or merely exceeds
// 10^38 - 1 — never a wrapped int128.
TEST(FuzzRegressionTest, CappedDecimalOverflowIsNull) {
  int128_t max38 = Decimal128::MaxValueForPrecision(38);
  int128_t e19 = Decimal128::PowerOfTen(19);
  Table t = MakeDecimalPairs({{max38, max38},   // int128 overflow
                              {e19, e19},       // 10^38: fits int128
                              {max38, 1},       // largest in-range product
                              {-12345, 678}},
                             DataType::Decimal(38, 2),
                             DataType::Decimal(38, 2));
  PlanPtr p = plan::Scan(&t);
  p = plan::Project(p, {eb::Mul(plan::ColOf(p, "l"), plan::ColOf(p, "r"))},
                    {"m"});

  Result<Table> photon = SharedDriver()->RunSingleTask(p);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  ASSERT_EQ(photon->num_rows(), 4);
  std::vector<Value> got;
  for (int64_t i = 0; i < photon->num_rows(); i++) {
    got.push_back(photon->GetRow(i)[0]);
  }
  EXPECT_TRUE(got[0].is_null());
  EXPECT_TRUE(got[1].is_null());
  EXPECT_EQ(got[2].decimal().value(), max38);
  EXPECT_EQ(got[3].decimal().value(), -12345 * 678);

  ExpectAllModesAgree(p);
}

// dec(38,10) + dec(38,0) is capped at dec(38,6): four digits are dropped,
// and a dropped 5000 is a tie that rounds away from zero on both signs.
TEST(FuzzRegressionTest, CappedDecimalTieRoundsAwayFromZero) {
  Table t = MakeDecimalPairs({{123456785000, 0},
                              {-123456785000, 0},
                              {123456784999, 0},
                              {-5000, 1}},
                             DataType::Decimal(38, 10),
                             DataType::Decimal(38, 0));
  PlanPtr p = plan::Scan(&t);
  p = plan::Project(p, {eb::Add(plan::ColOf(p, "l"), plan::ColOf(p, "r"))},
                    {"s"});
  ASSERT_EQ(p->output_schema.field(0).type, DataType::Decimal(38, 6));

  Result<Table> photon = SharedDriver()->RunSingleTask(p);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  ASSERT_EQ(photon->num_rows(), 4);
  EXPECT_EQ(photon->GetRow(0)[0].decimal().value(), 12345679);
  EXPECT_EQ(photon->GetRow(1)[0].decimal().value(), -12345679);
  EXPECT_EQ(photon->GetRow(2)[0].decimal().value(), 12345678);
  // 1 - 0.0000005 = 0.9999995 -> 1.000000 (tie, away from zero).
  EXPECT_EQ(photon->GetRow(3)[0].decimal().value(), 1000000);

  ExpectAllModesAgree(p);
}

// Satellite: LimitOperator above a parallel stage must emit exactly
// `limit` rows regardless of thread count (morsel-parallel runs race to
// fill the limit).
TEST(FuzzRegressionTest, LimitExactRowCountAtAllThreadCounts) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < 10000; i++) rows.push_back({i % 97, i});
  Table t = MakeKv(rows, "k", "v");

  for (int64_t limit : {0, 37, 5000, 20000}) {
    PlanPtr p = plan::Limit(plan::Scan(&t), limit);
    int64_t expect = std::min<int64_t>(limit, t.num_rows());
    for (int threads : {1, 2, 8}) {
      exec::Driver d(threads);
      Result<Table> r = d.Run(p);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->num_rows(), expect)
          << "limit " << limit << " at " << threads << " threads";
    }
  }
}

// Fuzz seed 13 (differ mode 8, optimizer-on vs oracle): the optimizer
// pushed a constant-false filter below a zero-key aggregate. A scalar
// aggregate emits exactly one row even over empty input, so filtering
// before it yields 1 row where the unoptimized plan yields 0. No
// predicate — not even a constant — may sink past a zero-key aggregate.
TEST(FuzzRegressionTest, ConstantFilterMustNotSinkBelowScalarAggregate) {
  Table t = MakeKv({{1, 10}, {2, 20}, {3, 30}}, "k", "v");
  PlanPtr p = plan::Scan(&t);
  p = plan::Aggregate(
      p, {}, {},
      {AggregateSpec{AggKind::kCountStar, nullptr, "c"},
       AggregateSpec{AggKind::kSum, eb::Col(1, DataType::Int64(), "v"), "s"},
       AggregateSpec{AggKind::kMin, eb::Col(0, DataType::Int64(), "k"), "m"}});
  // Constant-false: -26752 BETWEEN 108 AND 305 (from the minimized plan).
  p = plan::Filter(p, eb::Between(Lit(int64_t{-26752}), Lit(int64_t{108}),
                                  Lit(int64_t{305})));

  ExecContext opt_on;
  opt_on.optimizer = OptimizerPolicy::kOn;
  Result<Table> photon = SharedDriver()->RunSingleTask(p, opt_on);
  ASSERT_TRUE(photon.ok()) << photon.status().ToString();
  EXPECT_EQ(photon->num_rows(), 0)
      << "constant filter leaked below the scalar aggregate";

  ExpectAllModesAgree(p);
}

// With a total sort underneath, Limit is fully deterministic: identical
// content at every thread count and across engines.
TEST(FuzzRegressionTest, LimitAboveTotalSortIsDeterministic) {
  std::vector<std::pair<int64_t, int64_t>> rows;
  for (int64_t i = 0; i < 4000; i++) rows.push_back({(i * 37) % 211, i});
  Table t = MakeKv(rows, "k", "v");

  PlanPtr p = plan::Scan(&t);
  p = plan::Sort(p, {SortKey{eb::Col(0, DataType::Int64(), "k"), true, true},
                     SortKey{eb::Col(1, DataType::Int64(), "v"), false,
                             false}});
  p = plan::Limit(p, 123);

  testing::CanonicalResult first;
  for (int threads : {1, 2, 8}) {
    exec::Driver d(threads);
    Result<Table> r = d.Run(p);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->num_rows(), 123);
    testing::CanonicalResult got = testing::Canonicalize(*r);
    if (threads == 1) {
      first = got;
    } else {
      EXPECT_EQ(got, first) << "limit content differs at " << threads
                            << " threads";
    }
  }
  ExpectAllModesAgree(p);
}

}  // namespace
}  // namespace photon
