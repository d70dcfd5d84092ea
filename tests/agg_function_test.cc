#include "expr/agg_function.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "types/big_decimal.h"
#include "vector/table.h"

namespace photon {
namespace {

/// Drives one aggregate function directly: feeds it batches, optionally
/// round-trips the state through Serialize/Deserialize and Merge, then
/// finalizes. Exercises the state machinery the HashAggregate operator
/// relies on, in isolation.
class AggHarness {
 public:
  AggHarness(AggKind kind, DataType arg_type) : arg_type_(arg_type) {
    Result<std::unique_ptr<AggregateFunction>> fn =
        MakeAggregateFunction(kind, arg_type);
    PHOTON_CHECK(fn.ok());
    fn_ = std::move(fn).ValueOrDie();
    fn_->set_arena(&arena_);
    state_.assign(fn_->state_bytes() + 16, 0);
    fn_->Init(state());
  }

  uint8_t* state() {
    // 16-align within the backing buffer (decimal states hold __int128).
    return reinterpret_cast<uint8_t*>(
        (reinterpret_cast<uintptr_t>(state_.data()) + 15) & ~uintptr_t{15});
  }

  void Update(const std::vector<Value>& values) {
    Schema schema({Field("x", arg_type_)});
    ColumnBatch batch(schema, std::max<int>(1, values.size()));
    for (size_t i = 0; i < values.size(); i++) {
      batch.column(0)->SetValue(static_cast<int>(i), values[i]);
    }
    batch.set_num_rows(static_cast<int>(values.size()));
    batch.SetAllActive();
    std::vector<uint8_t*> states(values.size(), state());
    fn_->Update(batch.column(0), batch, states.data());
  }

  Value Finalize() {
    ColumnVector out(fn_->result_type(), 1);
    fn_->Finalize(state(), &out, 0);
    return out.GetValue(0);
  }

  /// Serialize -> fresh state -> Deserialize -> Merge into another fresh
  /// state; returns the merged finalize. Mimics the spill-merge path.
  Value RoundTripAndFinalize() {
    BinaryWriter w;
    fn_->Serialize(state(), &w);
    std::vector<uint8_t> buf_a(fn_->state_bytes() + 16, 0),
        buf_b(fn_->state_bytes() + 16, 0);
    auto align = [](std::vector<uint8_t>& v) {
      return reinterpret_cast<uint8_t*>(
          (reinterpret_cast<uintptr_t>(v.data()) + 15) & ~uintptr_t{15});
    };
    uint8_t* restored = align(buf_a);
    uint8_t* merged = align(buf_b);
    fn_->Init(restored);
    BinaryReader r(w.data().data(), w.size());
    PHOTON_CHECK(fn_->Deserialize(&r, restored).ok());
    fn_->Init(merged);
    fn_->Merge(merged, restored);
    ColumnVector out(fn_->result_type(), 1);
    fn_->Finalize(merged, &out, 0);
    return out.GetValue(0);
  }

 private:
  DataType arg_type_;
  std::unique_ptr<AggregateFunction> fn_;
  VarLenPool arena_;
  std::vector<uint8_t> state_;
};

TEST(AggFunctionTest, CountSkipsNulls) {
  AggHarness h(AggKind::kCount, DataType::Int64());
  h.Update({Value::Int64(1), Value::Null(), Value::Int64(3)});
  EXPECT_EQ(h.Finalize(), Value::Int64(2));
  EXPECT_EQ(h.RoundTripAndFinalize(), Value::Int64(2));
}

TEST(AggFunctionTest, CountStarCountsNulls) {
  AggHarness h(AggKind::kCountStar, DataType::Int64());
  h.Update({Value::Int64(1), Value::Null(), Value::Int64(3)});
  EXPECT_EQ(h.Finalize(), Value::Int64(3));
}

TEST(AggFunctionTest, SumInt64) {
  AggHarness h(AggKind::kSum, DataType::Int64());
  h.Update({Value::Int64(10), Value::Int64(-3), Value::Null()});
  h.Update({Value::Int64(5)});
  EXPECT_EQ(h.Finalize(), Value::Int64(12));
  EXPECT_EQ(h.RoundTripAndFinalize(), Value::Int64(12));
}

TEST(AggFunctionTest, SumAllNullIsNull) {
  AggHarness h(AggKind::kSum, DataType::Int64());
  h.Update({Value::Null(), Value::Null()});
  EXPECT_TRUE(h.Finalize().is_null());
  EXPECT_TRUE(h.RoundTripAndFinalize().is_null());
}

TEST(AggFunctionTest, SumDecimalKeepsScale) {
  AggHarness h(AggKind::kSum, DataType::Decimal(12, 2));
  h.Update({Value::Decimal(Decimal128::FromInt64(1050)),   // 10.50
            Value::Decimal(Decimal128::FromInt64(275))});  // 2.75
  Value v = h.Finalize();
  EXPECT_EQ(v.decimal().ToString(2), "13.25");
  EXPECT_EQ(h.RoundTripAndFinalize().decimal().ToString(2), "13.25");
}

TEST(AggFunctionTest, AvgDecimalWidensScale) {
  // avg over decimal(12,2) yields decimal(16,6): 1.00+2.00 / 2 = 1.500000.
  AggHarness h(AggKind::kAvg, DataType::Decimal(12, 2));
  h.Update({Value::Decimal(Decimal128::FromInt64(100)),
            Value::Decimal(Decimal128::FromInt64(200))});
  EXPECT_EQ(h.Finalize().decimal().ToString(6), "1.500000");
}

TEST(AggFunctionTest, AvgInt32IsDouble) {
  AggHarness h(AggKind::kAvg, DataType::Int32());
  h.Update({Value::Int32(1), Value::Int32(2)});
  EXPECT_EQ(h.Finalize(), Value::Float64(1.5));
}

TEST(AggFunctionTest, MinMaxStrings) {
  AggHarness lo(AggKind::kMin, DataType::String());
  AggHarness hi(AggKind::kMax, DataType::String());
  std::vector<Value> vals = {Value::String("pear"), Value::Null(),
                             Value::String("apple"), Value::String("plum")};
  lo.Update(vals);
  hi.Update(vals);
  EXPECT_EQ(lo.Finalize(), Value::String("apple"));
  EXPECT_EQ(hi.Finalize(), Value::String("plum"));
  EXPECT_EQ(lo.RoundTripAndFinalize(), Value::String("apple"));
  EXPECT_EQ(hi.RoundTripAndFinalize(), Value::String("plum"));
}

TEST(AggFunctionTest, MinMaxDates) {
  AggHarness lo(AggKind::kMin, DataType::Date32());
  lo.Update({Value::Date32(100), Value::Date32(-5), Value::Date32(50)});
  EXPECT_EQ(lo.Finalize(), Value::Date32(-5));
}

TEST(AggFunctionTest, CollectListPreservesOrderAndSkipsNulls) {
  AggHarness h(AggKind::kCollectList, DataType::String());
  h.Update({Value::String("a"), Value::Null(), Value::String("b")});
  h.Update({Value::String("c")});
  EXPECT_EQ(h.Finalize(), Value::String("[a, b, c]"));
  EXPECT_EQ(h.RoundTripAndFinalize(), Value::String("[a, b, c]"));
}

TEST(AggFunctionTest, CollectListEmpty) {
  AggHarness h(AggKind::kCollectList, DataType::String());
  EXPECT_EQ(h.Finalize(), Value::String("[]"));
}

TEST(AggFunctionTest, ResultTypes) {
  auto rt = [](AggKind k, DataType t) {
    Result<DataType> r = AggResultType(k, t);
    PHOTON_CHECK(r.ok());
    return *r;
  };
  EXPECT_EQ(rt(AggKind::kSum, DataType::Int32()), DataType::Int64());
  EXPECT_EQ(rt(AggKind::kSum, DataType::Float64()), DataType::Float64());
  EXPECT_EQ(rt(AggKind::kSum, DataType::Decimal(12, 2)),
            DataType::Decimal(22, 2));
  EXPECT_EQ(rt(AggKind::kSum, DataType::Decimal(35, 2)),
            DataType::Decimal(38, 2));
  EXPECT_EQ(rt(AggKind::kAvg, DataType::Int64()), DataType::Float64());
  EXPECT_EQ(rt(AggKind::kAvg, DataType::Decimal(12, 2)),
            DataType::Decimal(16, 6));
  EXPECT_EQ(rt(AggKind::kMin, DataType::String()), DataType::String());
  EXPECT_EQ(rt(AggKind::kCount, DataType::String()), DataType::Int64());
  EXPECT_FALSE(AggResultType(AggKind::kSum, DataType::String()).ok());
  EXPECT_FALSE(AggResultType(AggKind::kCollectList, DataType::Int32()).ok());
}

// --- Decimal sum/avg finalize vs the row engine's BigDecimal ---------------

/// The row engine's decimal sum/avg (the baseline's SumDecimalState): an
/// unbounded BigDecimal sum, divided by the count at the result scale for
/// avg (rounding half away from zero), NULL past 38 digits.
Value ReferenceSumAvg(const std::vector<int128_t>& vals, int arg_scale,
                      const DataType& result, bool is_avg) {
  if (vals.empty()) return Value::Null();
  BigDecimal sum = BigDecimal::FromInt64(0, arg_scale);
  for (int128_t v : vals) {
    sum = sum.Add(BigDecimal::FromDecimal128(Decimal128(v), arg_scale));
  }
  if (is_avg) {
    sum = sum.Divide(BigDecimal::FromInt64(static_cast<int64_t>(vals.size()),
                                           0),
                     result.scale());
  }
  Decimal128 out;
  if (!sum.ToDecimal128(result.scale(), &out)) return Value::Null();
  return Value::Decimal(out);
}

/// Runs sum and avg over `vals` and checks Finalize and the spill-merge
/// round trip against ReferenceSumAvg.
void ExpectSumAvgMatchReference(const DataType& arg,
                                const std::vector<int128_t>& vals) {
  std::vector<Value> values;
  for (int128_t v : vals) values.push_back(Value::Decimal(Decimal128(v)));
  for (AggKind kind : {AggKind::kSum, AggKind::kAvg}) {
    bool is_avg = kind == AggKind::kAvg;
    Result<DataType> result = AggResultType(kind, arg);
    ASSERT_TRUE(result.ok());
    Value expect = ReferenceSumAvg(vals, arg.scale(), *result, is_avg);
    AggHarness h(kind, arg);
    h.Update(values);
    Value got = h.Finalize();
    EXPECT_TRUE(got.Equals(expect))
        << AggKindName(kind) << " over " << arg.ToString() << " of "
        << vals.size() << " values: got " << got.ToString() << " want "
        << expect.ToString();
    EXPECT_TRUE(h.RoundTripAndFinalize().Equals(expect))
        << AggKindName(kind) << " round trip over " << arg.ToString();
  }
}

int128_t RandomUnscaled(Rng* rng, int precision) {
  int digits = static_cast<int>(rng->Uniform(1, precision));
  int128_t v = 0;
  for (int i = 0; i < digits; i++) v = v * 10 + rng->Uniform(0, 9);
  return rng->NextBool() ? -v : v;
}

TEST(AggFunctionTest, DecimalSumAvgMatchBigDecimalOnRandomInput) {
  // Argument types cover avg shifts of 4 (scale +4), 2 (capped at scale
  // 38) and 0, and 38-digit inputs whose sums wrap int128 — with wraps
  // that cancel (mixed signs) and that do not (one sign).
  const DataType kArgs[] = {DataType::Decimal(12, 2),
                            DataType::Decimal(30, 10),
                            DataType::Decimal(38, 6),
                            DataType::Decimal(38, 36),
                            DataType::Decimal(38, 38)};
  Rng rng(1802);
  for (const DataType& arg : kArgs) {
    for (int trial = 0; trial < 60; trial++) {
      int n = static_cast<int>(rng.Uniform(1, 40));
      bool one_sign = rng.NextBool(0.3);
      std::vector<int128_t> vals;
      for (int i = 0; i < n; i++) {
        int128_t v = RandomUnscaled(&rng, arg.precision());
        vals.push_back(one_sign && v < 0 ? -v : v);
      }
      ExpectSumAvgMatchReference(arg, vals);
    }
  }
}

TEST(AggFunctionTest, DecimalSumAvgFinalizeBoundaries) {
  const int128_t max38 = kMaxDecimal38;
  DataType d38_0 = DataType::Decimal(38, 0);
  // +-(10^38 - 1) exactly, and one past it.
  ExpectSumAvgMatchReference(d38_0, {max38});
  ExpectSumAvgMatchReference(d38_0, {-max38});
  ExpectSumAvgMatchReference(d38_0, {max38, 1});
  ExpectSumAvgMatchReference(d38_0, {-max38, -1});
  // Wraps that cancel (the int128 sum ends exact) and that do not.
  ExpectSumAvgMatchReference(d38_0, {max38, max38, -max38, -max38, 5});
  ExpectSumAvgMatchReference(d38_0, {max38, max38, max38});
  ExpectSumAvgMatchReference(d38_0, {-max38, -max38, -max38, 7});
  // A wrapped accumulator landing exactly on -2^127 (INT128_MIN): the
  // true sum is 2^127, too wide for 38 digits, but its avg at shift 0
  // (2^126) fits.
  int128_t two127_rest = static_cast<int128_t>(
      (uint128_t{1} << 127) - static_cast<uint128_t>(max38));
  ExpectSumAvgMatchReference(DataType::Decimal(38, 38), {max38, two127_rest});
  {
    AggHarness h(AggKind::kAvg, DataType::Decimal(38, 38));
    h.Update({Value::Decimal(Decimal128(max38)),
              Value::Decimal(Decimal128(two127_rest))});
    EXPECT_EQ(h.Finalize().decimal().value(),
              static_cast<int128_t>(uint128_t{1} << 126));
  }
  // An avg numerator |sum| * 10^shift past uint128 (shift 2 here) takes
  // the exact fallback; the quotient 0.9 still fits dec(38,38).
  int128_t nine_tenths = 9 * Decimal128::PowerOfTen(35);  // 0.9 at scale 36
  ExpectSumAvgMatchReference(DataType::Decimal(38, 36),
                             std::vector<int128_t>(5, nine_tenths));
  ExpectSumAvgMatchReference(DataType::Decimal(38, 36),
                             std::vector<int128_t>(5, -nine_tenths));
  // Half-way quotients round away from zero, at shift 0 and at shift 4.
  ExpectSumAvgMatchReference(DataType::Decimal(38, 38), {1, 0});
  ExpectSumAvgMatchReference(DataType::Decimal(38, 38), {-1, 0});
  ExpectSumAvgMatchReference(DataType::Decimal(38, 38), {2, 0, 0});
  ExpectSumAvgMatchReference(DataType::Decimal(38, 38), {-1, 0, 0});
  std::vector<int128_t> tie(20000, 0);  // 0.01 / 20000 = 0.0000005
  tie[0] = 1;
  ExpectSumAvgMatchReference(DataType::Decimal(12, 2), tie);
  {
    AggHarness h(AggKind::kAvg, DataType::Decimal(12, 2));
    std::vector<Value> values;
    for (int128_t v : tie) values.push_back(Value::Decimal(Decimal128(-v)));
    h.Update(values);
    EXPECT_EQ(h.Finalize().decimal().value(), -1);  // -0.000001
  }
}

TEST(AggFunctionTest, CollectListNodesAreAligned) {
  // Nodes interleave with odd-length strings in the arena; each must still
  // sit at its natural alignment.
  AggHarness h(AggKind::kCollectList, DataType::String());
  h.Update({Value::String("a"), Value::String("bcd"), Value::String("efghi"),
            Value::String("j")});
  EXPECT_EQ(h.Finalize(), Value::String("[a, bcd, efghi, j]"));
  VarLenPool pool;
  pool.AllocateBytes(3);
  void* p = pool.AllocateAligned(16, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
  pool.AllocateBytes(1);
  p = pool.AllocateAligned(24, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
}

/// Property: sum/count/min/max agree with a scalar fold on random input,
/// including through the serialize-merge path.
TEST(AggFunctionTest, RandomizedAgainstFold) {
  Rng rng(12);
  for (int trial = 0; trial < 30; trial++) {
    std::vector<Value> values;
    int64_t sum = 0, count = 0;
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    int n = static_cast<int>(rng.Uniform(0, 200));
    for (int i = 0; i < n; i++) {
      if (rng.NextBool(0.2)) {
        values.push_back(Value::Null());
        continue;
      }
      int64_t v = rng.Uniform(-1000, 1000);
      values.push_back(Value::Int64(v));
      sum += v;
      count++;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    AggHarness hs(AggKind::kSum, DataType::Int64());
    AggHarness hc(AggKind::kCount, DataType::Int64());
    AggHarness hmin(AggKind::kMin, DataType::Int64());
    AggHarness hmax(AggKind::kMax, DataType::Int64());
    hs.Update(values);
    hc.Update(values);
    hmin.Update(values);
    hmax.Update(values);
    EXPECT_EQ(hc.Finalize(), Value::Int64(count));
    if (count == 0) {
      EXPECT_TRUE(hs.Finalize().is_null());
      EXPECT_TRUE(hmin.Finalize().is_null());
    } else {
      EXPECT_EQ(hs.RoundTripAndFinalize(), Value::Int64(sum));
      EXPECT_EQ(hmin.Finalize(), Value::Int64(lo));
      EXPECT_EQ(hmax.RoundTripAndFinalize(), Value::Int64(hi));
    }
  }
}

}  // namespace
}  // namespace photon
