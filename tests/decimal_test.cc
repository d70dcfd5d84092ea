#include "types/decimal.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "types/big_decimal.h"

namespace photon {
namespace {

TEST(Decimal128Test, FromStringBasic) {
  Decimal128 d;
  ASSERT_TRUE(Decimal128::FromString("12.34", 2, &d));
  EXPECT_EQ(d.value(), 1234);
  ASSERT_TRUE(Decimal128::FromString("-12.34", 2, &d));
  EXPECT_EQ(d.value(), -1234);
  ASSERT_TRUE(Decimal128::FromString("12", 2, &d));
  EXPECT_EQ(d.value(), 1200);
  ASSERT_TRUE(Decimal128::FromString("0.5", 2, &d));
  EXPECT_EQ(d.value(), 50);
  // Extra fractional digits are truncated.
  ASSERT_TRUE(Decimal128::FromString("1.239", 2, &d));
  EXPECT_EQ(d.value(), 123);
}

TEST(Decimal128Test, FromStringRejectsMalformed) {
  Decimal128 d;
  EXPECT_FALSE(Decimal128::FromString("", 2, &d));
  EXPECT_FALSE(Decimal128::FromString("abc", 2, &d));
  EXPECT_FALSE(Decimal128::FromString("1.2.3", 2, &d));
  EXPECT_FALSE(Decimal128::FromString("--5", 2, &d));
}

TEST(Decimal128Test, ToStringRoundTrip) {
  Decimal128 d;
  ASSERT_TRUE(Decimal128::FromString("1234.56", 2, &d));
  EXPECT_EQ(d.ToString(2), "1234.56");
  ASSERT_TRUE(Decimal128::FromString("-0.07", 2, &d));
  EXPECT_EQ(d.ToString(2), "-0.07");
  EXPECT_EQ(Decimal128(static_cast<int128_t>(0)).ToString(2), "0.00");
  EXPECT_EQ(Decimal128(static_cast<int128_t>(5)).ToString(0), "5");
}

TEST(Decimal128Test, RescaleUp) {
  Decimal128 d(static_cast<int128_t>(123));
  Decimal128 out;
  ASSERT_TRUE(d.Rescale(2, 4, &out));
  EXPECT_EQ(out.value(), 12300);
}

TEST(Decimal128Test, RescaleDownRounds) {
  Decimal128 out;
  // 1.25 at scale 2 -> scale 1 rounds half away from zero -> 1.3
  ASSERT_TRUE(Decimal128(static_cast<int128_t>(125)).Rescale(2, 1, &out));
  EXPECT_EQ(out.value(), 13);
  ASSERT_TRUE(Decimal128(static_cast<int128_t>(-125)).Rescale(2, 1, &out));
  EXPECT_EQ(out.value(), -13);
  ASSERT_TRUE(Decimal128(static_cast<int128_t>(124)).Rescale(2, 1, &out));
  EXPECT_EQ(out.value(), 12);
}

TEST(Decimal128Test, DivideRoundsHalfAwayFromZero) {
  // 1.00 / 3.00 at result scale 2 (shift 2): 100*100/300 = 33.33 -> 33
  Decimal128 q;
  ASSERT_TRUE(Decimal128::Divide(Decimal128(static_cast<int128_t>(100)),
                                 Decimal128(static_cast<int128_t>(300)), 2,
                                 &q));
  EXPECT_EQ(q.value(), 33);
  // 1.00 / 2.00 -> 0.50 exactly
  ASSERT_TRUE(Decimal128::Divide(Decimal128(static_cast<int128_t>(100)),
                                 Decimal128(static_cast<int128_t>(200)), 2,
                                 &q));
  EXPECT_EQ(q.value(), 50);
  // Negative: -1.00 / 3.00 -> -0.33
  ASSERT_TRUE(Decimal128::Divide(Decimal128(static_cast<int128_t>(-100)),
                                 Decimal128(static_cast<int128_t>(300)), 2,
                                 &q));
  EXPECT_EQ(q.value(), -33);
}

TEST(Decimal128Test, DivideByZeroFails) {
  Decimal128 q;
  EXPECT_FALSE(Decimal128::Divide(Decimal128(static_cast<int128_t>(1)),
                                  Decimal128(static_cast<int128_t>(0)), 2,
                                  &q));
}

TEST(Decimal128Test, Precision) {
  EXPECT_EQ(Decimal128(static_cast<int128_t>(0)).Precision(), 1);
  EXPECT_EQ(Decimal128(static_cast<int128_t>(9)).Precision(), 1);
  EXPECT_EQ(Decimal128(static_cast<int128_t>(10)).Precision(), 2);
  EXPECT_EQ(Decimal128(static_cast<int128_t>(-999)).Precision(), 3);
  EXPECT_EQ(Decimal128(Decimal128::PowerOfTen(37)).Precision(), 38);
}

TEST(BigDecimalTest, AddAlignsScales) {
  BigDecimal a, b;
  ASSERT_TRUE(BigDecimal::FromString("1.5", &a));
  ASSERT_TRUE(BigDecimal::FromString("2.25", &b));
  EXPECT_EQ(a.Add(b).ToString(), "3.75");
  EXPECT_EQ(b.Add(a).ToString(), "3.75");
}

TEST(BigDecimalTest, SubtractSigns) {
  BigDecimal a, b;
  ASSERT_TRUE(BigDecimal::FromString("1.00", &a));
  ASSERT_TRUE(BigDecimal::FromString("2.50", &b));
  EXPECT_EQ(a.Subtract(b).ToString(), "-1.50");
  EXPECT_EQ(b.Subtract(a).ToString(), "1.50");
  EXPECT_EQ(a.Subtract(a).ToString(), "0.00");
}

TEST(BigDecimalTest, Multiply) {
  BigDecimal a, b;
  ASSERT_TRUE(BigDecimal::FromString("12.34", &a));
  ASSERT_TRUE(BigDecimal::FromString("-5.6", &b));
  EXPECT_EQ(a.Multiply(b).ToString(), "-69.104");
}

TEST(BigDecimalTest, DivideRounds) {
  BigDecimal a, b;
  ASSERT_TRUE(BigDecimal::FromString("1", &a));
  ASSERT_TRUE(BigDecimal::FromString("3", &b));
  EXPECT_EQ(a.Divide(b, 4).ToString(), "0.3333");
  ASSERT_TRUE(BigDecimal::FromString("2", &b));
  EXPECT_EQ(a.Divide(b, 2).ToString(), "0.50");
}

TEST(BigDecimalTest, LargeMagnitudes) {
  BigDecimal a, b;
  ASSERT_TRUE(
      BigDecimal::FromString("123456789012345678901234567890.12", &a));
  ASSERT_TRUE(BigDecimal::FromString("1", &b));
  EXPECT_EQ(a.Add(b).ToString(), "123456789012345678901234567891.12");
}

TEST(BigDecimalTest, ToDecimal128RoundTrip) {
  BigDecimal a;
  ASSERT_TRUE(BigDecimal::FromString("-9876543.21", &a));
  Decimal128 d;
  ASSERT_TRUE(a.ToDecimal128(2, &d));
  EXPECT_EQ(d.ToString(2), "-9876543.21");
}

TEST(BigDecimalTest, FromDecimal128AtInt128Min) {
  // -2^127 has no int128 negation; a wrapped decimal sum accumulator can
  // hold it, so the magnitude must come out exact.
  int128_t min = static_cast<int128_t>(uint128_t{1} << 127);
  BigDecimal a = BigDecimal::FromDecimal128(Decimal128(min), 0);
  EXPECT_EQ(a.ToString(), "-170141183460469231731687303715884105728");
  EXPECT_EQ(BigDecimal::FromDecimal128(Decimal128(min), 38).ToString(),
            "-1.70141183460469231731687303715884105728");
}

// Property test: BigDecimal arithmetic agrees with Decimal128 on random
// inputs that fit in both (this is the invariant that lets the baseline
// engine use BigDecimal while Photon uses native int128 — §5.6 semantics
// consistency).
TEST(BigDecimalTest, AgreesWithDecimal128OnRandomInputs) {
  Rng rng(42);
  for (int trial = 0; trial < 500; trial++) {
    int64_t av = rng.Uniform(-1000000000LL, 1000000000LL);
    int64_t bv = rng.Uniform(-1000000000LL, 1000000000LL);
    Decimal128 da = Decimal128::FromInt64(av);
    Decimal128 db = Decimal128::FromInt64(bv);
    BigDecimal ba = BigDecimal::FromDecimal128(da, 2);
    BigDecimal bb = BigDecimal::FromDecimal128(db, 2);

    // Add at aligned scale.
    Decimal128 native_sum = da + db;
    Decimal128 big_sum;
    ASSERT_TRUE(ba.Add(bb).ToDecimal128(2, &big_sum));
    EXPECT_EQ(native_sum.value(), big_sum.value()) << av << " + " << bv;

    // Multiply: scales add (2 + 2 = 4).
    Decimal128 native_mul = da * db;
    Decimal128 big_mul;
    ASSERT_TRUE(ba.Multiply(bb).ToDecimal128(4, &big_mul));
    EXPECT_EQ(native_mul.value(), big_mul.value()) << av << " * " << bv;

    // Divide at scale 6 (shift = 6 - 2 + 2).
    if (bv != 0) {
      Decimal128 native_div;
      ASSERT_TRUE(Decimal128::Divide(da, db, 6, &native_div));
      Decimal128 big_div;
      ASSERT_TRUE(bb.is_zero() ||
                  ba.Divide(bb, 6).ToDecimal128(6, &big_div));
      EXPECT_EQ(native_div.value(), big_div.value()) << av << " / " << bv;
    }
  }
}

}  // namespace
}  // namespace photon
