#include "expr/expr.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "common/rng.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "expr/function_registry.h"
#include "expr/fusion.h"
#include "expr/scalar_ops.h"
#include "ops/fused_filter_project.h"
#include "ops/scan.h"
#include "plan/logical_plan.h"
#include "vector/table.h"

namespace photon {
namespace {

using eb::Col;
using eb::Lit;

/// The expression-table unit testing framework from §5.6 of the paper: a
/// test specifies input rows and an expression; the framework loads the
/// rows into column vectors and evaluates the expression under every
/// specialization — all rows active and a strict subset active — comparing
/// the vectorized result against the row-at-a-time interpreter (which is
/// also the baseline engine's evaluator, so this doubles as the
/// Photon-vs-DBR consistency check). It also plants sentinel values at
/// inactive positions and verifies kernels never overwrite them.
class ExpressionTableTest {
 public:
  ExpressionTableTest(Schema schema, std::vector<std::vector<Value>> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  void Check(const ExprPtr& expr) {
    CheckWithActiveSet(expr, /*use_subset=*/false);
    if (rows_.size() >= 2) CheckWithActiveSet(expr, /*use_subset=*/true);
  }

 private:
  void CheckWithActiveSet(const ExprPtr& expr, bool use_subset) {
    int n = static_cast<int>(rows_.size());
    ColumnBatch batch(schema_, n);
    for (int i = 0; i < n; i++) {
      for (int c = 0; c < schema_.num_fields(); c++) {
        batch.column(c)->SetValue(i, rows_[i][c]);
      }
    }
    batch.set_num_rows(n);

    std::vector<int32_t> active;
    if (use_subset) {
      for (int i = 0; i < n; i += 2) active.push_back(i);  // evens only
      std::memcpy(batch.mutable_pos_list(), active.data(),
                  active.size() * sizeof(int32_t));
      batch.SetActiveRows(static_cast<int>(active.size()));
    } else {
      batch.SetAllActive();
      for (int i = 0; i < n; i++) active.push_back(i);
    }

    EvalContext ctx;
    Result<ColumnVector*> result = expr->Evaluate(&batch, &ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString() << " in "
                             << expr->ToString();
    ColumnVector* vec = *result;

    for (int32_t row : active) {
      Result<Value> oracle = expr->EvaluateRow(rows_[row]);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      Value got = vec->GetValue(row);
      EXPECT_TRUE(got.Equals(*oracle))
          << expr->ToString() << " row " << row << ": vectorized="
          << got.ToString() << " oracle=" << oracle->ToString();
    }
  }

  Schema schema_;
  std::vector<std::vector<Value>> rows_;
};

Schema NumSchema() {
  return Schema({Field("a", DataType::Int32()),
                 Field("b", DataType::Int32()),
                 Field("x", DataType::Float64()),
                 Field("s", DataType::String())});
}

std::vector<std::vector<Value>> NumRows() {
  return {
      {Value::Int32(1), Value::Int32(10), Value::Float64(2.0),
       Value::String("hello")},
      {Value::Int32(-5), Value::Int32(3), Value::Float64(-1.5),
       Value::String("WORLD")},
      {Value::Null(), Value::Int32(7), Value::Float64(0.0), Value::Null()},
      {Value::Int32(42), Value::Null(), Value::Null(),
       Value::String("Caf\xC3\xA9")},
      {Value::Int32(0), Value::Int32(0), Value::Float64(9.0),
       Value::String("")},
      {Value::Int32(100), Value::Int32(-100), Value::Float64(16.0),
       Value::String("photon")},
  };
}

ExprPtr A() { return Col(0, DataType::Int32(), "a"); }
ExprPtr B() { return Col(1, DataType::Int32(), "b"); }
ExprPtr X() { return Col(2, DataType::Float64(), "x"); }
ExprPtr S() { return Col(3, DataType::String(), "s"); }

TEST(ExprTest, Arithmetic) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::Add(A(), B()));
  t.Check(eb::Sub(A(), B()));
  t.Check(eb::Mul(A(), B()));
  t.Check(eb::Div(A(), B()));  // includes div by zero -> NULL
  t.Check(eb::Mod(A(), B()));
  t.Check(eb::Add(X(), X()));
  t.Check(eb::Div(X(), X()));
  t.Check(eb::Add(A(), Lit(int32_t{7})));
  // Mixed types promote.
  t.Check(eb::Add(A(), Lit(1.5)));
}

TEST(ExprTest, Comparisons) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::Eq(A(), B()));
  t.Check(eb::Ne(A(), B()));
  t.Check(eb::Lt(A(), B()));
  t.Check(eb::Le(A(), B()));
  t.Check(eb::Gt(A(), Lit(int32_t{0})));
  t.Check(eb::Ge(X(), Lit(0.0)));
  t.Check(eb::Eq(S(), Lit("hello")));
  t.Check(eb::Lt(S(), Lit("photon")));
}

TEST(ExprTest, BooleanLogicThreeValued) {
  ExpressionTableTest t(NumSchema(), NumRows());
  ExprPtr p = eb::Gt(A(), Lit(int32_t{0}));   // NULL on row 2
  ExprPtr q = eb::Gt(B(), Lit(int32_t{0}));   // NULL on row 3
  t.Check(eb::And(p, q));
  t.Check(eb::Or(p, q));
  t.Check(eb::Not(p));
  t.Check(eb::And(eb::Not(p), eb::Or(p, q)));
}

TEST(ExprTest, IsNull) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::IsNull(A()));
  t.Check(eb::IsNotNull(A()));
  t.Check(eb::IsNull(S()));
}

TEST(ExprTest, Between) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::Between(A(), Lit(int32_t{0}), Lit(int32_t{50})));
  t.Check(eb::Between(A(), B(), Lit(int32_t{1000})));
  t.Check(eb::Between(X(), Lit(-2.0), Lit(3.0)));
  t.Check(eb::Between(S(), Lit("a"), Lit("z")));
}

TEST(ExprTest, CaseWhen) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::If(eb::Gt(A(), Lit(int32_t{0})), Lit("pos"), Lit("nonpos")));
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(eb::Gt(A(), Lit(int32_t{50})), Lit(int32_t{2}));
  branches.emplace_back(eb::Gt(A(), Lit(int32_t{0})), Lit(int32_t{1}));
  t.Check(eb::CaseWhen(std::move(branches), Lit(int32_t{0})));
  // No ELSE -> NULL.
  std::vector<std::pair<ExprPtr, ExprPtr>> b2;
  b2.emplace_back(eb::Gt(A(), Lit(int32_t{0})), eb::Add(A(), B()));
  t.Check(eb::CaseWhen(std::move(b2), nullptr));
}

TEST(ExprTest, InList) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::In(A(), {Value::Int32(1), Value::Int32(42)}));
  t.Check(eb::In(A(), {Value::Int32(999)}));
  t.Check(eb::In(A(), {Value::Int32(1), Value::Null()}));
  t.Check(eb::In(S(), {Value::String("hello"), Value::String("photon")}));
}

TEST(ExprTest, StringFunctions) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::Call("upper", {S()}));
  t.Check(eb::Call("lower", {S()}));
  t.Check(eb::Call("upper_generic", {S()}));
  t.Check(eb::Call("length", {S()}));
  t.Check(eb::Call("octet_length", {S()}));
  t.Check(eb::Call("trim", {S()}));
  t.Check(eb::Call("reverse", {S()}));
  t.Check(eb::Call("substr", {S(), Lit(int32_t{2}), Lit(int32_t{3})}));
  t.Check(eb::Call("substr", {S(), Lit(int32_t{-3})}));
  t.Check(eb::Call("concat", {S(), Lit("!"), S()}));
  t.Check(eb::Like(S(), "h%o"));
  t.Check(eb::Like(S(), "%orl%"));
  t.Check(eb::Like(S(), "_ello"));
  t.Check(eb::Call("starts_with", {S(), Lit("he")}));
  t.Check(eb::Call("ends_with", {S(), Lit("o")}));
  t.Check(eb::Call("contains", {S(), Lit("or")}));
  t.Check(eb::Call("replace", {S(), Lit("l"), Lit("L")}));
  t.Check(eb::Call("lpad", {S(), Lit(int32_t{10}), Lit("*")}));
  t.Check(eb::Call("rpad", {S(), Lit(int32_t{3}), Lit("*")}));
  t.Check(eb::Call("repeat", {S(), Lit(int32_t{2})}));
  t.Check(eb::Call("ascii", {S()}));
}

TEST(ExprTest, UpperMatchesGenericOnAsciiAndUnicode) {
  // The adaptive ASCII path and the generic codepoint path must agree.
  ExpressionTableTest t(
      Schema({Field("s", DataType::String())}),
      {{Value::String("all ascii text")},
       {Value::String("MiXeD CaSe 123!")},
       {Value::String("caf\xC3\xA9")},            // é -> É
       {Value::String("\xCE\xB1\xCE\xB2")},       // αβ -> ΑΒ
       {Value::String("\xD0\xBF\xD1\x80")},       // Cyrillic
       {Value::Null()}});
  ExprPtr s = Col(0, DataType::String(), "s");
  t.Check(eb::Call("upper", {s}));
  t.Check(eb::Call("lower", {eb::Call("upper", {s})}));
}

TEST(ExprTest, MathFunctions) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::Call("sqrt", {eb::Call("abs", {X()})}));
  t.Check(eb::Call("abs", {A()}));
  t.Check(eb::Call("negate", {A()}));
  t.Check(eb::Call("floor", {X()}));
  t.Check(eb::Call("ceil", {X()}));
  t.Check(eb::Call("round", {X()}));
  t.Check(eb::Call("exp", {X()}));
  t.Check(eb::Call("sign", {X()}));
  t.Check(eb::Call("pow", {X(), Lit(2.0)}));
}

TEST(ExprTest, DateFunctions) {
  Schema schema({Field("d", DataType::Date32())});
  std::vector<std::vector<Value>> rows = {
      {Value::Date32(0)},       // 1970-01-01
      {Value::Date32(19358)},   // 2023-01-01
      {Value::Date32(-1)},      // 1969-12-31
      {Value::Null()},
      {Value::Date32(11016)},   // 2000-02-29 (leap)
  };
  ExpressionTableTest t(schema, rows);
  ExprPtr d = Col(0, DataType::Date32(), "d");
  t.Check(eb::Call("year", {d}));
  t.Check(eb::Call("month", {d}));
  t.Check(eb::Call("day", {d}));
  t.Check(eb::Call("date_add", {d, Lit(int32_t{30})}));
  t.Check(eb::Call("date_sub", {d, Lit(int32_t{365})}));
  t.Check(eb::Call("add_months", {d, Lit(int32_t{13})}));
  t.Check(eb::Call("datediff", {d, eb::DateLit("2020-06-15")}));
  t.Check(eb::Call("date_format", {d}));
  t.Check(eb::Ge(d, eb::DateLit("1999-12-31")));
  t.Check(eb::Between(d, eb::DateLit("1970-01-01"), eb::DateLit("2024-01-01")));
}

TEST(ExprTest, Casts) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::Cast(A(), DataType::Int64()));
  t.Check(eb::Cast(A(), DataType::Float64()));
  t.Check(eb::Cast(X(), DataType::Int32()));
  t.Check(eb::Cast(X(), DataType::Int64()));
  t.Check(eb::Cast(A(), DataType::String()));
  t.Check(eb::Cast(A(), DataType::Decimal(12, 2)));
  t.Check(eb::Cast(S(), DataType::Int32()));  // non-numeric -> NULL
}

TEST(ExprTest, DecimalArithmetic) {
  Schema schema({Field("p", DataType::Decimal(12, 2)),
                 Field("q", DataType::Decimal(12, 2))});
  auto dec = [](const std::string& s) {
    Decimal128 d;
    PHOTON_CHECK(Decimal128::FromString(s, 2, &d));
    return Value::Decimal(d);
  };
  std::vector<std::vector<Value>> rows = {
      {dec("10.00"), dec("3.00")},   {dec("-5.25"), dec("2.50")},
      {dec("0.00"), dec("0.00")},    {Value::Null(), dec("1.00")},
      {dec("999999.99"), dec("0.01")},
  };
  ExpressionTableTest t(schema, rows);
  ExprPtr p = Col(0, DataType::Decimal(12, 2), "p");
  ExprPtr q = Col(1, DataType::Decimal(12, 2), "q");
  t.Check(eb::Add(p, q));
  t.Check(eb::Sub(p, q));
  t.Check(eb::Mul(p, q));
  t.Check(eb::Div(p, q));  // includes 0/0 -> NULL
  t.Check(eb::Eq(p, q));
  t.Check(eb::Lt(p, q));
  // Decimal with int literal: int is widened.
  t.Check(eb::Mul(p, eb::Sub(Lit(int32_t{1}), q)));
  // TPC-H Q1 shape: l_extendedprice * (1 - l_discount) * (1 + l_tax).
  t.Check(eb::Mul(eb::Mul(p, eb::Sub(Lit(int32_t{1}), q)),
                  eb::Add(Lit(int32_t{1}), q)));
}

TEST(ExprTest, DecimalHighPrecisionUsesBigDecimalPathConsistently) {
  // Result precision > 18 forces the row oracle (baseline) through
  // BigDecimal; results must still match the vectorized int128 path.
  Schema schema({Field("p", DataType::Decimal(22, 4)),
                 Field("q", DataType::Decimal(22, 4))});
  auto dec = [](const std::string& s) {
    Decimal128 d;
    PHOTON_CHECK(Decimal128::FromString(s, 4, &d));
    return Value::Decimal(d);
  };
  std::vector<std::vector<Value>> rows = {
      {dec("123456789012345.6789"), dec("987654321.1234")},
      {dec("-999999999999.9999"), dec("0.0001")},
      {dec("1.0000"), dec("3.0000")},
      {Value::Null(), dec("2.0000")},
  };
  ExpressionTableTest t(schema, rows);
  ExprPtr p = Col(0, DataType::Decimal(22, 4), "p");
  ExprPtr q = Col(1, DataType::Decimal(22, 4), "q");
  t.Check(eb::Add(p, q));
  t.Check(eb::Sub(p, q));
  t.Check(eb::Div(p, q));
}

TEST(ExprTest, FilterBatchNarrowsPositionList) {
  Schema schema({Field("a", DataType::Int32())});
  ColumnBatch batch(schema, 8);
  for (int i = 0; i < 8; i++) batch.column(0)->data<int32_t>()[i] = i;
  batch.column(0)->SetNull(6);
  batch.set_num_rows(8);
  batch.SetAllActive();

  EvalContext ctx;
  ExprPtr pred = eb::Ge(Col(0, DataType::Int32()), Lit(int32_t{3}));
  Result<int> n = FilterBatch(*pred, &batch, &ctx);
  ASSERT_TRUE(n.ok());
  // rows 3,4,5,7 pass; row 6 is NULL -> dropped.
  EXPECT_EQ(*n, 4);
  EXPECT_EQ(batch.ActiveRow(0), 3);
  EXPECT_EQ(batch.ActiveRow(3), 7);

  // Filtering an already-filtered batch composes.
  ExprPtr pred2 = eb::Lt(Col(0, DataType::Int32()), Lit(int32_t{5}));
  n = FilterBatch(*pred2, &batch, &ctx);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2);  // rows 3, 4
}

TEST(ExprTest, InactiveRowsNeverOverwritten) {
  // §4.3: kernels must not write at inactive positions, since those may
  // hold live data for other consumers.
  Schema schema({Field("a", DataType::Int32())});
  ColumnBatch batch(schema, 8);
  for (int i = 0; i < 8; i++) batch.column(0)->data<int32_t>()[i] = i;
  batch.set_num_rows(8);
  int32_t* pos = batch.mutable_pos_list();
  pos[0] = 1;
  pos[1] = 3;
  batch.SetActiveRows(2);

  EvalContext ctx;
  ExprPtr expr = eb::Add(Col(0, DataType::Int32()), Lit(int32_t{100}));
  Result<ColumnVector*> result = expr->Evaluate(&batch, &ctx);
  ASSERT_TRUE(result.ok());
  ColumnVector* vec = *result;
  // Plant sentinels at inactive positions of the output, re-evaluate with
  // the same context (vector is recycled), and check sentinels survive.
  // Here we directly verify: only rows 1 and 3 were written.
  EXPECT_EQ(vec->data<int32_t>()[1], 101);
  EXPECT_EQ(vec->data<int32_t>()[3], 103);
  // Inactive positions hold whatever the fresh buffer held; write
  // sentinels and evaluate CASE WHEN through the same rows to double-check
  // the conditional path too.
  vec->data<int32_t>()[0] = -777;
  ExprPtr cw = eb::If(eb::Gt(Col(0, DataType::Int32()), Lit(int32_t{2})),
                      Lit(int32_t{1}), Lit(int32_t{0}));
  Result<ColumnVector*> r2 = cw->Evaluate(&batch, &ctx);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(vec->data<int32_t>()[0], -777);
}

TEST(ExprTest, Coalesce) {
  ExpressionTableTest t(NumSchema(), NumRows());
  t.Check(eb::Call("coalesce", {A(), B()}));
  t.Check(eb::Call("coalesce", {A(), Lit(int32_t{-1})}));
  t.Check(eb::Call("nullif", {A(), Lit(int32_t{42})}));
}

// Integer overflow/edge semantics must be identical between the vectorized
// kernels and the row oracle (which doubles as the baseline engine):
// Java-style wrapping add/sub/mul, guarded INT64_MIN / -1, x % -1 == 0,
// and NULL on division or modulo by zero.
TEST(ExprTest, IntegerOverflowEdges) {
  Schema schema(
      {Field("a", DataType::Int64()), Field("b", DataType::Int64())});
  int64_t min64 = std::numeric_limits<int64_t>::min();
  int64_t max64 = std::numeric_limits<int64_t>::max();
  std::vector<std::vector<Value>> rows = {
      {Value::Int64(max64), Value::Int64(1)},
      {Value::Int64(min64), Value::Int64(-1)},
      {Value::Int64(min64), Value::Int64(min64)},
      {Value::Int64(max64), Value::Int64(max64)},
      {Value::Int64(min64), Value::Int64(0)},
      {Value::Int64(7), Value::Int64(-1)},
      {Value::Null(), Value::Int64(-1)},
  };
  ExpressionTableTest t(schema, rows);
  ExprPtr a = Col(0, DataType::Int64(), "a");
  ExprPtr b = Col(1, DataType::Int64(), "b");
  t.Check(eb::Add(a, b));  // INT64_MAX + 1 wraps
  t.Check(eb::Sub(a, b));  // INT64_MIN - 1 wraps
  t.Check(eb::Mul(a, b));
  t.Check(eb::Div(a, b));  // x / 0 -> NULL; INT64_MIN / -1 must not SIGFPE
  t.Check(eb::Mod(a, b));  // x % 0 -> NULL; x % -1 == 0

  auto row_val = [&](const ExprPtr& e, int64_t x, int64_t y) {
    Result<Value> v = e->EvaluateRow({Value::Int64(x), Value::Int64(y)});
    PHOTON_CHECK(v.ok());
    return *v;
  };
  EXPECT_EQ(row_val(eb::Add(a, b), max64, 1).i64(), min64);
  EXPECT_EQ(row_val(eb::Sub(a, b), min64, 1).i64(), max64);
  EXPECT_EQ(row_val(eb::Div(a, b), min64, -1).i64(), min64);  // wraps
  EXPECT_EQ(row_val(eb::Mod(a, b), min64, -1).i64(), 0);
  EXPECT_TRUE(row_val(eb::Div(a, b), 5, 0).is_null());
  EXPECT_TRUE(row_val(eb::Mod(a, b), 5, 0).is_null());
}

// Decimal arithmetic past 38 digits of precision finalizes to NULL (Spark
// non-ANSI) on both paths — the vectorized engine runs these capped shapes
// on the checked int128 kernel rather than wrapping int128.
TEST(ExprTest, DecimalOverflowEdgesAreNull) {
  Schema schema({Field("p", DataType::Decimal(38, 2)),
                 Field("q", DataType::Decimal(38, 2))});
  Value near_max =
      Value::Decimal(Decimal128(Decimal128::MaxValueForPrecision(38) - 7));
  Value big = Value::Decimal(Decimal128(Decimal128::PowerOfTen(30)));
  Value cent = Value::Decimal(Decimal128(1));  // 0.01 at scale 2
  std::vector<std::vector<Value>> rows = {
      {near_max, near_max},
      {near_max, cent},
      {big, big},
      {near_max, Value::Decimal(Decimal128(-Decimal128::PowerOfTen(20)))},
      {Value::Null(), near_max},
  };
  ExpressionTableTest t(schema, rows);
  ExprPtr p = Col(0, DataType::Decimal(38, 2), "p");
  ExprPtr q = Col(1, DataType::Decimal(38, 2), "q");
  t.Check(eb::Add(p, q));
  t.Check(eb::Sub(p, q));
  t.Check(eb::Mul(p, q));
  t.Check(eb::Div(p, q));

  auto null_row = [&](const ExprPtr& e, const Value& x, const Value& y) {
    Result<Value> v = e->EvaluateRow({x, y});
    PHOTON_CHECK(v.ok());
    return v->is_null();
  };
  EXPECT_TRUE(null_row(eb::Add(p, q), near_max, near_max));
  // 1e28 * 1e28 = 1e56: far past int128 range, exercising the multiply
  // wraparound guard in BigDecimal::ToDecimal128.
  EXPECT_TRUE(null_row(eb::Mul(p, q), big, big));
  EXPECT_TRUE(null_row(eb::Div(p, q), near_max, cent));
  EXPECT_FALSE(null_row(eb::Sub(p, q), near_max, near_max));  // zero: fine
}

// substr follows Spark's UTF8String.substringSQL: 1-based, start 0 behaves
// like start 1, negative start counts from the end, begin+len wraps in
// 32-bit arithmetic (INT32_MAX means "to the end"), and offsets count
// codepoints, not bytes.
TEST(ExprTest, SubstrSparkSemantics) {
  auto sub3 = [](const char* s, int32_t start, int32_t len) {
    ExprPtr e = eb::Call("substr", {Lit(s), Lit(start), Lit(len)});
    Result<Value> v = e->EvaluateRow({});
    PHOTON_CHECK(v.ok());
    return v->str();
  };
  auto sub2 = [](const char* s, int32_t start) {
    ExprPtr e = eb::Call("substr", {Lit(s), Lit(start)});
    Result<Value> v = e->EvaluateRow({});
    PHOTON_CHECK(v.ok());
    return v->str();
  };
  EXPECT_EQ(sub3("hello", 1, 3), "hel");
  EXPECT_EQ(sub3("hello", 0, 3), "hel");  // start 0: length still from pos 1
  EXPECT_EQ(sub2("hello", 2), "ello");
  EXPECT_EQ(sub2("hello", -3), "llo");
  EXPECT_EQ(sub3("hello", -3, 2), "ll");
  EXPECT_EQ(sub3("hello", -10, 3), "");   // begin deep below the start
  EXPECT_EQ(sub3("hello", 7, 2), "");     // start past the end
  EXPECT_EQ(sub3("hello", 3, -1), "");    // non-positive length
  EXPECT_EQ(sub3("hello", 3, 0), "");
  int32_t max32 = std::numeric_limits<int32_t>::max();
  EXPECT_EQ(sub3("hello", 2, max32), "ello");      // sentinel: to the end
  EXPECT_EQ(sub3("hello", 3, max32 - 1), "");      // begin+len wraps int32
  // Multi-byte codepoints: "Café€" is 5 chars in 8 bytes.
  const char* cafe = "Caf\xC3\xA9\xE2\x82\xAC";
  EXPECT_EQ(sub3(cafe, 4, 2), "\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(sub3(cafe, -2, 1), "\xC3\xA9");
  EXPECT_EQ(sub2(cafe, -1), "\xE2\x82\xAC");
}

TEST(FunctionRegistryTest, KnowsItsFunctions) {
  FunctionRegistry& reg = FunctionRegistry::Instance();
  EXPECT_TRUE(reg.IsSupported("upper"));
  EXPECT_TRUE(reg.IsSupported("sqrt"));
  EXPECT_TRUE(reg.IsSupported("date_add"));
  EXPECT_FALSE(reg.IsSupported("no_such_function"));
  // The registry drives Photon-support decisions for plan conversion, so
  // it must expose its full catalog.
  EXPECT_GE(reg.FunctionNames().size(), 30u);
}

TEST(EvalContextTest, RecyclesScratchVectors) {
  EvalContext ctx;
  ColumnVector* v1 = ctx.NewVector(DataType::Int32(), 1024);
  ctx.ResetPerBatch();
  ColumnVector* v2 = ctx.NewVector(DataType::Int32(), 1024);
  EXPECT_EQ(v1, v2);  // §4.5: fixed allocation count per batch -> reuse
  EXPECT_EQ(ctx.pool_hits(), 1);
  EXPECT_EQ(ctx.pool_misses(), 1);
  // Different shape -> different vector.
  ColumnVector* v3 = ctx.NewVector(DataType::Int64(), 1024);
  EXPECT_NE(static_cast<void*>(v2), static_cast<void*>(v3));
}

// ---------------------------------------------------------------------------
// Tier parity (DESIGN.md §12): one filter→project chain evaluated under
// every expression policy — interpreted tree, fused interpreter, compiled
// kernels — must keep the same rows and produce the same values.
// ---------------------------------------------------------------------------

/// NULL-aware value equality. Doubles compare by bit pattern so NaN == NaN
/// and +0.0 != -0.0: tiers must be bit-identical, not just numerically
/// close.
bool TierValueEq(TypeId tid, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (tid == TypeId::kFloat64) {
    double x = a.f64(), y = b.f64();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.Equals(b);
}

class TierParityTest {
 public:
  TierParityTest(Schema schema, std::vector<std::vector<Value>> rows)
      : schema_(std::move(schema)), rows_(std::move(rows)) {}

  void Check(const ExprPtr& predicate, const std::vector<ExprPtr>& exprs) {
    std::vector<FusedStage> stages;
    if (predicate != nullptr) {
      FusedStage f;
      f.is_filter = true;
      f.predicate = predicate;
      stages.push_back(std::move(f));
    }
    if (!exprs.empty()) {
      FusedStage p;
      p.is_filter = false;
      p.exprs = exprs;
      for (size_t i = 0; i < exprs.size(); i++) {
        p.names.push_back("o" + std::to_string(i));
      }
      stages.push_back(std::move(p));
    }
    Result<std::shared_ptr<const FusedUnit>> unit =
        FusedUnit::Compile(stages, schema_);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    const Schema& out_schema = (*unit)->output_schema();
    auto out_tid = [&](size_t i) {
      return out_schema.field(static_cast<int>(i)).type.id();
    };

    struct TierRun {
      std::vector<int32_t> pos;
      std::vector<std::vector<Value>> vals;  // [output][surviving row]
    };
    const struct {
      ExprPolicy policy;
      const char* name;
    } kTiers[] = {{ExprPolicy::kTreeOnly, "tree"},
                  {ExprPolicy::kFusedOnly, "fused"},
                  {ExprPolicy::kCompiledOnly, "compiled"}};
    std::vector<TierRun> runs;
    for (const auto& tier : kTiers) {
      FusedUnitState state(*unit, tier.policy);
      EvalContext ctx;
      TierRun first;
      // Several batches per tier: state carried across batches (register
      // files, scratch vectors) must not change what a repetition computes.
      for (int rep = 0; rep < 4; rep++) {
        ColumnBatch batch(schema_, static_cast<int>(rows_.size()));
        for (size_t r = 0; r < rows_.size(); r++) {
          for (int c = 0; c < schema_.num_fields(); c++) {
            batch.column(c)->SetValue(static_cast<int>(r), rows_[r][c]);
          }
        }
        batch.set_num_rows(static_cast<int>(rows_.size()));
        batch.SetAllActive();
        ctx.ResetPerBatch();
        Result<int> active = state.Eval(&batch, &ctx);
        ASSERT_TRUE(active.ok())
            << tier.name << ": " << active.status().ToString();
        TierRun run;
        if (batch.all_active()) {
          for (int i = 0; i < batch.num_rows(); i++) run.pos.push_back(i);
        } else {
          run.pos.assign(batch.pos_list(),
                         batch.pos_list() + batch.num_active());
        }
        for (size_t i = 0; i < (*unit)->outputs().size(); i++) {
          ColumnVector* out = state.Output(i, &batch);
          std::vector<Value> col;
          col.reserve(run.pos.size());
          for (int32_t row : run.pos) col.push_back(out->GetValue(row));
          run.vals.push_back(std::move(col));
        }
        if (rep == 0) {
          first = std::move(run);
        } else {
          ASSERT_EQ(first.pos, run.pos)
              << tier.name << " diverged from itself at rep " << rep;
          for (size_t i = 0; i < first.vals.size(); i++) {
            for (size_t r = 0; r < first.pos.size(); r++) {
              ASSERT_TRUE(
                  TierValueEq(out_tid(i), first.vals[i][r], run.vals[i][r]))
                  << tier.name << " rep " << rep << " output " << i
                  << " row " << first.pos[r];
            }
          }
        }
      }
      runs.push_back(std::move(first));
    }

    // Every tier keeps exactly the rows the tree tier keeps, with the
    // same output values.
    for (size_t t = 1; t < runs.size(); t++) {
      ASSERT_EQ(runs[0].pos, runs[t].pos) << kTiers[t].name << " vs tree";
      for (size_t i = 0; i < runs[0].vals.size(); i++) {
        for (size_t r = 0; r < runs[0].pos.size(); r++) {
          EXPECT_TRUE(TierValueEq(out_tid(i), runs[0].vals[i][r],
                                  runs[t].vals[i][r]))
              << kTiers[t].name << " output " << i << " row "
              << runs[0].pos[r] << ": tree="
              << runs[0].vals[i][r].ToString() << " got="
              << runs[t].vals[i][r].ToString();
        }
      }
    }

    // Ground truth: surviving rows match the row-at-a-time oracle on the
    // original (pre-fusion) expressions.
    for (size_t r = 0; r < runs[0].pos.size(); r++) {
      int32_t row = runs[0].pos[r];
      if (predicate != nullptr) {
        Result<Value> keep = predicate->EvaluateRow(rows_[row]);
        ASSERT_TRUE(keep.ok());
        EXPECT_TRUE(!keep->is_null() && keep->boolean())
            << "row " << row << " kept but oracle predicate says drop";
      }
      for (size_t i = 0; i < exprs.size(); i++) {
        Result<Value> oracle = exprs[i]->EvaluateRow(rows_[row]);
        ASSERT_TRUE(oracle.ok());
        EXPECT_TRUE(TierValueEq(out_tid(i), runs[0].vals[i][r], *oracle))
            << "output " << i << " row " << row << ": got "
            << runs[0].vals[i][r].ToString() << " oracle "
            << oracle->ToString();
      }
    }
  }

 private:
  Schema schema_;
  std::vector<std::vector<Value>> rows_;
};

TEST(TierParityTest, NullPropagationAcrossTiers) {
  Schema schema({Field("a", DataType::Int64()), Field("b", DataType::Int64()),
                 Field("x", DataType::Float64())});
  std::vector<std::vector<Value>> rows = {
      {Value::Int64(10), Value::Int64(3), Value::Float64(1.5)},
      {Value::Null(), Value::Int64(5), Value::Float64(-2.0)},
      {Value::Int64(7), Value::Null(), Value::Null()},
      {Value::Null(), Value::Null(), Value::Float64(0.0)},
      {Value::Int64(-4), Value::Int64(8), Value::Float64(3.25)},
      {Value::Int64(0), Value::Int64(0), Value::Float64(-0.0)},
  };
  TierParityTest t(schema, rows);
  ExprPtr a = Col(0, DataType::Int64(), "a");
  ExprPtr b = Col(1, DataType::Int64(), "b");
  ExprPtr x = Col(2, DataType::Float64(), "x");
  // NULL in any operand nulls the row; NULL predicate drops the row.
  t.Check(eb::Gt(a, Lit(int64_t{-10})),
          {eb::Add(a, b), eb::Mul(eb::Add(a, b), eb::Sub(a, b)),
           eb::Mul(x, x)});
  t.Check(nullptr, {eb::Add(eb::Mul(a, b), eb::Mul(a, b)),
                    eb::Sub(a, eb::NullLit(DataType::Int64()))});
}

TEST(TierParityTest, IntegerDivisionEdgesAcrossTiers) {
  int64_t min64 = std::numeric_limits<int64_t>::min();
  Schema schema(
      {Field("a", DataType::Int64()), Field("b", DataType::Int64())});
  std::vector<std::vector<Value>> rows = {
      {Value::Int64(min64), Value::Int64(-1)},  // wraps, must not SIGFPE
      {Value::Int64(10), Value::Int64(0)},      // div by zero -> NULL
      {Value::Int64(min64), Value::Int64(0)},
      {Value::Int64(22), Value::Int64(7)},
      {Value::Null(), Value::Int64(2)},
      {Value::Int64(min64), Value::Int64(1)},
      {Value::Int64(-9), Value::Int64(-1)},
  };
  TierParityTest t(schema, rows);
  ExprPtr a = Col(0, DataType::Int64(), "a");
  ExprPtr b = Col(1, DataType::Int64(), "b");
  t.Check(nullptr, {eb::Div(a, b), eb::Mod(a, b),
                    eb::Add(eb::Div(a, b), eb::Mod(a, b))});
  // Division inside a filtered chain: errors-to-NULL must not depend on
  // which rows the predicate already dropped.
  t.Check(eb::Ne(b, Lit(int64_t{7})), {eb::Div(a, b)});
}

TEST(TierParityTest, DecimalOverflowRoutingAcrossTiers) {
  // Near-overflow sums and products at precision 38 are capped shapes:
  // every tier, compiled included, runs the checked int128 kernel, and
  // all agree with the oracle (overflow -> NULL).
  Schema schema({Field("p", DataType::Decimal(38, 2)),
                 Field("q", DataType::Decimal(38, 2))});
  Value near_max =
      Value::Decimal(Decimal128(Decimal128::MaxValueForPrecision(38) - 7));
  Value big = Value::Decimal(Decimal128(Decimal128::PowerOfTen(30)));
  std::vector<std::vector<Value>> rows = {
      {near_max, near_max},
      {big, big},
      {Value::Decimal(Decimal128(150)), Value::Decimal(Decimal128(25))},
      {Value::Null(), near_max},
      {near_max, Value::Decimal(Decimal128(-1))},
  };
  TierParityTest t(schema, rows);
  ExprPtr p = Col(0, DataType::Decimal(38, 2), "p");
  ExprPtr q = Col(1, DataType::Decimal(38, 2), "q");
  t.Check(nullptr, {eb::Add(p, q), eb::Sub(p, q), eb::Mul(p, q)});
  t.Check(eb::Lt(q, eb::DecimalLit("10.00", 38, 2)), {eb::Add(p, q)});
}

TEST(TierParityTest, Q6ShapeCompiledTermParity) {
  // TPC-H Q6's comparison-chain filter over a decimal/float mix, with NaN
  // and boundary values planted to stress the compiled position-list
  // terms' comparison semantics.
  double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({Field("qty", DataType::Float64()),
                 Field("disc", DataType::Float64()),
                 Field("price", DataType::Float64())});
  std::vector<std::vector<Value>> rows = {
      {Value::Float64(23.0), Value::Float64(0.06), Value::Float64(100.0)},
      {Value::Float64(24.0), Value::Float64(0.05), Value::Float64(50.0)},
      {Value::Float64(nan), Value::Float64(0.06), Value::Float64(10.0)},
      {Value::Float64(1.0), Value::Float64(nan), Value::Float64(20.0)},
      {Value::Null(), Value::Float64(0.07), Value::Float64(30.0)},
      {Value::Float64(23.9), Value::Null(), Value::Float64(40.0)},
      {Value::Float64(-0.0), Value::Float64(0.05), Value::Float64(60.0)},
  };
  TierParityTest t(schema, rows);
  ExprPtr qty = Col(0, DataType::Float64(), "qty");
  ExprPtr disc = Col(1, DataType::Float64(), "disc");
  ExprPtr price = Col(2, DataType::Float64(), "price");
  ExprPtr pred = eb::And(
      eb::Lt(qty, Lit(24.0)),
      eb::And(eb::Ge(disc, Lit(0.05)), eb::Le(disc, Lit(0.07))));
  t.Check(pred, {eb::Mul(price, disc)});
  // Mirrored literal-on-the-left comparisons hit MirrorCmp.
  t.Check(eb::Gt(Lit(24.0), qty), {eb::Mul(price, disc)});
}

// --- The static tier rule ----------------------------------------------------

/// Runs `stages` over `table` through one FusedFilterProjectOperator under
/// the default ExecContext policy and returns the operator's metrics.
obs::MetricSnapshot RunFusedUnderDefaultPolicy(
    const std::vector<FusedStage>& stages, const Table& table) {
  Result<std::shared_ptr<const FusedUnit>> unit =
      FusedUnit::Compile(stages, table.schema());
  PHOTON_CHECK(unit.ok());
  FusedFilterProjectOperator op(
      std::make_unique<InMemoryScanOperator>(&table), *unit,
      ExecContext{}.expr_policy);
  PHOTON_CHECK(CollectAll(&op).ok());
  return op.op_metrics().Snapshot();
}

TEST(StaticTierTest, CompiledWhereverTheUnitHasKernels) {
  // A Q6-shaped unit has compiled filter terms and a compiled product, so
  // every batch runs compiled from the first one on: no timing probe on
  // the fused interpreter, and nothing to switch.
  Schema schema({Field("qty", DataType::Float64()),
                 Field("disc", DataType::Float64()),
                 Field("price", DataType::Float64())});
  TableBuilder tb(schema, 4);
  for (int i = 0; i < 12; i++) {
    tb.AppendRow({Value::Float64(20.0 + i),
                  Value::Float64(0.04 + 0.01 * (i % 4)),
                  Value::Float64(10.0 * i)});
  }
  Table table = tb.Finish();
  ASSERT_EQ(table.num_batches(), 3);
  ExprPtr qty = Col(0, DataType::Float64(), "qty");
  ExprPtr disc = Col(1, DataType::Float64(), "disc");
  ExprPtr price = Col(2, DataType::Float64(), "price");
  FusedStage filter;
  filter.is_filter = true;
  filter.predicate = eb::And(
      eb::Lt(qty, Lit(24.0)),
      eb::And(eb::Ge(disc, Lit(0.05)), eb::Le(disc, Lit(0.07))));
  FusedStage project;
  project.exprs = {eb::Mul(price, disc)};
  project.names = {"revenue"};
  obs::MetricSnapshot m = RunFusedUnderDefaultPolicy({filter, project}, table);
  EXPECT_EQ(m[obs::Metric::kExprCompiledBatches], 3);
  EXPECT_EQ(m[obs::Metric::kExprFusedBatches], 0);
  EXPECT_EQ(m[obs::Metric::kExprTierSwitches], 0);
}

TEST(StaticTierTest, FusedInterpreterWhereNoKernelExists) {
  // upper(s) has no compiled step: every batch is a fused-interpreter
  // batch, so the compiled share measures kernel coverage.
  Schema schema({Field("s", DataType::String())});
  TableBuilder tb(schema, 4);
  for (int i = 0; i < 12; i++) {
    tb.AppendRow({Value::String("row" + std::to_string(i))});
  }
  Table table = tb.Finish();
  ASSERT_EQ(table.num_batches(), 3);
  FusedStage project;
  project.exprs = {eb::Call("upper", {Col(0, DataType::String(), "s")})};
  project.names = {"u"};
  obs::MetricSnapshot m = RunFusedUnderDefaultPolicy({project}, table);
  EXPECT_EQ(m[obs::Metric::kExprFusedBatches], 3);
  EXPECT_EQ(m[obs::Metric::kExprCompiledBatches], 0);
  EXPECT_EQ(m[obs::Metric::kExprTierSwitches], 0);
}

TEST(TierParityTest, ConstantFoldingAndCseKeepParity) {
  // Literal-only subtrees fold at compile time and duplicate
  // subexpressions share one program slot; results must be unchanged.
  Schema schema({Field("a", DataType::Int64())});
  std::vector<std::vector<Value>> rows = {
      {Value::Int64(1)}, {Value::Int64(-3)}, {Value::Null()},
      {Value::Int64(1000)},
  };
  TierParityTest t(schema, rows);
  ExprPtr a = Col(0, DataType::Int64(), "a");
  ExprPtr two_plus_three = eb::Add(Lit(int64_t{2}), Lit(int64_t{3}));
  t.Check(eb::Gt(a, eb::Sub(Lit(int64_t{2}), Lit(int64_t{4}))),
          {eb::Mul(a, two_plus_three),
           eb::Add(eb::Mul(a, two_plus_three), eb::Mul(a, two_plus_three))});
  // A predicate that folds to constant false drops every row in all tiers.
  t.Check(eb::Lt(Lit(int64_t{5}), Lit(int64_t{2})), {eb::Add(a, a)});
}

TEST(TierParityTest, Q9ProfitShapeNestedFusionParity) {
  // TPC-H Q9's profit expression price*(1-disc) - cost*qty: the inner
  // Mul absorbs its single-use (1-disc) operand into a two-op compiled
  // step, and the outer Sub then sees that Mul as a single-use operand
  // too. Absorbing it again would orphan the (1-disc) register (regression
  // test: the compiled tier read a never-computed register here).
  Schema schema({Field("price", DataType::Decimal(10, 2)),
                 Field("disc", DataType::Decimal(4, 2)),
                 Field("cost", DataType::Decimal(10, 2)),
                 Field("qty", DataType::Decimal(4, 2))});
  auto dec = [](int64_t unscaled) {
    return Value::Decimal(Decimal128(unscaled));
  };
  std::vector<std::vector<Value>> rows = {
      {dec(10000), dec(6), dec(2000), dec(300)},
      {dec(50000), dec(0), dec(100000), dec(100)},
      {Value::Null(), dec(5), dec(1), dec(1)},
      {dec(123456), Value::Null(), dec(999), dec(200)},
      {dec(-777), dec(10), Value::Null(), Value::Null()},
      {dec(1), dec(99), dec(1), dec(9999)},
  };
  TierParityTest t(schema, rows);
  ExprPtr price = Col(0, DataType::Decimal(10, 2), "price");
  ExprPtr disc = Col(1, DataType::Decimal(4, 2), "disc");
  ExprPtr cost = Col(2, DataType::Decimal(10, 2), "cost");
  ExprPtr qty = Col(3, DataType::Decimal(4, 2), "qty");
  ExprPtr revenue = eb::Mul(price, eb::Sub(Lit(int32_t{1}), disc));
  ExprPtr supply = eb::Mul(cost, qty);
  t.Check(nullptr, {eb::Sub(revenue, supply)});
  // Same shape on int64: the nested-fusion guard is type-generic.
  Schema ischema({Field("a", DataType::Int64()), Field("b", DataType::Int64()),
                  Field("c", DataType::Int64()),
                  Field("d", DataType::Int64())});
  std::vector<std::vector<Value>> irows = {
      {Value::Int64(10), Value::Int64(3), Value::Int64(4), Value::Int64(5)},
      {Value::Int64(-2), Value::Int64(0), Value::Int64(7), Value::Null()},
      {Value::Null(), Value::Int64(1), Value::Int64(2), Value::Int64(3)},
  };
  TierParityTest ti(ischema, irows);
  ExprPtr a = Col(0, DataType::Int64(), "a");
  ExprPtr b = Col(1, DataType::Int64(), "b");
  ExprPtr c = Col(2, DataType::Int64(), "c");
  ExprPtr d = Col(3, DataType::Int64(), "d");
  ti.Check(nullptr, {eb::Sub(eb::Mul(a, eb::Sub(Lit(int64_t{1}), b)),
                             eb::Mul(c, d))});
}

// --- Checked int128 decimal kernels ------------------------------------------
//
// Precision-capped decimal nodes run CheckedDecimalOp in every tier. These
// tests diff it against the row oracle's BigDecimal path (EvaluateRow takes
// it for every result above 18 digits) on random and boundary operands.

/// A random decimal of up to `precision` digits (digit count uniform, so
/// small and near-full magnitudes are both common), either sign.
int128_t RandomUnscaled(Rng* rng, int precision) {
  int digits = static_cast<int>(rng->Uniform(1, precision));
  int128_t v = 0;
  for (int i = 0; i < digits; i++) v = v * 10 + rng->Uniform(0, 9);
  return rng->NextBool() ? -v : v;
}

/// Boundary operands for a decimal(precision, scale) column: zero, one
/// ulp, the precision's maximum, a lone leading 1 or 9, 1.8 x 10^(p-1)
/// (at p = 38 one more digit of scale passes 2^127), and exact halves at
/// every scale position (the ties rounding must break away from zero),
/// all with both signs.
std::vector<int128_t> BoundaryUnscaled(int precision, int scale) {
  int128_t max = Decimal128::MaxValueForPrecision(precision);
  std::vector<int128_t> mags = {0, 1, max, max - 1,
                                Decimal128::PowerOfTen(precision - 1),
                                9 * Decimal128::PowerOfTen(precision - 1)};
  if (precision >= 2) {
    mags.push_back(18 * Decimal128::PowerOfTen(precision - 2));
  }
  for (int k = 1; k <= scale && k < precision; k++) {
    mags.push_back(5 * Decimal128::PowerOfTen(k - 1));
    mags.push_back(Decimal128::PowerOfTen(k) +
                   5 * Decimal128::PowerOfTen(k - 1));
  }
  std::vector<int128_t> out;
  for (int128_t m : mags) {
    out.push_back(m);
    out.push_back(-m);
  }
  return out;
}

struct CappedShape {
  ArithOp op;
  int p1, s1, p2, s2;
};

ExprPtr CappedExpr(const CappedShape& sh) {
  ExprPtr l = Col(0, DataType::Decimal(sh.p1, sh.s1), "l");
  ExprPtr r = Col(1, DataType::Decimal(sh.p2, sh.s2), "r");
  switch (sh.op) {
    case ArithOp::kAdd:
      return eb::Add(l, r);
    case ArithOp::kSub:
      return eb::Sub(l, r);
    case ArithOp::kMul:
      return eb::Mul(l, r);
    default:
      return eb::Div(l, r);
  }
}

// Shapes whose Spark result type is capped at 38 digits, covering a
// result scale at the natural one (overflow is NULL outright), below it
// (rounding; an int128 overflow takes the BigDecimal fallback), and
// division with a scaled dividend that fits or overflows uint128.
const CappedShape kCappedShapes[] = {
    {ArithOp::kMul, 26, 4, 13, 2},   // TPC-H Q1 charge: dec(38,6), natural
    {ArithOp::kMul, 38, 2, 38, 2},   // dec(38,4), natural
    {ArithOp::kMul, 38, 10, 38, 10}, // dec(38,6), 14 digits dropped
    {ArithOp::kMul, 20, 9, 30, 5},   // dec(38,6), 8 digits dropped
    {ArithOp::kAdd, 38, 2, 38, 2},   // dec(38,2), natural
    {ArithOp::kAdd, 38, 0, 38, 1},   // dec(38,1), natural, l aligned x10
    {ArithOp::kSub, 38, 1, 38, 0},   // dec(38,1), natural, r aligned x10
    {ArithOp::kSub, 38, 10, 38, 0},  // dec(38,6), 4 digits dropped
    {ArithOp::kAdd, 38, 20, 20, 2},  // dec(38,19), 1 digit dropped
    {ArithOp::kDiv, 38, 4, 10, 2},   // dec(38,6), dividend x 10^4
    {ArithOp::kDiv, 20, 2, 38, 30},  // dec(38,6), dividend x 10^34
};

TEST(CheckedDecimalTest, ShapesAreCapped) {
  for (const CappedShape& sh : kCappedShapes) {
    ExprPtr e = CappedExpr(sh);
    EXPECT_TRUE(DecimalArithIsChecked(sh.op, DataType::Decimal(sh.p1, sh.s1),
                                      DataType::Decimal(sh.p2, sh.s2),
                                      e->type()))
        << e->ToString() << " -> " << e->type().ToString();
    EXPECT_EQ(e->type().precision(), 38);
  }
}

TEST(CheckedDecimalTest, KernelMatchesBigDecimalOnRandomAndBoundaryOperands) {
  Rng rng(20220612);
  for (const CappedShape& sh : kCappedShapes) {
    ExprPtr e = CappedExpr(sh);
    Schema schema({Field("l", DataType::Decimal(sh.p1, sh.s1)),
                   Field("r", DataType::Decimal(sh.p2, sh.s2))});
    std::vector<std::vector<Value>> rows;
    std::vector<int128_t> lb = BoundaryUnscaled(sh.p1, sh.s1);
    std::vector<int128_t> rb = BoundaryUnscaled(sh.p2, sh.s2);
    for (int128_t x : lb) {
      for (int128_t y : rb) {
        rows.push_back({Value::Decimal(Decimal128(x)),
                        Value::Decimal(Decimal128(y))});
      }
    }
    for (int i = 0; i < 600; i++) {
      rows.push_back({Value::Decimal(Decimal128(RandomUnscaled(&rng, sh.p1))),
                      Value::Decimal(Decimal128(RandomUnscaled(&rng, sh.p2)))});
    }
    rows.push_back({Value::Null(), Value::Decimal(Decimal128(1))});
    SCOPED_TRACE(e->ToString() + " -> " + e->type().ToString());
    // Tree tier, all rows and a strict subset active, vs the oracle.
    ExpressionTableTest(schema, rows).Check(e);
    // Fused and compiled tiers, in batches a compiled step must cover.
    for (size_t at = 0; at < rows.size(); at += 256) {
      std::vector<std::vector<Value>> chunk(
          rows.begin() + at,
          rows.begin() + std::min(rows.size(), at + 256));
      TierParityTest(schema, chunk).Check(nullptr, {e});
    }
  }
}

TEST(CheckedDecimalTest, RoundsTiesAwayFromZeroUnderScaleReduction) {
  // dec(38,10) - dec(38,0) -> dec(38,6): four digits dropped.
  ExprPtr l = Col(0, DataType::Decimal(38, 10), "l");
  ExprPtr r = Col(1, DataType::Decimal(38, 0), "r");
  ExprPtr e = eb::Sub(l, r);
  ASSERT_EQ(e->type(), DataType::Decimal(38, 6));
  auto eval = [&](int128_t x, int128_t y) {
    Result<Value> v = e->EvaluateRow(
        {Value::Decimal(Decimal128(x)), Value::Decimal(Decimal128(y))});
    PHOTON_CHECK(v.ok());
    return v->decimal().value();
  };
  EXPECT_EQ(eval(123456785000, 0), 12345679);     // tie: up
  EXPECT_EQ(eval(-123456785000, 0), -12345679);   // tie: away from zero
  EXPECT_EQ(eval(123456784999, 0), 12345678);     // below the tie
  EXPECT_EQ(eval(5000, 0), 1);                    // 0.0000005 -> 0.000001
  EXPECT_EQ(eval(-4999, 0), 0);
  // The vectorized kernel agrees row for row (ties included).
  Schema schema({Field("l", DataType::Decimal(38, 10)),
                 Field("r", DataType::Decimal(38, 0))});
  std::vector<std::vector<Value>> rows;
  for (int128_t x : {int128_t{123456785000}, int128_t{-123456785000},
                     int128_t{123456784999}, int128_t{5000},
                     int128_t{-4999}, int128_t{-15000}}) {
    rows.push_back({Value::Decimal(Decimal128(x)),
                    Value::Decimal(Decimal128(int128_t{0}))});
  }
  TierParityTest(schema, rows).Check(nullptr, {e});
}

TEST(CheckedDecimalTest, Int128OverflowAtAndBelowTheNaturalScale) {
  int128_t max38 = kMaxDecimal38;
  // At the natural scale (dec(38,2) * dec(38,2) -> dec(38,4)): an int128
  // overflow is NULL outright, as is a product in int128 range past 38
  // digits, while the largest in-range product survives.
  ExprPtr a = Col(0, DataType::Decimal(38, 2), "a");
  ExprPtr b = Col(1, DataType::Decimal(38, 2), "b");
  ExprPtr mul = eb::Mul(a, b);
  ASSERT_EQ(mul->type(), DataType::Decimal(38, 4));
  CheckedDecimalOp<ArithOp::kMul> natural(2, 2, 4);
  int128_t out = 0;
  EXPECT_FALSE(natural.Apply(max38, max38, &out));  // int128 overflow
  EXPECT_FALSE(natural.Apply(Decimal128::PowerOfTen(19),
                             Decimal128::PowerOfTen(19), &out));  // 10^38
  EXPECT_TRUE(natural.Apply(max38, 1, &out));
  EXPECT_EQ(out, max38);
  EXPECT_TRUE(natural.Apply(-max38, 1, &out));
  EXPECT_EQ(out, -max38);
  // Below the natural scale (dec(38,10)^2 -> dec(38,6)): 10^37 * 10^11 =
  // 10^48 overflows int128, but the exact 10^28 at scale 20 is 10^34
  // unscaled at scale 6 — the BigDecimal fallback returns it.
  CheckedDecimalOp<ArithOp::kMul> below(10, 10, 6);
  EXPECT_TRUE(below.Apply(Decimal128::PowerOfTen(37),
                          Decimal128::PowerOfTen(11), &out));
  EXPECT_EQ(out, Decimal128::PowerOfTen(34));
  EXPECT_TRUE(below.Apply(-Decimal128::PowerOfTen(37),
                          Decimal128::PowerOfTen(11), &out));
  EXPECT_EQ(out, -Decimal128::PowerOfTen(34));
  // ... and an exact product still past 38 digits after rounding is NULL.
  EXPECT_FALSE(below.Apply(max38, max38, &out));
  // Add/sub at the extremes of 38 digits.
  CheckedDecimalOp<ArithOp::kAdd> add(2, 2, 2);
  EXPECT_FALSE(add.Apply(max38, 1, &out));
  EXPECT_FALSE(add.Apply(-max38, -1, &out));
  EXPECT_TRUE(add.Apply(max38, -1, &out));
  EXPECT_EQ(out, max38 - 1);
  CheckedDecimalOp<ArithOp::kSub> sub(2, 2, 2);
  EXPECT_FALSE(sub.Apply(-max38, max38, &out));  // |result| = 2 * max38
  EXPECT_TRUE(sub.Apply(max38, max38, &out));
  EXPECT_EQ(out, 0);
  // dec(38,0) + dec(38,1) -> dec(38,1): aligning 1.8e37 to scale 1
  // overflows int128, yet the other operand cancels the sum back into
  // range — an alignment overflow is not proof of NULL.
  int128_t big = 18 * Decimal128::PowerOfTen(36);  // x10 > 2^127
  int128_t e37 = Decimal128::PowerOfTen(37);
  CheckedDecimalOp<ArithOp::kAdd> aligned(0, 1, 1);
  EXPECT_TRUE(aligned.Apply(big, -9 * e37, &out));
  EXPECT_TRUE(out == 9 * e37);
  EXPECT_FALSE(aligned.Apply(big, 9 * e37, &out));
  // The same rows through the expression agree with the oracle.
  Schema schema({Field("a", DataType::Decimal(38, 2)),
                 Field("b", DataType::Decimal(38, 2))});
  std::vector<std::vector<Value>> rows = {
      {Value::Decimal(Decimal128(max38)), Value::Decimal(Decimal128(max38))},
      {Value::Decimal(Decimal128(max38)), Value::Decimal(Decimal128(1))},
      {Value::Decimal(Decimal128(-max38)), Value::Decimal(Decimal128(-1))},
      {Value::Decimal(Decimal128(Decimal128::PowerOfTen(19))),
       Value::Decimal(Decimal128(Decimal128::PowerOfTen(19)))},
  };
  TierParityTest(schema, rows)
      .Check(nullptr, {mul, eb::Add(a, b), eb::Sub(a, b)});
}

TEST(StaticTierTest, Q1ChargeRunsACompiledCheckedDecimalStep) {
  // TPC-H Q1's charge, l_extendedprice * (1 - l_discount) * (1 + l_tax)
  // over decimal(12,2) columns: the outer product is capped at
  // dec(26,4) x dec(13,2) -> dec(38,6). It must run as a compiled step
  // (the checked int128 kernel), not fall back to the interpreter.
  Schema schema({Field("price", DataType::Decimal(12, 2)),
                 Field("disc", DataType::Decimal(12, 2)),
                 Field("tax", DataType::Decimal(12, 2))});
  ExprPtr price = Col(0, DataType::Decimal(12, 2), "price");
  ExprPtr disc = Col(1, DataType::Decimal(12, 2), "disc");
  ExprPtr tax = Col(2, DataType::Decimal(12, 2), "tax");
  ExprPtr disc_price = eb::Mul(price, eb::Sub(Lit(int32_t{1}), disc));
  ExprPtr charge = eb::Mul(disc_price, eb::Add(Lit(int32_t{1}), tax));
  ASSERT_EQ(charge->type(), DataType::Decimal(38, 6));
  FusedStage project;
  project.exprs = {disc_price, charge};
  project.names = {"disc_price", "charge"};
  Result<std::shared_ptr<const FusedUnit>> unit =
      FusedUnit::Compile({project}, schema);
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  const ExprProgram& prog = (*unit)->projection();
  int charge_reg = prog.root_regs()[(*unit)->outputs()[1].root];
  EXPECT_TRUE(prog.compiled_step(charge_reg) != nullptr)
      << "capped charge product has no compiled step";

  TableBuilder tb(schema, 4);
  for (int i = 0; i < 12; i++) {
    tb.AppendRow({Value::Decimal(Decimal128(int128_t{100000 + 997 * i})),
                  Value::Decimal(Decimal128(int128_t{i % 11})),
                  Value::Decimal(Decimal128(int128_t{i % 9}))});
  }
  Table table = tb.Finish();
  obs::MetricSnapshot m = RunFusedUnderDefaultPolicy({project}, table);
  EXPECT_EQ(m[obs::Metric::kExprCompiledBatches], 3);
  EXPECT_EQ(m[obs::Metric::kExprFusedBatches], 0);
}

TEST(ExprDepthLimitTest, DeepTreesErrorCleanlyInsteadOfOverflowing) {
  // Built iteratively; the guard that rejects it must be iterative too, or
  // the check would overflow on the very input it exists to refuse.
  ExprPtr flag = Col(0, DataType::Boolean(), "flag");
  ExprPtr deep = flag;
  for (int i = 0; i < 2000; i++) deep = std::make_shared<NotExpr>(deep);
  Status st = CheckExpressionDepth(*deep);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("nested deeper"), std::string::npos);

  // Right at the limit is still accepted.
  ExprPtr at_limit = flag;
  for (int i = 0; i < kMaxExprDepth - 1; i++) {
    at_limit = std::make_shared<NotExpr>(at_limit);
  }
  EXPECT_TRUE(CheckExpressionDepth(*at_limit).ok());

  // Both engine compilers refuse the plan up front, before any recursive
  // walker (canonicalization, fusion, tree Evaluate) can touch the tree.
  Schema schema({Field("flag", DataType::Boolean())});
  TableBuilder tb(schema, 16);
  tb.AppendRow({Value::Boolean(true)});
  Table table = tb.Finish();
  plan::PlanPtr p = plan::Filter(plan::Scan(&table), deep);
  Result<OperatorPtr> photon = plan::CompilePhoton(p);
  ASSERT_FALSE(photon.ok());
  EXPECT_NE(photon.status().ToString().find("nested deeper"),
            std::string::npos);
  EXPECT_FALSE(plan::CompileBaseline(p).ok());

  // Both Driver entry points refuse it too, with the same typed error, at
  // any worker count and with the optimizer off or on — for a deep filter
  // and for a deep group key alike.
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "n"});
  plan::PlanPtr agg = plan::Aggregate(plan::Scan(&table), {deep}, {"k"},
                                      std::move(aggs));
  for (const plan::PlanPtr& plan : {p, agg}) {
    for (OptimizerPolicy opt : {OptimizerPolicy::kOff, OptimizerPolicy::kOn}) {
      ExecContext ctx;
      ctx.optimizer = opt;
      exec::Driver single(1);
      Result<Table> reference = single.RunSingleTask(plan, ctx);
      ASSERT_FALSE(reference.ok());
      EXPECT_EQ(reference.status().code(), StatusCode::kInvalidArgument);
      for (int workers : {1, 4}) {
        exec::Driver driver(workers);
        Result<Table> out = driver.Run(plan, ctx);
        ASSERT_FALSE(out.ok()) << workers << " workers";
        EXPECT_EQ(out.status().code(), reference.status().code());
        EXPECT_NE(out.status().ToString().find("nested deeper"),
                  std::string::npos);
      }
    }
  }
}

}  // namespace
}  // namespace photon
