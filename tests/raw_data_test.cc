#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "exec/driver.h"
#include "expr/builder.h"
#include "ops/scan.h"
#include "ops/shuffle.h"
#include "plan/logical_plan.h"

namespace photon {
namespace {

/// The paper's "Challenge 1" data shapes (§1): wide tables with hundreds
/// of columns (where the JVM engine's generated-method-size limits caused
/// performance cliffs, §3.2), very large string values, and denormalized
/// string data with placeholder values instead of NULLs. The engine must
/// stay correct — and the whole-stage Photon path must keep working — on
/// all of them.

TEST(RawDataTest, WideTableManyColumns) {
  constexpr int kCols = 150;
  Schema schema;
  for (int c = 0; c < kCols; c++) {
    schema.AddField(Field("c" + std::to_string(c), DataType::Int64()));
  }
  TableBuilder builder(schema);
  Rng rng(8);
  for (int r = 0; r < 2000; r++) {
    std::vector<Value> row;
    for (int c = 0; c < kCols; c++) {
      row.push_back(Value::Int64(rng.Uniform(0, 9)));
    }
    builder.AppendRow(row);
  }
  Table t = builder.Finish();

  // Sum every column in one aggregation — a 150-wide aggregate is exactly
  // the shape that blew Java method-size limits (§3.2); here it is just a
  // longer list of kernels.
  plan::PlanPtr p = plan::Scan(&t);
  std::vector<AggregateSpec> aggs;
  for (int c = 0; c < kCols; c++) {
    aggs.push_back(AggregateSpec{
        AggKind::kSum, plan::ColOf(p, "c" + std::to_string(c)),
        "s" + std::to_string(c)});
  }
  plan::PlanPtr agg = plan::Aggregate(p, {}, {}, aggs);

  exec::Driver driver(1);
  Result<Table> photon_result = driver.Run(agg);
  ASSERT_TRUE(photon_result.ok());
  ASSERT_EQ(photon_result->num_rows(), 1);

  Result<baseline::RowOperatorPtr> base = plan::CompileBaseline(agg);
  ASSERT_TRUE(base.ok());
  Result<Table> base_result = baseline::CollectAllRows(base->get());
  ASSERT_TRUE(base_result.ok());
  EXPECT_EQ(photon_result->ToRows(), base_result->ToRows());
}

TEST(RawDataTest, LargeStringValues) {
  // Multi-hundred-KB strings flowing through filter, upper(), aggregation
  // and shuffle; the var-len arenas must grow chunk by chunk without
  // invalidating earlier refs (§4.5's "large input records").
  Schema schema({Field("k", DataType::Int64()),
                 Field("blob", DataType::String())});
  TableBuilder builder(schema);
  Rng rng(9);
  for (int i = 0; i < 40; i++) {
    builder.AppendRow(
        {Value::Int64(i % 4),
         Value::String(rng.NextAsciiString(
             static_cast<int>(rng.Uniform(100000, 400000))))});
  }
  Table t = builder.Finish();

  plan::PlanPtr p = plan::Scan(&t);
  p = plan::Project(
      p,
      {plan::ColOf(p, "k"), eb::Call("upper", {plan::ColOf(p, "blob")}),
       eb::Call("octet_length", {plan::ColOf(p, "blob")})},
      {"k", "BLOB", "len"});
  p = plan::Aggregate(
      p, {plan::ColOf(p, "k")}, {"k"},
      {AggregateSpec{AggKind::kMax, plan::ColOf(p, "BLOB"), "max_blob"},
       AggregateSpec{AggKind::kSum,
                     eb::Cast(plan::ColOf(p, "len"), DataType::Int64()),
                     "total_len"}});

  exec::Driver driver(1);
  Result<Table> photon_result = driver.Run(p);
  ASSERT_TRUE(photon_result.ok()) << photon_result.status().ToString();
  EXPECT_EQ(photon_result->num_rows(), 4);

  Result<baseline::RowOperatorPtr> base = plan::CompileBaseline(p);
  ASSERT_TRUE(base.ok());
  Result<Table> base_result = baseline::CollectAllRows(base->get());
  ASSERT_TRUE(base_result.ok());
  // Compare totals (full blob compare would be slow; lengths pin it down).
  std::map<int64_t, int64_t> photon_lens, base_lens;
  for (auto& row : photon_result->ToRows()) {
    photon_lens[row[0].i64()] = row[2].i64();
  }
  for (auto& row : base_result->ToRows()) {
    base_lens[row[0].i64()] = row[2].i64();
  }
  EXPECT_EQ(photon_lens, base_lens);
}

TEST(RawDataTest, PlaceholderValuesNotNulls) {
  // Denormalized raw data uses 'N/A' placeholders instead of NULL (§1).
  // Queries must treat them as ordinary values; the adaptive int-string
  // shuffle encoding must correctly refuse columns containing them.
  Schema schema({Field("user_id_str", DataType::String())});
  TableBuilder builder(schema);
  Rng rng(10);
  for (int i = 0; i < 3000; i++) {
    builder.AppendRow({Value::String(
        i % 100 == 0 ? "N/A" : std::to_string(rng.Uniform(0, 1 << 20)))});
  }
  Table t = builder.Finish();

  ShuffleOptions options;
  options.num_partitions = 2;
  options.adaptive_encoding = true;
  auto write = std::make_unique<ShuffleWriteOperator>(
      std::make_unique<InMemoryScanOperator>(&t),
      std::vector<ExprPtr>{eb::Col(0, DataType::String())}, "raw-ph",
      options);
  ASSERT_TRUE(write->Open().ok());
  ASSERT_TRUE(write->GetNext().ok());
  auto read =
      std::make_unique<ShuffleReadOperator>(t.schema(), "raw-ph");
  Result<Table> round = CollectAll(read.get());
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->num_rows(), 3000);
  int na_count = 0;
  for (auto& row : round->ToRows()) {
    if (row[0].str() == "N/A") na_count++;
  }
  EXPECT_EQ(na_count, 30);  // placeholders survived byte-exactly
  DeleteShuffle("raw-ph");
}

TEST(RawDataTest, MostlyNullColumns) {
  // Sparse data: 95% NULL. The adaptive kernels must flip to the nullable
  // path and aggregates must ignore the NULLs.
  Schema schema({Field("v", DataType::Float64())});
  TableBuilder builder(schema);
  Rng rng(11);
  double expected_sum = 0;
  int expected_count = 0;
  for (int i = 0; i < 20000; i++) {
    if (rng.NextBool(0.95)) {
      builder.AppendRow({Value::Null()});
    } else {
      double v = rng.NextDouble();
      builder.AppendRow({Value::Float64(v)});
      expected_sum += v;
      expected_count++;
    }
  }
  Table t = builder.Finish();
  plan::PlanPtr p = plan::Scan(&t);
  p = plan::Aggregate(
      p, {}, {},
      {AggregateSpec{AggKind::kSum, plan::ColOf(p, "v"), "s"},
       AggregateSpec{AggKind::kCount, plan::ColOf(p, "v"), "c"}});
  exec::Driver driver(1);
  Result<Table> result = driver.Run(p);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->GetRow(0)[1], Value::Int64(expected_count));
  EXPECT_NEAR(result->GetRow(0)[0].f64(), expected_sum, 1e-9);
}

}  // namespace
}  // namespace photon
