#include <gtest/gtest.h>

#include "exec/driver.h"
#include "plan/logical_plan.h"
#include "sql/printer.h"
#include "testing/differ.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"
#include "tpch/tpch_sql.h"

namespace photon {
namespace {

constexpr double kTestScale = 0.002;

const tpch::TpchData& Data() {
  static const tpch::TpchData* data =
      new tpch::TpchData(tpch::GenerateTpch(kTestScale));
  return *data;
}

/// Every TPC-H query shipped as a .sql file must lower to a plan that is
/// structurally identical (same fingerprint) to the hand-built plan in
/// tpch_queries.cc, and must produce checksum-identical results when
/// executed — on one worker and morsel-parallel at 8 threads. This pins the
/// whole SQL front-end (lexer → parser → analyzer → lowering) against 22
/// non-trivial golden plans.
class TpchSqlTest : public ::testing::TestWithParam<int> {};

TEST_P(TpchSqlTest, MatchesHandBuiltPlan) {
  int q = GetParam();
  Result<plan::PlanPtr> hand = tpch::TpchQuery(q, Data(), kTestScale);
  ASSERT_TRUE(hand.ok()) << hand.status().ToString();
  Result<plan::PlanPtr> from_sql = tpch::TpchSqlQuery(q, Data(), kTestScale);
  Result<std::string> text = tpch::TpchSqlText(q, kTestScale);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_TRUE(from_sql.ok()) << "Q" << q << ": " << from_sql.status().ToString()
                             << "\nSQL:\n"
                             << *text;

  EXPECT_EQ(sql::PlanFingerprint(*hand), sql::PlanFingerprint(*from_sql))
      << "Q" << q << " SQL plan diverges from the hand-built plan.\nSQL:\n"
      << *text;

  // One-worker execution.
  exec::Driver single(1);
  Result<Table> hand_result = single.Run(*hand);
  ASSERT_TRUE(hand_result.ok()) << hand_result.status().ToString();
  Result<Table> sql_result = single.Run(*from_sql);
  ASSERT_TRUE(sql_result.ok()) << sql_result.status().ToString();
  EXPECT_EQ(testing::Canonicalize(*hand_result),
            testing::Canonicalize(*sql_result))
      << "Q" << q << " 1-worker results diverge";

  // Morsel-parallel execution at 8 threads.
  exec::Driver parallel(8);
  Result<Table> sql_mt = parallel.Run(*from_sql);
  ASSERT_TRUE(sql_mt.ok()) << sql_mt.status().ToString();
  EXPECT_EQ(testing::Canonicalize(*hand_result), testing::Canonicalize(*sql_mt))
      << "Q" << q << " 8-thread results diverge";
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchSqlTest, ::testing::Range(1, 23));

TEST(TpchSqlTest, RejectsOutOfRangeQueryNumbers) {
  EXPECT_FALSE(tpch::TpchSqlText(0).ok());
  EXPECT_FALSE(tpch::TpchSqlText(23).ok());
}

}  // namespace
}  // namespace photon
