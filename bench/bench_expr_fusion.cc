// Expression fusion microbench (DESIGN.md §12): times identical
// filter→project chains under each expression policy —
//   tree      per-node FilterOperator/ProjectOperator walking the
//             interpreted expression tree (the pre-fusion engine)
//   fused     one FusedFilterProjectOperator running the flattened
//             postfix programs (fused interpreter tier)
//   compiled  same operator running the template-instantiated kernels
//             wherever the chain has them (the default policy)
// over synthetic int64 / float64 / decimal chains shaped like TPC-H Q1
// and Q6 expression work. Checksums must match across policies.
//
// Usage: bench_expr_fusion [--rows N] [--reps R] [--min-speedup S]
//                          [--json PATH]
// Exit status is non-zero when, for any chain, the best fused-layer
// policy fails to reach S× over the interpreted tree (default 1.5, the
// acceptance bound; pass 0 for a jitter-proof smoke run).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "expr/builder.h"
#include "types/decimal.h"

namespace {

using namespace photon;
using eb::Col;
using eb::Lit;

/// Deterministic synthetic table: int64 a,b; float64 x,y; decimal p,q at
/// narrow widths; decimal(12,2) price, disc, tax at TPC-H's lineitem
/// widths. Values from one LCG so every run (and every policy) sees the
/// same bytes; sparse NULLs exercise the null-propagation paths.
///
/// The two decimal groups cover both charge shapes. p decimal(10,2) ×
/// (1±q) at decimal(4,2) puts price*(1-disc) at (24,4) and the charge
/// product at exactly precision 38, on the unchecked int128 kernels.
/// TPC-H's decimal(12,2) columns put price*(1-disc) at (26,4), so the
/// charge product is capped at dec(38,6) and runs the checked int128
/// kernel (CheckedDecimalOp) in every tier — the shape Q1 actually runs.
Table MakeTable(int64_t rows) {
  Schema schema({Field("a", DataType::Int64()), Field("b", DataType::Int64()),
                 Field("x", DataType::Float64()),
                 Field("y", DataType::Float64()),
                 Field("p", DataType::Decimal(10, 2)),
                 Field("q", DataType::Decimal(4, 2)),
                 Field("price", DataType::Decimal(12, 2)),
                 Field("disc", DataType::Decimal(12, 2)),
                 Field("tax", DataType::Decimal(12, 2))});
  Table table(schema);
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  auto next = [&seed]() {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 16;
  };
  for (int64_t done = 0; done < rows;) {
    int n = static_cast<int>(
        std::min<int64_t>(kDefaultBatchSize, rows - done));
    auto batch = std::make_unique<ColumnBatch>(schema, n);
    int64_t* a = batch->column(0)->data<int64_t>();
    int64_t* b = batch->column(1)->data<int64_t>();
    double* x = batch->column(2)->data<double>();
    double* y = batch->column(3)->data<double>();
    int128_t* p = batch->column(4)->data<int128_t>();
    int128_t* q = batch->column(5)->data<int128_t>();
    int128_t* price = batch->column(6)->data<int128_t>();
    int128_t* disc = batch->column(7)->data<int128_t>();
    int128_t* tax = batch->column(8)->data<int128_t>();
    for (int i = 0; i < n; i++) {
      a[i] = static_cast<int64_t>(next() % 2000) - 1000;
      b[i] = static_cast<int64_t>(next() % 1000);
      x[i] = static_cast<double>(next() % 5000) / 100.0;  // [0, 50)
      y[i] = static_cast<double>(next() % 1000) / 10000.0;  // [0, 0.1)
      p[i] = static_cast<int128_t>(next() % 10000000);  // up to 100k.00
      q[i] = static_cast<int128_t>(next() % 10);        // discount 0.00-0.09
      price[i] = static_cast<int128_t>(90000 + next() % 10000000);
      disc[i] = static_cast<int128_t>(next() % 11);  // 0.00-0.10
      tax[i] = static_cast<int128_t>(next() % 9);    // 0.00-0.08
      if (next() % 97 == 0) batch->column(1)->SetNull(i);
      if (next() % 89 == 0) batch->column(3)->SetNull(i);
    }
    batch->set_num_rows(n);
    batch->SetAllActive();
    batch->ResolveMetadata();
    table.AppendBatch(std::move(batch));
    done += n;
  }
  return table;
}

struct Chain {
  const char* name;
  plan::PlanPtr plan;
};

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 2000000;
  if (const char* v = bench::FlagValue(argc, argv, "--rows")) {
    rows = std::atoll(v);
  }
  int reps = 5;
  if (const char* v = bench::FlagValue(argc, argv, "--reps")) {
    reps = std::atoi(v);
  }
  double min_speedup = 1.5;
  if (const char* v = bench::FlagValue(argc, argv, "--min-speedup")) {
    min_speedup = std::atof(v);
  }
  const char* json_path = bench::FlagValue(argc, argv, "--json");

  std::printf(
      "Expression fusion: %lld rows, min of %d runs (gate %.2fx over "
      "tree)\n",
      static_cast<long long>(rows), reps, min_speedup);
  Table table = MakeTable(rows);

  ExprPtr a = Col(0, DataType::Int64(), "a");
  ExprPtr b = Col(1, DataType::Int64(), "b");
  ExprPtr x = Col(2, DataType::Float64(), "x");
  ExprPtr y = Col(3, DataType::Float64(), "y");
  ExprPtr p = Col(4, DataType::Decimal(10, 2), "p");
  ExprPtr q = Col(5, DataType::Decimal(4, 2), "q");
  ExprPtr price = Col(6, DataType::Decimal(12, 2), "price");
  ExprPtr disc = Col(7, DataType::Decimal(12, 2), "disc");
  ExprPtr tax = Col(8, DataType::Decimal(12, 2), "tax");

  std::vector<Chain> chains;
  // int64 arithmetic chain: comparison terms + fused multiply-add.
  chains.push_back(
      {"int64_chain",
       plan::Project(
           plan::Filter(plan::Scan(&table),
                        eb::And(eb::Gt(a, Lit(int64_t{0})),
                                eb::Lt(b, Lit(int64_t{500})))),
           {eb::Add(eb::Mul(a, b), eb::Sub(a, b)), eb::Mul(a, a)},
           {"mab", "aa"})});
  // TPC-H Q6 expression shape: float comparison chain + revenue product.
  chains.push_back(
      {"q6_float",
       plan::Project(
           plan::Filter(plan::Scan(&table),
                        eb::And(eb::Lt(x, Lit(24.0)),
                                eb::And(eb::Ge(y, Lit(0.05)),
                                        eb::Le(y, Lit(0.07))))),
           {eb::Mul(x, y)}, {"revenue"})});
  // TPC-H Q1 expression shape: decimal price*(1-disc) and
  // price*(1-disc)*(1+tax), sharing the (1-disc) subexpression via CSE.
  ExprPtr disc_price = eb::Mul(p, eb::Sub(Lit(int32_t{1}), q));
  chains.push_back(
      {"q1_decimal",
       plan::Project(
           plan::Filter(plan::Scan(&table),
                        eb::Le(q, eb::DecimalLit("0.07", 4, 2))),
           {disc_price, eb::Mul(disc_price, eb::Add(Lit(int32_t{1}), q))},
           {"disc_price", "charge"})});
  // The same Q1 shape at TPC-H's decimal(12,2) widths: the charge product
  // is capped at dec(38,6) and runs the checked int128 kernel.
  ExprPtr tpch_disc_price = eb::Mul(price, eb::Sub(Lit(int32_t{1}), disc));
  chains.push_back(
      {"q1_tpch_types",
       plan::Project(
           plan::Filter(plan::Scan(&table),
                        eb::Le(disc, eb::DecimalLit("0.07", 12, 2))),
           {tpch_disc_price,
            eb::Mul(tpch_disc_price, eb::Add(Lit(int32_t{1}), tax))},
           {"disc_price", "charge"})});

  struct Tier {
    ExprPolicy policy;
    const char* name;
  };
  const Tier kTiers[] = {{ExprPolicy::kTreeOnly, "tree"},
                         {ExprPolicy::kFusedOnly, "fused"},
                         {ExprPolicy::kCompiledOnly, "compiled"}};
  constexpr int kNumTiers = sizeof(kTiers) / sizeof(kTiers[0]);

  exec::Driver driver(1);
  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("expr_fusion"));
  json.Field("rows", rows);
  json.Field("reps", reps);
  json.BeginArray("chains");

  std::printf("  %-13s %10s %10s %10s %8s %8s\n", "chain", "tree(ms)",
              "fused(ms)", "compl(ms)", "fus x", "cmp x");
  bool ok = true;
  for (const Chain& chain : chains) {
    int64_t tier_ns[kNumTiers];
    uint64_t tier_sum[kNumTiers];
    int64_t tier_rows[kNumTiers];
    for (int t = 0; t < kNumTiers; t++) {
      ExecContext ctx;
      ctx.expr_policy = kTiers[t].policy;
      // Warm-up run also produces the checksum outside the timed region.
      Result<Table> out = driver.Run(chain.plan, ctx);
      PHOTON_CHECK(out.ok());
      tier_rows[t] = out->num_rows();
      tier_sum[t] = bench::TableChecksum(*out);
      tier_ns[t] = bench::BestOf(reps, [&] {
        int64_t t0 = bench::NowNs();
        Result<Table> r = driver.Run(chain.plan, ctx);
        PHOTON_CHECK(r.ok());
        return bench::NowNs() - t0;
      });
    }
    for (int t = 1; t < kNumTiers; t++) {
      if (tier_rows[t] != tier_rows[0] || tier_sum[t] != tier_sum[0]) {
        std::printf("  FAIL: %s %s diverges from tree (rows %lld vs %lld)\n",
                    chain.name, kTiers[t].name,
                    static_cast<long long>(tier_rows[t]),
                    static_cast<long long>(tier_rows[0]));
        ok = false;
      }
    }
    double fused_x = static_cast<double>(tier_ns[0]) / tier_ns[1];
    double compiled_x = static_cast<double>(tier_ns[0]) / tier_ns[2];
    double best = std::max(fused_x, compiled_x);
    std::printf("  %-13s %10.2f %10.2f %10.2f %7.2fx %7.2fx\n", chain.name,
                bench::Ms(tier_ns[0]), bench::Ms(tier_ns[1]),
                bench::Ms(tier_ns[2]), fused_x, compiled_x);
    if (best < min_speedup) {
      std::printf("  FAIL: %s best tier %.2fx < %.2fx gate\n", chain.name,
                  best, min_speedup);
      ok = false;
    }
    json.BeginObject();
    json.Field("chain", std::string(chain.name));
    json.Field("rows_out", tier_rows[0]);
    json.Field("tree_ms", bench::Ms(tier_ns[0]));
    json.Field("fused_ms", bench::Ms(tier_ns[1]));
    json.Field("compiled_ms", bench::Ms(tier_ns[2]));
    json.Field("fused_speedup", fused_x);
    json.Field("compiled_speedup", compiled_x);
    json.EndObject();
  }
  json.EndArray();
  json.Field("ok", std::string(ok ? "true" : "false"));
  json.EndObject();
  if (json_path != nullptr) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 1;
    }
    std::printf("  wrote %s\n", json_path);
  }
  if (!ok) return 1;
  std::printf("  all chains checksum-equal across tiers%s\n",
              min_speedup > 0 ? " and above the speedup gate" : "");
  return 0;
}
