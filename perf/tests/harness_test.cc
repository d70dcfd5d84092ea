// Checks of the benchmark's own arithmetic: tail percentiles, geomean of
// medians, self time, stage summaries, and the oracle/ledger path that
// turns a wrong result into a failed op. Exits non-zero on the first
// failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

using photon::DataType;
using photon::Field;
using photon::Schema;
using photon::Table;
using photon::Value;
using photon::obs::Metric;
using photon::obs::ProfileNode;

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      g_failures++;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; i++) v.push_back(i);
  return v;
}

void TestTailPercentileKeepsTenBeyond() {
  // 200 samples: the nearest-rank p95 already has 10 samples after it.
  EXPECT(Near(perf::TailPercentile(Range(200), 0.95), 189));
  // 100 samples: nearest-rank p95 (rank 94) has only 5 after it, so the
  // report drops to rank 89, the highest with 10 after it.
  EXPECT(Near(perf::TailPercentile(Range(100), 0.95), 89));
  EXPECT(Near(perf::TailPercentile(Range(1000), 0.95), 949));
  EXPECT(Near(perf::TailPercentile(Range(100), 0.90), 89));
  // Fewer samples than the rule needs: the smallest value, never past the end.
  EXPECT(Near(perf::TailPercentile(Range(5), 0.95), 0));
  EXPECT(Near(perf::TailPercentile({}, 0.95), 0));
  // Order of input does not matter.
  std::vector<double> shuffled = Range(200);
  std::swap(shuffled[0], shuffled[199]);
  std::swap(shuffled[10], shuffled[150]);
  EXPECT(Near(perf::TailPercentile(shuffled, 0.95), 189));
  EXPECT(perf::SamplesForTail(0.95) == 200);
  EXPECT(perf::SamplesForTail(0.90) == 100);
  EXPECT(Near(perf::TailPercentile(Range(perf::SamplesForTail(0.9)), 0.9),
              89));
}

void TestMedianAndGeomean() {
  EXPECT(Near(perf::Median({3, 1, 2}), 2));
  EXPECT(Near(perf::Median({4, 1, 3, 2}), 2.5));
  EXPECT(Near(perf::GeoMean({2, 8}), 4));
  // Geomean of per-query medians: medians 2 and 4 (the 100 outlier does
  // not move a median), so sqrt(8).
  EXPECT(Near(perf::GeoMeanOfMedians({{1, 2, 3}, {4, 4, 100}, {}}),
              std::sqrt(8.0)));
}

ProfileNode Node(const char* name, int stage, int64_t wall_ns, int tasks = 1) {
  ProfileNode n;
  n.name = name;
  n.stage_id = stage;
  n.num_tasks = tasks;
  n.metrics[static_cast<int>(Metric::kWallNs)].sum = wall_ns;
  return n;
}

void TestSelfTimeSubtractsOnlySameStageChildren() {
  // HashJoin (stage 2) <- StageScan (stage 2) <- Filter (stage 1, the
  // stage the scan reads), and the join's build side in stage 0.
  ProfileNode join = Node("HashJoin", 2, 100);
  ProfileNode stage_scan = Node("StageScan", 2, 30);
  stage_scan.children.push_back(Node("Filter", 1, 400, 4));
  join.children.push_back(stage_scan);
  join.children.push_back(Node("TableScan", 0, 50));

  std::map<std::string, int64_t> self;
  perf::ForEachSelfTime(join, [&](const ProfileNode& n, int64_t ns) {
    self[n.name] = ns;
  });
  EXPECT(self["HashJoin"] == 70);   // minus the same-stage StageScan only
  EXPECT(self["StageScan"] == 30);  // the other stage's Filter not subtracted
  EXPECT(self["Filter"] == 400);
  EXPECT(self["TableScan"] == 50);

  perf::LayerTotals totals;
  photon::obs::QueryProfile profile;
  profile.root = join;
  totals.AddProfile(profile);
  EXPECT(totals.total_self_ns() == 550);
  EXPECT(totals.self_ns[static_cast<int>(perf::OpGroup::kHashJoin)] == 70);
  EXPECT(totals.self_ns[static_cast<int>(perf::OpGroup::kScan)] == 80);

  // Stages from the profile: stage 1 ran 4 tasks; stages 0 and 2 are serial.
  totals.AddStages(perf::StagesFromProfile(profile));
  EXPECT(totals.stages == 3);
  EXPECT(totals.tasks == 6);
  EXPECT(totals.serial_stage_ns == 150);  // stage 2's top (100) + stage 0 (50)
}

Table Ints(const std::vector<int64_t>& values) {
  photon::TableBuilder b(Schema({Field("x", DataType::Int64())}));
  for (int64_t v : values) b.AppendRow({Value::Int64(v)});
  return b.Finish();
}

void TestMismatchRaisesFailRatio() {
  Table expected = Ints({1, 2, 3});
  EXPECT(perf::OrderInsensitiveChecksum(expected) ==
         perf::OrderInsensitiveChecksum(Ints({3, 1, 2})));
  perf::Oracle oracle(perf::kNumQueries);
  oracle[0] = {expected.num_rows(), perf::OrderInsensitiveChecksum(expected)};

  perf::Ledger ledger;
  EXPECT(ledger.CheckQuery(1, photon::Result<Table>(Ints({2, 3, 1})), oracle));
  EXPECT(ledger.fail_ratio() == 0);
  EXPECT(!ledger.CheckQuery(1, photon::Result<Table>(Ints({1, 2, 4})), oracle));
  EXPECT(!ledger.CheckQuery(1, photon::Result<Table>(Ints({1, 2})), oracle));
  EXPECT(!ledger.CheckQuery(
      1, photon::Result<Table>(photon::Status::Internal("boom")), oracle));
  EXPECT(ledger.attempted() == 4);
  EXPECT(ledger.failed() == 3);
  EXPECT(Near(ledger.fail_ratio(), 0.75));
}

void TestResultLine() {
  perf::Ledger ledger;
  ledger.Pass();
  perf::Metrics m;
  m.Set("latency_ms", 1.25, "ms");
  EXPECT(perf::ResultLine(ledger, m) ==
         "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": "
         "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
}

}  // namespace

int main() {
  TestTailPercentileKeepsTenBeyond();
  TestMedianAndGeomean();
  TestSelfTimeSubtractsOnlySameStageChildren();
  TestMismatchRaisesFailRatio();
  TestResultLine();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all harness checks passed\n");
  return 0;
}
