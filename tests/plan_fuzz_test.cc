#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/driver.h"
#include "storage/object_store.h"
#include "testing/datagen.h"
#include "testing/differ.h"
#include "testing/minimizer.h"
#include "testing/plangen.h"

namespace pt = photon::testing;

namespace {

/// Differential plan fuzzing (DESIGN.md §10, the paper's §5.6 end-to-end
/// layer): per seed, generate random tables (one also written out as a
/// Delta table), generate random logical plans over them, and execute each
/// plan through the four modes in pt::RunDifferential. Any divergence is
/// minimized to a reproducer and reported with the seed, so a failure
/// line is sufficient to replay:
///   ./plan_fuzz_test --gtest_filter='*PlanFuzzTest.*/<seed-1>'
std::string RunSeed(uint64_t seed, int rounds, photon::exec::Driver* driver) {
  photon::ObjectStore store;
  pt::DataGen gen(seed * 7919 + 1);

  photon::Schema fact_schema = gen.RandomSchema("f_", 3, 6);
  photon::Table fact = gen.RandomTable(
      fact_schema, static_cast<int>(gen.rng().Uniform(600, 1500)));
  photon::Schema dim_schema = gen.RandomSchema("d_", 2, 4);
  photon::Table dim = gen.RandomTable(
      dim_schema, static_cast<int>(gen.rng().Uniform(100, 400)));

  pt::FuzzInput fact_input;
  fact_input.name = "fact";
  fact_input.table = &fact;
  auto snapshot = gen.WriteDelta(&store, "/fuzz/fact", fact);
  if (!snapshot.ok()) {
    return "WriteDelta failed: " + snapshot.status().ToString();
  }
  fact_input.store = &store;
  fact_input.delta = *snapshot;

  pt::FuzzInput dim_input;
  dim_input.name = "dim";
  dim_input.table = &dim;

  pt::PlanGen plangen(seed, {&fact_input, &dim_input});
  pt::DifferentialOptions opts;
  opts.fault_store = &store;
  opts.spill_prefix = "fuzz-spill/" + std::to_string(seed);
  // Mode 9: three generative SQL mutants per plan, seeded by the fuzz seed
  // so every finding replays from the seed alone.
  opts.sql_mutants = 3;
  opts.mutant_seed = seed;

  for (int round = 0; round < rounds; round++) {
    photon::plan::PlanPtr p = plangen.RandomPlan();
    std::string diff = pt::RunDifferential(p, driver, opts);
    if (diff.empty()) continue;
    // Shrink before reporting: the minimized plan plus the seed is the
    // checked-in reproducer for the finding.
    photon::plan::PlanPtr minimized = pt::MinimizePlan(
        p, [&](const photon::plan::PlanPtr& candidate) {
          return !pt::RunDifferential(candidate, driver, opts).empty();
        });
    return "seed " + std::to_string(seed) + " round " +
           std::to_string(round) + ": " + diff + "\nminimized plan:\n" +
           minimized->ToString();
  }
  return "";
}

class PlanFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanFuzzTest, EnginesAgreeUnderAllModes) {
  static photon::exec::Driver driver(8);
  std::string failure = RunSeed(GetParam(), /*rounds=*/3, &driver);
  EXPECT_TRUE(failure.empty()) << failure;
}

// The fixed 64-seed tier-1 corpus (--soak N extends it arbitrarily).
INSTANTIATE_TEST_SUITE_P(Seeds, PlanFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{65}));

/// Mode 5 (concurrent differential): the generated inputs of one fuzz
/// seed, pinned in place so the plans' raw table/store pointers stay
/// valid while sessions run.
struct SeedInputs {
  photon::ObjectStore store;
  photon::Table fact{photon::Schema()};
  photon::Table dim{photon::Schema()};
  pt::FuzzInput fact_input;
  pt::FuzzInput dim_input;

  /// Null on data-generation failure (reported by the caller).
  static std::unique_ptr<SeedInputs> Make(uint64_t seed) {
    pt::DataGen gen(seed * 7919 + 1);
    auto in = std::make_unique<SeedInputs>();
    photon::Schema fact_schema = gen.RandomSchema("f_", 3, 6);
    in->fact = gen.RandomTable(
        fact_schema, static_cast<int>(gen.rng().Uniform(600, 1500)));
    photon::Schema dim_schema = gen.RandomSchema("d_", 2, 4);
    in->dim = gen.RandomTable(
        dim_schema, static_cast<int>(gen.rng().Uniform(100, 400)));
    in->fact_input.name = "fact";
    in->fact_input.table = &in->fact;
    auto snapshot = gen.WriteDelta(&in->store, "/fuzz/fact", in->fact);
    if (!snapshot.ok()) return nullptr;
    in->fact_input.store = &in->store;
    in->fact_input.delta = *snapshot;
    in->dim_input.name = "dim";
    in->dim_input.table = &in->dim;
    return in;
  }
};

/// K seeds in flight: each group runs plans from kSeedsPerGroup distinct
/// seeds concurrently through one QueryService and diffs every result
/// against its serial single-task run (pt::RunConcurrentDifferential).
/// Groups cover the same 1..64 seed range as the serial corpus.
class ConcurrentPlanFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrentPlanFuzzTest, ConcurrentMatchesSerial) {
  constexpr int kSeedsPerGroup = 4;
  constexpr int kPlansPerSeed = 2;
  uint64_t base = GetParam() * kSeedsPerGroup + 1;

  std::vector<std::unique_ptr<SeedInputs>> inputs;
  std::vector<photon::plan::PlanPtr> plans;
  for (int s = 0; s < kSeedsPerGroup; s++) {
    uint64_t seed = base + s;
    std::unique_ptr<SeedInputs> in = SeedInputs::Make(seed);
    ASSERT_NE(in, nullptr) << "WriteDelta failed for seed " << seed;
    pt::PlanGen plangen(seed, {&in->fact_input, &in->dim_input});
    for (int round = 0; round < kPlansPerSeed; round++) {
      plans.push_back(plangen.RandomPlan());
    }
    inputs.push_back(std::move(in));
  }

  pt::ConcurrentDifferentialOptions opts;
  std::string failure = pt::RunConcurrentDifferential(plans, opts);
  EXPECT_TRUE(failure.empty()) << "seed group starting at " << base << ": "
                               << failure;
}

// 16 groups x 4 seeds = the same tier-1-sized corpus, concurrently.
INSTANTIATE_TEST_SUITE_P(SeedGroups, ConcurrentPlanFuzzTest,
                         ::testing::Range(uint64_t{0}, uint64_t{16}));

/// Mode 10 (lakehouse differential): per seed, concurrent DML writers, a
/// background compactor, and analytics readers race on one Delta table;
/// afterwards every committed version's scan must checksum-equal a serial
/// re-execution of the committed transaction order. Catches lost commits,
/// broken read-set validation, non-atomic rewrites, and staged-file leaks.
class LakehouseFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LakehouseFuzzTest, CommittedVersionsAreSerialEquivalent) {
  std::string failure = pt::RunLakehouseDifferential(GetParam());
  EXPECT_TRUE(failure.empty()) << "seed " << GetParam() << ": " << failure;
}

// The same fixed 64-seed tier-1 corpus as the plan fuzzer.
INSTANTIATE_TEST_SUITE_P(Seeds, LakehouseFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{65}));

}  // namespace

/// Overrides gtest_main: `--soak N` loops seeds 1..N outside gtest for
/// long fuzzing runs, reporting progress every 32 seeds; otherwise behaves
/// exactly like gtest_main.
int main(int argc, char** argv) {
  long soak = 0;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--soak") == 0 && i + 1 < argc) {
      soak = std::atol(argv[i + 1]);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  if (soak > 0) {
    photon::exec::Driver driver(8);
    int failures = 0;
    for (long seed = 1; seed <= soak; seed++) {
      std::string failure =
          RunSeed(static_cast<uint64_t>(seed), /*rounds=*/3, &driver);
      if (!failure.empty()) {
        failures++;
        std::fprintf(stderr, "FAIL %s\n", failure.c_str());
      }
      failure = pt::RunLakehouseDifferential(static_cast<uint64_t>(seed));
      if (!failure.empty()) {
        failures++;
        std::fprintf(stderr, "FAIL lakehouse seed %ld: %s\n", seed,
                     failure.c_str());
      }
      if (seed % 32 == 0) {
        std::fprintf(stderr, "soak: %ld/%ld seeds, %d failures\n", seed,
                     soak, failures);
      }
    }
    std::fprintf(stderr, "soak done: %ld seeds, %d failures\n", soak,
                 failures);
    return failures == 0 ? 0 : 1;
  }
  return RUN_ALL_TESTS();
}
