#ifndef PHOTON_TESTING_DIFFER_H_
#define PHOTON_TESTING_DIFFER_H_

#include <string>
#include <vector>

#include "exec/driver.h"
#include "plan/logical_plan.h"
#include "storage/object_store.h"
#include "vector/table.h"

namespace photon {
namespace testing {

/// A result table reduced to engine-neutral form: every cell rendered to a
/// string (doubles via %.17g so NaN/±0 compare textually), rows sorted.
/// Two engines agree iff their canonical forms are equal.
using CanonicalResult = std::vector<std::vector<std::string>>;

CanonicalResult Canonicalize(const Table& table);

/// Human-readable first-difference report; empty string when equal.
std::string DiffCanonical(const CanonicalResult& a, const CanonicalResult& b,
                          const std::string& label_a,
                          const std::string& label_b);

struct DifferentialOptions {
  /// Memory budget for the forced-spill mode. Doubled and retried on
  /// OutOfMemory (hash-join builds cannot spill), up to 4 attempts.
  int64_t spill_budget_bytes = 192 * 1024;
  /// Number of ObjectStore::Get faults injected into `fault_store` right
  /// before the forced-spill run (scan retries must absorb them).
  int fault_gets = 3;
  ObjectStore* fault_store = nullptr;
  /// Unique-per-call spill key prefix (cleaned up afterwards).
  std::string spill_prefix = "fuzz-spill";
  /// Mode 9: number of generative SQL mutants derived from the plan's
  /// printed SQL (0 = off). Each mutant must either fail to compile
  /// cleanly or execute identically across baseline, Photon, and Photon
  /// with the optimizer on.
  int sql_mutants = 0;
  /// Seed for mutant generation; combine with the fuzz seed so corpora
  /// stay replayable.
  uint64_t mutant_seed = 0;
};

/// Runs `p` through every differential mode — baseline row engine (both
/// join impls), Photon on one worker (a driver shared by every call),
/// Photon morsel-parallel on `driver`, Photon under a tiny memory budget
/// with injected scan faults, Photon once per forced expression tier
/// (tree-only / fused interpreter / compiled kernels, mode 6), a SQL
/// print→parse round trip (mode 7), the cost-based optimizer on one worker
/// and parallel (mode 8), and optional generative SQL mutants (mode 9) —
/// and diffs the canonicalized results cell-by-cell. The one-worker and
/// parallel runs must also match row for row, in order, and every run must
/// leave the plan's in-memory input tables as it found them, values and
/// batch metadata alike (Photon's scans lend those tables' vectors).
/// Returns "" when all modes agree, else a report naming the diverging
/// mode and first differing cell. Engine errors (compile or execution)
/// are reported as divergences too, except that mode 4 skips plans whose
/// build sides genuinely cannot fit the budget (OutOfMemory after
/// retries) and mode 9 treats a mutant's compile error as a pass.
std::string RunDifferential(const plan::PlanPtr& p, exec::Driver* driver,
                            const DifferentialOptions& opts);

struct ConcurrentDifferentialOptions {
  int worker_threads = 4;
  /// Admission cap: fewer running slots than plans forces queueing.
  int max_concurrent_queries = 3;
  int64_t memory_limit_bytes = 256LL << 20;
};

/// Mode 5, the concurrency analogue of RunDifferential: executes all of
/// `plans` in flight at once through one multi-tenant QueryService
/// (shared scheduler, memory pool, admission queue) and diffs every
/// result against its own serial one-worker run. Serial modes cannot see
/// cross-query interference — scheduler fairness bugs, task-group or
/// shuffle-id collisions, shared-pool backpressure — this mode exists to.
/// Returns "" when every concurrent result matches its serial reference,
/// else a report naming the diverging plan.
std::string RunConcurrentDifferential(
    const std::vector<plan::PlanPtr>& plans,
    const ConcurrentDifferentialOptions& opts);

struct LakehouseDifferentialOptions {
  /// Concurrent DML writers (each owns a driver and an Open()ed handle).
  int writer_threads = 3;
  /// Randomized DELETE/UPDATE/MERGE/append operations per writer.
  int ops_per_writer = 5;
  /// Concurrent analytics readers scanning while the writers commit.
  int reader_threads = 2;
  /// Run the background compactor against the same table.
  bool compact = true;
};

/// Mode 10: seeded mixed lakehouse workload — concurrent DML writers
/// (DELETE/UPDATE/MERGE/append through the executors), a background
/// compactor, and analytics readers all racing on one Delta table — then
/// a serial-equivalence check: every version is re-executed in committed
/// transaction order against a fresh table (compactions replay as
/// logical no-ops) and each committed version's full scan must equal the
/// serial re-execution's content at that point. One recorded writer per
/// version (a duplicate means a lost commit), pinned reader snapshots
/// must rescan identically, and staged files from aborted transactions
/// must not leak. Returns "" on agreement, else a report naming the
/// diverging version or invariant.
std::string RunLakehouseDifferential(
    uint64_t seed, const LakehouseDifferentialOptions& opts = {});

}  // namespace testing
}  // namespace photon

#endif  // PHOTON_TESTING_DIFFER_H_
