#ifndef PHOTON_EXEC_DRIVER_H_
#define PHOTON_EXEC_DRIVER_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/morsel.h"
#include "exec/task_scheduler.h"
#include "exec/thread_pool.h"
#include "obs/profile.h"
#include "ops/hash_aggregate.h"
#include "ops/hash_join.h"
#include "plan/logical_plan.h"
#include "plan/stage_planner.h"

namespace photon {
namespace exec {

/// Per-stage execution summary: a thin view over the obs metrics registry
/// (the driver's slice of §5.5 live metrics). The snapshot is the merge of
/// every task's metric shards at the stage barrier, so it is filled
/// identically at every thread count.
struct StageInfo {
  int stage_id = 0;
  int num_tasks = 0;
  /// Merged stage metrics (the full obs vocabulary).
  obs::MetricSnapshot m;

  int64_t rows_out() const { return m[obs::Metric::kRowsOut]; }
  int64_t batches() const { return m[obs::Metric::kBatches]; }
  int64_t wall_ns() const { return m[obs::Metric::kWallNs]; }
  int64_t cpu_ns() const { return m[obs::Metric::kCpuNs]; }
  int64_t shuffle_bytes() const { return m[obs::Metric::kShuffleBytes]; }
  int64_t spill_bytes() const { return m[obs::Metric::kSpillBytes]; }
  // Scan IO counters (src/io), summed over the stage's scan operators.
  int64_t bytes_read() const { return m[obs::Metric::kBytesRead]; }
  int64_t cache_hits() const { return m[obs::Metric::kCacheHits]; }
  int64_t prefetch_wait_ns() const {
    return m[obs::Metric::kPrefetchWaitNs];
  }
  int64_t files_read() const { return m[obs::Metric::kFilesRead]; }
  int64_t row_groups_skipped() const {
    return m[obs::Metric::kRowGroupsSkipped];
  }
};

/// A miniature DBR driver (§2.2): breaks a job into stages at exchange
/// boundaries, launches tasks on the executor thread pool, and blocks at
/// stage boundaries (stage N+1 starts after stage N finishes, which is
/// what enables fault tolerance and adaptive execution at stage
/// boundaries in the real system).
class Driver {
 public:
  /// Standalone driver owning its pools. Pool sizes are explicit per
  /// pool: `num_threads` workers execute morsel tasks; `io_threads` run
  /// scan read-aheads. `io_threads < 0` (the documented default) sizes
  /// the IO pool to max(2, num_threads) — enough to double-buffer every
  /// worker without assuming anything about hardware concurrency.
  explicit Driver(int num_threads = 4, int io_threads = -1)
      : owned_pool_(std::make_unique<ThreadPool>(num_threads)),
        owned_io_pool_(std::make_unique<ThreadPool>(
            io_threads >= 0 ? io_threads : std::max(2, num_threads))),
        pool_(owned_pool_.get()),
        io_pool_(owned_io_pool_.get()) {}

  /// Service-mode driver: no pools of its own. Morsel tasks go to
  /// `scheduler`'s shared worker pool on the per-query queue
  /// `query_slot` (see TaskScheduler — queues are drained round-robin
  /// across queries, so this driver's stages cannot starve a peer's).
  /// Read-aheads go to the shared `io_pool`. One task is submitted per
  /// morsel, so fairness is morsel-granular; stage barriers block the
  /// calling (per-session control) thread, never a scheduler worker.
  Driver(TaskScheduler* scheduler, int64_t query_slot, ThreadPool* io_pool)
      : scheduler_(scheduler), query_slot_(query_slot), io_pool_(io_pool) {}

  /// Runs a logical plan; the one Photon entry point, at any worker count
  /// (a 1-worker driver runs every task inline). The plan is cut into
  /// stages at pipeline breakers (stage_planner.h); each stage's input is
  /// split into morsels — fixed-size table batch ranges, or file ranges
  /// for lakehouse scans — which worker tasks claim from a shared atomic
  /// queue. Pipeline breakers execute parallelism-aware:
  ///   - aggregates run one partial aggregate per morsel, then a final
  ///     merge stage with one task per hash partition of the serialized
  ///     states (exact for every kind; scalar aggregates merge in one
  ///     task);
  ///   - joins build their hash table once, in a build stage whose tasks
  ///     hash build morsels and then fill one table partition each (all
  ///     partitions in one task when the build is a single morsel), and
  ///     probe it from all tasks;
  ///   - sorts produce one sorted run per morsel, k-way merged at the
  ///     stage boundary.
  /// Morsel and partition counts depend only on the input, so the result
  /// table (rows *and* row order) is identical for every thread count.
  ///
  /// Observability: when `stages` is non-null one StageInfo per executed
  /// stage is appended in completion order; when `profile` is non-null it
  /// receives the full QueryProfile tree (one node per plan operator per
  /// stage, per-task min/max/sum). With both null the run does no profile
  /// bookkeeping at all beyond the operators' own counters.
  Result<Table> Run(const plan::PlanPtr& plan, ExecContext ctx = {},
                    std::vector<StageInfo>* stages = nullptr,
                    obs::QueryProfile* profile = nullptr);

  /// Worker parallelism: the owned pool's size, or the shared
  /// scheduler's in service mode.
  int num_threads() const {
    return scheduler_ != nullptr ? scheduler_->num_threads()
                                 : pool_->num_threads();
  }

 private:
  struct RunState;        // per-Run bookkeeping (ctx, stage list, profile)
  struct StagedFragment;  // compiled fragment + its materialized inputs

  /// Operator tree to drain for one morsel: the fragment chain, optionally
  /// wrapped (partial aggregate, sort) by the breaker above it.
  using WrapFn =
      std::function<Result<OperatorPtr>(OperatorPtr, const ExecContext&)>;
  /// (operator, profile node) pairs harvested into task shards after a
  /// morsel chain is drained.
  using Harvest = std::vector<std::pair<Operator*, int>>;
  /// One unit of a stage's work: (item index, profile task id).
  using TaskFn = std::function<Status(int, int64_t)>;

  Result<Table> RunNode(const plan::PlanPtr& node, RunState* state,
                        int parent_node);
  Result<Table> RunFragment(const plan::PlanPtr& node, RunState* state,
                            int parent_node);
  Result<Table> RunAggregate(const plan::PlanPtr& node, RunState* state,
                             int parent_node);
  Result<Table> RunSort(const plan::PlanPtr& node, RunState* state,
                        int parent_node);
  Result<StagedFragment> PrepareFragment(const plan::PlanPtr& root,
                                         RunState* state);
  Result<OperatorPtr> InstantiateFragment(const StagedFragment& frag,
                                          Morsel morsel,
                                          const ExecContext& task_ctx,
                                          Harvest* harvest);
  /// Runs one stage over its morsels and records it as stage `stage_id`.
  Result<std::vector<std::unique_ptr<Table>>> RunMorselStage(
      const StagedFragment& frag, RunState* state, const WrapFn& wrap,
      int wrap_node_id, int stage_id);
  /// Materializes a join's build side and hashes it in a build stage of
  /// its own (PartitionedJoinBuild's two phases).
  Result<JoinBuildPtr> RunJoinBuild(const plan::PlanNode& join,
                                    RunState* state, int join_node);
  /// Runs fn(item, task_id) for every item in [0, num_items) on the
  /// workers — min(threads, items) claim loops, or one scheduler task per
  /// item in service mode — joining every task before returning the first
  /// error. Returns the task count.
  Result<int> RunTasks(int num_items, int stage_id, RunState* state,
                       const TaskFn& fn);
  /// Folds a finished task's operators into the profile: task shards per
  /// node, the stage's resource totals, CPU time since `cpu0`, and (on
  /// success) its output's rows and batches.
  void RecordTask(RunState* state, int stage_id, int64_t task_id,
                  const Harvest& harvest, int64_t cpu0,
                  const Result<Table>& out);
  /// Appends stage `stage_id`'s StageInfo (task count, wall time since
  /// `t0`, merged metrics) to the run's stage list.
  void FinishStage(RunState* state, int stage_id, int num_tasks, int64_t t0);

  /// Submits a worker task: to the shared scheduler's per-query queue in
  /// service mode, else to the owned pool.
  template <typename Fn>
  auto SubmitTask(Fn&& fn) -> std::future<decltype(fn())> {
    if (scheduler_ != nullptr) {
      return scheduler_->Submit(query_slot_, std::forward<Fn>(fn));
    }
    return pool_->Submit(std::forward<Fn>(fn));
  }

  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<ThreadPool> owned_io_pool_;
  /// Shared fair scheduler + this query's queue slot (service mode only).
  TaskScheduler* scheduler_ = nullptr;
  int64_t query_slot_ = 0;
  /// Worker pool; null in service mode (scheduler_ used instead).
  ThreadPool* pool_ = nullptr;
  /// Dedicated pool for scan read-aheads. Prefetch futures must never
  /// queue behind the worker tasks that block on them — with a saturated
  /// shared pool that is a deadlock. Shared across sessions in service
  /// mode (prefetch tasks are leaf work and never wait on workers).
  ThreadPool* io_pool_ = nullptr;
};

}  // namespace exec
}  // namespace photon

#endif  // PHOTON_EXEC_DRIVER_H_
