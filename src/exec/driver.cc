#include "exec/driver.h"

#include <chrono>
#include <utility>

#include "expr/fusion.h"
#include "obs/trace.h"
#include "opt/optimizer.h"
#include "ops/file_scan.h"
#include "ops/filter.h"
#include "ops/fused_filter_project.h"
#include "ops/hash_join.h"
#include "ops/limit.h"
#include "ops/project.h"
#include "ops/scan.h"
#include "ops/sort.h"

namespace photon {
namespace exec {
namespace {

int64_t NowNs() { return obs::WallNowNs(); }

// Morsel granularity: fixed unit counts, NOT derived from the thread
// count, so the decomposition — and with it every per-morsel partial
// result — is identical at any parallelism.
constexpr int kMorselBatches = 8;   // table batches per morsel
constexpr int kFilesPerMorsel = 2;  // scan files per morsel

// Process-wide counter: task groups must be unique across *all* Driver
// instances. Concurrent sessions each construct a driver over one shared
// MemoryManager; colliding group ids would put two queries' consumers in
// one spill-victim set (a cross-thread Spill() race).
std::atomic<int64_t> g_next_task_group{1};

int64_t NextTaskGroup() {
  return g_next_task_group.fetch_add(1, std::memory_order_relaxed);
}

/// Cancellation checkpoint helper: OK when no token is attached.
Status CheckAlive(const ExecContext& ctx) {
  return ctx.control != nullptr ? ctx.control->Check() : Status::OK();
}

/// Moves the non-empty batches of `src` to the end of `dst`. Stage outputs
/// come from CollectAll, which already compacted them into owned, dense
/// batches, so nothing is copied.
void MoveBatches(Table* src, Table* dst) {
  for (std::unique_ptr<ColumnBatch>& batch : src->TakeBatches()) {
    if (batch->num_active() > 0) dst->AppendBatch(std::move(batch));
  }
}

/// Profile-node label for an in-fragment (streaming) plan node.
const char* ChainNodeName(plan::PlanKind kind) {
  switch (kind) {
    case plan::PlanKind::kFilter:
      return "Filter";
    case plan::PlanKind::kProject:
      return "Project";
    case plan::PlanKind::kJoin:
      return "HashJoin";
    default:
      return "Node";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Parallel plan execution
// ---------------------------------------------------------------------------

struct Driver::RunState {
  ExecContext ctx;
  std::vector<StageInfo>* stages = nullptr;
  /// Null = no profile bookkeeping this run (the stages/profile-off fast
  /// path); set when either a stage list or a QueryProfile was requested.
  obs::ProfileBuilder* profile = nullptr;
  int next_stage_id = 0;
};

/// A fragment compiled for morsel execution: the cut plus everything the
/// per-morsel operator chains share — the source table or pruned file
/// list, and one immutable join-build state per in-fragment join.
struct Driver::StagedFragment {
  plan::FragmentCut cut;

  const Table* source_table = nullptr;  // kTable / kStage leaf
  std::unique_ptr<Table> staged;        // owns a materialized kStage input
  std::vector<std::string> files;       // kDeltaFiles leaf, post-pruning
  int64_t files_pruned = 0;

  /// One physical operator per group: a [begin, end) root-first range of
  /// cut.nodes. `unit` non-null = the range executes as one
  /// FusedFilterProjectOperator (compiled once here, shared immutably by
  /// every task's FusedUnitState); null = a single node with its own
  /// operator (a join, or any node under the tree tier).
  struct FusedGroup {
    int begin = 0;
    int end = 0;
    std::shared_ptr<const FusedUnit> unit;
  };
  std::vector<FusedGroup> groups;

  /// Parallel to cut.nodes; non-null only at kJoin positions. Built once,
  /// probed concurrently by every task (entries own their bytes).
  std::vector<JoinBuildPtr> builds;

  /// Profile node ids (all -1 when profiling is off): one per *group*,
  /// plus the leaf scan; top_node_id is the chain's root, attached to its
  /// parent (breaker or profile root) by the caller.
  std::vector<int> node_ids;
  int leaf_node_id = -1;
  int top_node_id = -1;

  int units = 0;            // batches or files to split into morsels
  int units_per_morsel = 1;
};

Result<Table> Driver::Run(const plan::PlanPtr& plan, ExecContext ctx,
                          std::vector<StageInfo>* stages,
                          obs::QueryProfile* profile) {
  // Like both compilers, refuse over-deep expressions before any recursive
  // walker (the optimizer, fusion, tree Evaluate) can touch them.
  PHOTON_RETURN_NOT_OK(plan::CheckPlanExprDepths(*plan));
  plan::PlanPtr root = plan;
  if (ctx.optimizer == OptimizerPolicy::kOn) {
    root = opt::Optimize(plan);
    ctx.optimizer = OptimizerPolicy::kOff;
  }
  RunState state;
  state.ctx = ctx;
  state.stages = stages;
  obs::ProfileBuilder builder;
  if (stages != nullptr || profile != nullptr) state.profile = &builder;
  int64_t t0 = NowNs();
  Result<Table> out = RunNode(root, &state, -1);
  if (profile != nullptr) {
    *profile = builder.Finish(NowNs() - t0, num_threads());
  }
  return out;
}

Result<Table> Driver::RunNode(const plan::PlanPtr& node, RunState* state,
                              int parent_node) {
  switch (node->kind) {
    case plan::PlanKind::kAggregate:
      return RunAggregate(node, state, parent_node);
    case plan::PlanKind::kSort:
      return RunSort(node, state, parent_node);
    case plan::PlanKind::kLimit: {
      // The child (in TPC-H always a sort or aggregate) is materialized in
      // its deterministic order; the limit just trims the prefix.
      int limit_id = -1;
      if (state->profile != nullptr) {
        limit_id = state->profile->AddNode("Limit", parent_node);
      }
      PHOTON_ASSIGN_OR_RETURN(Table child,
                              RunNode(node->children[0], state, limit_id));
      LimitOperator limit(OperatorPtr(new InMemoryScanOperator(&child)),
                          node->limit);
      Result<Table> out = CollectAll(&limit, state->ctx.control);
      if (state->profile != nullptr) {
        limit.PublishMetrics();
        state->profile
            ->TaskShard(limit_id, state->profile->NewTaskId())
            ->MergeFrom(limit.op_metrics());
      }
      return out;
    }
    default:
      return RunFragment(node, state, parent_node);
  }
}

Result<Driver::StagedFragment> Driver::PrepareFragment(
    const plan::PlanPtr& root, RunState* state) {
  StagedFragment frag;
  frag.cut = plan::CutFragment(root);
  const std::vector<const plan::PlanNode*>& nodes = frag.cut.nodes;

  // Group the chain's consecutive filter/project runs into fused units
  // (DESIGN.md §12); every other node stays a singleton group. A unit is
  // compiled once here and shared immutably by every task. A run follows
  // children[0], as the cut does, so it never leaves the fragment.
  for (size_t i = 0; i < nodes.size();) {
    PHOTON_ASSIGN_OR_RETURN(
        plan::FusedRun run,
        plan::FuseFilterProjectRun(*nodes[i], state->ctx.expr_policy));
    const int begin = static_cast<int>(i);
    i += std::max(run.length, 1);
    frag.groups.push_back({begin, static_cast<int>(i), std::move(run.unit)});
  }

  // One profile node per group plus the leaf scan, created root-first so
  // a node's streaming child is its profile child. The top stays detached
  // until the caller knows its parent (breaker wrapper or profile root).
  // Single-node groups keep their legacy labels whether fused or not;
  // only a genuinely collapsed run reads "FusedFilterProject".
  obs::ProfileBuilder* profile = state->profile;
  frag.node_ids.assign(frag.groups.size(), -1);
  if (profile != nullptr) {
    int prev = obs::ProfileBuilder::kDetached;
    for (size_t g = 0; g < frag.groups.size(); g++) {
      const StagedFragment::FusedGroup& grp = frag.groups[g];
      const char* name = grp.end - grp.begin > 1
                             ? "FusedFilterProject"
                             : ChainNodeName(nodes[grp.begin]->kind);
      frag.node_ids[g] = profile->AddNode(
          name, g == 0 ? obs::ProfileBuilder::kDetached : prev);
      prev = frag.node_ids[g];
    }
    const char* leaf_name = "TableScan";
    if (frag.cut.leaf_kind == plan::FragmentLeaf::kDeltaFiles) {
      leaf_name = "DeltaScan";
    } else if (frag.cut.leaf_kind == plan::FragmentLeaf::kStage) {
      leaf_name = "StageScan";
    }
    frag.leaf_node_id = profile->AddNode(
        leaf_name,
        frag.groups.empty() ? obs::ProfileBuilder::kDetached : prev);
    frag.top_node_id =
        frag.groups.empty() ? frag.leaf_node_id : frag.node_ids[0];
  }

  // Build sides of in-fragment joins: each is materialized by its own
  // (recursive) stages, then hashed by its own partition-parallel build
  // stage into a shared build state. (Joins are always singleton groups.)
  frag.builds.resize(nodes.size());
  for (size_t g = 0; g < frag.groups.size(); g++) {
    size_t idx = static_cast<size_t>(frag.groups[g].begin);
    const plan::PlanNode* node = nodes[idx];
    if (frag.groups[g].unit != nullptr ||
        node->kind != plan::PlanKind::kJoin) {
      continue;
    }
    PHOTON_ASSIGN_OR_RETURN(frag.builds[idx],
                            RunJoinBuild(*node, state, frag.node_ids[g]));
  }

  switch (frag.cut.leaf_kind) {
    case plan::FragmentLeaf::kTable:
      frag.source_table = frag.cut.leaf->table;
      frag.units = frag.source_table->num_batches();
      frag.units_per_morsel = kMorselBatches;
      break;
    case plan::FragmentLeaf::kDeltaFiles: {
      const plan::PlanNode* leaf = frag.cut.leaf.get();
      Schema projected = FileScanOperator::Project(leaf->snapshot.schema,
                                                   leaf->scan_columns);
      frag.files =
          PruneDeltaFiles(leaf->snapshot, leaf->scan_columns,
                          leaf->scan_predicate, projected, &frag.files_pruned);
      frag.units = static_cast<int>(frag.files.size());
      frag.units_per_morsel = kFilesPerMorsel;
      if (profile != nullptr && frag.files_pruned > 0) {
        // Pruning happens once at plan time, not in any task.
        profile->NodeSet(frag.leaf_node_id)
            ->Add(obs::Metric::kFilesPruned, frag.files_pruned);
      }
      break;
    }
    case plan::FragmentLeaf::kStage: {
      PHOTON_ASSIGN_OR_RETURN(
          Table staged, RunNode(frag.cut.leaf, state, frag.leaf_node_id));
      frag.staged = std::make_unique<Table>(std::move(staged));
      frag.source_table = frag.staged.get();
      frag.units = frag.source_table->num_batches();
      frag.units_per_morsel = kMorselBatches;
      break;
    }
  }
  return frag;
}

Result<OperatorPtr> Driver::InstantiateFragment(const StagedFragment& frag,
                                                Morsel morsel,
                                                const ExecContext& task_ctx,
                                                Harvest* harvest) {
  OperatorPtr op;
  if (frag.cut.leaf_kind == plan::FragmentLeaf::kDeltaFiles) {
    const plan::PlanNode* leaf = frag.cut.leaf.get();
    std::vector<std::string> subset(frag.files.begin() + morsel.begin,
                                    frag.files.begin() + morsel.end);
    io::IoOptions io = leaf->scan_io;
    // Read-aheads go to the driver's IO pool; sharing the worker pool
    // would let a prefetch future queue behind the very task waiting on
    // it.
    if (io.prefetch_pool != nullptr) io.prefetch_pool = io_pool_;
    op = OperatorPtr(new FileScanOperator(leaf->store, std::move(subset),
                                          leaf->snapshot.schema,
                                          leaf->scan_columns,
                                          leaf->scan_predicate, io));
  } else {
    op = OperatorPtr(
        new TableSliceScan(frag.source_table, morsel.begin, morsel.end));
  }
  if (harvest != nullptr) harvest->emplace_back(op.get(), frag.leaf_node_id);

  for (int g = static_cast<int>(frag.groups.size()) - 1; g >= 0; g--) {
    const StagedFragment::FusedGroup& grp = frag.groups[g];
    if (grp.unit != nullptr) {
      op = OperatorPtr(new FusedFilterProjectOperator(
          std::move(op), grp.unit, task_ctx.expr_policy));
      if (harvest != nullptr) {
        harvest->emplace_back(op.get(), frag.node_ids[g]);
      }
      continue;
    }
    const plan::PlanNode* node = frag.cut.nodes[grp.begin];
    switch (node->kind) {
      case plan::PlanKind::kFilter:
        op = OperatorPtr(new FilterOperator(std::move(op), node->predicate));
        break;
      case plan::PlanKind::kProject:
        op = OperatorPtr(
            new ProjectOperator(std::move(op), node->exprs, node->names));
        break;
      case plan::PlanKind::kJoin:
        op = OperatorPtr(new HashJoinOperator(
            frag.builds[grp.begin], std::move(op), node->left_keys,
            node->join_type, task_ctx, node->residual));
        break;
      default:
        return Status::Internal("non-streaming node inside fragment");
    }
    if (harvest != nullptr) harvest->emplace_back(op.get(), frag.node_ids[g]);
  }
  return op;
}

Result<int> Driver::RunTasks(int num_items, int stage_id, RunState* state,
                             const TaskFn& fn) {
  const int num_tasks = std::min(num_threads(), num_items);
  obs::ProfileBuilder* profile = state->profile;
  MorselQueue queue(num_items);

  // `max_claims` bounds how many items one invocation drains: the
  // standalone driver launches num_tasks unbounded claim loops (each
  // worker thread drains greedily), while service mode submits one
  // single-claim task per item to the fair scheduler — yielding the
  // worker between items is exactly what lets a peer query's task run.
  auto worker = [&](int max_claims) -> Status {
    const int64_t task_id = profile != nullptr ? profile->NewTaskId() : 0;
    for (int claimed = 0; claimed < max_claims; claimed++) {
      // Claims are cancellation points: a cancelled or deadline-expired
      // query stops claiming work here, and the claim its peers skip is
      // what makes cancellation prompt at 8 threads.
      PHOTON_RETURN_NOT_OK(CheckAlive(state->ctx));
      int item = queue.Next();
      if (item < 0) break;
      PHOTON_RETURN_NOT_OK(fn(item, task_id));
    }
    return Status::OK();
  };

  Status status = Status::OK();
  if (num_items == 1 || (scheduler_ == nullptr && num_tasks <= 1)) {
    // One item (or a single-worker standalone driver): run inline on the
    // calling thread. In service mode this keeps point queries off the
    // shared queues entirely — their single morsel runs on the session's
    // own control thread at zero scheduling latency — but a multi-item
    // stage always goes through the scheduler, whatever its size, so the
    // worker cap and round-robin fairness hold.
    status = worker(num_items);
  } else {
    std::vector<std::future<Status>> futures;
    if (scheduler_ != nullptr) {
      // Service mode: one single-claim task per item on this query's
      // queue. The scheduler drains queues round-robin, so between any
      // two of our items every peer query gets a turn.
      futures.reserve(num_items);
      for (int t = 0; t < num_items; t++) {
        futures.push_back(SubmitTask([&worker] { return worker(1); }));
      }
    } else {
      futures.reserve(num_tasks);
      for (int t = 0; t < num_tasks; t++) {
        futures.push_back(
            SubmitTask([&worker, num_items] { return worker(num_items); }));
      }
    }
    // Join every task before surfacing the first error — peers share the
    // queue and the caller's output slots. (Also a breaker-barrier
    // cancellation point: the post-join CheckAlive below turns "every task
    // bailed at its claim" into a crisp kCancelled for the whole stage.)
    obs::TraceSpan barrier("stage_barrier", stage_id);
    for (auto& f : futures) {
      Status s = f.get();
      if (status.ok() && !s.ok()) status = s;
    }
  }
  if (status.ok()) status = CheckAlive(state->ctx);
  PHOTON_RETURN_NOT_OK(status);
  return num_tasks;
}

void Driver::RecordTask(RunState* state, int stage_id, int64_t task_id,
                        const Harvest& harvest, int64_t cpu0,
                        const Result<Table>& out) {
  obs::ProfileBuilder* profile = state->profile;
  obs::MetricSet* stage_set = profile->StageSet(stage_id);
  for (const auto& [op, nid] : harvest) {
    op->PublishMetrics();
    if (nid >= 0) profile->TaskShard(nid, task_id)->MergeFrom(op->op_metrics());
    stage_set->MergeResourceFrom(op->op_metrics());
  }
  stage_set->Add(obs::Metric::kCpuNs, obs::ThreadCpuNs() - cpu0);
  if (out.ok()) {
    stage_set->Add(obs::Metric::kRowsOut, out->num_rows());
    stage_set->Add(obs::Metric::kBatches, out->num_batches());
  }
}

void Driver::FinishStage(RunState* state, int stage_id, int num_tasks,
                         int64_t t0) {
  StageInfo info;
  info.stage_id = stage_id;
  info.num_tasks = num_tasks;
  const int64_t wall = NowNs() - t0;
  if (state->profile != nullptr) {
    state->profile->StageSet(stage_id)->Add(obs::Metric::kWallNs, wall);
    info.m = state->profile->StageSnapshot(stage_id);
  } else {
    info.m[obs::Metric::kWallNs] = wall;
  }
  if (state->stages != nullptr) state->stages->push_back(info);
}

Result<std::vector<std::unique_ptr<Table>>> Driver::RunMorselStage(
    const StagedFragment& frag, RunState* state, const WrapFn& wrap,
    int wrap_node_id, int stage_id) {
  std::vector<Morsel> morsels =
      SplitMorsels(frag.units, frag.units_per_morsel);
  obs::ProfileBuilder* profile = state->profile;
  if (profile != nullptr) {
    for (int nid : frag.node_ids) profile->SetStage(nid, stage_id);
    profile->SetStage(frag.leaf_node_id, stage_id);
    if (wrap_node_id >= 0) profile->SetStage(wrap_node_id, stage_id);
  }
  int64_t t0 = NowNs();
  std::vector<std::unique_ptr<Table>> slots(morsels.size());

  // One metric shard per (node, task): the shard is only ever touched by
  // that task's thread, so the hot path is uncontended relaxed atomics and
  // the merge happens here, after the morsel is drained — the
  // sharded-then-merged-at-barriers design of §5.2.
  auto run_morsel = [&](int m, int64_t task_id) -> Status {
    obs::TraceSpan morsel_span("morsel", m);
    int64_t cpu0 = profile != nullptr ? obs::ThreadCpuNs() : 0;
    ExecContext task_ctx = state->ctx;
    task_ctx.task_group = NextTaskGroup();
    // Unique per-task spill namespace: concurrent tasks must never
    // collide on object-store spill keys.
    task_ctx.spill_prefix = state->ctx.spill_prefix + "/s" +
                            std::to_string(stage_id) + "-m" +
                            std::to_string(m);
    Harvest harvest;
    PHOTON_ASSIGN_OR_RETURN(
        OperatorPtr op,
        InstantiateFragment(frag, morsels[m], task_ctx,
                            profile != nullptr ? &harvest : nullptr));
    Operator* chain_top = op.get();
    PHOTON_ASSIGN_OR_RETURN(op, wrap(std::move(op), task_ctx));
    if (profile != nullptr && op.get() != chain_top) {
      harvest.emplace_back(op.get(), wrap_node_id);
    }
    Result<Table> out = CollectAll(op.get(), state->ctx.control);
    if (profile != nullptr) {
      RecordTask(state, stage_id, task_id, harvest, cpu0, out);
    }
    PHOTON_RETURN_NOT_OK(out.status());
    slots[m] = std::make_unique<Table>(std::move(*out));
    return Status::OK();
  };
  PHOTON_ASSIGN_OR_RETURN(
      int num_tasks,
      RunTasks(static_cast<int>(morsels.size()), stage_id, state, run_morsel));
  FinishStage(state, stage_id, num_tasks, t0);
  return slots;
}

Result<JoinBuildPtr> Driver::RunJoinBuild(const plan::PlanNode& join,
                                          RunState* state, int join_node) {
  // In the profile the build stage hangs under the join node, next to the
  // probe-side chain, with the build side's own subtree below it.
  obs::ProfileBuilder* profile = state->profile;
  int build_id = -1;
  if (profile != nullptr) build_id = profile->AddNode("HashJoinBuild", join_node);
  PHOTON_ASSIGN_OR_RETURN(Table build_table,
                          RunNode(join.children[1], state, build_id));
  const int stage_id = state->next_stage_id++;
  if (profile != nullptr) profile->SetStage(build_id, stage_id);
  int64_t t0 = NowNs();
  obs::TraceSpan span("join_build", stage_id);
  ExecContext build_ctx = state->ctx;
  build_ctx.task_group = NextTaskGroup();
  PHOTON_ASSIGN_OR_RETURN(
      std::unique_ptr<PartitionedJoinBuild> builder,
      PartitionedJoinBuild::Make(&build_table, join.right_keys, kMorselBatches,
                                 build_ctx));

  // Both phases record each task's time (and the insert phase its rows)
  // into the build node.
  auto timed = [&](int64_t task_id, const std::function<Result<int64_t>()>&
                                        work) -> Status {
    int64_t wall0 = NowNs();
    int64_t cpu0 = profile != nullptr ? obs::ThreadCpuNs() : 0;
    Result<int64_t> rows = work();
    if (profile != nullptr) {
      obs::MetricSet* shard = profile->TaskShard(build_id, task_id);
      shard->Add(obs::Metric::kWallNs, NowNs() - wall0);
      if (rows.ok()) shard->Add(obs::Metric::kRowsOut, *rows);
      profile->StageSet(stage_id)->Add(obs::Metric::kCpuNs,
                                       obs::ThreadCpuNs() - cpu0);
    }
    return rows.status();
  };
  PHOTON_ASSIGN_OR_RETURN(
      int hash_tasks,
      RunTasks(
          builder->num_morsels(), stage_id, state,
          [&](int m, int64_t task_id) {
            return timed(task_id, [&]() -> Result<int64_t> {
              PHOTON_RETURN_NOT_OK(builder->HashMorsel(m));
              return 0;
            });
          }));
  PHOTON_ASSIGN_OR_RETURN(
      int insert_tasks,
      RunTasks(
          builder->num_partitions(), stage_id, state,
          [&](int p, int64_t task_id) {
            return timed(task_id, [&]() -> Result<int64_t> {
              return builder->InsertPartition(p);
            });
          }));
  JoinBuildPtr build = builder->Finish();
  if (profile != nullptr) {
    int64_t peak = std::max(build->peak_reserved_bytes(),
                            build->table->memory_bytes());
    for (obs::MetricSet* set :
         {profile->NodeSet(build_id), profile->StageSet(stage_id)}) {
      set->SetMax(obs::Metric::kPeakReservedBytes, peak);
      set->Add(obs::Metric::kReserveWaitNs, build->reserve_wait_ns());
      set->Add(obs::Metric::kReserveWaits, build->reserve_waits());
    }
    profile->StageSet(stage_id)->Add(obs::Metric::kRowsOut, build->build_rows);
  }
  FinishStage(state, stage_id, std::max(hash_tasks, insert_tasks), t0);
  return build;
}

Result<Table> Driver::RunFragment(const plan::PlanPtr& node, RunState* state,
                                  int parent_node) {
  PHOTON_ASSIGN_OR_RETURN(StagedFragment frag, PrepareFragment(node, state));
  if (state->profile != nullptr) {
    state->profile->SetParent(frag.top_node_id, parent_node);
  }
  WrapFn identity = [](OperatorPtr op, const ExecContext&) {
    return Result<OperatorPtr>(std::move(op));
  };
  PHOTON_ASSIGN_OR_RETURN(
      auto outputs,
      RunMorselStage(frag, state, identity, -1, state->next_stage_id++));
  Table out(node->output_schema);
  for (auto& t : outputs) MoveBatches(t.get(), &out);
  return out;
}

Result<Table> Driver::RunAggregate(const plan::PlanPtr& node,
                                   RunState* state, int parent_node) {
  // Pre-project non-trivial aggregate arguments (DESIGN.md §12): the
  // inserted Project joins the input fragment, where it fuses with the
  // scan-side filter chain; the aggregate then reads plain column refs.
  // `pre` owns the rewritten plan nodes for the rest of this function.
  plan::AggPreProject pre =
      plan::PlanAggPreProject(*node, state->ctx.expr_policy);
  const plan::PlanPtr& input = pre.fired ? pre.input : node->children[0];
  const std::vector<ExprPtr>& keys = pre.fired ? pre.keys : node->group_keys;
  const std::vector<AggregateSpec>& aggs =
      pre.fired ? pre.aggregates : node->aggregates;
  PHOTON_ASSIGN_OR_RETURN(StagedFragment frag,
                          PrepareFragment(input, state));
  const int num_morsels = static_cast<int>(
      SplitMorsels(frag.units, frag.units_per_morsel).size());
  obs::ProfileBuilder* profile = state->profile;

  if (num_morsels <= 1) {
    // One morsel: a classic complete aggregate in one task, no merge
    // stage. (This path is chosen by input size alone, so it is the same
    // at every thread count.)
    int agg_id = -1;
    if (profile != nullptr) {
      agg_id = profile->AddNode("HashAggregate", parent_node);
      profile->SetParent(frag.top_node_id, agg_id);
    }
    WrapFn wrap = [&](OperatorPtr op, const ExecContext& task_ctx) {
      return Result<OperatorPtr>(OperatorPtr(new HashAggregateOperator(
          std::move(op), keys, node->key_names, aggs, task_ctx,
          AggMode::kComplete)));
    };
    PHOTON_ASSIGN_OR_RETURN(
        auto outputs,
        RunMorselStage(frag, state, wrap, agg_id, state->next_stage_id++));
    return std::move(*outputs[0]);
  }

  // Partial stage: one exact partial aggregate per morsel, emitting
  // serialized (key, state) blobs; the profile mirrors the physical shape
  // as Final <- Partial <- input chain.
  int final_id = -1;
  int partial_id = -1;
  if (profile != nullptr) {
    final_id = profile->AddNode("HashAggregateFinal", parent_node);
    partial_id = profile->AddNode("HashAggregatePartial", final_id);
    profile->SetParent(frag.top_node_id, partial_id);
  }
  WrapFn wrap = [&](OperatorPtr op, const ExecContext& task_ctx) {
    return Result<OperatorPtr>(OperatorPtr(new HashAggregateOperator(
        std::move(op), keys, node->key_names, aggs, task_ctx,
        AggMode::kPartial)));
  };
  PHOTON_ASSIGN_OR_RETURN(
      auto outputs,
      RunMorselStage(frag, state, wrap, partial_id, state->next_stage_id++));

  // Final stage: a hash-partitioned merge, the exchange between partial
  // and final aggregation of §2.2. Partial outputs arrive as
  // single-partition batches; each partition's batches, in morsel order,
  // feed one merge task, and the result is the partitions concatenated in
  // partition order — so rows and order do not depend on the thread
  // count. A scalar aggregate merges in a single task.
  const int stage_id = state->next_stage_id++;
  int64_t t0 = NowNs();
  if (profile != nullptr) profile->SetStage(final_id, stage_id);
  const int num_parts =
      keys.empty() ? 1 : HashAggregateOperator::kNumPartitions;
  std::vector<Table> inputs;
  inputs.reserve(num_parts);
  for (int p = 0; p < num_parts; p++) {
    inputs.emplace_back(HashAggregateOperator::PartialOutputSchema());
  }
  for (auto& t : outputs) {
    for (std::unique_ptr<ColumnBatch>& batch : t->TakeBatches()) {
      if (batch->num_active() == 0) continue;
      const int p = keys.empty()
                        ? 0
                        : batch->column(0)->data<int32_t>()[batch->ActiveRow(0)];
      inputs[p].AppendBatch(std::move(batch));
    }
  }
  outputs.clear();

  std::vector<std::unique_ptr<Table>> parts(num_parts);
  auto merge_partition = [&](int p, int64_t task_id) -> Status {
    obs::TraceSpan span("agg_merge", p);
    int64_t cpu0 = profile != nullptr ? obs::ThreadCpuNs() : 0;
    // Each merge task is its own memory task group with its own spill
    // namespace, like a morsel task.
    ExecContext merge_ctx = state->ctx;
    merge_ctx.task_group = NextTaskGroup();
    merge_ctx.spill_prefix = state->ctx.spill_prefix + "/s" +
                             std::to_string(stage_id) + "-p" +
                             std::to_string(p);
    HashAggregateOperator merge(
        OperatorPtr(new InMemoryScanOperator(&inputs[p])), keys,
        node->key_names, aggs, merge_ctx, AggMode::kFinalMerge);
    Result<Table> out = CollectAll(&merge, state->ctx.control);
    inputs[p].TakeBatches();  // the partition's blobs are merged
    if (profile != nullptr) {
      RecordTask(state, stage_id, task_id, {{&merge, final_id}}, cpu0, out);
    }
    PHOTON_RETURN_NOT_OK(out.status());
    parts[p] = std::make_unique<Table>(std::move(*out));
    return Status::OK();
  };
  PHOTON_ASSIGN_OR_RETURN(int num_tasks,
                          RunTasks(num_parts, stage_id, state, merge_partition));
  FinishStage(state, stage_id, num_tasks, t0);
  Table out(parts[0]->schema());
  for (auto& t : parts) MoveBatches(t.get(), &out);
  return out;
}

Result<Table> Driver::RunSort(const plan::PlanPtr& node, RunState* state,
                              int parent_node) {
  PHOTON_ASSIGN_OR_RETURN(StagedFragment frag,
                          PrepareFragment(node->children[0], state));
  const int num_morsels = static_cast<int>(
      SplitMorsels(frag.units, frag.units_per_morsel).size());
  obs::ProfileBuilder* profile = state->profile;

  // One sorted run per morsel; with several morsels a deterministic k-way
  // merge stage sits above the runs (SortMerge <- Sort <- input).
  int sort_id = -1;
  int sort_merge_id = -1;
  if (profile != nullptr) {
    if (num_morsels > 1) {
      sort_merge_id = profile->AddNode("SortMerge", parent_node);
      sort_id = profile->AddNode("Sort", sort_merge_id);
    } else {
      sort_id = profile->AddNode("Sort", parent_node);
    }
    profile->SetParent(frag.top_node_id, sort_id);
  }
  WrapFn wrap = [&](OperatorPtr op, const ExecContext& task_ctx) {
    return Result<OperatorPtr>(OperatorPtr(
        new SortOperator(std::move(op), node->sort_keys, task_ctx)));
  };
  PHOTON_ASSIGN_OR_RETURN(
      auto outputs,
      RunMorselStage(frag, state, wrap, sort_id, state->next_stage_id++));
  if (outputs.size() == 1) return std::move(*outputs[0]);

  // Merge stage: deterministic k-way merge of the runs (ties resolve to
  // the lowest morsel index).
  int64_t t0 = NowNs();
  const int merge_stage = state->next_stage_id++;
  // Breaker-barrier cancellation point: don't start a k-way merge for a
  // query that was cancelled while its runs were sorting.
  PHOTON_RETURN_NOT_OK(CheckAlive(state->ctx));
  std::vector<Table*> runs;
  runs.reserve(outputs.size());
  for (auto& t : outputs) {
    if (t != nullptr) runs.push_back(t.get());
  }
  Result<Table> merged = MergeSortedRuns(runs, node->sort_keys,
                                         node->output_schema,
                                         state->ctx.batch_size);
  if (profile != nullptr) {
    // MergeSortedRuns is a free function, not an Operator: record its
    // contribution into the SortMerge node by hand.
    profile->SetStage(sort_merge_id, merge_stage);
    obs::MetricSet* shard =
        profile->TaskShard(sort_merge_id, profile->NewTaskId());
    shard->Add(obs::Metric::kWallNs, NowNs() - t0);
    obs::MetricSet* stage_set = profile->StageSet(merge_stage);
    if (merged.ok()) {
      shard->Add(obs::Metric::kRowsOut, merged->num_rows());
      shard->Add(obs::Metric::kBatches, merged->num_batches());
      stage_set->Add(obs::Metric::kRowsOut, merged->num_rows());
      stage_set->Add(obs::Metric::kBatches, merged->num_batches());
    }
  }
  FinishStage(state, merge_stage, 1, t0);
  return merged;
}

// ---------------------------------------------------------------------------
// Single-task entry point
// ---------------------------------------------------------------------------

Result<Table> Driver::RunSingleTask(const plan::PlanPtr& plan,
                                    ExecContext ctx, StageInfo* stage) {
  if (ctx.optimizer == OptimizerPolicy::kOn) {
    PHOTON_RETURN_NOT_OK(plan::CheckPlanExprDepths(*plan));
    ExecContext off = ctx;
    off.optimizer = OptimizerPolicy::kOff;
    return RunSingleTask(opt::Optimize(plan), off, stage);
  }
  PHOTON_ASSIGN_OR_RETURN(OperatorPtr root, plan::CompilePhoton(plan, ctx));
  int64_t t0 = NowNs();
  Result<Table> result = CollectAll(root.get(), ctx.control);
  if (stage != nullptr) {
    stage->num_tasks = 1;
    // Resource metrics (IO, memory, spill) fold over the whole tree into
    // the stage view; rows/wall come from the root.
    CollectTreeMetrics(root.get(), &stage->m);
    stage->m[obs::Metric::kWallNs] = NowNs() - t0;
    if (result.ok()) {
      stage->m[obs::Metric::kRowsOut] = result->num_rows();
      stage->m[obs::Metric::kBatches] = result->num_batches();
    }
  }
  return result;
}

}  // namespace exec
}  // namespace photon
