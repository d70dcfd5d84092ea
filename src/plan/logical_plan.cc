#include "plan/logical_plan.h"

#include "baseline/row_agg.h"
#include "baseline/row_join.h"
#include "baseline/row_ops.h"
#include "baseline/row_sort.h"
#include "expr/fusion.h"
#include "expr/program.h"
#include "ops/file_scan.h"
#include "plan/transition.h"

namespace photon {
namespace plan {
namespace {

Schema AggSchema(const std::vector<ExprPtr>& keys,
                 const std::vector<std::string>& key_names,
                 const std::vector<AggregateSpec>& aggs) {
  Schema schema;
  for (size_t i = 0; i < keys.size(); i++) {
    schema.AddField(Field(key_names[i], keys[i]->type()));
  }
  for (const AggregateSpec& spec : aggs) {
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->type() : DataType::Int64();
    Result<DataType> result = AggResultType(spec.kind, arg_type);
    PHOTON_CHECK(result.ok());
    schema.AddField(Field(spec.name, *result));
  }
  return schema;
}

bool IsFusable(PlanKind kind) {
  return kind == PlanKind::kFilter || kind == PlanKind::kProject;
}

/// Depth-checks every expression hanging off one plan node (not its
/// children — CompileBaseline recurses per node, so each node is checked
/// exactly once on the way down; CheckPlanExprDepths walks the whole
/// tree). Gates all the recursive walkers behind it:
/// canonicalization, program flattening, tree Evaluate.
Status CheckNodeExprDepths(const PlanNode& node) {
  std::vector<const ExprPtr*> exprs;
  if (node.predicate != nullptr) exprs.push_back(&node.predicate);
  if (node.scan_predicate != nullptr) exprs.push_back(&node.scan_predicate);
  if (node.residual != nullptr) exprs.push_back(&node.residual);
  for (const ExprPtr& e : node.exprs) exprs.push_back(&e);
  for (const ExprPtr& e : node.group_keys) exprs.push_back(&e);
  for (const ExprPtr& e : node.left_keys) exprs.push_back(&e);
  for (const ExprPtr& e : node.right_keys) exprs.push_back(&e);
  for (const AggregateSpec& spec : node.aggregates) {
    if (spec.arg != nullptr) exprs.push_back(&spec.arg);
  }
  for (const SortKey& k : node.sort_keys) exprs.push_back(&k.expr);
  for (const ExprPtr* e : exprs) {
    PHOTON_RETURN_NOT_OK(CheckExpressionDepth(**e));
  }
  return Status::OK();
}

FusedStage StageOf(const PlanNode& node) {
  FusedStage stage;
  stage.is_filter = node.kind == PlanKind::kFilter;
  if (stage.is_filter) {
    stage.predicate = node.predicate;
  } else {
    stage.exprs = node.exprs;
    stage.names = node.names;
  }
  return stage;
}

}  // namespace

PlanPtr Scan(const Table* table) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kScan;
  node->table = table;
  node->output_schema = table->schema();
  return node;
}

PlanPtr DeltaScan(ObjectStore* store, DeltaSnapshot snapshot,
                  std::vector<int> columns, ExprPtr predicate,
                  io::IoOptions io) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kDeltaScan;
  node->store = store;
  node->output_schema =
      FileScanOperator::Project(snapshot.schema, columns);
  node->snapshot = std::move(snapshot);
  node->scan_columns = std::move(columns);
  node->scan_predicate = std::move(predicate);
  node->scan_io = io;
  // Planning-time stats come straight from the log's zone maps and NDV
  // sketches — no data-file reads.
  node->stats = StatsFromSnapshot(node->snapshot, node->scan_columns);
  return node;
}

PlanPtr Filter(PlanPtr child, ExprPtr predicate) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kFilter;
  node->output_schema = child->output_schema;
  node->children.push_back(std::move(child));
  node->predicate = std::move(predicate);
  return node;
}

PlanPtr Project(PlanPtr child, std::vector<ExprPtr> exprs,
                std::vector<std::string> names) {
  PHOTON_CHECK(exprs.size() == names.size());
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kProject;
  for (size_t i = 0; i < exprs.size(); i++) {
    node->output_schema.AddField(Field(names[i], exprs[i]->type()));
  }
  node->children.push_back(std::move(child));
  node->exprs = std::move(exprs);
  node->names = std::move(names);
  return node;
}

PlanPtr Aggregate(PlanPtr child, std::vector<ExprPtr> keys,
                  std::vector<std::string> key_names,
                  std::vector<AggregateSpec> aggs) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kAggregate;
  node->output_schema = AggSchema(keys, key_names, aggs);
  node->children.push_back(std::move(child));
  node->group_keys = std::move(keys);
  node->key_names = std::move(key_names);
  node->aggregates = std::move(aggs);
  return node;
}

PlanPtr Join(PlanPtr probe, PlanPtr build, JoinType type,
             std::vector<ExprPtr> probe_keys,
             std::vector<ExprPtr> build_keys, ExprPtr residual) {
  PHOTON_CHECK(probe_keys.size() == build_keys.size());
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kJoin;
  node->join_type = type;
  node->output_schema = baseline::JoinOutputSchema(
      probe->output_schema, build->output_schema, type);
  node->children.push_back(std::move(probe));
  node->children.push_back(std::move(build));
  node->left_keys = std::move(probe_keys);
  node->right_keys = std::move(build_keys);
  node->residual = std::move(residual);
  return node;
}

PlanPtr Sort(PlanPtr child, std::vector<SortKey> keys) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kSort;
  node->output_schema = child->output_schema;
  node->children.push_back(std::move(child));
  node->sort_keys = std::move(keys);
  return node;
}

PlanPtr Limit(PlanPtr child, int64_t n) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kLimit;
  node->output_schema = child->output_schema;
  node->children.push_back(std::move(child));
  node->limit = n;
  return node;
}

int ColIndex(const PlanPtr& plan, const std::string& name) {
  int idx = plan->output_schema.FieldIndex(name);
  PHOTON_CHECK(idx >= 0);
  return idx;
}

ExprPtr ColOf(const PlanPtr& plan, const std::string& name) {
  int idx = ColIndex(plan, name);
  return std::make_shared<ColumnRefExpr>(
      idx, plan->output_schema.field(idx).type, name);
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(indent * 2, ' ');
  std::string out = pad;
  switch (kind) {
    case PlanKind::kScan:
      out += "Scan";
      break;
    case PlanKind::kDeltaScan:
      out += "DeltaScan(files=" + std::to_string(snapshot.files.size()) + ")";
      break;
    case PlanKind::kFilter:
      out += "Filter(" + predicate->ToString() + ")";
      break;
    case PlanKind::kProject:
      out += "Project";
      break;
    case PlanKind::kAggregate:
      out += "Aggregate(keys=" + std::to_string(group_keys.size()) +
             ", aggs=" + std::to_string(aggregates.size()) + ")";
      break;
    case PlanKind::kJoin: {
      switch (join_type) {
        case JoinType::kInner:
          out += "Join(inner";
          break;
        case JoinType::kLeftOuter:
          out += "Join(left-outer";
          break;
        case JoinType::kLeftSemi:
          out += "Join(left-semi";
          break;
        case JoinType::kLeftAnti:
          out += "Join(left-anti";
          break;
      }
      if (residual != nullptr) out += ", residual=" + residual->ToString();
      out += ")";
      break;
    }
    case PlanKind::kSort:
      out += "Sort";
      break;
    case PlanKind::kLimit:
      out += "Limit(" + std::to_string(limit) + ")";
      break;
  }
  out += "\n";
  for (const PlanPtr& child : children) {
    out += child->ToString(indent + 1);
  }
  return out;
}

Status CheckPlanExprDepths(const PlanNode& root) {
  PHOTON_RETURN_NOT_OK(CheckNodeExprDepths(root));
  for (const PlanPtr& child : root.children) {
    PHOTON_RETURN_NOT_OK(CheckPlanExprDepths(*child));
  }
  return Status::OK();
}

Result<FusedRun> FuseFilterProjectRun(const PlanNode& root,
                                      ExprPolicy policy) {
  FusedRun run;
  if (policy == ExprPolicy::kTreeOnly) return run;
  // Walk down to the first non-fusable node; stages are fed bottom-up.
  std::vector<const PlanNode*> nodes;
  const PlanNode* cur = &root;
  while (IsFusable(cur->kind)) {
    nodes.push_back(cur);
    cur = cur->children[0].get();
  }
  if (nodes.empty()) return run;
  std::vector<FusedStage> stages;
  stages.reserve(nodes.size());
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    stages.push_back(StageOf(**it));
  }
  PHOTON_ASSIGN_OR_RETURN(run.unit,
                          FusedUnit::Compile(stages, cur->output_schema));
  run.length = static_cast<int>(nodes.size());
  return run;
}

AggPreProject PlanAggPreProject(const PlanNode& agg, ExprPolicy policy) {
  AggPreProject out;
  PHOTON_CHECK(agg.kind == PlanKind::kAggregate);
  if (policy == ExprPolicy::kTreeOnly) return out;
  auto is_trivial = [](const ExprPtr& e) {
    return e == nullptr ||
           dynamic_cast<const ColumnRefExpr*>(e.get()) != nullptr ||
           dynamic_cast<const LiteralExpr*>(e.get()) != nullptr;
  };
  bool any = false;
  for (const AggregateSpec& spec : agg.aggregates) {
    if (!is_trivial(spec.arg)) {
      any = true;
      break;
    }
  }
  if (!any) return out;

  // One project slot per distinct key/argument expression; duplicates
  // (canonical form, column refs by index) share a slot, so e.g. Q1's
  // repeated price*(1-disc) is evaluated once per row.
  std::vector<ExprPtr> slots;
  std::vector<std::string> slot_names;
  std::vector<std::string> slot_keys;
  auto slot_of = [&](const ExprPtr& e) -> ExprPtr {
    std::string key = ExprCanonKey(*e);
    for (size_t i = 0; i < slot_keys.size(); i++) {
      if (slot_keys[i] == key) {
        return std::make_shared<ColumnRefExpr>(static_cast<int>(i),
                                               slots[i]->type(),
                                               slot_names[i]);
      }
    }
    int idx = static_cast<int>(slots.size());
    slots.push_back(e);
    slot_keys.push_back(std::move(key));
    slot_names.push_back("_p" + std::to_string(idx));
    return std::make_shared<ColumnRefExpr>(idx, e->type(), slot_names[idx]);
  };

  out.keys.reserve(agg.group_keys.size());
  for (const ExprPtr& k : agg.group_keys) out.keys.push_back(slot_of(k));
  out.aggregates = agg.aggregates;
  for (AggregateSpec& spec : out.aggregates) {
    // Literal arguments reference no input; keep them in the spec.
    if (spec.arg == nullptr ||
        dynamic_cast<const LiteralExpr*>(spec.arg.get()) != nullptr) {
      continue;
    }
    spec.arg = slot_of(spec.arg);
  }
  out.input = Project(agg.children[0], std::move(slots),
                      std::move(slot_names));
  out.fired = true;
  return out;
}

Result<baseline::RowOperatorPtr> CompileBaseline(
    const PlanPtr& plan, BaselineJoinImpl join_impl) {
  using baseline::RowOperatorPtr;
  PHOTON_RETURN_NOT_OK(CheckNodeExprDepths(*plan));
  switch (plan->kind) {
    case PlanKind::kScan:
      return RowOperatorPtr(new baseline::RowScanOperator(plan->table));
    case PlanKind::kDeltaScan: {
      // Spark's scan also produces columnar data and pivots to rows (§5.2):
      // the baseline reads through the columnar scan wrapped in a
      // transition node.
      OperatorPtr scan(new DeltaScanOperator(plan->store, plan->snapshot,
                                             plan->scan_columns,
                                             plan->scan_predicate,
                                             plan->scan_io));
      return RowOperatorPtr(new TransitionOperator(std::move(scan)));
    }
    case PlanKind::kFilter: {
      PHOTON_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              CompileBaseline(plan->children[0], join_impl));
      return RowOperatorPtr(
          new baseline::RowFilterOperator(std::move(child), plan->predicate));
    }
    case PlanKind::kProject: {
      PHOTON_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              CompileBaseline(plan->children[0], join_impl));
      return RowOperatorPtr(new baseline::RowProjectOperator(
          std::move(child), plan->exprs, plan->names));
    }
    case PlanKind::kAggregate: {
      PHOTON_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              CompileBaseline(plan->children[0], join_impl));
      return RowOperatorPtr(new baseline::RowHashAggregateOperator(
          std::move(child), plan->group_keys, plan->key_names,
          plan->aggregates));
    }
    case PlanKind::kJoin: {
      PHOTON_ASSIGN_OR_RETURN(RowOperatorPtr left,
                              CompileBaseline(plan->children[0], join_impl));
      PHOTON_ASSIGN_OR_RETURN(RowOperatorPtr right,
                              CompileBaseline(plan->children[1], join_impl));
      if (join_impl == BaselineJoinImpl::kSortMerge) {
        return RowOperatorPtr(new baseline::RowSortMergeJoinOperator(
            std::move(left), std::move(right), plan->left_keys,
            plan->right_keys, plan->join_type, plan->residual));
      }
      return RowOperatorPtr(new baseline::RowShuffledHashJoinOperator(
          std::move(left), std::move(right), plan->left_keys,
          plan->right_keys, plan->join_type, plan->residual));
    }
    case PlanKind::kSort: {
      PHOTON_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              CompileBaseline(plan->children[0], join_impl));
      return RowOperatorPtr(
          new baseline::RowSortOperator(std::move(child), plan->sort_keys));
    }
    case PlanKind::kLimit: {
      PHOTON_ASSIGN_OR_RETURN(RowOperatorPtr child,
                              CompileBaseline(plan->children[0], join_impl));
      return RowOperatorPtr(
          new baseline::RowLimitOperator(std::move(child), plan->limit));
    }
  }
  return Status::Internal("bad plan kind");
}

}  // namespace plan
}  // namespace photon
