#include "opt/optimizer.h"

#include <algorithm>
#include <limits>
#include <string>
#include <unordered_set>

#include "expr/program.h"
#include "opt/expr_rewrite.h"
#include "opt/stats.h"

namespace photon {
namespace opt {
namespace {

using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

PlanPtr CloneShallow(const PlanPtr& node) {
  return std::make_shared<PlanNode>(*node);
}

bool IsTrivialExpr(const ExprPtr& e) {
  return dynamic_cast<const ColumnRefExpr*>(e.get()) != nullptr ||
         dynamic_cast<const LiteralExpr*>(e.get()) != nullptr;
}

/// True when every column `pred` references maps to a trivial expression in
/// `exprs` (so substitution duplicates no computation).
bool RefsAreTrivial(const Expr& pred, const std::vector<ExprPtr>& exprs) {
  for (int c : ReferencedColumns(pred)) {
    if (c < 0 || c >= static_cast<int>(exprs.size())) return false;
    if (!IsTrivialExpr(exprs[c])) return false;
  }
  return true;
}

PlanPtr ApplyPreds(PlanPtr node, const std::vector<ExprPtr>& preds) {
  ExprPtr combined = AndAll(preds);
  return combined == nullptr ? node : plan::Filter(std::move(node), combined);
}

// ---------------------------------------------------------------------------
// Pass 1: filter pushdown
// ---------------------------------------------------------------------------

/// Rebuilds `node` with `preds` (conjuncts over node's output schema,
/// inherited from enclosing Filters) applied as low as possible. The result
/// always has node's output schema.
PlanPtr PushDown(const PlanPtr& node, std::vector<ExprPtr> preds) {
  switch (node->kind) {
    case PlanKind::kFilter: {
      // The node's own conjuncts sit below the inherited ones.
      std::vector<ExprPtr> merged;
      SplitConjuncts(node->predicate, &merged);
      merged.insert(merged.end(), preds.begin(), preds.end());
      return PushDown(node->children[0], std::move(merged));
    }
    case PlanKind::kProject: {
      std::vector<ExprPtr> pushable, kept;
      for (ExprPtr& p : preds) {
        ExprPtr sub = RefsAreTrivial(*p, node->exprs)
                          ? SubstituteColumns(p, node->exprs)
                          : nullptr;
        if (sub != nullptr) {
          pushable.push_back(std::move(sub));
        } else {
          kept.push_back(std::move(p));
        }
      }
      PlanPtr out = plan::Project(PushDown(node->children[0], std::move(pushable)),
                                  node->exprs, node->names);
      return ApplyPreds(std::move(out), kept);
    }
    case PlanKind::kAggregate: {
      // Predicates over group-key outputs filter groups; filtering the
      // matching input rows first yields the same groups. Only column-ref
      // keys substitute soundly and cheaply. A zero-key (scalar) aggregate
      // produces one row even over empty input, so nothing may sink past
      // it — not even a constant predicate (found by differ mode 8,
      // pinned in fuzz_regression_test).
      if (node->group_keys.empty()) {
        return ApplyPreds(plan::Aggregate(PushDown(node->children[0], {}),
                                          node->group_keys, node->key_names,
                                          node->aggregates),
                          preds);
      }
      std::vector<ExprPtr> repl(node->output_schema.num_fields(), nullptr);
      for (size_t i = 0; i < node->group_keys.size(); i++) {
        if (IsTrivialExpr(node->group_keys[i])) repl[i] = node->group_keys[i];
      }
      std::vector<ExprPtr> pushable, kept;
      for (ExprPtr& p : preds) {
        ExprPtr sub = SubstituteColumns(p, repl);
        if (sub != nullptr) {
          pushable.push_back(std::move(sub));
        } else {
          kept.push_back(std::move(p));
        }
      }
      PlanPtr out = plan::Aggregate(
          PushDown(node->children[0], std::move(pushable)), node->group_keys,
          node->key_names, node->aggregates);
      return ApplyPreds(std::move(out), kept);
    }
    case PlanKind::kJoin: {
      int lw = node->children[0]->output_schema.num_fields();
      bool right_ok = node->join_type == JoinType::kInner;
      std::vector<ExprPtr> left_preds, right_preds, kept;
      for (ExprPtr& p : preds) {
        std::vector<int> cols = ReferencedColumns(*p);
        bool all_left = cols.empty() || cols.back() < lw;
        bool all_right = !cols.empty() && cols.front() >= lw;
        if (all_left) {
          // Probe columns are the output prefix for every join type and are
          // never NULL-padded, so probe-side pushdown is always sound.
          left_preds.push_back(std::move(p));
          continue;
        }
        if (all_right && right_ok) {
          // Build-side pushdown only for inner joins — an outer join pads
          // the build side with NULLs, which a pushed filter would miss.
          ExprPtr shifted = ShiftColumns(p, -lw);
          if (shifted != nullptr) {
            right_preds.push_back(std::move(shifted));
            continue;
          }
        }
        kept.push_back(std::move(p));
      }
      PlanPtr out = plan::Join(
          PushDown(node->children[0], std::move(left_preds)),
          PushDown(node->children[1], std::move(right_preds)),
          node->join_type, node->left_keys, node->right_keys, node->residual);
      return ApplyPreds(std::move(out), kept);
    }
    case PlanKind::kSort: {
      // Filter-then-sort and sort-then-filter agree on content and on the
      // relative order of survivors.
      return plan::Sort(PushDown(node->children[0], std::move(preds)),
                        node->sort_keys);
    }
    case PlanKind::kLimit: {
      // Never push through a limit — it would change which rows are cut.
      PlanPtr out = plan::Limit(PushDown(node->children[0], {}), node->limit);
      return ApplyPreds(std::move(out), preds);
    }
    case PlanKind::kDeltaScan: {
      // Merge into the scan predicate: FileScanOperator both prunes
      // files/row groups on it (zone maps) and enforces it row-level, and
      // the baseline compiles kDeltaScan to the same scan operator, so the
      // merge is exactly semantics-preserving. Deduplicate by canonical
      // form — fuzzed plans often carry the same conjunct as both scan
      // predicate and Filter.
      std::vector<ExprPtr> merged;
      SplitConjuncts(node->scan_predicate, &merged);
      std::unordered_set<std::string> seen;
      for (const ExprPtr& c : merged) seen.insert(ExprCanonKey(*c));
      bool changed = false;
      for (ExprPtr& p : preds) {
        if (seen.insert(ExprCanonKey(*p)).second) {
          merged.push_back(std::move(p));
          changed = true;
        }
      }
      if (!changed) return node;
      PlanPtr out = CloneShallow(node);
      out->scan_predicate = AndAll(merged);
      return out;
    }
    case PlanKind::kScan:
      return ApplyPreds(node, preds);
  }
  return ApplyPreds(node, preds);
}

// ---------------------------------------------------------------------------
// Pass 2: semi-join reduction
// ---------------------------------------------------------------------------

/// Sinks a keyed semi/anti join (`type`, build `build` with `build_keys`)
/// into `probe`, descending while a child can absorb it: through filters
/// and trivial projects (both commute with a probe-row filter), and into
/// whichever side of an inner (or, for the probe side, left-outer) join
/// supplies every key column.
PlanPtr SinkSemiInto(const PlanPtr& probe, std::vector<ExprPtr> keys,
                     const PlanPtr& build,
                     const std::vector<ExprPtr>& build_keys, JoinType type) {
  if (probe->kind == PlanKind::kFilter) {
    return plan::Filter(
        SinkSemiInto(probe->children[0], std::move(keys), build, build_keys,
                     type),
        probe->predicate);
  }
  if (probe->kind == PlanKind::kProject) {
    std::vector<ExprPtr> rewritten;
    rewritten.reserve(keys.size());
    bool ok = true;
    for (const ExprPtr& k : keys) {
      ExprPtr sub = RefsAreTrivial(*k, probe->exprs)
                        ? SubstituteColumns(k, probe->exprs)
                        : nullptr;
      if (sub == nullptr) {
        ok = false;
        break;
      }
      rewritten.push_back(std::move(sub));
    }
    if (ok) {
      return plan::Project(
          SinkSemiInto(probe->children[0], std::move(rewritten), build,
                       build_keys, type),
          probe->exprs, probe->names);
    }
  }
  if (probe->kind == PlanKind::kJoin &&
      (probe->join_type == JoinType::kInner ||
       probe->join_type == JoinType::kLeftOuter)) {
    int lw = probe->children[0]->output_schema.num_fields();
    std::vector<int> cols;
    for (const ExprPtr& k : keys) {
      for (int c : ReferencedColumns(*k)) cols.push_back(c);
    }
    bool all_left = cols.empty() ||
                    *std::max_element(cols.begin(), cols.end()) < lw;
    bool all_right =
        !cols.empty() && *std::min_element(cols.begin(), cols.end()) >= lw;
    if (all_left) {
      return plan::Join(
          SinkSemiInto(probe->children[0], std::move(keys), build, build_keys,
                       type),
          probe->children[1], probe->join_type, probe->left_keys,
          probe->right_keys, probe->residual);
    }
    if (all_right && probe->join_type == JoinType::kInner) {
      std::vector<ExprPtr> shifted;
      shifted.reserve(keys.size());
      bool ok = true;
      for (const ExprPtr& k : keys) {
        ExprPtr s = ShiftColumns(k, -lw);
        if (s == nullptr) {
          ok = false;
          break;
        }
        shifted.push_back(std::move(s));
      }
      if (ok) {
        return plan::Join(probe->children[0],
                          SinkSemiInto(probe->children[1], std::move(shifted),
                                       build, build_keys, type),
                          probe->join_type, probe->left_keys,
                          probe->right_keys, probe->residual);
      }
    }
  }
  return plan::Join(probe, build, type, std::move(keys), build_keys, nullptr);
}

PlanPtr SinkSemiPass(const PlanPtr& node) {
  PlanPtr copy = CloneShallow(node);
  for (PlanPtr& child : copy->children) child = SinkSemiPass(child);
  if (copy->kind == PlanKind::kJoin &&
      (copy->join_type == JoinType::kLeftSemi ||
       copy->join_type == JoinType::kLeftAnti) &&
      copy->residual == nullptr) {
    return SinkSemiInto(copy->children[0], copy->left_keys, copy->children[1],
                        copy->right_keys, copy->join_type);
  }
  return copy;
}

// ---------------------------------------------------------------------------
// Pass 3: cost-based join reordering
// ---------------------------------------------------------------------------

/// One input of a flattened inner-join cluster. Its output columns occupy
/// the contiguous global range [offset, offset + width).
struct ClusterPart {
  PlanPtr plan;
  int offset = 0;
  int width = 0;
};

struct Cluster {
  std::vector<ClusterPart> parts;
  std::vector<ExprPtr> conjuncts;  // over the global column space
};

/// Clusters can't usefully grow past a handful of inputs, and the greedy
/// composition re-estimates the growing tree each step; cap to keep
/// pathological fuzz plans linear.
constexpr int kMaxClusterParts = 10;

/// True when `n` is interior to an inner-join cluster: an inner join, or a
/// filter stack over one.
bool IsClusterInterior(const PlanNode& n) {
  if (n.kind == PlanKind::kJoin) return n.join_type == JoinType::kInner;
  if (n.kind == PlanKind::kFilter) return IsClusterInterior(*n.children[0]);
  return false;
}

/// Flattens the maximal cluster under `node` into `out`, translating every
/// predicate, key pair, and residual into conjuncts over the global column
/// space (in-order concatenation of part outputs). Returns the subtree's
/// global width, or -1 when any expression resists translation.
int FlattenCluster(const PlanPtr& node, int base, Cluster* out) {
  if (node->kind == PlanKind::kFilter &&
      IsClusterInterior(*node->children[0])) {
    int w = FlattenCluster(node->children[0], base, out);
    if (w < 0) return -1;
    std::vector<ExprPtr> split;
    SplitConjuncts(node->predicate, &split);
    for (const ExprPtr& c : split) {
      ExprPtr g = ShiftColumns(c, base);
      if (g == nullptr) return -1;
      out->conjuncts.push_back(std::move(g));
    }
    return w;
  }
  if (node->kind == PlanKind::kJoin && node->join_type == JoinType::kInner) {
    int wl = FlattenCluster(node->children[0], base, out);
    if (wl < 0) return -1;
    int wr = FlattenCluster(node->children[1], base + wl, out);
    if (wr < 0) return -1;
    for (size_t i = 0; i < node->left_keys.size(); i++) {
      ExprPtr l = ShiftColumns(node->left_keys[i], base);
      ExprPtr r = ShiftColumns(node->right_keys[i], base + wl);
      if (l == nullptr || r == nullptr) return -1;
      out->conjuncts.push_back(
          std::make_shared<ComparisonExpr>(CmpOp::kEq, l, r));
    }
    if (node->residual != nullptr) {
      // The residual's [left cols, right cols] space is the global space
      // shifted down by `base`.
      std::vector<ExprPtr> split;
      SplitConjuncts(node->residual, &split);
      for (const ExprPtr& c : split) {
        ExprPtr g = ShiftColumns(c, base);
        if (g == nullptr) return -1;
        out->conjuncts.push_back(std::move(g));
      }
    }
    return wl + wr;
  }
  int w = node->output_schema.num_fields();
  out->parts.push_back({node, base, w});
  return w;
}

bool AllRefsIn(const std::vector<int>& refs, const std::vector<bool>& in) {
  for (int c : refs) {
    if (c < 0 || c >= static_cast<int>(in.size()) || !in[c]) return false;
  }
  return true;
}

/// A conjunct usable as a hash-key pair between the placed set and a
/// candidate part: a plain equality whose sides split cleanly across the
/// boundary with exactly matching non-float types (float keys keep their
/// engine-specific NaN/-0.0 hashing out of the build table).
struct KeyEdge {
  ExprPtr placed_side;
  ExprPtr cand_side;
};

bool QualifyKeyEdge(const ExprPtr& conjunct, const std::vector<bool>& placed,
                    const std::vector<bool>& cand, KeyEdge* out) {
  const auto* cmp = dynamic_cast<const ComparisonExpr*>(conjunct.get());
  if (cmp == nullptr || cmp->op() != CmpOp::kEq) return false;
  std::vector<ExprPtr> kids = cmp->children();
  if (!(kids[0]->type() == kids[1]->type()) ||
      kids[0]->type().id() == TypeId::kFloat64) {
    return false;
  }
  std::vector<int> refs_a = ReferencedColumns(*kids[0]);
  std::vector<int> refs_b = ReferencedColumns(*kids[1]);
  if (AllRefsIn(refs_a, placed) && AllRefsIn(refs_b, cand)) {
    *out = {kids[0], kids[1]};
    return true;
  }
  if (AllRefsIn(refs_b, placed) && AllRefsIn(refs_a, cand)) {
    *out = {kids[1], kids[0]};
    return true;
  }
  return false;
}

double KeySideNdv(const ExprPtr& side, const std::vector<ColEstimate>& gcols) {
  const auto* col = dynamic_cast<const ColumnRefExpr*>(side.get());
  if (col == nullptr || col->index() < 0 ||
      col->index() >= static_cast<int>(gcols.size())) {
    return -1;
  }
  return gcols[col->index()].ndv;
}

/// Estimated output rows of joining two inputs on the given key edges:
/// rows_l * rows_r * prod(1 / max(ndv)) per edge, with the FK-style
/// 1 / max(rows) fallback when sketches are absent.
double EstimateJoinRows(double rows_l, double rows_r,
                        const std::vector<KeyEdge>& edges,
                        const std::vector<ColEstimate>& gcols) {
  double rows = std::max(rows_l, 1.0) * std::max(rows_r, 1.0);
  for (const KeyEdge& e : edges) {
    double ndv_l = KeySideNdv(e.placed_side, gcols);
    double ndv_r = KeySideNdv(e.cand_side, gcols);
    double denom = std::max(ndv_l, ndv_r);
    if (denom <= 0) denom = std::max({rows_l, rows_r, 1.0});
    rows /= std::max(denom, 1.0);
  }
  return rows;
}

std::vector<bool> PartMask(const ClusterPart& part, int total) {
  std::vector<bool> mask(total, false);
  for (int g = part.offset; g < part.offset + part.width; g++) mask[g] = true;
  return mask;
}

std::vector<int> PartLocalMap(const ClusterPart& part, int total) {
  std::vector<int> map(total, -1);
  for (int g = part.offset; g < part.offset + part.width; g++) {
    map[g] = g - part.offset;
  }
  return map;
}

PlanPtr ReorderPass(const PlanPtr& node);

/// Flattens the cluster rooted at `root`, recomposes it greedily by
/// estimated cardinality, and restores the original column order with a
/// final Project. Returns nullptr (caller keeps the original shape) when
/// any expression resists translation or the join graph disconnects.
PlanPtr TryReorderCluster(const PlanPtr& root) {
  Cluster cluster;
  int total = FlattenCluster(root, 0, &cluster);
  if (total < 0 || total != root->output_schema.num_fields()) return nullptr;
  int n = static_cast<int>(cluster.parts.size());
  if (n < 2 || n > kMaxClusterParts) return nullptr;

  // Optimize each part's own subtree (nested clusters sit below non-inner
  // boundaries such as aggregates and semi joins).
  for (ClusterPart& part : cluster.parts) part.plan = ReorderPass(part.plan);

  // Apply single-part conjuncts at their leaf before estimating, so the
  // greedy order sees post-filter cardinalities. Constant conjuncts
  // (no column refs) land on part 0.
  std::vector<std::vector<ExprPtr>> leaf_preds(n);
  std::vector<ExprPtr> remaining;
  for (ExprPtr& c : cluster.conjuncts) {
    std::vector<int> refs = ReferencedColumns(*c);
    int part_idx = -1;
    if (refs.empty()) {
      part_idx = 0;
    } else {
      for (int p = 0; p < n; p++) {
        const ClusterPart& part = cluster.parts[p];
        if (refs.front() >= part.offset &&
            refs.back() < part.offset + part.width) {
          part_idx = p;
          break;
        }
      }
    }
    if (part_idx < 0) {
      remaining.push_back(std::move(c));
      continue;
    }
    ExprPtr local = RemapColumns(c, PartLocalMap(cluster.parts[part_idx],
                                                 total));
    if (local == nullptr) return nullptr;
    leaf_preds[part_idx].push_back(std::move(local));
  }
  for (int p = 0; p < n; p++) {
    if (!leaf_preds[p].empty()) {
      cluster.parts[p].plan =
          plan::Filter(cluster.parts[p].plan, AndAll(leaf_preds[p]));
    }
  }

  std::vector<PlanEstimate> estimates(n);
  std::vector<ColEstimate> gcols(total);
  for (int p = 0; p < n; p++) {
    estimates[p] = EstimatePlan(*cluster.parts[p].plan);
    for (int k = 0; k < cluster.parts[p].width &&
                    k < static_cast<int>(estimates[p].cols.size());
         k++) {
      gcols[cluster.parts[p].offset + k] = estimates[p].cols[k];
    }
  }

  // Start pair: the keyed pair with the smallest estimated join output.
  int best_i = -1, best_j = -1;
  double best_rows = std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; i++) {
    std::vector<bool> mask_i = PartMask(cluster.parts[i], total);
    for (int j = i + 1; j < n; j++) {
      std::vector<bool> mask_j = PartMask(cluster.parts[j], total);
      std::vector<KeyEdge> edges;
      KeyEdge edge;
      for (const ExprPtr& c : remaining) {
        if (QualifyKeyEdge(c, mask_i, mask_j, &edge)) edges.push_back(edge);
      }
      if (edges.empty()) continue;
      double rows =
          EstimateJoinRows(estimates[i].rows, estimates[j].rows, edges, gcols);
      if (rows < best_rows) {
        best_rows = rows;
        best_i = i;
        best_j = j;
      }
    }
  }
  if (best_i < 0) return nullptr;

  // Greedy composition state: `cur` is the joined prefix, `map` sends each
  // global column to its index in cur's output (-1 = not yet placed).
  std::vector<bool> placed_cols(total, false);
  std::vector<bool> part_placed(n, false);
  std::vector<int> map(total, -1);

  PlanPtr cur = cluster.parts[best_i].plan;
  PlanEstimate cur_est = estimates[best_i];
  part_placed[best_i] = true;
  for (int g = cluster.parts[best_i].offset;
       g < cluster.parts[best_i].offset + cluster.parts[best_i].width; g++) {
    placed_cols[g] = true;
    map[g] = g - cluster.parts[best_i].offset;
  }

  // Joins `cand` onto `cur` using every qualifying key edge, with the
  // smaller estimated input as the hash build side. Returns false on a
  // rewrite failure (caller abandons the whole cluster).
  auto compose = [&](int cand) -> bool {
    const ClusterPart& part = cluster.parts[cand];
    std::vector<bool> cand_mask = PartMask(part, total);
    std::vector<int> cand_map = PartLocalMap(part, total);
    std::vector<KeyEdge> edges;
    std::vector<ExprPtr> rest;
    KeyEdge edge;
    for (const ExprPtr& c : remaining) {
      if (QualifyKeyEdge(c, placed_cols, cand_mask, &edge)) {
        edges.push_back(edge);
      } else {
        rest.push_back(c);
      }
    }
    if (edges.empty()) return false;
    remaining = std::move(rest);

    std::vector<ExprPtr> cur_keys, cand_keys;
    for (const KeyEdge& e : edges) {
      ExprPtr ck = RemapColumns(e.placed_side, map);
      ExprPtr pk = RemapColumns(e.cand_side, cand_map);
      if (ck == nullptr || pk == nullptr) return false;
      cur_keys.push_back(std::move(ck));
      cand_keys.push_back(std::move(pk));
    }

    int cur_width = 0;
    for (int g = 0; g < total; g++) cur_width += placed_cols[g] ? 1 : 0;
    bool cand_builds = estimates[cand].rows <= cur_est.rows;
    if (cand_builds) {
      cur = plan::Join(cur, part.plan, JoinType::kInner, cur_keys, cand_keys);
      for (int g = part.offset; g < part.offset + part.width; g++) {
        map[g] = cur_width + (g - part.offset);
      }
    } else {
      cur = plan::Join(part.plan, cur, JoinType::kInner, cand_keys, cur_keys);
      for (int g = 0; g < total; g++) {
        if (map[g] >= 0) map[g] += part.width;
      }
      for (int g = part.offset; g < part.offset + part.width; g++) {
        map[g] = g - part.offset;
      }
    }
    for (int g = part.offset; g < part.offset + part.width; g++) {
      placed_cols[g] = true;
    }
    part_placed[cand] = true;

    // Conjuncts that just became fully covered (non-equi residuals, float
    // equalities, predicates spanning three or more parts) apply here.
    std::vector<ExprPtr> now, later;
    for (const ExprPtr& c : remaining) {
      if (AllRefsIn(ReferencedColumns(*c), placed_cols)) {
        ExprPtr local = RemapColumns(c, map);
        if (local == nullptr) return false;
        now.push_back(std::move(local));
      } else {
        later.push_back(c);
      }
    }
    remaining = std::move(later);
    if (!now.empty()) cur = plan::Filter(cur, AndAll(now));
    cur_est = EstimatePlan(*cur);
    return true;
  };

  if (!compose(best_j)) return nullptr;

  for (int step = 2; step < n; step++) {
    int best = -1;
    double best_cand_rows = std::numeric_limits<double>::infinity();
    for (int j = 0; j < n; j++) {
      if (part_placed[j]) continue;
      std::vector<bool> mask_j = PartMask(cluster.parts[j], total);
      std::vector<KeyEdge> edges;
      KeyEdge edge;
      for (const ExprPtr& c : remaining) {
        if (QualifyKeyEdge(c, placed_cols, mask_j, &edge)) edges.push_back(edge);
      }
      if (edges.empty()) continue;
      double rows =
          EstimateJoinRows(cur_est.rows, estimates[j].rows, edges, gcols);
      if (rows < best_cand_rows) {
        best_cand_rows = rows;
        best = j;
      }
    }
    // Disconnected join graph: refuse to introduce a cross join.
    if (best < 0) return nullptr;
    if (!compose(best)) return nullptr;
  }
  // All conjuncts must have been consumed (keys or filters).
  if (!remaining.empty()) return nullptr;

  bool identity = true;
  for (int g = 0; g < total; g++) {
    if (map[g] != g) {
      identity = false;
      break;
    }
  }
  if (identity) return cur;
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  exprs.reserve(total);
  names.reserve(total);
  for (int g = 0; g < total; g++) {
    if (map[g] < 0) return nullptr;
    const Field& f = root->output_schema.field(g);
    exprs.push_back(std::make_shared<ColumnRefExpr>(map[g], f.type, f.name));
    names.push_back(f.name);
  }
  return plan::Project(cur, std::move(exprs), std::move(names));
}

PlanPtr ReorderPass(const PlanPtr& node) {
  if (IsClusterInterior(*node)) {
    PlanPtr reordered = TryReorderCluster(node);
    if (reordered != nullptr) return reordered;
  }
  PlanPtr copy = CloneShallow(node);
  for (PlanPtr& child : copy->children) child = ReorderPass(child);
  return copy;
}

// ---------------------------------------------------------------------------
// Pass 4: column pruning
// ---------------------------------------------------------------------------

/// Result of pruning one subtree: the rewritten plan, whose output is the
/// retained subset of the original columns in their original relative
/// order, plus the old-index → new-index mapping (-1 = dropped). A null
/// plan means the subtree could not be rewritten and the caller must keep
/// the original plan.
struct Pruned {
  PlanPtr plan;
  std::vector<int> map;
};

Pruned PruneFail() { return {nullptr, {}}; }

std::vector<int> IdentityMap(int w) {
  std::vector<int> m(w);
  for (int i = 0; i < w; i++) m[i] = i;
  return m;
}

/// The demanded column indices; never empty (a zero-column result is not
/// expressible, so column 0 stands in to keep the row count).
std::vector<int> Retained(const std::vector<bool>& req) {
  std::vector<int> retained;
  for (int i = 0; i < static_cast<int>(req.size()); i++) {
    if (req[i]) retained.push_back(i);
  }
  if (retained.empty()) retained.push_back(0);
  return retained;
}

/// Keeps the `retained` columns of `node`, whose column for pre-pruning
/// index i is `pos[i]`: `node` itself when that is all of its columns,
/// else a trivial Project above it.
Pruned KeepColumns(const PlanPtr& node, const std::vector<int>& retained,
                   std::vector<int> pos) {
  if (static_cast<int>(retained.size()) == node->output_schema.num_fields()) {
    return {node, std::move(pos)};
  }
  std::vector<int> map(pos.size(), -1);
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  for (size_t k = 0; k < retained.size(); k++) {
    const Field& f = node->output_schema.field(pos[retained[k]]);
    map[retained[k]] = static_cast<int>(k);
    exprs.push_back(
        std::make_shared<ColumnRefExpr>(pos[retained[k]], f.type, f.name));
    names.push_back(f.name);
  }
  return {plan::Project(node, std::move(exprs), std::move(names)),
          std::move(map)};
}

/// Adds `e`'s column references to `req`; false on an out-of-range ref.
bool MarkRefs(const ExprPtr& e, std::vector<bool>* req) {
  if (e == nullptr) return true;
  for (int c : ReferencedColumns(*e)) {
    if (c < 0 || c >= static_cast<int>(req->size())) return false;
    (*req)[c] = true;
  }
  return true;
}

/// Top-down required-columns analysis: rewrites the subtree so only the
/// columns in `req` (plus whatever the subtree itself needs — predicates,
/// join keys, group keys) survive. Demand originates at Projects and
/// Aggregates that drop columns; the narrowing lands as smaller
/// scan_columns on kDeltaScan leaves and as trivial Projects above
/// in-memory kScan leaves and above joins whose keys read columns nobody
/// above them needs, shrinking the rows that flow through hash builds,
/// sorts, and spills. Structure-preserving otherwise: no Project is
/// inserted anywhere but directly above a leaf or a join, so Sort→Limit
/// and other order-sensitive adjacencies stay intact.
Pruned PruneTo(const PlanPtr& node, std::vector<bool> req) {
  int w = node->output_schema.num_fields();
  if (static_cast<int>(req.size()) != w) return PruneFail();
  switch (node->kind) {
    case PlanKind::kScan:
      return KeepColumns(node, Retained(req), IdentityMap(w));
    case PlanKind::kDeltaScan: {
      // The scan predicate is evaluated inside the scan, so its columns
      // must stay in the projection.
      if (!MarkRefs(node->scan_predicate, &req)) return PruneFail();
      std::vector<int> retained = Retained(req);
      if (static_cast<int>(retained.size()) == w) {
        return {node, IdentityMap(w)};
      }
      std::vector<int> map(w, -1);
      std::vector<int> cols;  // absolute table columns
      for (size_t k = 0; k < retained.size(); k++) {
        map[retained[k]] = static_cast<int>(k);
        cols.push_back(node->scan_columns.empty()
                           ? retained[k]
                           : node->scan_columns[retained[k]]);
      }
      ExprPtr pred = nullptr;
      if (node->scan_predicate != nullptr) {
        pred = RemapColumns(node->scan_predicate, map);
        if (pred == nullptr) return PruneFail();
      }
      // Rebuilding through the builder refreshes the attached TableStats
      // for the narrower projection.
      return {plan::DeltaScan(node->store, node->snapshot, std::move(cols),
                              std::move(pred), node->scan_io),
              std::move(map)};
    }
    case PlanKind::kFilter: {
      if (!MarkRefs(node->predicate, &req)) return PruneFail();
      Pruned child = PruneTo(node->children[0], std::move(req));
      if (child.plan == nullptr) return PruneFail();
      ExprPtr pred = RemapColumns(node->predicate, child.map);
      if (pred == nullptr) return PruneFail();
      return {plan::Filter(child.plan, std::move(pred)),
              std::move(child.map)};
    }
    case PlanKind::kProject: {
      std::vector<int> retained = Retained(req);
      int cw = node->children[0]->output_schema.num_fields();
      std::vector<bool> creq(cw, false);
      for (int i : retained) {
        if (!MarkRefs(node->exprs[i], &creq)) return PruneFail();
      }
      Pruned child = PruneTo(node->children[0], std::move(creq));
      if (child.plan == nullptr) return PruneFail();
      std::vector<int> map(w, -1);
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t k = 0; k < retained.size(); k++) {
        ExprPtr e = RemapColumns(node->exprs[retained[k]], child.map);
        if (e == nullptr) return PruneFail();
        map[retained[k]] = static_cast<int>(k);
        exprs.push_back(std::move(e));
        names.push_back(node->names[retained[k]]);
      }
      return {plan::Project(child.plan, std::move(exprs), std::move(names)),
              std::move(map)};
    }
    case PlanKind::kAggregate: {
      // Group keys define the semantics and are always kept; only unused
      // aggregate outputs are dropped.
      int nk = static_cast<int>(node->group_keys.size());
      std::vector<int> kept_aggs;
      for (size_t j = 0; j < node->aggregates.size(); j++) {
        if (req[nk + static_cast<int>(j)]) {
          kept_aggs.push_back(static_cast<int>(j));
        }
      }
      if (nk == 0 && kept_aggs.empty()) kept_aggs.push_back(0);
      int cw = node->children[0]->output_schema.num_fields();
      std::vector<bool> creq(cw, false);
      for (const ExprPtr& k : node->group_keys) {
        if (!MarkRefs(k, &creq)) return PruneFail();
      }
      for (int j : kept_aggs) {
        if (!MarkRefs(node->aggregates[j].arg, &creq)) return PruneFail();
      }
      Pruned child = PruneTo(node->children[0], std::move(creq));
      if (child.plan == nullptr) return PruneFail();
      std::vector<ExprPtr> keys;
      for (const ExprPtr& k : node->group_keys) {
        ExprPtr e = RemapColumns(k, child.map);
        if (e == nullptr) return PruneFail();
        keys.push_back(std::move(e));
      }
      std::vector<int> map(w, -1);
      for (int i = 0; i < nk; i++) map[i] = i;
      std::vector<AggregateSpec> specs;
      for (size_t k = 0; k < kept_aggs.size(); k++) {
        const AggregateSpec& spec = node->aggregates[kept_aggs[k]];
        ExprPtr arg = nullptr;
        if (spec.arg != nullptr) {
          arg = RemapColumns(spec.arg, child.map);
          if (arg == nullptr) return PruneFail();
        }
        map[nk + kept_aggs[k]] = nk + static_cast<int>(k);
        specs.push_back(AggregateSpec{spec.kind, std::move(arg), spec.name});
      }
      return {plan::Aggregate(child.plan, std::move(keys), node->key_names,
                              std::move(specs)),
              std::move(map)};
    }
    case PlanKind::kJoin: {
      int lw = node->children[0]->output_schema.num_fields();
      int rw = node->children[1]->output_schema.num_fields();
      bool wide = node->join_type == JoinType::kInner ||
                  node->join_type == JoinType::kLeftOuter;
      std::vector<bool> preq(lw, false);
      std::vector<bool> breq(rw, false);
      const std::vector<int> retained = Retained(req);
      for (int i : retained) {
        if (i < lw) {
          preq[i] = true;
        } else if (wide && i - lw < rw) {
          breq[i - lw] = true;
        } else {
          return PruneFail();
        }
      }
      for (const ExprPtr& k : node->left_keys) {
        if (!MarkRefs(k, &preq)) return PruneFail();
      }
      for (const ExprPtr& k : node->right_keys) {
        if (!MarkRefs(k, &breq)) return PruneFail();
      }
      if (node->residual != nullptr) {
        for (int c : ReferencedColumns(*node->residual)) {
          if (c < 0 || c >= lw + rw) return PruneFail();
          if (c < lw) {
            preq[c] = true;
          } else {
            breq[c - lw] = true;
          }
        }
      }
      Pruned probe = PruneTo(node->children[0], std::move(preq));
      if (probe.plan == nullptr) return PruneFail();
      Pruned build = PruneTo(node->children[1], std::move(breq));
      if (build.plan == nullptr) return PruneFail();
      int plw = probe.plan->output_schema.num_fields();
      std::vector<ExprPtr> lkeys, rkeys;
      for (const ExprPtr& k : node->left_keys) {
        ExprPtr e = RemapColumns(k, probe.map);
        if (e == nullptr) return PruneFail();
        lkeys.push_back(std::move(e));
      }
      for (const ExprPtr& k : node->right_keys) {
        ExprPtr e = RemapColumns(k, build.map);
        if (e == nullptr) return PruneFail();
        rkeys.push_back(std::move(e));
      }
      // Combined [probe cols, build cols] map for the residual and the
      // node's own output.
      std::vector<int> combined(lw + rw, -1);
      for (int i = 0; i < lw; i++) combined[i] = probe.map[i];
      for (int i = 0; i < rw; i++) {
        combined[lw + i] =
            build.map[i] < 0 ? -1 : plw + build.map[i];
      }
      ExprPtr residual = nullptr;
      if (node->residual != nullptr) {
        residual = RemapColumns(node->residual, combined);
        if (residual == nullptr) return PruneFail();
      }
      // Columns only the keys and the residual read stop at the join, so
      // builds and sorts above it materialize just the demanded ones.
      combined.resize(w);
      return KeepColumns(
          plan::Join(probe.plan, build.plan, node->join_type,
                     std::move(lkeys), std::move(rkeys), std::move(residual)),
          retained, std::move(combined));
    }
    case PlanKind::kSort: {
      for (const SortKey& k : node->sort_keys) {
        if (!MarkRefs(k.expr, &req)) return PruneFail();
      }
      Pruned child = PruneTo(node->children[0], std::move(req));
      if (child.plan == nullptr) return PruneFail();
      std::vector<SortKey> keys;
      for (const SortKey& k : node->sort_keys) {
        ExprPtr e = RemapColumns(k.expr, child.map);
        if (e == nullptr) return PruneFail();
        keys.push_back(SortKey{std::move(e), k.ascending, k.nulls_first});
      }
      return {plan::Sort(child.plan, std::move(keys)), std::move(child.map)};
    }
    case PlanKind::kLimit: {
      Pruned child = PruneTo(node->children[0], std::move(req));
      if (child.plan == nullptr) return PruneFail();
      return {plan::Limit(child.plan, node->limit), std::move(child.map)};
    }
  }
  return PruneFail();
}

}  // namespace

plan::PlanPtr Optimize(const plan::PlanPtr& p) {
  if (p == nullptr) return p;
  PlanPtr out = PushDown(p, {});
  out = SinkSemiPass(out);
  out = ReorderPass(out);
  // Reordering re-surfaces Filters (leaf conjuncts, late-covered
  // residuals); a second pushdown sinks them into the reshaped tree.
  return PushDown(out, {});
}

/// The root's full output is required, so pruning only triggers below
/// Projects/Aggregates that drop columns.
plan::PlanPtr PruneColumns(const plan::PlanPtr& p) {
  if (p == nullptr) return p;
  int w = p->output_schema.num_fields();
  Pruned out = PruneTo(p, std::vector<bool>(w, true));
  if (out.plan == nullptr) return p;
  // Full demand at the root must retain every column in place.
  for (int i = 0; i < w; i++) {
    if (out.map[i] != i) return p;
  }
  return out.plan;
}

}  // namespace opt
}  // namespace photon
