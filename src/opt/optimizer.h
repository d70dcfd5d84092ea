#ifndef PHOTON_OPT_OPTIMIZER_H_
#define PHOTON_OPT_OPTIMIZER_H_

#include "plan/logical_plan.h"

namespace photon {
namespace opt {

/// Rewrites a logical plan into a semantically identical, cheaper one:
///   1. filter pushdown — conjuncts sink through projects, aggregates,
///      joins, and sorts, merging into DeltaScan predicates where they feed
///      zone-map file/row-group skipping and the scan's row-level filter;
///   2. semi-join reduction — IN/EXISTS-derived semi (and anti) joins sink
///      to the smallest input that supplies their keys;
///   3. cost-based join reordering — maximal inner-join clusters are
///      flattened to a conjunct graph and recomposed greedily by estimated
///      cardinality (src/opt/stats), picking build/probe sides so the
///      smaller input builds the hash table.
/// Column pruning is not a rule here: Driver::Run applies PruneColumns to
/// every plan, optimized or not.
///
/// Pure and deterministic: the input plan is never mutated (rewrites build
/// new nodes; untouched subtrees are shared), and equal inputs produce
/// equal outputs — the differ relies on both to run optimizer-on vs
/// optimizer-off over the same PlanPtr as differential modes.
///
/// Every rule degrades to "keep the original shape" when a precondition
/// fails (unknown expression kind, non-equi edge, disconnected join graph),
/// so Optimize never errors.
plan::PlanPtr Optimize(const plan::PlanPtr& p);

/// Required-columns analysis: narrows every subtree to the columns its
/// ancestors use (plus its own predicates, join keys and group keys). The
/// narrowing lands as smaller scan_columns on kDeltaScan leaves and as
/// trivial Projects above in-memory kScan leaves and above joins (free:
/// the scan lends its vectors, and fusion composes a Project into its
/// chain), so joins, aggregates and sorts carry only the columns the plan
/// reads. The root's output is
/// unchanged; a plan with a subtree that cannot be rewritten is returned
/// as is. Pure, like Optimize.
plan::PlanPtr PruneColumns(const plan::PlanPtr& p);

}  // namespace opt
}  // namespace photon

#endif  // PHOTON_OPT_OPTIMIZER_H_
