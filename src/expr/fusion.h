#ifndef PHOTON_EXPR_FUSION_H_
#define PHOTON_EXPR_FUSION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "expr/program.h"

namespace photon {

/// One node of a filter→project chain, in bottom-up (execution) order.
struct FusedStage {
  bool is_filter = false;
  ExprPtr predicate;               // filter stages
  std::vector<ExprPtr> exprs;      // project stages
  std::vector<std::string> names;  // project stages
};

/// The immutable plan-time form of a fused filter→project chain
/// (DESIGN.md §12). Project stages are rewritten into expressions over the
/// *input* schema (column substitution), so the whole chain evaluates in
/// one pass over one position list with no intermediate view batches.
/// Filters are split into conjuncts (Kleene-safe for AND), each of which
/// shrinks the position list before the next one runs.
///
/// Compiled-tier specializations are attached here at plan time: per-
/// conjunct position-list-direct terms (column-vs-literal comparisons and
/// BETWEEN) and per-instruction template-instantiated arithmetic steps for
/// the hot int64/float64/decimal combinations, including two-op fused
/// kernels. All of them reuse the scalar_ops.h semantics, and differ mode
/// 6 checks every tier against the row-oracle baseline.
///
/// A FusedUnit is shared (const) across all tasks of a plan; per-task
/// mutable state lives in FusedUnitState.
class FusedUnit {
 public:
  /// A compiled filter term: applies one conjunct directly to the batch's
  /// position list and returns the new active count.
  using CompiledTermFn = std::function<int(ColumnBatch*)>;

  struct Conjunct {
    ExprPtr expr;
    ExprProgram program;  // single-root program for the conjunct
    CompiledTermFn term;  // null when not specializable
  };

  /// Where output column i comes from after Eval.
  struct Output {
    int input_col = -1;  // >= 0: passthrough of an input batch column
    int root = -1;       // else: index into projection().root_regs()
  };

  /// Rebuilds every Expr kind; fails only on an expression nested deeper
  /// than kMaxExprDepth or a column index outside its stage's input, and
  /// the caller fails the query with that status.
  static Result<std::shared_ptr<const FusedUnit>> Compile(
      const std::vector<FusedStage>& stages, const Schema& input_schema);

  const std::vector<Conjunct>& conjuncts() const { return conjuncts_; }
  /// Some conjunct folded to constant false/NULL: the unit emits no rows.
  bool always_false() const { return always_false_; }
  bool has_predicates() const {
    return !conjuncts_.empty() || always_false_;
  }
  bool has_projection() const { return has_projection_; }
  const ExprProgram& projection() const { return projection_; }
  const std::vector<Output>& outputs() const { return outputs_; }
  const Schema& output_schema() const { return output_schema_; }
  /// Compiled terms + compiled steps across all programs. Zero means every
  /// batch runs on the fused interpreter whatever the policy.
  int num_compiled() const { return num_compiled_; }

 private:
  FusedUnit() = default;

  std::vector<Conjunct> conjuncts_;
  bool always_false_ = false;
  bool has_projection_ = false;
  ExprProgram projection_;
  std::vector<Output> outputs_;
  Schema output_schema_;
  int num_compiled_ = 0;
};

/// Per-operator-instance execution state: the program register files and
/// the static tier choice. Under kCompiledOnly (the default policy) the
/// compiled terms and steps run wherever the unit has them and the fused
/// interpreter covers the rest; kFusedOnly and kTreeOnly keep the whole
/// unit on the fused interpreter. The choice never depends on timing, and
/// every tier computes bit-identical results (differ mode 6).
class FusedUnitState {
 public:
  FusedUnitState(std::shared_ptr<const FusedUnit> unit, ExprPolicy policy);

  /// Applies the conjuncts to the batch's position list, then evaluates
  /// the projection. Returns the surviving active-row count.
  Result<int> Eval(ColumnBatch* batch, EvalContext* ctx);

  /// Result vector for output column i; valid after Eval until the
  /// context's next ResetPerBatch.
  ColumnVector* Output(size_t i, ColumnBatch* batch) const;

  /// Batches evaluated with at least one compiled term or step, and
  /// batches evaluated on the fused interpreter alone.
  int64_t fused_batches() const { return fused_batches_; }
  int64_t compiled_batches() const { return compiled_batches_; }

 private:
  std::shared_ptr<const FusedUnit> unit_;
  bool use_compiled_;  // the policy allows it and the unit has any
  std::vector<ProgramState> conjunct_states_;
  std::unique_ptr<ProgramState> projection_state_;
  int64_t fused_batches_ = 0;
  int64_t compiled_batches_ = 0;
};

}  // namespace photon

#endif  // PHOTON_EXPR_FUSION_H_
