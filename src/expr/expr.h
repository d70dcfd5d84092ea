#ifndef PHOTON_EXPR_EXPR_H_
#define PHOTON_EXPR_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/eval_context.h"
#include "types/value.h"
#include "vector/column_batch.h"

namespace photon {

class Expr;
using ExprPtr = std::shared_ptr<Expr>;

/// Base class of the expression tree shared by both engines.
///
/// Photon evaluates expressions with `Evaluate`: a vectorized pass over the
/// *active* rows of a batch, producing a result vector *aligned with batch
/// row indices* (the value for batch row r sits at index r of the result).
/// Kernels only read and write active positions — data at inactive indices
/// may be garbage but must never be overwritten (§4.3).
///
/// The row-oriented baseline engine ("DBR") evaluates the same tree with
/// `EvaluateRow`, a Volcano-style tree-walking interpreter over boxed
/// values. Keeping one tree with two evaluators is also how the test suite
/// enforces semantic consistency between the engines (§5.6).
class Expr {
 public:
  explicit Expr(DataType type) : type_(type) {}
  virtual ~Expr() = default;

  const DataType& type() const { return type_; }

  /// Vectorized evaluation over the batch's active rows.
  virtual Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                         EvalContext* ctx) const = 0;

  /// Row-at-a-time evaluation (baseline engine and oracle tests).
  virtual Result<Value> EvaluateRow(const std::vector<Value>& row) const = 0;

  virtual std::string ToString() const = 0;

  /// Children, for plan analysis (column pruning, support checks).
  virtual std::vector<ExprPtr> children() const { return {}; }

 private:
  DataType type_;
};

/// References an input column by index.
class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(int index, DataType type, std::string name = "")
      : Expr(type), index_(index), name_(std::move(name)) {}

  int index() const { return index_; }
  const std::string& name() const { return name_; }

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;

 private:
  int index_;
  std::string name_;
};

/// A constant. Materialized lazily into a filled scratch vector.
class LiteralExpr : public Expr {
 public:
  LiteralExpr(Value value, DataType type)
      : Expr(type), value_(std::move(value)) {}

  const Value& value() const { return value_; }

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;

 private:
  Value value_;
};

enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

/// Binary arithmetic over same-TypeId operands (the builder inserts casts).
/// Decimal operands may differ in scale; the node carries the result
/// precision/scale computed with Spark-compatible rules.
class ArithmeticExpr : public Expr {
 public:
  ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right, DataType result);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {left_, right_}; }

  ArithOp op() const { return op_; }

 private:
  ArithOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Comparison producing a (nullable) boolean vector; SQL semantics: NULL if
/// either side is NULL.
class ComparisonExpr : public Expr {
 public:
  ComparisonExpr(CmpOp op, ExprPtr left, ExprPtr right);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {left_, right_}; }

  CmpOp op() const { return op_; }

 private:
  CmpOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

/// Fused BETWEEN: col >= lo AND col <= hi evaluated in one kernel pass.
/// The paper calls this out as a specialization that recovers code-gen's
/// advantage on a very common pattern (§3.3).
class BetweenExpr : public Expr {
 public:
  BetweenExpr(ExprPtr value, ExprPtr lo, ExprPtr hi);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override {
    return {value_, lo_, hi_};
  }

 private:
  ExprPtr value_;
  ExprPtr lo_;
  ExprPtr hi_;
};

enum class BoolOp : uint8_t { kAnd, kOr };

/// Three-valued AND/OR.
class BooleanExpr : public Expr {
 public:
  BooleanExpr(BoolOp op, ExprPtr left, ExprPtr right);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {left_, right_}; }

  BoolOp op() const { return op_; }

 private:
  BoolOp op_;
  ExprPtr left_;
  ExprPtr right_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr child);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {child_}; }

 private:
  ExprPtr child_;
};

class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr child, bool negated);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {child_}; }

  bool negated() const { return negated_; }

 private:
  ExprPtr child_;
  bool negated_;
};

/// Type conversion. Follows Spark's non-ANSI semantics (e.g. failed
/// string-to-number casts yield NULL).
class CastExpr : public Expr {
 public:
  CastExpr(ExprPtr child, DataType to);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {child_}; }

 private:
  ExprPtr child_;
};

/// CASE WHEN ... THEN ... [ELSE ...] END. Implemented per §4.3: each branch
/// runs its kernel with the position list narrowed to the rows that took
/// the branch, all branches writing into the same output vector.
class CaseWhenExpr : public Expr {
 public:
  CaseWhenExpr(std::vector<std::pair<ExprPtr, ExprPtr>> branches,
               ExprPtr else_expr, DataType result);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override;

  const std::vector<std::pair<ExprPtr, ExprPtr>>& branches() const {
    return branches_;
  }
  const ExprPtr& else_expr() const { return else_expr_; }

 private:
  std::vector<std::pair<ExprPtr, ExprPtr>> branches_;
  ExprPtr else_expr_;  // may be null (-> NULL)
};

/// value IN (literal, ...). NULL semantics match Spark.
class InListExpr : public Expr {
 public:
  InListExpr(ExprPtr value, std::vector<Value> list);

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return {value_}; }

  const std::vector<Value>& list() const { return list_; }

 private:
  ExprPtr value_;
  std::vector<Value> list_;
};

/// A call to a named scalar function from the function registry (upper,
/// substr, sqrt, year, like, ...).
class CallExpr : public Expr {
 public:
  CallExpr(std::string name, std::vector<ExprPtr> args, DataType result);

  const std::string& name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }

  Result<ColumnVector*> Evaluate(ColumnBatch* batch,
                                 EvalContext* ctx) const override;
  Result<Value> EvaluateRow(const std::vector<Value>& row) const override;
  std::string ToString() const override;
  std::vector<ExprPtr> children() const override { return args_; }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

/// Applies a boolean predicate result to the batch: active rows whose
/// predicate value is false or NULL are deactivated by rewriting the
/// position list in place (§4.3). Returns the new active count.
int ApplyBooleanFilter(const ColumnVector& bools, ColumnBatch* batch);

/// Evaluates `predicate` and filters the batch. Convenience wrapper used by
/// the Filter operator and the file scan's pushed-down predicate.
Result<int> FilterBatch(const Expr& predicate, ColumnBatch* batch,
                        EvalContext* ctx);

}  // namespace photon

#endif  // PHOTON_EXPR_EXPR_H_
