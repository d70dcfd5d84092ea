#include "expr/fusion.h"

#include <utility>

#include "expr/kernels.h"
#include "expr/scalar_ops.h"
#include "types/decimal.h"

namespace photon {
namespace {

// ---------------------------------------------------------------------------
// Plan-time rewriting
// ---------------------------------------------------------------------------

/// Rewrites `e` so every column reference resolves against the chain's
/// *input* schema: bindings[i] is the input-schema expression computing the
/// current schema's column i. Every public Expr kind rebuilds; the errors
/// below mean a malformed plan, and the query fails with them.
Result<ExprPtr> SubstituteColumns(const ExprPtr& e,
                                  const std::vector<ExprPtr>& bindings) {
  if (auto* c = dynamic_cast<const ColumnRefExpr*>(e.get())) {
    int idx = c->index();
    if (idx < 0 || idx >= static_cast<int>(bindings.size())) {
      return Status::Internal("fusion: column index out of range");
    }
    return bindings[idx];
  }
  if (dynamic_cast<const LiteralExpr*>(e.get()) != nullptr) return e;
  if (auto* cw = dynamic_cast<const CaseWhenExpr*>(e.get())) {
    std::vector<std::pair<ExprPtr, ExprPtr>> branches;
    branches.reserve(cw->branches().size());
    for (const auto& [cond, then] : cw->branches()) {
      PHOTON_ASSIGN_OR_RETURN(ExprPtr c2, SubstituteColumns(cond, bindings));
      PHOTON_ASSIGN_OR_RETURN(ExprPtr t2, SubstituteColumns(then, bindings));
      branches.emplace_back(std::move(c2), std::move(t2));
    }
    ExprPtr else2;
    if (cw->else_expr() != nullptr) {
      PHOTON_ASSIGN_OR_RETURN(else2,
                              SubstituteColumns(cw->else_expr(), bindings));
    }
    return std::static_pointer_cast<Expr>(std::make_shared<CaseWhenExpr>(
        std::move(branches), std::move(else2), e->type()));
  }
  if (auto* f = dynamic_cast<const CallExpr*>(e.get())) {
    std::vector<ExprPtr> args;
    args.reserve(f->args().size());
    for (const ExprPtr& a : f->args()) {
      PHOTON_ASSIGN_OR_RETURN(ExprPtr a2, SubstituteColumns(a, bindings));
      args.push_back(std::move(a2));
    }
    return std::static_pointer_cast<Expr>(
        std::make_shared<CallExpr>(f->name(), std::move(args), e->type()));
  }
  std::vector<ExprPtr> kids;
  for (const ExprPtr& child : e->children()) {
    PHOTON_ASSIGN_OR_RETURN(ExprPtr k, SubstituteColumns(child, bindings));
    kids.push_back(std::move(k));
  }
  ExprPtr rebuilt = RebuildWithChildren(*e, std::move(kids));
  if (rebuilt == nullptr) {
    return Status::NotImplemented("fusion: unsupported expression kind");
  }
  return rebuilt;
}

/// Splits nested ANDs into conjuncts. Filtering per conjunct (dropping rows
/// where it is false or NULL) equals filtering once on the conjunction
/// under Kleene logic: a AND b is true iff both conjuncts are true.
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (auto* b = dynamic_cast<const BooleanExpr*>(e.get())) {
    if (b->op() == BoolOp::kAnd) {
      std::vector<ExprPtr> kids = e->children();
      SplitConjuncts(kids[0], out);
      SplitConjuncts(kids[1], out);
      return;
    }
  }
  out->push_back(e);
}

// ---------------------------------------------------------------------------
// Compiled tier: position-list-direct filter terms
// ---------------------------------------------------------------------------

/// Rewrites the position list in place, keeping rows where `pred` holds on
/// a non-NULL value — exactly the rows ApplyBooleanFilter keeps for the
/// corresponding comparison result vector.
template <typename T, typename Pred>
int PredTermLoop(ColumnBatch* batch, int col, Pred pred) {
  ColumnVector* v = batch->column(col);
  const T* data = v->data<T>();
  const uint8_t* nulls = v->nulls();
  int32_t* pos = batch->mutable_pos_list();
  int n = batch->num_active();
  bool hn = v->ComputeHasNulls(pos, n, batch->all_active());
  int out = 0;
  DispatchBatchShape(hn, batch->all_active(),
                     [&](auto nulls_c, auto active_c) {
                       constexpr bool kN = decltype(nulls_c)::value;
                       constexpr bool kA = decltype(active_c)::value;
                       for (int i = 0; i < n; i++) {
                         int row = kA ? i : pos[i];
                         if constexpr (kN) {
                           if (nulls[row]) continue;
                         }
                         if (pred(data[row])) pos[out++] = row;
                       }
                     });
  batch->SetActiveRows(out);
  return out;
}

/// Direct operators, not a compare-then-test of a three-way result: the
/// vectorized CompareKernel uses direct operators too, and for floats they
/// disagree with a three-way compare on NaN (e.g. NaN == x and NaN < x are
/// both false).
template <typename T>
FusedUnit::CompiledTermFn MakeCmpTerm(int col, T lit, CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return [col, lit](ColumnBatch* b) {
        return PredTermLoop<T>(b, col, [lit](T v) { return v == lit; });
      };
    case CmpOp::kNe:
      return [col, lit](ColumnBatch* b) {
        return PredTermLoop<T>(b, col, [lit](T v) { return v != lit; });
      };
    case CmpOp::kLt:
      return [col, lit](ColumnBatch* b) {
        return PredTermLoop<T>(b, col, [lit](T v) { return v < lit; });
      };
    case CmpOp::kLe:
      return [col, lit](ColumnBatch* b) {
        return PredTermLoop<T>(b, col, [lit](T v) { return v <= lit; });
      };
    case CmpOp::kGt:
      return [col, lit](ColumnBatch* b) {
        return PredTermLoop<T>(b, col, [lit](T v) { return v > lit; });
      };
    case CmpOp::kGe:
      return [col, lit](ColumnBatch* b) {
        return PredTermLoop<T>(b, col, [lit](T v) { return v >= lit; });
      };
  }
  return nullptr;
}

template <typename T>
FusedUnit::CompiledTermFn MakeBetweenTerm(int col, T lo, T hi) {
  return [col, lo, hi](ColumnBatch* b) {
    return PredTermLoop<T>(b, col,
                           [lo, hi](T v) { return v >= lo && v <= hi; });
  };
}

/// lit CMP col == col mirror(CMP) lit. Eq/Ne are symmetric (including the
/// NaN cases: both sides are false); orderings flip (IEEE a < b iff b > a).
CmpOp MirrorCmp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;
  }
}

/// Compiles a column-vs-literal comparison or BETWEEN conjunct into a term
/// that edits the position list directly, skipping the boolean result
/// vector entirely. Returns null for every other shape.
FusedUnit::CompiledTermFn TryCompileFilterTerm(const ExprPtr& conjunct) {
  if (auto* cmp = dynamic_cast<const ComparisonExpr*>(conjunct.get())) {
    std::vector<ExprPtr> kids = conjunct->children();
    ExprPtr l = TryFoldConst(kids[0]);
    ExprPtr r = TryFoldConst(kids[1]);
    const auto* col = dynamic_cast<const ColumnRefExpr*>(l.get());
    const auto* lit = dynamic_cast<const LiteralExpr*>(r.get());
    CmpOp op = cmp->op();
    if (col == nullptr) {
      col = dynamic_cast<const ColumnRefExpr*>(r.get());
      lit = dynamic_cast<const LiteralExpr*>(l.get());
      op = MirrorCmp(op);
    }
    if (col == nullptr || lit == nullptr || lit->value().is_null()) {
      return nullptr;
    }
    switch (col->type().id()) {
      case TypeId::kInt32:
      case TypeId::kDate32:
        return MakeCmpTerm<int32_t>(col->index(), lit->value().i32(), op);
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        return MakeCmpTerm<int64_t>(col->index(), lit->value().i64(), op);
      case TypeId::kFloat64:
        return MakeCmpTerm<double>(col->index(), lit->value().f64(), op);
      case TypeId::kDecimal128: {
        // The interpreted kernel compares at the wider scale; with the
        // column already there, only the literal needs (one-time)
        // prescaling. Narrower columns stay on the interpreted path.
        int sc = col->type().scale();
        int sl = lit->type().scale();
        if (sc < sl) return nullptr;
        int128_t v =
            lit->value().decimal().value() * Decimal128::PowerOfTen(sc - sl);
        return MakeCmpTerm<int128_t>(col->index(), v, op);
      }
      default:
        return nullptr;
    }
  }
  if (dynamic_cast<const BetweenExpr*>(conjunct.get()) != nullptr) {
    std::vector<ExprPtr> kids = conjunct->children();
    const auto* col = dynamic_cast<const ColumnRefExpr*>(kids[0].get());
    ExprPtr lo = TryFoldConst(kids[1]);
    ExprPtr hi = TryFoldConst(kids[2]);
    const auto* lol = dynamic_cast<const LiteralExpr*>(lo.get());
    const auto* hil = dynamic_cast<const LiteralExpr*>(hi.get());
    if (col == nullptr || lol == nullptr || hil == nullptr ||
        lol->value().is_null() || hil->value().is_null()) {
      return nullptr;
    }
    switch (col->type().id()) {
      case TypeId::kInt32:
      case TypeId::kDate32:
        return MakeBetweenTerm<int32_t>(col->index(), lol->value().i32(),
                                        hil->value().i32());
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        return MakeBetweenTerm<int64_t>(col->index(), lol->value().i64(),
                                        hil->value().i64());
      case TypeId::kFloat64:
        return MakeBetweenTerm<double>(col->index(), lol->value().f64(),
                                       hil->value().f64());
      case TypeId::kDecimal128:
        // The BetweenExpr constructor checks the three decimal scales are
        // aligned, so the raw int128 values compare correctly.
        return MakeBetweenTerm<int128_t>(col->index(),
                                         lol->value().decimal().value(),
                                         hil->value().decimal().value());
      default:
        return nullptr;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Compiled tier: template-instantiated arithmetic steps
// ---------------------------------------------------------------------------

/// A step operand: a register (another instruction's result) or a non-null
/// literal broadcast as a scalar.
template <typename T>
struct COperand {
  int reg = -1;  // -1 -> scalar
  T scalar{};
};

/// The bound per-batch view of a COperand. `row & mask` folds the scalar
/// broadcast into the same indexed load as the vector case: mask is ~0 for
/// registers and 0 for scalars, whose single value (and never-null null
/// byte) sits at index 0.
template <typename T>
struct CRef {
  const T* data;
  const uint8_t* nulls;
  uint32_t mask;
};

const uint8_t kNeverNull = 0;

template <typename T>
CRef<T> BindOperand(const COperand<T>& op, ColumnVector* const* regs) {
  if (op.reg >= 0) {
    return {regs[op.reg]->template data<T>(), regs[op.reg]->nulls(), ~0u};
  }
  return {&op.scalar, &kNeverNull, 0u};
}

template <typename T>
bool OperandHasNulls(const COperand<T>& op, ColumnVector* const* regs,
                     const int32_t* pos, int n, bool all_active) {
  return op.reg >= 0 && regs[op.reg]->ComputeHasNulls(pos, n, all_active);
}

template <typename T, typename Op>
ExprProgram::CompiledStepFn MakeSingleStep(COperand<T> a, COperand<T> b,
                                           DataType result) {
  return [a, b, result](ColumnBatch* batch, EvalContext* ctx,
                        ColumnVector* const* regs) -> Result<ColumnVector*> {
    ColumnVector* out = ctx->NewVector(result, batch->capacity());
    int n = batch->num_active();
    const int32_t* pos = batch->pos_list();
    bool all = batch->all_active();
    bool has_nulls = OperandHasNulls(a, regs, pos, n, all) ||
                     OperandHasNulls(b, regs, pos, n, all);
    CRef<T> ra = BindOperand(a, regs);
    CRef<T> rb = BindOperand(b, regs);
    T* ov = out->data<T>();
    uint8_t* on = out->nulls();
    DispatchBatchShape(has_nulls, all, [&](auto nulls_c, auto active_c) {
      constexpr bool kN = decltype(nulls_c)::value;
      constexpr bool kA = decltype(active_c)::value;
      for (int i = 0; i < n; i++) {
        int row = kA ? i : pos[i];
        uint32_t ia = static_cast<uint32_t>(row) & ra.mask;
        uint32_t ib = static_cast<uint32_t>(row) & rb.mask;
        if constexpr (kN) {
          if (ra.nulls[ia] | rb.nulls[ib]) {
            on[row] = 1;
            continue;
          }
        }
        if (!Op::Apply(ra.data[ia], rb.data[ib], &ov[row])) on[row] = 1;
      }
    });
    out->set_has_nulls(has_nulls ? TriState::kYes : TriState::kUnknown);
    return out;
  };
}

/// Two fused arithmetic ops in one loop:
///   out = kInnerLeft ? Outer(Inner(x, y), z) : Outer(z, Inner(x, y)).
/// Only attached when both ops are in {+,-,*}, which never fail, so the
/// inner result is NULL exactly when an inner operand is — the same rows
/// the two-instruction interpretation nulls.
template <typename T, typename InnerOp, typename OuterOp, bool kInnerLeft>
ExprProgram::CompiledStepFn MakeFused2Step(COperand<T> x, COperand<T> y,
                                           COperand<T> z, DataType result) {
  return [x, y, z, result](ColumnBatch* batch, EvalContext* ctx,
                           ColumnVector* const* regs) -> Result<ColumnVector*> {
    ColumnVector* out = ctx->NewVector(result, batch->capacity());
    int n = batch->num_active();
    const int32_t* pos = batch->pos_list();
    bool all = batch->all_active();
    bool has_nulls = OperandHasNulls(x, regs, pos, n, all) ||
                     OperandHasNulls(y, regs, pos, n, all) ||
                     OperandHasNulls(z, regs, pos, n, all);
    CRef<T> rx = BindOperand(x, regs);
    CRef<T> ry = BindOperand(y, regs);
    CRef<T> rz = BindOperand(z, regs);
    T* ov = out->data<T>();
    uint8_t* on = out->nulls();
    DispatchBatchShape(has_nulls, all, [&](auto nulls_c, auto active_c) {
      constexpr bool kN = decltype(nulls_c)::value;
      constexpr bool kA = decltype(active_c)::value;
      for (int i = 0; i < n; i++) {
        int row = kA ? i : pos[i];
        uint32_t ix = static_cast<uint32_t>(row) & rx.mask;
        uint32_t iy = static_cast<uint32_t>(row) & ry.mask;
        uint32_t iz = static_cast<uint32_t>(row) & rz.mask;
        if constexpr (kN) {
          if (rx.nulls[ix] | ry.nulls[iy] | rz.nulls[iz]) {
            on[row] = 1;
            continue;
          }
        }
        T inner;
        if (!InnerOp::Apply(rx.data[ix], ry.data[iy], &inner)) {
          on[row] = 1;
          continue;
        }
        bool ok = kInnerLeft ? OuterOp::Apply(inner, rz.data[iz], &ov[row])
                             : OuterOp::Apply(rz.data[iz], inner, &ov[row]);
        if (!ok) on[row] = 1;
      }
    });
    out->set_has_nulls(has_nulls ? TriState::kYes : TriState::kUnknown);
    return out;
  };
}

bool IsAddSubMul(ArithOp op) {
  return op == ArithOp::kAdd || op == ArithOp::kSub || op == ArithOp::kMul;
}

template <typename T>
ExprProgram::CompiledStepFn MakeArithStep(ArithOp op, COperand<T> a,
                                          COperand<T> b, DataType result) {
  switch (op) {
    case ArithOp::kAdd:
      return MakeSingleStep<T, AddOp<T>>(a, b, result);
    case ArithOp::kSub:
      return MakeSingleStep<T, SubOp<T>>(a, b, result);
    case ArithOp::kMul:
      return MakeSingleStep<T, MulOp<T>>(a, b, result);
    case ArithOp::kDiv:
    case ArithOp::kMod:
      // Decimal division rescales and rounds; the plain scalar ops do not
      // implement that, so those instructions stay interpreted.
      if constexpr (std::is_same_v<T, int128_t>) {
        return nullptr;
      } else {
        return op == ArithOp::kDiv
                   ? MakeSingleStep<T, DivOp<T>>(a, b, result)
                   : MakeSingleStep<T, ModOp<T>>(a, b, result);
      }
  }
  return nullptr;
}

template <typename T, typename InnerOp>
ExprProgram::CompiledStepFn MakeFused2Outer(ArithOp outer, bool inner_left,
                                            COperand<T> x, COperand<T> y,
                                            COperand<T> z, DataType result) {
  switch (outer) {
    case ArithOp::kAdd:
      return inner_left
                 ? MakeFused2Step<T, InnerOp, AddOp<T>, true>(x, y, z, result)
                 : MakeFused2Step<T, InnerOp, AddOp<T>, false>(x, y, z,
                                                               result);
    case ArithOp::kSub:
      return inner_left
                 ? MakeFused2Step<T, InnerOp, SubOp<T>, true>(x, y, z, result)
                 : MakeFused2Step<T, InnerOp, SubOp<T>, false>(x, y, z,
                                                               result);
    case ArithOp::kMul:
      return inner_left
                 ? MakeFused2Step<T, InnerOp, MulOp<T>, true>(x, y, z, result)
                 : MakeFused2Step<T, InnerOp, MulOp<T>, false>(x, y, z,
                                                               result);
    default:
      return nullptr;
  }
}

template <typename T>
ExprProgram::CompiledStepFn MakeFused2(ArithOp inner, ArithOp outer,
                                       bool inner_left, COperand<T> x,
                                       COperand<T> y, COperand<T> z,
                                       DataType result) {
  switch (inner) {
    case ArithOp::kAdd:
      return MakeFused2Outer<T, AddOp<T>>(outer, inner_left, x, y, z, result);
    case ArithOp::kSub:
      return MakeFused2Outer<T, SubOp<T>>(outer, inner_left, x, y, z, result);
    case ArithOp::kMul:
      return MakeFused2Outer<T, MulOp<T>>(outer, inner_left, x, y, z, result);
    default:
      return nullptr;
  }
}

struct OperandDesc {
  int reg = -1;  // register; -1 when the arg is a non-NULL literal
  const LiteralExpr* lit = nullptr;
  DataType type;
};

/// True when instruction `i` is an arithmetic node the compiled tier has
/// kernels for: int64/float64 any op, decimal add/sub/mul on the regular
/// (non-precision-capped) fast path.
bool ArithEligible(const ExprProgram& p, size_t i, TypeId* tid, ArithOp* op) {
  const ExprInstr& ins = p.instrs()[i];
  if (ins.kind != ExprInstr::Kind::kNode) return false;
  auto* a = dynamic_cast<const ArithmeticExpr*>(ins.node.get());
  if (a == nullptr) return false;
  TypeId t = a->type().id();
  if (t != TypeId::kInt64 && t != TypeId::kFloat64 &&
      t != TypeId::kDecimal128) {
    return false;
  }
  if (t == TypeId::kDecimal128) {
    if (!IsAddSubMul(a->op())) return false;
    const DataType& lt = p.instrs()[ins.args[0]].node->type();
    const DataType& rt = p.instrs()[ins.args[1]].node->type();
    // Irregular (precision-capped) cases run the checked BigDecimal row
    // loop in the interpreter; never compile those.
    if (DecimalArithIsIrregular(a->op(), lt, rt, a->type())) return false;
  }
  *tid = t;
  *op = a->op();
  return true;
}

void GetOperandDescs(const ExprProgram& p, size_t i, OperandDesc d[2]) {
  const ExprInstr& ins = p.instrs()[i];
  for (int k = 0; k < 2; k++) {
    int arg = ins.args[k];
    const ExprInstr& ai = p.instrs()[arg];
    d[k].type = ai.node->type();
    d[k].reg = arg;
    d[k].lit = nullptr;
    if (ai.kind == ExprInstr::Kind::kLoadLit) {
      auto* l = static_cast<const LiteralExpr*>(ai.node.get());
      // NULL literals stay register operands: the cached literal vector's
      // null bytes give the right propagation for free.
      if (!l->value().is_null()) {
        d[k].reg = -1;
        d[k].lit = l;
      }
    }
  }
}

/// Converts a descriptor to a typed operand, applying the decimal operand
/// rules of DecimalAddSubKernel: for add/sub every operand arrives at the
/// result scale (register operands must already be there; literals are
/// prescaled once), for mul the raw values are used (sr == s1 + s2 on the
/// regular path).
template <typename T>
bool ConvertOperand(const OperandDesc& d, ArithOp op, const DataType& result,
                    COperand<T>* out) {
  if constexpr (std::is_same_v<T, int128_t>) {
    bool add_sub = op == ArithOp::kAdd || op == ArithOp::kSub;
    if (d.reg >= 0) {
      if (add_sub && d.type.scale() != result.scale()) return false;
      out->reg = d.reg;
      return true;
    }
    int128_t v = d.lit->value().decimal().value();
    if (add_sub) {
      int diff = result.scale() - d.type.scale();
      if (diff < 0) return false;  // cannot happen on the regular path
      v *= Decimal128::PowerOfTen(diff);
    }
    out->reg = -1;
    out->scalar = v;
    return true;
  } else {
    if (d.reg >= 0) {
      out->reg = d.reg;
      return true;
    }
    if constexpr (std::is_same_v<T, int64_t>) {
      out->scalar = d.lit->value().i64();
    } else {
      out->scalar = d.lit->value().f64();
    }
    out->reg = -1;
    return true;
  }
}

/// Attaches a compiled step to instruction `j`, fusing a single-use inner
/// arithmetic operand into it (two ops per loop iteration) when possible.
template <typename T>
void TryAttachArith(ExprProgram* p, size_t j, ArithOp opj,
                    const OperandDesc dj[2]) {
  const DataType& result = p->instrs()[j].node->type();
  if (IsAddSubMul(opj)) {
    for (int s = 0; s < 2; s++) {
      if (dj[s].reg < 0) continue;
      size_t i = static_cast<size_t>(dj[s].reg);
      if (p->num_uses(dj[s].reg) != 1 || p->is_root(dj[s].reg)) continue;
      TypeId ti;
      ArithOp opi;
      if (!ArithEligible(*p, i, &ti, &opi)) continue;
      if (ti != result.id() || !IsAddSubMul(opi)) continue;
      // If `i` already fused one of its own operands away (that operand's
      // instruction is marked skipped and only i's compiled step covers
      // it), absorbing `i` here would orphan the skipped register: i's
      // step would no longer run, and nothing else computes the operand
      // its x/y references point at.
      if (p->skip_when_compiled(p->instrs()[i].args[0]) ||
          p->skip_when_compiled(p->instrs()[i].args[1])) {
        continue;
      }
      // The inner result must be usable where its register would be (for
      // decimal add/sub: already at the outer result scale).
      COperand<T> inner_as_reg;
      if (!ConvertOperand<T>(dj[s], opj, result, &inner_as_reg)) continue;
      OperandDesc di[2];
      GetOperandDescs(*p, i, di);
      const DataType& inner_result = p->instrs()[i].node->type();
      COperand<T> x, y, z;
      if (!ConvertOperand<T>(di[0], opi, inner_result, &x)) continue;
      if (!ConvertOperand<T>(di[1], opi, inner_result, &y)) continue;
      if (!ConvertOperand<T>(dj[1 - s], opj, result, &z)) continue;
      ExprProgram::CompiledStepFn fn =
          MakeFused2<T>(opi, opj, /*inner_left=*/s == 0, x, y, z, result);
      if (!fn) continue;
      p->SetCompiledStep(j, std::move(fn));
      p->MarkSkipWhenCompiled(i);
      return;
    }
  }
  COperand<T> a, b;
  if (!ConvertOperand<T>(dj[0], opj, result, &a)) return;
  if (!ConvertOperand<T>(dj[1], opj, result, &b)) return;
  ExprProgram::CompiledStepFn fn = MakeArithStep<T>(opj, a, b, result);
  if (fn) p->SetCompiledStep(j, std::move(fn));
}

/// Overlays every eligible arithmetic instruction with a compiled step.
/// Instructions are in postfix order, so an instruction's operands have
/// smaller indices and fusion marks only already-visited instructions.
void AttachCompiledSteps(ExprProgram* p) {
  for (size_t j = 0; j < p->instrs().size(); j++) {
    TypeId tj;
    ArithOp opj;
    if (!ArithEligible(*p, j, &tj, &opj)) continue;
    OperandDesc dj[2];
    GetOperandDescs(*p, j, dj);
    switch (tj) {
      case TypeId::kInt64:
        TryAttachArith<int64_t>(p, j, opj, dj);
        break;
      case TypeId::kFloat64:
        TryAttachArith<double>(p, j, opj, dj);
        break;
      case TypeId::kDecimal128:
        TryAttachArith<int128_t>(p, j, opj, dj);
        break;
      default:
        break;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FusedUnit
// ---------------------------------------------------------------------------

Result<std::shared_ptr<const FusedUnit>> FusedUnit::Compile(
    const std::vector<FusedStage>& stages, const Schema& input_schema) {
  std::shared_ptr<FusedUnit> unit(new FusedUnit());

  // bindings[i] = the expression over the *input* schema computing column i
  // of the chain's current schema. Starts as the identity.
  std::vector<ExprPtr> bindings;
  bindings.reserve(input_schema.num_fields());
  for (int i = 0; i < input_schema.num_fields(); i++) {
    bindings.push_back(std::make_shared<ColumnRefExpr>(
        i, input_schema.field(i).type, input_schema.field(i).name));
  }

  std::vector<ExprPtr> raw_conjuncts;
  std::vector<std::string> names;
  bool have_projection = false;
  for (const FusedStage& st : stages) {
    // Flattening substitutes and canonicalizes recursively; refuse trees
    // deep enough to threaten the stack before touching them.
    if (st.is_filter) {
      PHOTON_RETURN_NOT_OK(CheckExpressionDepth(*st.predicate));
    } else {
      for (const ExprPtr& e : st.exprs) {
        PHOTON_RETURN_NOT_OK(CheckExpressionDepth(*e));
      }
    }
    if (st.is_filter) {
      PHOTON_ASSIGN_OR_RETURN(ExprPtr pred,
                              SubstituteColumns(st.predicate, bindings));
      SplitConjuncts(pred, &raw_conjuncts);
    } else {
      PHOTON_CHECK(st.exprs.size() == st.names.size());
      std::vector<ExprPtr> next;
      next.reserve(st.exprs.size());
      for (const ExprPtr& e : st.exprs) {
        PHOTON_ASSIGN_OR_RETURN(ExprPtr s, SubstituteColumns(e, bindings));
        next.push_back(std::move(s));
      }
      bindings = std::move(next);
      names = st.names;
      have_projection = true;
    }
  }

  for (const ExprPtr& raw : raw_conjuncts) {
    ExprPtr c = TryFoldConst(raw);
    if (auto* l = dynamic_cast<const LiteralExpr*>(c.get());
        l != nullptr && (l->value().is_null() ||
                         l->type().id() == TypeId::kBoolean)) {
      // TRUE conjuncts filter nothing; FALSE and NULL conjuncts reject
      // every row (Kleene: the whole AND can then never be true).
      if (!l->value().is_null() && l->value().boolean()) continue;
      unit->always_false_ = true;
      break;
    }
    Conjunct cj;
    cj.expr = c;
    cj.program = ExprProgram::Compile({c});
    AttachCompiledSteps(&cj.program);
    cj.term = TryCompileFilterTerm(c);
    unit->num_compiled_ +=
        cj.program.num_compiled_steps() + (cj.term ? 1 : 0);
    unit->conjuncts_.push_back(std::move(cj));
  }
  if (unit->always_false_) {
    unit->conjuncts_.clear();
    unit->num_compiled_ = 0;
  }

  if (have_projection) {
    unit->has_projection_ = true;
    std::vector<ExprPtr> proj_roots;
    Schema out_schema;
    for (size_t i = 0; i < bindings.size(); i++) {
      Output o;
      if (auto* cr = dynamic_cast<const ColumnRefExpr*>(bindings[i].get())) {
        o.input_col = cr->index();
      } else {
        o.root = static_cast<int>(proj_roots.size());
        proj_roots.push_back(bindings[i]);
      }
      unit->outputs_.push_back(o);
      out_schema.AddField(Field(names[i], bindings[i]->type()));
    }
    unit->projection_ = ExprProgram::Compile(proj_roots);
    AttachCompiledSteps(&unit->projection_);
    unit->num_compiled_ += unit->projection_.num_compiled_steps();
    unit->output_schema_ = std::move(out_schema);
  } else {
    unit->output_schema_ = input_schema;
  }
  return std::shared_ptr<const FusedUnit>(std::move(unit));
}

// ---------------------------------------------------------------------------
// FusedUnitState
// ---------------------------------------------------------------------------

FusedUnitState::FusedUnitState(std::shared_ptr<const FusedUnit> unit,
                               ExprPolicy policy)
    : unit_(std::move(unit)),
      use_compiled_(policy == ExprPolicy::kCompiledOnly &&
                    unit_->num_compiled() > 0) {
  conjunct_states_.reserve(unit_->conjuncts().size());
  for (const FusedUnit::Conjunct& cj : unit_->conjuncts()) {
    conjunct_states_.emplace_back(cj.program);
  }
  if (unit_->has_projection()) {
    projection_state_ = std::make_unique<ProgramState>(unit_->projection());
  }
}

Result<int> FusedUnitState::Eval(ColumnBatch* batch, EvalContext* ctx) {
  if (unit_->always_false()) {
    batch->SetActiveRows(0);
    return 0;
  }
  for (size_t ci = 0; ci < unit_->conjuncts().size(); ci++) {
    if (batch->num_active() == 0) break;
    const FusedUnit::Conjunct& cj = unit_->conjuncts()[ci];
    if (use_compiled_ && cj.term) {
      cj.term(batch);
    } else {
      ProgramState& st = conjunct_states_[ci];
      PHOTON_RETURN_NOT_OK(st.Run(batch, ctx, use_compiled_));
      ApplyBooleanFilter(*st.reg(cj.program.root_regs()[0]), batch);
    }
  }

  if (unit_->has_projection() &&
      (batch->num_active() > 0 || !unit_->has_predicates())) {
    PHOTON_RETURN_NOT_OK(projection_state_->Run(batch, ctx, use_compiled_));
  }
  if (use_compiled_) {
    compiled_batches_++;
  } else {
    fused_batches_++;
  }
  return batch->num_active();
}

ColumnVector* FusedUnitState::Output(size_t i, ColumnBatch* batch) const {
  const FusedUnit::Output& o = unit_->outputs()[i];
  if (o.input_col >= 0) return batch->column(o.input_col);
  return projection_state_->reg(unit_->projection().root_regs()[o.root]);
}

}  // namespace photon
