#include <algorithm>
#include <cmath>

#include "expr/expr.h"
#include "expr/kernels.h"
#include "expr/scalar_ops.h"
#include "types/big_decimal.h"

namespace photon {
namespace {

template <typename T, template <typename> class Op>
void RunBinary(ColumnBatch* batch, const ColumnVector& a,
               const ColumnVector& b, ColumnVector* out, bool has_nulls) {
  int n = batch->num_active();
  const int32_t* pos = batch->pos_list();
  DispatchBatchShape(
      has_nulls, batch->all_active(), [&](auto nulls_c, auto active_c) {
        BinaryKernel<T, T, Op<T>, decltype(nulls_c)::value,
                     decltype(active_c)::value>(
            pos, n, a.data<T>(), a.nulls(), b.data<T>(), b.nulls(),
            out->data<T>(), out->nulls());
      });
}

// Decimal kernels: operand scales may differ; the multipliers are loop
// constants so these stay tight.
template <bool kHasNulls, bool kAllRowsActive>
void DecimalAddSubKernel(const int32_t* PHOTON_RESTRICT pos, int n,
                         const int128_t* PHOTON_RESTRICT a,
                         const uint8_t* PHOTON_RESTRICT an,
                         const int128_t* PHOTON_RESTRICT b,
                         const uint8_t* PHOTON_RESTRICT bn,
                         int128_t a_mult, int128_t b_mult, bool subtract,
                         int128_t* PHOTON_RESTRICT out,
                         uint8_t* PHOTON_RESTRICT on) {
  for (int i = 0; i < n; i++) {
    int row = kAllRowsActive ? i : pos[i];
    if constexpr (kHasNulls) {
      if (an[row] | bn[row]) {
        on[row] = 1;
        continue;
      }
    }
    int128_t bv = b[row] * b_mult;
    out[row] = a[row] * a_mult + (subtract ? -bv : bv);
  }
}

template <bool kHasNulls, bool kAllRowsActive>
void DecimalMulKernel(const int32_t* PHOTON_RESTRICT pos, int n,
                      const int128_t* PHOTON_RESTRICT a,
                      const uint8_t* PHOTON_RESTRICT an,
                      const int128_t* PHOTON_RESTRICT b,
                      const uint8_t* PHOTON_RESTRICT bn,
                      int128_t* PHOTON_RESTRICT out,
                      uint8_t* PHOTON_RESTRICT on) {
  for (int i = 0; i < n; i++) {
    int row = kAllRowsActive ? i : pos[i];
    if constexpr (kHasNulls) {
      if (an[row] | bn[row]) {
        on[row] = 1;
        continue;
      }
    }
    out[row] = a[row] * b[row];
  }
}

}  // namespace

bool DecimalArithIsChecked(ArithOp op, const DataType& left,
                           const DataType& right, const DataType& result) {
  int s1 = left.scale();
  int s2 = right.scale();
  int p1 = left.precision();
  int p2 = right.precision();
  int sr = result.scale();
  return op == ArithOp::kDiv ||
         (op == ArithOp::kMul && (sr != s1 + s2 || p1 + p2 + 1 > 38)) ||
         ((op == ArithOp::kAdd || op == ArithOp::kSub) &&
          (sr < std::max(s1, s2) ||
           std::max(p1 - s1, p2 - s2) + std::max(s1, s2) + 1 > 38));
}

bool DecimalArithSlow(ArithOp op, int128_t a, int s1, int128_t b, int s2,
                      int sr, int128_t* out) {
  BigDecimal ba = BigDecimal::FromDecimal128(Decimal128(a), s1);
  BigDecimal bb = BigDecimal::FromDecimal128(Decimal128(b), s2);
  BigDecimal br;
  switch (op) {
    case ArithOp::kAdd:
      br = ba.Add(bb).SetScale(sr);
      break;
    case ArithOp::kSub:
      br = ba.Subtract(bb).SetScale(sr);
      break;
    case ArithOp::kMul:
      br = ba.Multiply(bb).SetScale(sr);
      break;
    case ArithOp::kDiv:
      if (bb.is_zero()) return false;
      br = ba.Divide(bb, sr);
      break;
    case ArithOp::kMod:
      PHOTON_CHECK(false);
  }
  Decimal128 result;
  if (!br.ToDecimal128(sr, &result)) return false;
  *out = result.value();
  return true;
}

ArithmeticExpr::ArithmeticExpr(ArithOp op, ExprPtr left, ExprPtr right,
                               DataType result)
    : Expr(result), op_(op), left_(std::move(left)), right_(std::move(right)) {
  PHOTON_CHECK(left_->type().id() == right_->type().id());
  PHOTON_CHECK(left_->type().id() == result.id());
}

Result<ColumnVector*> ArithmeticExpr::Evaluate(ColumnBatch* batch,
                                               EvalContext* ctx) const {
  PHOTON_ASSIGN_OR_RETURN(ColumnVector * a, left_->Evaluate(batch, ctx));
  PHOTON_ASSIGN_OR_RETURN(ColumnVector * b, right_->Evaluate(batch, ctx));
  ColumnVector* out = ctx->NewVector(type(), batch->capacity());
  int n = batch->num_active();
  const int32_t* pos = batch->pos_list();
  bool all = batch->all_active();
  // Runtime adaptivity (§4.6): discover NULL presence per batch and pick
  // the specialized kernel.
  bool has_nulls = a->ComputeHasNulls(pos, n, all) ||
                   b->ComputeHasNulls(pos, n, all);

  switch (type().id()) {
    case TypeId::kInt32: {
      switch (op_) {
        case ArithOp::kAdd:
          RunBinary<int32_t, AddOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kSub:
          RunBinary<int32_t, SubOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kMul:
          RunBinary<int32_t, MulOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kDiv:
          RunBinary<int32_t, DivOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kMod:
          RunBinary<int32_t, ModOp>(batch, *a, *b, out, has_nulls);
          break;
      }
      break;
    }
    case TypeId::kInt64: {
      switch (op_) {
        case ArithOp::kAdd:
          RunBinary<int64_t, AddOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kSub:
          RunBinary<int64_t, SubOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kMul:
          RunBinary<int64_t, MulOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kDiv:
          RunBinary<int64_t, DivOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kMod:
          RunBinary<int64_t, ModOp>(batch, *a, *b, out, has_nulls);
          break;
      }
      break;
    }
    case TypeId::kFloat64: {
      switch (op_) {
        case ArithOp::kAdd:
          RunBinary<double, AddOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kSub:
          RunBinary<double, SubOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kMul:
          RunBinary<double, MulOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kDiv:
          RunBinary<double, DivOp>(batch, *a, *b, out, has_nulls);
          break;
        case ArithOp::kMod:
          RunBinary<double, ModOp>(batch, *a, *b, out, has_nulls);
          break;
      }
      break;
    }
    case TypeId::kDecimal128: {
      int s1 = left_->type().scale();
      int s2 = right_->type().scale();
      int sr = type().scale();
      // Precision capping (38 digits) can shrink the result scale below
      // the natural one, and the result may not fit 38 digits even at the
      // natural scale (e.g. Decimal(38,2) + Decimal(38,2)). The unchecked
      // kernels below would wrap the int128; capped nodes (and division,
      // which always rescales and rounds) run the checked kernel instead,
      // which rounds like the row interpreter's BigDecimal path and turns
      // overflow into NULL (Spark's non-ANSI behavior).
      if (DecimalArithIsChecked(op_, left_->type(), right_->type(),
                                type())) {
        VisitCheckedDecimalOp(op_, s1, s2, sr, [&](auto op) {
          DispatchBatchShape(has_nulls, all, [&](auto nulls_c, auto active_c) {
            BinaryKernel<int128_t, int128_t, decltype(op),
                         decltype(nulls_c)::value, decltype(active_c)::value>(
                pos, n, a->data<int128_t>(), a->nulls(), b->data<int128_t>(),
                b->nulls(), out->data<int128_t>(), out->nulls(), op);
          });
        });
        out->set_has_nulls(TriState::kUnknown);
        return out;
      }
      DispatchBatchShape(has_nulls, all, [&](auto nulls_c, auto active_c) {
        constexpr bool kN = decltype(nulls_c)::value;
        constexpr bool kA = decltype(active_c)::value;
        switch (op_) {
          case ArithOp::kAdd:
          case ArithOp::kSub:
            DecimalAddSubKernel<kN, kA>(
                pos, n, a->data<int128_t>(), a->nulls(), b->data<int128_t>(),
                b->nulls(), Decimal128::PowerOfTen(sr - s1),
                Decimal128::PowerOfTen(sr - s2), op_ == ArithOp::kSub,
                out->data<int128_t>(), out->nulls());
            break;
          case ArithOp::kMul:
            // sr == s1 + s2 by construction: the raw product is the result.
            DecimalMulKernel<kN, kA>(pos, n, a->data<int128_t>(), a->nulls(),
                                     b->data<int128_t>(), b->nulls(),
                                     out->data<int128_t>(), out->nulls());
            break;
          case ArithOp::kDiv:  // always checked (above)
          case ArithOp::kMod:
            PHOTON_CHECK(false);  // decimal mod unsupported
        }
      });
      break;
    }
    default:
      return Status::Internal("arithmetic on unsupported type " +
                              type().ToString());
  }
  out->set_has_nulls(has_nulls ? TriState::kYes : TriState::kUnknown);
  return out;
}

Result<Value> ArithmeticExpr::EvaluateRow(const std::vector<Value>& row) const {
  PHOTON_ASSIGN_OR_RETURN(Value a, left_->EvaluateRow(row));
  PHOTON_ASSIGN_OR_RETURN(Value b, right_->EvaluateRow(row));
  if (a.is_null() || b.is_null()) return Value::Null();

  switch (type().id()) {
    case TypeId::kInt32: {
      int32_t r;
      bool ok = true;
      switch (op_) {
        case ArithOp::kAdd:
          ok = AddOp<int32_t>::Apply(a.i32(), b.i32(), &r);
          break;
        case ArithOp::kSub:
          ok = SubOp<int32_t>::Apply(a.i32(), b.i32(), &r);
          break;
        case ArithOp::kMul:
          ok = MulOp<int32_t>::Apply(a.i32(), b.i32(), &r);
          break;
        case ArithOp::kDiv:
          ok = DivOp<int32_t>::Apply(a.i32(), b.i32(), &r);
          break;
        case ArithOp::kMod:
          ok = ModOp<int32_t>::Apply(a.i32(), b.i32(), &r);
          break;
      }
      return ok ? Value::Int32(r) : Value::Null();
    }
    case TypeId::kInt64: {
      int64_t r;
      bool ok = true;
      switch (op_) {
        case ArithOp::kAdd:
          ok = AddOp<int64_t>::Apply(a.i64(), b.i64(), &r);
          break;
        case ArithOp::kSub:
          ok = SubOp<int64_t>::Apply(a.i64(), b.i64(), &r);
          break;
        case ArithOp::kMul:
          ok = MulOp<int64_t>::Apply(a.i64(), b.i64(), &r);
          break;
        case ArithOp::kDiv:
          ok = DivOp<int64_t>::Apply(a.i64(), b.i64(), &r);
          break;
        case ArithOp::kMod:
          ok = ModOp<int64_t>::Apply(a.i64(), b.i64(), &r);
          break;
      }
      return ok ? Value::Int64(r) : Value::Null();
    }
    case TypeId::kFloat64: {
      double r;
      bool ok = true;
      switch (op_) {
        case ArithOp::kAdd:
          ok = AddOp<double>::Apply(a.f64(), b.f64(), &r);
          break;
        case ArithOp::kSub:
          ok = SubOp<double>::Apply(a.f64(), b.f64(), &r);
          break;
        case ArithOp::kMul:
          ok = MulOp<double>::Apply(a.f64(), b.f64(), &r);
          break;
        case ArithOp::kDiv:
          ok = DivOp<double>::Apply(a.f64(), b.f64(), &r);
          break;
        case ArithOp::kMod:
          ok = ModOp<double>::Apply(a.f64(), b.f64(), &r);
          break;
      }
      return ok ? Value::Float64(r) : Value::Null();
    }
    case TypeId::kDecimal128: {
      int s1 = left_->type().scale();
      int s2 = right_->type().scale();
      int sr = type().scale();
      // The baseline engine mimics the JVM engine's decimal behavior (and
      // cost): precision above 18 digits goes through arbitrary-precision
      // BigDecimal, exactly like Spark falling back from compact Long
      // decimals to java.math.BigDecimal (§6.2's Q1 discussion).
      if (type().precision() > 18) {
        BigDecimal ba = BigDecimal::FromDecimal128(a.decimal(), s1);
        BigDecimal bb = BigDecimal::FromDecimal128(b.decimal(), s2);
        BigDecimal br;
        switch (op_) {
          case ArithOp::kAdd:
            br = ba.Add(bb).SetScale(sr);
            break;
          case ArithOp::kSub:
            br = ba.Subtract(bb).SetScale(sr);
            break;
          case ArithOp::kMul:
            br = ba.Multiply(bb).SetScale(sr);
            break;
          case ArithOp::kDiv:
            if (bb.is_zero()) return Value::Null();
            br = ba.Divide(bb, sr);
            break;
          case ArithOp::kMod:
            return Status::NotImplemented("decimal mod");
        }
        Decimal128 out;
        if (!br.ToDecimal128(sr, &out)) return Value::Null();  // overflow
        return Value::Decimal(out);
      }
      // Low-precision fast path (Spark's compact Long decimal).
      Decimal128 da = a.decimal(), db = b.decimal();
      switch (op_) {
        case ArithOp::kAdd:
        case ArithOp::kSub: {
          int128_t av = da.value() * Decimal128::PowerOfTen(sr - s1);
          int128_t bv = db.value() * Decimal128::PowerOfTen(sr - s2);
          return Value::Decimal(
              Decimal128(op_ == ArithOp::kSub ? av - bv : av + bv));
        }
        case ArithOp::kMul:
          return Value::Decimal(Decimal128(da.value() * db.value()));
        case ArithOp::kDiv: {
          if (db.value() == 0) return Value::Null();
          Decimal128 q;
          Decimal128::Divide(da, db, sr - s1 + s2, &q);
          return Value::Decimal(q);
        }
        case ArithOp::kMod:
          return Status::NotImplemented("decimal mod");
      }
      return Value::Null();
    }
    default:
      return Status::Internal("arithmetic on unsupported type");
  }
}

std::string ArithmeticExpr::ToString() const {
  static const char* kOps[] = {"+", "-", "*", "/", "%"};
  return "(" + left_->ToString() + " " + kOps[static_cast<int>(op_)] + " " +
         right_->ToString() + ")";
}

}  // namespace photon
