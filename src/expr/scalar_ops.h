#ifndef PHOTON_EXPR_SCALAR_OPS_H_
#define PHOTON_EXPR_SCALAR_OPS_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/macros.h"
#include "expr/expr.h"
#include "types/data_type.h"
#include "types/decimal.h"

// Scalar arithmetic semantics shared by the interpreted tree
// (arithmetic.cc), the row-at-a-time oracle, and the compiled expression
// tier (fusion.cc). Keeping one definition is what makes tier parity an
// invariant rather than a test outcome: a compiled kernel cannot drift
// from the interpreter when both instantiate the same Op::Apply.

namespace photon {

namespace detail {
// std::make_unsigned does not cover __int128 under strict modes; the
// decimal compiled kernels need the same wrapping add/sub/mul as ints.
template <typename T>
struct Unsigned {
  using type = std::make_unsigned_t<T>;
};
template <>
struct Unsigned<__int128> {
  using type = unsigned __int128;
};
}  // namespace detail

// Integer ops wrap on overflow (Spark non-ANSI semantics); performed on the
// unsigned representation to avoid UB.
template <typename T>
struct AddOp {
  static PHOTON_ALWAYS_INLINE bool Apply(T a, T b, T* out) {
    using U = typename detail::Unsigned<T>::type;
    *out = static_cast<T>(static_cast<U>(a) + static_cast<U>(b));
    return true;
  }
};
template <>
struct AddOp<double> {
  static PHOTON_ALWAYS_INLINE bool Apply(double a, double b, double* out) {
    *out = a + b;
    return true;
  }
};

template <typename T>
struct SubOp {
  static PHOTON_ALWAYS_INLINE bool Apply(T a, T b, T* out) {
    using U = typename detail::Unsigned<T>::type;
    *out = static_cast<T>(static_cast<U>(a) - static_cast<U>(b));
    return true;
  }
};
template <>
struct SubOp<double> {
  static PHOTON_ALWAYS_INLINE bool Apply(double a, double b, double* out) {
    *out = a - b;
    return true;
  }
};

template <typename T>
struct MulOp {
  static PHOTON_ALWAYS_INLINE bool Apply(T a, T b, T* out) {
    using U = typename detail::Unsigned<T>::type;
    *out = static_cast<T>(static_cast<U>(a) * static_cast<U>(b));
    return true;
  }
};
template <>
struct MulOp<double> {
  static PHOTON_ALWAYS_INLINE bool Apply(double a, double b, double* out) {
    *out = a * b;
    return true;
  }
};

template <typename T>
struct DivOp {
  static PHOTON_ALWAYS_INLINE bool Apply(T a, T b, T* out) {
    if (b == 0) return false;  // NULL, like Spark
    if (b == -1 && a == std::numeric_limits<T>::min()) {
      *out = a;  // avoid SIGFPE on INT_MIN / -1; wraps like Java
      return true;
    }
    *out = a / b;
    return true;
  }
};
template <>
struct DivOp<double> {
  static PHOTON_ALWAYS_INLINE bool Apply(double a, double b, double* out) {
    *out = a / b;  // IEEE: inf/nan
    return true;
  }
};

template <typename T>
struct ModOp {
  static PHOTON_ALWAYS_INLINE bool Apply(T a, T b, T* out) {
    if (b == 0) return false;
    if (b == -1) {
      *out = 0;
      return true;
    }
    *out = a % b;
    return true;
  }
};
template <>
struct ModOp<double> {
  static PHOTON_ALWAYS_INLINE bool Apply(double a, double b, double* out) {
    *out = std::fmod(a, b);
    return true;
  }
};

/// True when a decimal arithmetic node runs CheckedDecimalOp: a division
/// (it always rescales and rounds), or an add/sub/mul whose result type
/// was capped at 38 digits (result scale below the natural one, or natural
/// precision above 38), so its rows can overflow or need rounding. The
/// rest run unchecked int128 kernels, whose operand precisions leave the
/// result exact and in range.
bool DecimalArithIsChecked(ArithOp op, const DataType& left,
                           const DataType& right, const DataType& result);

/// Exact decimal arithmetic through BigDecimal, with the row oracle's
/// rounding and 38-digit overflow check; false means NULL. Only
/// CheckedDecimalOp calls it, for the rows int128 cannot settle.
PHOTON_NOINLINE bool DecimalArithSlow(ArithOp op, int128_t a, int s1,
                                      int128_t b, int s2, int sr,
                                      int128_t* out);

/// |v| as uint128: exact for every int128, INT128_MIN included.
PHOTON_ALWAYS_INLINE uint128_t DecimalMagnitude(int128_t v) {
  return v < 0 ? uint128_t{0} - static_cast<uint128_t>(v)
               : static_cast<uint128_t>(v);
}

/// round(num / den), halves rounded up (den > 0). The remainder test
/// `rem >= den - rem` is 2 * rem >= den without overflowing uint128.
PHOTON_ALWAYS_INLINE uint128_t DivRoundHalfUp(uint128_t num, uint128_t den) {
  uint128_t q = num / den;
  uint128_t rem = num - q * den;
  return q + (rem >= den - rem ? 1 : 0);
}

/// Checked int128 decimal arithmetic with the semantics of the row
/// oracle's BigDecimal path: the exact result at the natural scale
/// (max(s1, s2) for add/sub, s1 + s2 for mul), rounded half away from zero
/// on the magnitude to the result scale, NULL when |result| > 10^38 - 1.
/// Division computes round(|a| * 10^k / |b|) with k = sr - s1 + s2, which
/// is what BigDecimal::Divide does.
///
/// Every intermediate is checked with __builtin_*_overflow. When the exact
/// result at the natural scale overflows int128 and the result scale is
/// not below it, the result is NULL: its magnitude is at least 2^127 >
/// 10^38 - 1. Only below the natural scale could the exact value still fit
/// after rounding; those rows take DecimalArithSlow, as do an add/sub
/// whose aligned operand overflows and a division whose scaled dividend
/// overflows uint128. So a capped mul at sr == s1 + s2 — TPC-H Q1's
/// charge — never leaves int128.
///
/// The interpreter (ArithmeticExpr::Evaluate) and the compiled tier both
/// run Apply, so the tiers cannot drift on capped decimals.
template <ArithOp kOp>
class CheckedDecimalOp {
  static_assert(kOp != ArithOp::kMod, "decimal mod is unsupported");

 public:
  CheckedDecimalOp(int s1, int s2, int sr) : s1_(s1), s2_(s2), sr_(sr) {
    if constexpr (kOp == ArithOp::kDiv) {
      int k = sr - s1 + s2;
      div_slow_ = k < 0 || k > 38;
      if (!div_slow_) k_mult_ = Decimal128::PowerOfTen(k);
    } else {
      int sn = kOp == ArithOp::kMul ? s1 + s2 : std::max(s1, s2);
      if constexpr (kOp != ArithOp::kMul) {
        a_mult_ = Decimal128::PowerOfTen(sn - s1);
        b_mult_ = Decimal128::PowerOfTen(sn - s2);
      }
      drop_ = sn - sr;
      // Past 38 digits the power of ten does not fit; the stand-ins give
      // the same answers: any |r| <= 2^127 rounds to 0 when dropping more
      // than 38 digits, and any r != 0 times 10^38 is already out of range.
      if (drop_ > 0) {
        drop_div_ = drop_ <= 38 ? static_cast<uint128_t>(
                                      Decimal128::PowerOfTen(drop_))
                                : ~uint128_t{0};
      } else if (drop_ < 0) {
        up_mult_ = Decimal128::PowerOfTen(std::min(-drop_, 38));
      }
    }
  }

  /// Writes a op b at the result scale; false means NULL.
  PHOTON_ALWAYS_INLINE bool Apply(int128_t a, int128_t b,
                                  int128_t* out) const {
    if constexpr (kOp == ArithOp::kDiv) {
      return Divide(a, b, out);
    } else {
      int128_t r = 0;
      if constexpr (kOp == ArithOp::kMul) {
        if (__builtin_mul_overflow(a, b, &r)) return Overflowed(a, b, out);
      } else {
        int128_t x = 0, y = 0;
        if (__builtin_mul_overflow(a, a_mult_, &x) |
            __builtin_mul_overflow(b, b_mult_, &y)) {
          // Only one operand is ever scaled up, and the other can still
          // cancel it back into range: not proof of NULL.
          return DecimalArithSlow(kOp, a, s1_, b, s2_, sr_, out);
        }
        if (kOp == ArithOp::kAdd ? __builtin_add_overflow(x, y, &r)
                                 : __builtin_sub_overflow(x, y, &r)) {
          return Overflowed(a, b, out);
        }
      }
      return Rescale(r, out);
    }
  }

 private:
  PHOTON_ALWAYS_INLINE bool Rescale(int128_t r, int128_t* out) const {
    if (drop_ > 0) {
      // |r| <= 2^127 and at least one digit dropped: always in range.
      uint128_t q = DivRoundHalfUp(DecimalMagnitude(r), drop_div_);
      *out = r < 0 ? -static_cast<int128_t>(q) : static_cast<int128_t>(q);
      return true;
    }
    if (drop_ == 0) {
      *out = r;
    } else if (__builtin_mul_overflow(r, up_mult_, out)) {
      return false;
    }
    return *out <= kMaxDecimal38 && *out >= -kMaxDecimal38;
  }

  bool Overflowed(int128_t a, int128_t b, int128_t* out) const {
    if (drop_ <= 0) return false;
    return DecimalArithSlow(kOp, a, s1_, b, s2_, sr_, out);
  }

  bool Divide(int128_t a, int128_t b, int128_t* out) const {
    if (b == 0) return false;
    uint128_t num = 0;
    if (div_slow_ ||
        __builtin_mul_overflow(DecimalMagnitude(a), k_mult_, &num)) {
      return DecimalArithSlow(kOp, a, s1_, b, s2_, sr_, out);
    }
    uint128_t q = DivRoundHalfUp(num, DecimalMagnitude(b));
    if (q > static_cast<uint128_t>(kMaxDecimal38)) return false;
    *out = (a < 0) != (b < 0) ? -static_cast<int128_t>(q)
                              : static_cast<int128_t>(q);
    return true;
  }

  int s1_, s2_, sr_;
  int128_t a_mult_ = 1, b_mult_ = 1;  // add/sub: align to the natural scale
  int drop_ = 0;          // natural scale - result scale
  uint128_t drop_div_ = 1;  // 10^drop_ when drop_ > 0
  int128_t up_mult_ = 1;    // 10^-drop_ when drop_ < 0
  uint128_t k_mult_ = 1;    // div: 10^(sr - s1 + s2)
  bool div_slow_ = false;   // div: k outside [0, 38]
};

/// Calls fn with the CheckedDecimalOp for `op` (any op but kMod) and
/// returns its result: the one runtime-to-template dispatch both tiers use.
template <typename Fn>
auto VisitCheckedDecimalOp(ArithOp op, int s1, int s2, int sr, Fn&& fn) {
  switch (op) {
    case ArithOp::kAdd:
      return fn(CheckedDecimalOp<ArithOp::kAdd>(s1, s2, sr));
    case ArithOp::kSub:
      return fn(CheckedDecimalOp<ArithOp::kSub>(s1, s2, sr));
    case ArithOp::kMul:
      return fn(CheckedDecimalOp<ArithOp::kMul>(s1, s2, sr));
    default:
      PHOTON_CHECK(op == ArithOp::kDiv);  // decimal mod is unsupported
      return fn(CheckedDecimalOp<ArithOp::kDiv>(s1, s2, sr));
  }
}

}  // namespace photon

#endif  // PHOTON_EXPR_SCALAR_OPS_H_
