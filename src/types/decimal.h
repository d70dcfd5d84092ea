#ifndef PHOTON_TYPES_DECIMAL_H_
#define PHOTON_TYPES_DECIMAL_H_

#include <cstdint>
#include <string>

#include "common/macros.h"

namespace photon {

using int128_t = __int128;
using uint128_t = unsigned __int128;

/// 10^38 - 1: the largest unscaled magnitude a decimal(38, s) holds.
inline constexpr int128_t kMaxDecimal38 = [] {
  int128_t v = 1;
  for (int i = 0; i < 38; i++) v *= 10;
  return v - 1;
}();

/// Fixed-point decimal backed by a native 128-bit integer. This is Photon's
/// decimal representation: all arithmetic stays in machine integers, which
/// is what gives the paper's Q1 its 23x speedup over the baseline engine's
/// arbitrary-precision BigDecimal (§6.2).
///
/// The scale is carried by the enclosing DataType; Decimal128 itself is just
/// the unscaled 128-bit value plus arithmetic helpers.
class Decimal128 {
 public:
  Decimal128() : value_(0) {}
  explicit Decimal128(int128_t value) : value_(value) {}
  Decimal128(int64_t high, uint64_t low)
      : value_((static_cast<int128_t>(high) << 64) |
               static_cast<int128_t>(low)) {}

  int128_t value() const { return value_; }

  static Decimal128 FromInt64(int64_t v) {
    return Decimal128(static_cast<int128_t>(v));
  }

  /// 10^exp as an int128 (exp in [0, 38]).
  static int128_t PowerOfTen(int exp);

  /// Maximum unscaled value representable at the given precision.
  static int128_t MaxValueForPrecision(int precision) {
    return PowerOfTen(precision) - 1;
  }

  /// Parses "[-]digits[.digits]" with the given target scale. Returns false
  /// on malformed input or overflow of 38 digits.
  static bool FromString(const std::string& s, int scale, Decimal128* out);

  /// Renders with a decimal point at `scale` digits.
  std::string ToString(int scale) const;

  double ToDouble(int scale) const;

  /// Number of decimal digits in the magnitude (>= 1).
  int Precision() const;

  Decimal128 operator+(const Decimal128& o) const {
    return Decimal128(value_ + o.value_);
  }
  Decimal128 operator-(const Decimal128& o) const {
    return Decimal128(value_ - o.value_);
  }
  Decimal128 operator*(const Decimal128& o) const {
    return Decimal128(value_ * o.value_);
  }
  Decimal128 operator-() const { return Decimal128(-value_); }

  bool operator==(const Decimal128& o) const { return value_ == o.value_; }
  bool operator!=(const Decimal128& o) const { return value_ != o.value_; }
  bool operator<(const Decimal128& o) const { return value_ < o.value_; }
  bool operator<=(const Decimal128& o) const { return value_ <= o.value_; }
  bool operator>(const Decimal128& o) const { return value_ > o.value_; }
  bool operator>=(const Decimal128& o) const { return value_ >= o.value_; }

  /// Rescales the unscaled value from `from_scale` to `to_scale`, rounding
  /// half away from zero when reducing scale. Returns false on overflow.
  bool Rescale(int from_scale, int to_scale, Decimal128* out) const;

  /// Divides by `divisor` producing a result at `result_scale` given inputs
  /// already aligned: computes round(this * 10^shift / divisor).
  static bool Divide(const Decimal128& dividend, const Decimal128& divisor,
                     int shift, Decimal128* out);

 private:
  int128_t value_;
};

}  // namespace photon

#endif  // PHOTON_TYPES_DECIMAL_H_
