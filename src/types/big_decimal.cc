#include "types/big_decimal.h"

#include <algorithm>

#include "common/macros.h"
#include "types/decimal.h"

namespace photon {

void BigDecimal::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigDecimal BigDecimal::FromInt64(int64_t v, int scale) {
  BigDecimal out;
  out.scale_ = scale;
  out.negative_ = v < 0;
  uint64_t mag = out.negative_ ? static_cast<uint64_t>(-(v + 1)) + 1
                               : static_cast<uint64_t>(v);
  while (mag != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(mag % kBase));
    mag /= kBase;
  }
  return out;
}

BigDecimal BigDecimal::FromDecimal128(const Decimal128& v, int scale) {
  BigDecimal out;
  out.scale_ = scale;
  int128_t val = v.value();
  out.negative_ = val < 0;
  // Negate in uint128: -val is signed overflow for val == INT128_MIN (a
  // wrapped decimal sum accumulator can land there).
  uint128_t mag = out.negative_ ? uint128_t{0} - static_cast<uint128_t>(val)
                                : static_cast<uint128_t>(val);
  while (mag != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(mag % kBase));
    mag /= kBase;
  }
  return out;
}

bool BigDecimal::FromString(const std::string& s, BigDecimal* out) {
  // Parse into digits, then build limbs by repeated multiply-add (this is
  // what BigInteger(String) does, cost included).
  const char* p = s.c_str();
  bool neg = false;
  if (*p == '-') {
    neg = true;
    p++;
  } else if (*p == '+') {
    p++;
  }
  BigDecimal r;
  int scale = 0;
  bool in_frac = false;
  bool saw_digit = false;
  for (; *p; p++) {
    if (*p == '.') {
      if (in_frac) return false;
      in_frac = true;
      continue;
    }
    if (*p < '0' || *p > '9') return false;
    saw_digit = true;
    if (in_frac) scale++;
    // r = r * 10 + digit
    uint32_t carry = static_cast<uint32_t>(*p - '0');
    for (size_t i = 0; i < r.limbs_.size(); i++) {
      uint64_t cur = static_cast<uint64_t>(r.limbs_[i]) * 10 + carry;
      r.limbs_[i] = static_cast<uint32_t>(cur % kBase);
      carry = static_cast<uint32_t>(cur / kBase);
    }
    if (carry) r.limbs_.push_back(carry);
  }
  if (!saw_digit) return false;
  r.negative_ = neg;
  r.scale_ = scale;
  r.Normalize();
  *out = r;
  return true;
}

int BigDecimal::CompareMagnitude(const std::vector<uint32_t>& a,
                                 const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<uint32_t> BigDecimal::AddMagnitude(
    const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint32_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); i++) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum % kBase));
    carry = static_cast<uint32_t>(sum / kBase);
  }
  if (carry) out.push_back(carry);
  return out;
}

std::vector<uint32_t> BigDecimal::SubMagnitude(
    const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  // Requires |a| >= |b|.
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); i++) {
    int64_t cur = static_cast<int64_t>(a[i]) - borrow -
                  (i < b.size() ? b[i] : 0);
    if (cur < 0) {
      cur += kBase;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(cur));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint32_t> BigDecimal::MulMagnitude(
    const std::vector<uint32_t>& a, const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint64_t> acc(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); i++) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); j++) {
      uint64_t cur =
          acc[i + j] + static_cast<uint64_t>(a[i]) * b[j] + carry;
      acc[i + j] = cur % kBase;
      carry = cur / kBase;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = acc[k] + carry;
      acc[k] = cur % kBase;
      carry = cur / kBase;
      k++;
    }
  }
  std::vector<uint32_t> out(acc.size());
  for (size_t i = 0; i < acc.size(); i++) out[i] = static_cast<uint32_t>(acc[i]);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigDecimal BigDecimal::ShiftScale(int digits) const {
  PHOTON_CHECK(digits >= 0);
  BigDecimal out = *this;
  for (int d = 0; d < digits; d++) {
    uint32_t carry = 0;
    for (size_t i = 0; i < out.limbs_.size(); i++) {
      uint64_t cur = static_cast<uint64_t>(out.limbs_[i]) * 10 + carry;
      out.limbs_[i] = static_cast<uint32_t>(cur % kBase);
      carry = static_cast<uint32_t>(cur / kBase);
    }
    if (carry) out.limbs_.push_back(carry);
  }
  return out;
}

BigDecimal BigDecimal::Add(const BigDecimal& other) const {
  // Align scales (like java.math.BigDecimal.add).
  const BigDecimal* a = this;
  const BigDecimal* b = &other;
  BigDecimal at, bt;
  if (a->scale_ < b->scale_) {
    at = a->ShiftScale(b->scale_ - a->scale_);
    at.scale_ = b->scale_;
    a = &at;
  } else if (b->scale_ < a->scale_) {
    bt = b->ShiftScale(a->scale_ - b->scale_);
    bt.scale_ = a->scale_;
    b = &bt;
  }
  BigDecimal out;
  out.scale_ = a->scale_;
  if (a->negative_ == b->negative_) {
    out.limbs_ = AddMagnitude(a->limbs_, b->limbs_);
    out.negative_ = a->negative_;
  } else {
    int cmp = CompareMagnitude(a->limbs_, b->limbs_);
    if (cmp == 0) {
      out.negative_ = false;
    } else if (cmp > 0) {
      out.limbs_ = SubMagnitude(a->limbs_, b->limbs_);
      out.negative_ = a->negative_;
    } else {
      out.limbs_ = SubMagnitude(b->limbs_, a->limbs_);
      out.negative_ = b->negative_;
    }
  }
  out.Normalize();
  return out;
}

BigDecimal BigDecimal::Subtract(const BigDecimal& other) const {
  BigDecimal neg = other;
  if (!neg.is_zero()) neg.negative_ = !neg.negative_;
  return Add(neg);
}

BigDecimal BigDecimal::Multiply(const BigDecimal& other) const {
  BigDecimal out;
  out.limbs_ = MulMagnitude(limbs_, other.limbs_);
  out.negative_ = !out.limbs_.empty() && (negative_ != other.negative_);
  out.scale_ = scale_ + other.scale_;
  return out;
}

BigDecimal BigDecimal::Divide(const BigDecimal& other, int result_scale) const {
  PHOTON_CHECK(!other.is_zero());
  // Compute round(this * 10^(result_scale + other.scale - this.scale) /
  // other) by long division on limbs. We shift the dividend so the quotient
  // lands at result_scale, with one extra digit for rounding.
  int shift = result_scale + other.scale_ - scale_ + 1;
  BigDecimal dividend = shift >= 0 ? ShiftScale(shift) : *this;
  PHOTON_CHECK(shift >= 0);  // engine always widens scale on divide

  // Schoolbook long division: repeatedly bring in one base-1e9 limb.
  std::vector<uint32_t> quotient(dividend.limbs_.size(), 0);
  std::vector<uint32_t> rem;  // little-endian current remainder
  for (size_t i = dividend.limbs_.size(); i-- > 0;) {
    rem.insert(rem.begin(), dividend.limbs_[i]);
    while (!rem.empty() && rem.back() == 0) rem.pop_back();
    // Binary-search the quotient digit in [0, base).
    uint32_t lo = 0, hi = kBase - 1, q = 0;
    while (lo <= hi) {
      uint32_t mid = lo + (hi - lo) / 2;
      std::vector<uint32_t> prod =
          MulMagnitude(other.limbs_, std::vector<uint32_t>{mid});
      if (CompareMagnitude(prod, rem) <= 0) {
        q = mid;
        lo = mid + 1;
      } else {
        if (mid == 0) break;
        hi = mid - 1;
      }
    }
    quotient[i] = q;
    if (q != 0) {
      std::vector<uint32_t> prod =
          MulMagnitude(other.limbs_, std::vector<uint32_t>{q});
      rem = SubMagnitude(rem, prod);
    }
  }
  BigDecimal out;
  out.limbs_ = quotient;
  out.Normalize();
  out.negative_ = !out.limbs_.empty() && (negative_ != other.negative_);
  out.scale_ = result_scale + 1;
  return out.SetScale(result_scale);
}

BigDecimal BigDecimal::SetScale(int new_scale) const {
  if (new_scale == scale_) return *this;
  if (new_scale > scale_) {
    BigDecimal out = ShiftScale(new_scale - scale_);
    out.scale_ = new_scale;
    return out;
  }
  // Reduce scale: divide magnitude by 10^(scale-new_scale), rounding half
  // away from zero.
  int drop = scale_ - new_scale;
  BigDecimal out = *this;
  uint32_t last_digit = 0;
  for (int d = 0; d < drop; d++) {
    uint64_t rem = 0;
    for (size_t i = out.limbs_.size(); i-- > 0;) {
      uint64_t cur = rem * kBase + out.limbs_[i];
      out.limbs_[i] = static_cast<uint32_t>(cur / 10);
      rem = cur % 10;
    }
    last_digit = static_cast<uint32_t>(rem);
    while (!out.limbs_.empty() && out.limbs_.back() == 0) out.limbs_.pop_back();
  }
  if (last_digit >= 5) {
    out.limbs_ = AddMagnitude(out.limbs_, {1});
  }
  out.scale_ = new_scale;
  out.Normalize();
  return out;
}

int BigDecimal::Compare(const BigDecimal& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  // Align scales for magnitude comparison.
  BigDecimal a = *this, b = other;
  if (a.scale_ < b.scale_) a = a.ShiftScale(b.scale_ - a.scale_);
  if (b.scale_ < a.scale_) b = b.ShiftScale(a.scale_ - b.scale_);
  int cmp = CompareMagnitude(a.limbs_, b.limbs_);
  return negative_ ? -cmp : cmp;
}

std::string BigDecimal::ToString() const {
  // Render the magnitude in base 10, then insert sign and decimal point.
  std::string digits;
  if (limbs_.empty()) {
    digits = "0";
  } else {
    char buf[16];
    for (size_t i = limbs_.size(); i-- > 0;) {
      if (i + 1 == limbs_.size()) {
        std::snprintf(buf, sizeof(buf), "%u", limbs_[i]);
      } else {
        std::snprintf(buf, sizeof(buf), "%09u", limbs_[i]);
      }
      digits += buf;
    }
  }
  while (static_cast<int>(digits.size()) <= scale_) digits.insert(0, "0");
  std::string out;
  if (negative_) out = "-";
  out += digits.substr(0, digits.size() - scale_);
  if (scale_ > 0) {
    out += ".";
    out += digits.substr(digits.size() - scale_);
  }
  return out;
}

double BigDecimal::ToDouble() const {
  double v = 0;
  for (size_t i = limbs_.size(); i-- > 0;) v = v * kBase + limbs_[i];
  for (int i = 0; i < scale_; i++) v /= 10.0;
  return negative_ ? -v : v;
}

bool BigDecimal::ToDecimal128(int scale, Decimal128* out) const {
  BigDecimal scaled = SetScale(scale);
  const uint128_t max =
      static_cast<uint128_t>(Decimal128::MaxValueForPrecision(38));
  uint128_t mag = 0;
  for (size_t i = scaled.limbs_.size(); i-- > 0;) {
    // Guard before multiplying: mag * kBase can wrap uint128 (the old
    // `next < mag` test only catches additive wrap, so magnitudes in
    // (max38, 2^128) could sneak through as their mod-2^128 residue).
    if (mag > max / kBase) return false;
    mag = mag * kBase + scaled.limbs_[i];
    if (mag > max) return false;
  }
  int128_t v = static_cast<int128_t>(mag);
  *out = Decimal128(scaled.negative_ ? -v : v);
  return true;
}

}  // namespace photon
