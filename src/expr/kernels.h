#ifndef PHOTON_EXPR_KERNELS_H_
#define PHOTON_EXPR_KERNELS_H_

#include <type_traits>
#include <utility>

#include "common/macros.h"
#include "types/data_type.h"
#include "vector/column_batch.h"

namespace photon {

/// C++ value type backing each TypeId in column vectors.
template <TypeId kId>
struct PhysicalType;
template <>
struct PhysicalType<TypeId::kBoolean> {
  using type = uint8_t;
};
template <>
struct PhysicalType<TypeId::kInt32> {
  using type = int32_t;
};
template <>
struct PhysicalType<TypeId::kInt64> {
  using type = int64_t;
};
template <>
struct PhysicalType<TypeId::kFloat64> {
  using type = double;
};
template <>
struct PhysicalType<TypeId::kDate32> {
  using type = int32_t;
};
template <>
struct PhysicalType<TypeId::kTimestamp> {
  using type = int64_t;
};
template <>
struct PhysicalType<TypeId::kString> {
  using type = StringRef;
};
template <>
struct PhysicalType<TypeId::kDecimal128> {
  using type = int128_t;
};

/// Runtime dispatch over the two batch-shape template parameters every
/// Photon kernel adapts to (§4.6): NULL presence and row activity. The
/// callable is invoked with two std::bool_constant values, so the kernel
/// body sees compile-time constants and dead branches compile away
/// (Listing 2 of the paper).
template <typename Fn>
void DispatchBatchShape(bool has_nulls, bool all_active, Fn&& fn) {
  using T = std::true_type;
  using F = std::false_type;
  if (has_nulls) {
    if (all_active) {
      fn(T{}, T{});
    } else {
      fn(T{}, F{});
    }
  } else {
    if (all_active) {
      fn(F{}, T{});
    } else {
      fn(F{}, F{});
    }
  }
}

/// Generic binary kernel: out[row] = Op(a[row], b[row]) over active rows.
/// Op::Apply returns false to signal a NULL result (e.g. division by zero).
/// Ops with plan-time constants (CheckedDecimalOp) pass an instance.
/// Inactive rows are never touched (§4.3).
template <typename T, typename R, typename Op, bool kHasNulls,
          bool kAllRowsActive>
void BinaryKernel(const int32_t* PHOTON_RESTRICT pos_list, int num_rows,
                  const T* PHOTON_RESTRICT a,
                  const uint8_t* PHOTON_RESTRICT a_nulls,
                  const T* PHOTON_RESTRICT b,
                  const uint8_t* PHOTON_RESTRICT b_nulls,
                  R* PHOTON_RESTRICT out,
                  uint8_t* PHOTON_RESTRICT out_nulls, const Op& op = Op{}) {
  for (int i = 0; i < num_rows; i++) {
    // Branch compiles away: condition is a compile-time constant.
    int row = kAllRowsActive ? i : pos_list[i];
    if constexpr (kHasNulls) {
      uint8_t is_null = a_nulls[row] | b_nulls[row];
      if (is_null) {
        out_nulls[row] = 1;
        continue;
      }
    }
    if (!op.Apply(a[row], b[row], &out[row])) out_nulls[row] = 1;
  }
}

/// Generic unary kernel; same conventions as BinaryKernel.
template <typename T, typename R, typename Op, bool kHasNulls,
          bool kAllRowsActive>
void UnaryKernel(const int32_t* PHOTON_RESTRICT pos_list, int num_rows,
                 const T* PHOTON_RESTRICT in,
                 const uint8_t* PHOTON_RESTRICT in_nulls,
                 R* PHOTON_RESTRICT out,
                 uint8_t* PHOTON_RESTRICT out_nulls) {
  for (int i = 0; i < num_rows; i++) {
    int row = kAllRowsActive ? i : pos_list[i];
    if constexpr (kHasNulls) {
      if (in_nulls[row]) {
        out_nulls[row] = 1;
        continue;
      }
    }
    if (!Op::Apply(in[row], &out[row])) out_nulls[row] = 1;
  }
}

/// Copies values and null bytes of `src` to `dst` at the given row indices
/// (both vectors are batch-aligned). Strings are deep-copied into dst.
void CopyValuesAtPositions(const ColumnVector& src, const int32_t* rows,
                           int n, ColumnVector* dst);

/// Saves a batch's active-set (position list + counters) and restores it on
/// destruction. Used by CASE WHEN and conditional evaluation, which
/// temporarily narrow the active set per branch (§4.3).
class ScopedActiveSet {
 public:
  explicit ScopedActiveSet(ColumnBatch* batch)
      : batch_(batch),
        saved_num_active_(batch->num_active()),
        saved_all_active_(batch->all_active()) {
    if (!saved_all_active_) {
      saved_pos_.assign(batch->pos_list(),
                        batch->pos_list() + saved_num_active_);
    }
  }
  ~ScopedActiveSet() {
    if (saved_all_active_) {
      batch_->SetAllActive();
    } else {
      std::memcpy(batch_->mutable_pos_list(), saved_pos_.data(),
                  saved_pos_.size() * sizeof(int32_t));
      batch_->SetActiveRows(saved_num_active_);
    }
  }
  ScopedActiveSet(const ScopedActiveSet&) = delete;
  ScopedActiveSet& operator=(const ScopedActiveSet&) = delete;

  /// Installs an explicit active set for the scope's duration.
  void Install(const int32_t* rows, int n) {
    std::memcpy(batch_->mutable_pos_list(), rows, n * sizeof(int32_t));
    batch_->SetActiveRows(n);
  }

 private:
  ColumnBatch* batch_;
  int saved_num_active_;
  bool saved_all_active_;
  std::vector<int32_t> saved_pos_;
};

}  // namespace photon

#endif  // PHOTON_EXPR_KERNELS_H_
